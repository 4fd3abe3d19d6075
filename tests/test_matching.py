"""Matching engine: decisions, certificates, lifts, cycle splitting,
the involution gadget, and the cross-checking report."""

import random
from pathlib import Path

import pytest

import corpus
from invmatch import bands, core, matching, transformations
from invmatch.errors import (
    BudgetExhausted,
    NoInverseInTargetCell,
    NotAPermutation,
    ParameterOutOfRange,
)
from invmatch.transformations import enumerate_family


def counterexample():
    return bands.to_semigroup(bands.no_matching_band())


class TestInverseGraph:
    def test_counterexample_degrees(self):
        sg = counterexample()
        g = matching.build_inverse_graph(sg)
        a = sg.labels.index("(2,2)")
        assert g.degree(a) == 1
        assert a not in g.inverses[a]
        assert sg.labels_of(g.inverses[a]) == ["(1,1)"]

    def test_semilattice_graph_is_edgeless(self):
        s = corpus.chain_semilattice(4)
        g = matching.build_inverse_graph(s)
        assert g.inverses == tuple((a,) for a in range(4))

    def test_t3_identity_has_degree_one(self):
        data = enumerate_family("Tn", 3)
        g = matching.build_inverse_graph(data.semigroup)
        assert g.n == 27
        ident = data.maps.index((0, 1, 2))
        # oracle: exhaustive V(a) scan
        assert len(corpus.inverses_of(data.semigroup, ident)) == 1
        assert g.degree(ident) == 1

    def test_degree_equals_inverse_count(self):
        for seed in range(25):
            s = corpus.corpus_semigroup(seed)
            g = matching.build_inverse_graph(s)
            for a in range(s.order):
                assert g.degree(a) == len(corpus.inverses_of(s, a))


class TestFindPermutationMatching:
    def test_counterexample_has_none(self):
        assert matching.find_permutation_matching(counterexample()) is None

    def test_full_idempotent_band(self):
        band = bands.band_from_rows([[1, 1], [1, 1]])
        sg = bands.to_semigroup(band)
        p = matching.find_permutation_matching(sg)
        assert p is not None
        assert matching.verify_permutation_matching(sg, p)
        # the identity is itself an acceptable matching here
        assert matching.verify_permutation_matching(sg, tuple(range(sg.order)))

    def test_t3_has_matching(self):
        data = enumerate_family("Tn", 3)
        p = matching.find_permutation_matching(data.semigroup)
        assert p is not None
        assert matching.verify_permutation_matching(data.semigroup, p)


class TestHallViolator:
    def test_counterexample_certificate(self):
        sg = counterexample()
        viol = matching.hall_violator(sg)
        assert sorted(sg.labels_of(viol.elements)) == ["(2,2)", "(2,3)"]
        assert sg.labels_of(viol.image) == ["(1,1)"]

    def test_unions_of_groups_have_no_violator(self):
        for s in [
            corpus.cyclic_group(6),
            corpus.rectangular_band(2, 3),
            corpus.completely_simple(
                corpus.cyclic_group(2), 2, 2, [[0, 0], [0, 1]]
            ),
        ]:
            assert matching.hall_violator(s) is None
            assert matching.find_permutation_matching(s) is not None

    def test_certificate_versus_small_subset_scan(self):
        # when no violator is reported, no subset of size <= 2 violates
        # Hall's condition; when one is reported it checks out exactly
        for seed in range(80):
            s = corpus.corpus_semigroup(seed)
            vsets = [corpus.inverses_of(s, a) for a in range(s.order)]
            viol = matching.hall_violator(s)
            if viol is None:
                for a in range(s.order):
                    assert len(vsets[a]) >= 1
                    for b in range(a + 1, s.order):
                        assert len(set(vsets[a]) | set(vsets[b])) >= 2
            else:
                union = sorted({v for a in viol.elements for v in vsets[a]})
                assert union == sorted(viol.image)
                assert len(viol.elements) > len(viol.image)

    def test_duality_with_matching(self):
        for seed in range(80):
            s = corpus.corpus_semigroup(seed)
            present = matching.find_permutation_matching(s) is not None
            assert present == (matching.hall_violator(s) is None)


class TestVerify:
    def test_identity_on_x_cubed_band(self):
        s = corpus.rectangular_band(3, 2)
        assert matching.verify_permutation_matching(s, tuple(range(s.order)))

    def test_any_bijection_on_rectangular_band(self):
        s = corpus.rectangular_band(2, 3)
        rng = random.Random(5)
        perm = list(range(s.order))
        for _ in range(10):
            rng.shuffle(perm)
            assert matching.verify_permutation_matching(s, tuple(perm))

    def test_swapping_non_inverses_fails(self):
        s = corpus.chain_semilattice(4)
        p = [0, 1, 2, 3]
        p[0], p[3] = p[3], p[0]
        assert not matching.verify_permutation_matching(s, tuple(p))

    def test_rejects_non_permutation(self):
        s = corpus.chain_semilattice(3)
        with pytest.raises(NotAPermutation):
            matching.verify_permutation_matching(s, (0, 0, 1))

    def test_identity_verifies_iff_every_cube_fixes(self):
        for seed in range(40):
            s = corpus.corpus_semigroup(seed)
            t = s.table
            cube_law = all(t[t[x][x]][x] == x for x in range(s.order))
            ident = tuple(range(s.order))
            assert matching.verify_permutation_matching(s, ident) == cube_law

    def test_inverse_semigroups_have_the_unique_inverse_matching(self):
        for seed in range(60):
            s = corpus.corpus_semigroup(seed)
            rep = core.structure_report(s)
            if not rep.inverse:
                continue
            expected = tuple(corpus.inverses_of(s, a)[0] for a in range(s.order))
            assert matching.find_permutation_matching(s) == expected
            assert matching.find_involution_matching(s) == expected


class TestHPreserving:
    def test_identity_on_band(self):
        s = corpus.rectangular_band(2, 2)
        assert matching.is_h_preserving(s, tuple(range(s.order)))

    def test_group_inverse_matching_on_union_of_groups(self):
        s = corpus.completely_simple(
            corpus.cyclic_group(2), 2, 2, [[0, 0], [0, 0]]
        )
        t = s.table
        p = []
        for a in range(s.order):
            candidates = [
                b
                for b in corpus.inverses_of(s, a)
                if t[a][b] == t[b][a]
            ]
            # group inverse: commuting inverse inside the same subgroup
            chosen = [b for b in candidates if t[t[a][b]][a] == a]
            p.append(chosen[0])
        assert matching.verify_permutation_matching(s, tuple(p))
        assert matching.is_h_preserving(s, tuple(p))

    def test_swap_within_h_cell_stays_preserving(self):
        s = corpus.completely_simple(
            corpus.cyclic_group(2), 2, 2, [[0, 0], [0, 0]]
        )
        egg = core.green_relations(s)
        rep = matching.equivalence_report(s)
        p = list(rep.h_preserving)
        cell = egg.d_classes[0].grid[0][0]
        a1, a2 = cell[0], cell[1]
        p[a1], p[a2] = p[a2], p[a1]
        assert matching.is_h_preserving(s, tuple(p))


def pairs_inverse_cells(pattern, p):
    """Whether p fixes the zero, permutes the cells and pairs cell (i, j)
    with (k, l) only where pattern[k][j] and pattern[i][l]."""
    n = len(pattern[0])
    return p[0] == 0 and sorted(p) == list(range(len(p))) and all(
        pattern[k][j] and pattern[i][l]
        for u, v in enumerate(p[1:])
        for (i, j), (k, l) in [(divmod(u, n), divmod(v - 1, n))])


class TestBandMatching:
    """The matching read off the pattern's row masks against Hopcroft-Karp
    on the band's cell graph: the same verdict, and a valid matching."""

    def matched(self, pattern):
        p = matching.band_matching(pattern)
        assert (p is None) == (matching.pattern_matching(pattern) is None)
        assert p is None or pairs_inverse_cells(pattern, p)
        return p is not None

    def test_every_small_regular_pattern(self):
        assert sum(map(self.matched, (
            band.pattern for band in corpus.small_regular_patterns()))) == 3895

    def test_seeded_random_patterns(self):
        rng = random.Random(2026)
        found = 0
        for _ in range(2000):
            m, n = rng.randint(2, 9), rng.randint(2, 11)
            band = bands.random_band(m, n, rng.uniform(0.25, 0.75),
                                     rng.randrange(1 << 30))
            found += self.matched(band.pattern)
        assert found == 1426

    def test_verdict_survives_permuting_and_transposing(self):
        """The greedy pass's order depends on the labels, the verdict must
        not: it is the same on the pattern with its rows and columns
        permuted and on its transpose (the scaled Hall condition is
        symmetric), irregular patterns included."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def cases(draw):
            m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
            rows = draw(st.lists(st.lists(st.sampled_from([1, 1, 1, 0]),
                                          min_size=n, max_size=n),
                                 min_size=m, max_size=m))
            return (rows, draw(st.permutations(range(m))),
                    draw(st.permutations(range(n))))

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(cases())
        def check(case):
            rows, sigma, tau = case
            shuffled = [[rows[k][l] for l in tau] for k in sigma]
            transposed = [list(col) for col in zip(*rows)]
            assert self.matched(rows) == self.matched(shuffled) == (
                self.matched(transposed))

        check()

    @pytest.mark.parametrize("rows", [
        [[0, 0], [1, 1]], [[1, 0], [1, 0]], [[0]],
        bands.no_matching_band().pattern])
    def test_no_matching(self, rows):
        assert not self.matched(rows)

    def test_every_d_class_of_o1_to_o9(self):
        for n in range(1, 10):
            for pattern, cells in transformations.on_d_classes(n):
                p = matching.band_matching(pattern)
                assert p is not None
                assert transformations.class_witness_holds(cells, p)

    def test_every_d_class_of_o1_to_o7_is_matched_as_an_involution(self):
        """The greedy pass pairs cells both ways, so its matching is an
        involution; on these classes it leaves 12 cells free in all, and
        the phases that match them keep it one.  A greedy that pairs one
        way only leaves 40 free and an involution on 16 of the 28."""
        for n in range(1, 8):
            for pattern, _ in transformations.on_d_classes(n):
                p = matching.band_matching(pattern)
                assert all(p[b] == a for a, b in enumerate(p))


def quotient_matchings(s):
    """``pattern_matching`` of every D-class's H-quotient band of s, in
    the order of ``s.egg_box``."""
    return [matching.pattern_matching(box.group_h)
            for box in s.egg_box.d_classes]


class TestLift:
    def test_group_lifts_to_group_inverse(self):
        g = corpus.cyclic_group(4)
        q = (0, 1)  # identity on the 1x1 quotient band
        lifted = matching.lift_h_matching(g, [q])
        assert lifted == (0, 3, 2, 1)  # additive inverses mod 4

    def test_transpose_on_trivial_groups_lifts_to_itself(self):
        s = corpus.rectangular_band(2, 2)
        # one D-class; quotient cells biject with elements
        q = [0] * 5
        for i in range(2):
            for j in range(2):
                q[1 + i * 2 + j] = 1 + j * 2 + i
        lifted = matching.lift_h_matching(s, [tuple(q)])
        expected = tuple(
            (x % 2) * 2 + x // 2 for x in range(4)
        )  # transpose on (i, j) <-> index i*2+j
        assert lifted == expected

    def test_brandt_lift_recovers_unique_inverse_matching(self):
        s = corpus.brandt_b2()
        lifted = matching.lift_h_matching(s, quotient_matchings(s))
        for x in range(s.order):
            assert corpus.inverses_of(s, x) == [lifted[x]]

    def test_bad_quotient_matching_raises(self):
        s = corpus.brandt_b2()
        quotients = quotient_matchings(s)
        k = next(k for k, box in enumerate(s.egg_box.d_classes)
                 if len(box.elements) > 1)
        # send cell (0,0) to the non-group cell (0,1): no inverse lives there
        quotients[k] = (0, 2, 1, 4, 3)
        with pytest.raises(NoInverseInTargetCell):
            matching.lift_h_matching(s, quotients)

    def test_lift_is_h_preserving(self):
        for seed in range(30):
            s = corpus.corpus_semigroup(seed)
            rep = matching.equivalence_report(s)
            if rep.h_preserving is not None:
                assert matching.is_h_preserving(s, rep.h_preserving)

    def test_lift_agrees_with_the_per_factor_lift(self):
        """The lift in S's indices equals the lift made in each principal
        factor's indices and mapped back, for both the quotients' permutation
        matchings and their involution matchings."""
        golden = Path(__file__).parent / "golden"
        inputs = [corpus.corpus_semigroup(seed) for seed in range(300)]
        inputs += corpus.transformation_semigroups(7, 200)
        inputs += [enumerate_family("Tn", 3).semigroup,
                   enumerate_family("Tn", 4).semigroup,
                   enumerate_family("On", 5).semigroup,
                   core.parse_cayley((golden / "rees.cayley").read_text())]
        for n in range(1, 5):
            inputs += corpus.small_semigroups(n)
        lifted = 0
        for k, s in enumerate(inputs):
            if not core.regularity_check(s)[0]:
                continue
            involutions = [
                matching.involution_on_graph(core.pattern_inverse_graph(
                    box.group_h)) for box in s.egg_box.d_classes]
            for quotients in (quotient_matchings(s), involutions):
                if None in quotients:
                    continue
                lifted += 1
                assert (matching.lift_h_matching(s, quotients)
                        == corpus.lift_by_factors(s, quotients)), k
        # 450 of the 463 regular inputs have every quotient matched
        assert lifted == 2 * 450


class TestAssemble:
    """The lift of every D-class at once into one matching of S."""

    def test_missing_part_raises(self):
        data = enumerate_family("Tn", 3)
        with pytest.raises(ParameterOutOfRange):
            matching.lift_h_matching(data.semigroup, [])

    def test_involution_parts_give_involution(self):
        sg = bands.to_semigroup(bands.band_from_rows([[1, 1], [1, 1]]))
        quotients = [
            matching.involution_backtracking(
                bands.to_semigroup(corpus.quotient_band(box)))
            for box in sg.egg_box.d_classes
        ]
        assert all(q is not None for q in quotients)
        p = matching.lift_h_matching(sg, quotients)
        assert matching.verify_involution_matching(sg, p)


def three_cycle_band():
    """Off-diagonal 3x3 pattern with p cycling the three diagonal cells:
    they are pairwise mutual inverses but none is self-eligible, so cycle
    splitting leaves them open though an involution exists."""
    band = bands.band_from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    p = list(range(band.order))
    d0, d1, d2 = (band.cell_index(i, i) for i in range(3))
    p[d0], p[d1], p[d2] = d1, d2, d0
    return band, (d0, d1, d2), tuple(p)


class TestInvolutionFromCycles:
    def test_two_cycles_returned_unchanged(self):
        s = corpus.brandt_b2()
        p = matching.find_permutation_matching(s)
        assert matching.verify_involution_matching(s, p)
        assert tuple(matching.split_cycles(s.inverse_graph, p)) == p

    def test_odd_cycle_of_idempotents_splits(self):
        s = corpus.rectangular_band(3, 3)
        # cycle three diagonal idempotents, fix the rest; every bijection
        # of a rectangular band is a matching
        p = list(range(s.order))
        d0, d1, d2 = 0 * 3 + 0, 1 * 3 + 1, 2 * 3 + 2
        p[d0], p[d1], p[d2] = d1, d2, d0
        assert matching.verify_permutation_matching(s, tuple(p))
        out = matching.split_cycles(s.inverse_graph, tuple(p))
        assert -1 not in out
        assert matching.verify_involution_matching(s, out)
        assert out[d0] in (d0, d1, d2)

    def test_idempotent_free_odd_cycle_blocks_this_p_only(self):
        band, _, p = three_cycle_band()
        sg = bands.to_semigroup(band)
        assert matching.verify_permutation_matching(sg, p)
        assert -1 in matching.split_cycles(sg.inverse_graph, p)
        # ... but the semigroup still has an involution matching
        inv = matching.find_involution_matching(sg)
        assert inv is not None
        assert matching.verify_involution_matching(sg, inv)

    def test_success_implies_gadget_present(self):
        for seed in range(50):
            s = corpus.corpus_semigroup(seed)
            p = matching.find_permutation_matching(s)
            if p is None:
                continue
            split = matching.split_cycles(s.inverse_graph, p)
            if -1 not in split:
                assert matching.verify_involution_matching(s, split)
                assert matching.find_involution_matching(s) is not None


class TestFindInvolutionMatching:
    def test_counterexample_absent(self):
        assert matching.find_involution_matching(counterexample()) is None

    def test_semilattice_identity(self):
        s = corpus.chain_semilattice(5)
        assert matching.find_involution_matching(s) == tuple(range(5))

    def test_gadget_agrees_with_backtracking_oracle(self):
        for seed in range(120):
            s = corpus.corpus_semigroup(seed, max_order=10)
            gadget = matching.find_involution_matching(s)
            oracle = matching.involution_backtracking(s)
            assert (gadget is None) == (oracle is None), f"seed {seed}"
            if gadget is not None:
                assert matching.verify_involution_matching(s, gadget)
                assert matching.verify_involution_matching(s, oracle)

    def test_involution_implies_matching(self):
        for seed in range(60):
            s = corpus.corpus_semigroup(seed)
            if matching.find_involution_matching(s) is not None:
                assert matching.find_permutation_matching(s) is not None


class TestMatchingBacktracking:
    def test_same_tuples_as_the_recursive_search(self):
        inputs = [corpus.corpus_semigroup(seed, max_order=10) for seed in range(300)]
        inputs += corpus.all_regular_patterns(3, 3)
        for s in inputs:
            assert matching.matching_backtracking(s) == corpus.matching_backtracking(s)

    def test_iterative_beyond_the_recursion_limit(self):
        band = bands.band_from_rows([[1] * 1200])
        p = matching.matching_backtracking(band)
        assert bands.verify_band_matching(band, p)

    def test_budget_stops_o5(self):
        s = enumerate_family("On", 5).semigroup
        with pytest.raises(BudgetExhausted):
            matching.matching_backtracking(s)


class TestInvolutionBacktracking:
    def test_budget_stops_a_search_that_never_ends(self, monkeypatch):
        monkeypatch.setattr(matching, "BACKTRACKING_BUDGET", 10_000)
        s = enumerate_family("Tn", 4).semigroup
        with pytest.raises(BudgetExhausted):
            matching.involution_backtracking(s)

    def test_iterative_beyond_the_recursion_limit(self):
        # every cell of an all-ones 1 x n band is self-eligible
        band = bands.band_from_rows([[1] * 1500])
        assert matching.involution_backtracking(band) == tuple(range(1501))


class TestSeededInvolution:
    def test_agrees_with_unseeded_on_corpus(self):
        for seed in range(150):
            s = corpus.corpus_semigroup(seed)
            g = matching.build_inverse_graph(s)
            p = matching.matching_on_graph(g)
            if p is None:
                continue
            seeded = matching.involution_on_graph(g, matching=p)
            unseeded = matching.involution_on_graph(g)
            assert (seeded is None) == (unseeded is None), f"seed {seed}"
            if seeded is not None:
                assert matching.verify_involution_matching(s, seeded)

    def test_agrees_with_unseeded_on_bands_up_to_3x4(self):
        checked = 0
        for m in range(1, 4):
            for n in range(1, 5):
                for band in corpus.regular_patterns(m, n):
                    g = matching.build_inverse_graph(band)
                    p = matching.matching_on_graph(g)
                    if p is None:
                        continue
                    seeded = matching.involution_on_graph(g, matching=p)
                    unseeded = matching.involution_on_graph(g)
                    assert (seeded is None) == (unseeded is None), band
                    if seeded is not None:
                        assert bands.verify_band_involution(band, seeded)
                    checked += 1
        assert checked > 1000

    def test_split_without_open_cycles_builds_no_gadget(self, monkeypatch):
        s = corpus.rectangular_band(3, 3)
        p = list(range(s.order))
        p[0], p[4], p[8] = 4, 8, 0
        monkeypatch.setattr(matching.graphs, "max_matching_general", None)
        out = matching.involution_on_graph(s.inverse_graph, matching=tuple(p))
        assert out == tuple(matching.split_cycles(s.inverse_graph, tuple(p)))
        assert matching.verify_involution_matching(s, out)

    def test_search_augments_an_unsplittable_odd_cycle(self, monkeypatch):
        band, diagonal, p = three_cycle_band()
        sg = bands.to_semigroup(band)
        assert matching.verify_permutation_matching(sg, p)
        assert -1 in matching.split_cycles(sg.inverse_graph, p)
        calls = []
        real = matching.graphs.max_matching_general

        def recording(size, adj, mate=None):
            out = real(size, adj, mate)
            calls.append((mate, out))
            return out

        monkeypatch.setattr(matching.graphs, "max_matching_general", recording)
        inv = matching.involution_on_graph(sg.inverse_graph, matching=p)
        [(seed, mate)] = calls
        n = sg.order
        exposed = sorted(v for v in range(2 * n) if seed[v] == -1)
        assert exposed == sorted(diagonal + tuple(d + n for d in diagonal))
        assert -1 not in mate
        assert inv is not None
        assert matching.verify_involution_matching(sg, inv)


class TestEquivalenceReport:
    def test_counterexample_all_negative(self):
        rep = matching.equivalence_report(counterexample())
        assert not rep.has_matching
        assert not rep.hall_ok
        assert rep.violator is not None
        assert not all(rep.factor_verdicts)
        assert not all(rep.quotient_verdicts)
        assert rep.h_preserving is None

    def test_t3_all_positive(self):
        data = enumerate_family("Tn", 3)
        rep = matching.equivalence_report(data.semigroup)
        assert rep.has_matching
        assert rep.hall_ok
        assert all(rep.factor_verdicts)
        assert all(rep.quotient_verdicts)
        assert matching.is_h_preserving(data.semigroup, rep.h_preserving)

    def test_corpus_raises_no_violations(self):
        for seed in range(150):
            matching.equivalence_report(corpus.corpus_semigroup(seed))

    def test_quotient_verdicts_match_band_route(self):
        for seed in range(40):
            s = corpus.corpus_semigroup(seed)
            rep = matching.equivalence_report(s)
            for box, verdict in zip(s.egg_box.d_classes,
                                    rep.quotient_verdicts, strict=True):
                band = corpus.quotient_band(box)
                via_band = (
                    matching.find_permutation_matching(bands.to_semigroup(band))
                    is not None
                )
                assert verdict == via_band


class TestRandomTransformationSemigroups:
    """200 distinct seeded subsemigroups of PT_3 to PT_5: 74 regular, 10
    of them without a matching, and 64 with a nontrivial H-class."""

    @staticmethod
    def ascending_by_least_member(classes):
        return (all(list(c) == sorted(c) for c in classes)
                and [c[0] for c in classes] == sorted(c[0] for c in classes))

    def test_verdicts_agree_with_the_oracles(self, tmp_path):
        nx = pytest.importorskip("networkx")
        path = tmp_path / "s.cayley"
        rng = random.Random(7)
        regular = unmatched_searched = 0
        for k, s in enumerate(corpus.transformation_semigroups(7, 200)):
            core.validate(s)
            code, report = corpus.analyze_verdicts(path, s)
            # one seeded relabelling leaves every verdict in place
            perm = list(range(s.order))
            rng.shuffle(perm)
            image = corpus.relabel(s, perm)
            assert corpus.analyze_verdicts(path, image) == (code, report), k
            if not core.regularity_check(s)[0]:
                assert code == 4, k
                continue
            regular += 1
            assert code == 0, k
            rep = matching.equivalence_report(s)
            g = nx.Graph()
            left = [("l", a) for a in range(s.order)]
            g.add_nodes_from(left)
            g.add_edges_from((("l", a), ("r", b)) for a in range(s.order)
                             for b in corpus.inverses_of(s, a))
            size = len(nx.bipartite.hopcroft_karp_matching(g, left)) // 2
            assert rep.has_matching == (size == s.order), k
            # the reference searches end within their budget at these orders
            if s.order <= 32:
                assert (matching.matching_backtracking(s) is not None
                        ) == rep.has_matching, k
                unmatched_searched += not rep.has_matching
            if s.order <= 40:
                assert ((matching.find_involution_matching(s) is None)
                        == (matching.involution_backtracking(s) is None)), k
            egg = s.egg_box
            assert self.ascending_by_least_member(
                [box.elements for box in egg.d_classes]), k
            for box in egg.d_classes:
                assert self.ascending_by_least_member(box.r_classes), k
                assert self.ascending_by_least_member(box.l_classes), k
        # both kinds are drawn, and the matching search meets both answers
        assert 40 < regular < 160
        assert unmatched_searched > 0


class TestSmallSemigroups:
    """Every semigroup of order 1 to 4, up to isomorphism."""

    def test_counts_and_verdicts(self):
        regular = []
        for n, count in zip(range(1, 5), (1, 5, 24, 188)):
            found = corpus.small_semigroups(n)
            assert len(found) == count
            regular += [s for s in found if core.regularity_check(s)[0]]
        assert len(regular) == 85
        for k, s in enumerate(regular):
            rep = matching.equivalence_report(s)
            assert rep.has_matching == (
                matching.matching_backtracking(s) is not None), k
            assert ((matching.find_involution_matching(s) is None)
                    == (matching.involution_backtracking(s) is None)), k


class TestDeterminism:
    def test_repeated_runs_identical(self):
        for seed in (3, 17, 40):
            s = corpus.corpus_semigroup(seed)
            assert matching.find_permutation_matching(
                s
            ) == matching.find_permutation_matching(s)
            assert matching.find_involution_matching(
                s
            ) == matching.find_involution_matching(s)
            first = matching.hall_violator(s)
            second = matching.hall_violator(s)
            assert (first is None) == (second is None)
            if first is not None:
                assert first.elements == second.elements
                assert first.image == second.image


class TestSerialization:
    def test_round_trip(self):
        p = (0, 2, 1, 3)
        text = matching.format_matching(p)
        assert matching.parse_matching(text, 4) == p
