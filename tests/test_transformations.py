"""Transformation families, signature classes, permutation matchings
from perfect matchings, and strong inverses."""

import itertools
from math import comb
from operator import itemgetter

import pytest

import corpus
from invmatch import cli, core, matching, transformations as tr
from invmatch.errors import NotPerfect, NotTn, TooLarge


# per family, the largest n with at most about 1,000 maps (O_7 has 1,716)
TABLE_TOP = {"Tn": 4, "PTn": 4, "On": 7, "OPn": 5, "Pn": 5}


class TestEnumeration:
    def test_family_sizes(self):
        assert len(tr.family_maps("Tn", 3)) == 27
        assert len(tr.family_maps("On", 3)) == 10
        assert len(tr.family_maps("PTn", 2)) == 9
        for n in range(1, 5):
            assert len(tr.family_maps("Tn", n)) == n**n
            assert len(tr.family_maps("PTn", n)) == (n + 1) ** n

    def test_on_counts_against_brute_filter(self):
        for n in range(1, 6):
            brute = [
                f
                for f in itertools.product(range(n), repeat=n)
                if all(f[i] <= f[i + 1] for i in range(n - 1))
            ]
            assert tr.family_maps("On", n) == sorted(brute)

    def test_on_counts_against_binomial(self):
        for n in range(1, 9):
            assert len(tr.family_maps("On", n)) == comb(2 * n - 1, n)

    def test_opn_matches_cyclic_descent_predicate(self):
        for n in range(1, 5):
            def descents(f):
                return sum(
                    1 for i in range(n) if f[i] > f[(i + 1) % n]
                )

            brute = sorted(
                f
                for f in itertools.product(range(n), repeat=n)
                if descents(f) <= 1
            )
            assert tr.family_maps("OPn", n) == brute

    def test_pn_contains_opn_and_reversals(self):
        for n in range(1, 5):
            opn = set(tr.family_maps("OPn", n))
            pn = set(tr.family_maps("Pn", n))
            assert opn <= pn
            assert {tuple(reversed(f)) for f in opn} <= pn

    @pytest.mark.parametrize("family", tr.FAMILIES)
    def test_table_equals_the_composed_table(self, family):
        for n in range(1, TABLE_TOP[family] + 1):
            data = tr.enumerate_family(family, n)
            assert data.semigroup.table == composed_table(data), n

    @pytest.mark.parametrize("family", tr.FAMILIES)
    def test_gen_prints_the_composed_table(self, family, capsys):
        for n in range(1, TABLE_TOP[family] + 1):
            data = tr.enumerate_family(family, n)
            table = composed_table(data)
            lines = [str(len(table)),
                     *(" ".join(str(v) for v in row) for row in table),
                     "# labels: " + " ".join(data.semigroup.labels)]
            assert cli.main(["gen", family, str(n)]) == 0
            assert capsys.readouterr().out == "\n".join(lines) + "\n", n

    @pytest.mark.parametrize("family", tr.FAMILIES)
    def test_composed_table_composes(self, family):
        for n in range(1, 5):
            data = tr.enumerate_family(family, n)
            pos = {f: i for i, f in enumerate(data.maps)}
            assert composed_table(data) == tuple(
                tuple(pos[corpus.compose(f, g, n)] for g in data.maps)
                for f in data.maps
            )

    def test_tables_validate(self):
        for family in tr.FAMILIES:
            data = tr.enumerate_family(family, 2)
            core.validate(data.semigroup)
        core.validate(tr.enumerate_family("Tn", 3).semigroup)
        core.validate(tr.enumerate_family("On", 4).semigroup)

    def test_partial_composition_and_empty_map(self):
        data = tr.enumerate_family("PTn", 2)
        empty = data.maps.index((2, 2))
        for x in range(data.semigroup.order):
            assert data.semigroup.table[empty][x] == empty
            assert data.semigroup.table[x][empty] == empty

    def test_cap_guard(self):
        with pytest.raises(TooLarge):
            tr.enumerate_family("Tn", 6)

    @pytest.mark.parametrize("family", ["OPn", "Pn"])
    def test_closed_form_sizes_match_the_enumerator(self, family):
        for n in range(0, 8):
            assert tr.family_size(family, n) == len(tr.family_maps(family, n))

    # PTn(5) has 7,776 maps: past the default cap, which bounds the table
    @pytest.mark.parametrize("family, n", [("OPn", 9), ("Pn", 12), ("PTn", 5)])
    def test_cap_refuses_before_enumerating(self, family, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("family_maps called")

        monkeypatch.setattr(tr, "family_maps", refuse)
        with pytest.raises(TooLarge):
            tr.enumerate_family(family, n)

    def test_composition_order_matches_kernel_r_classes(self):
        # with maps applied left to right, right ideals are determined by
        # kernels
        data = tr.enumerate_family("Tn", 3)
        egg = core.green_relations(data.semigroup)
        for a in range(27):
            for b in range(27):
                same_r = (
                    egg.d_of[a] == egg.d_of[b] and egg.r_of[a] == egg.r_of[b]
                )
                same_kernel = tr.kernel_of(data.maps[a]) == tr.kernel_of(
                    data.maps[b]
                )
                assert same_r == same_kernel


class TestSignatureClasses:
    def test_t3_rank2_single_class(self):
        data = tr.enumerate_family("Tn", 3)
        classes = tr.signature_class_partition(data, 2)
        assert len(classes) == 1
        assert classes[0].signature == (1, 2)
        assert len(classes[0].elements) == 18

    def test_t3_rank3_single_class(self):
        data = tr.enumerate_family("Tn", 3)
        classes = tr.signature_class_partition(data, 3)
        assert len(classes) == 1
        assert classes[0].signature == (1, 1, 1)
        assert len(classes[0].elements) == 6

    def test_t4_rank2_two_classes(self):
        data = tr.enumerate_family("Tn", 4)
        classes = tr.signature_class_partition(data, 2)
        assert [c.signature for c in classes] == [(1, 3), (2, 2)]

    def test_classes_partition_each_rank(self):
        data = tr.enumerate_family("Tn", 4)
        for rank in range(1, 5):
            classes = tr.signature_class_partition(data, rank)
            members = [x for c in classes for x in c.elements]
            expected = [
                i
                for i, f in enumerate(data.maps)
                if tr.rank_of(f, 4) == rank
            ]
            assert sorted(members) == expected

    def test_signature_constant_on_r_classes(self):
        data = tr.enumerate_family("Tn", 3)
        egg = core.green_relations(data.semigroup)
        for box in egg.d_classes:
            for r_class in box.r_classes:
                sigs = {
                    tr.kernel_signature(data.maps[x], 3) for x in r_class
                }
                assert len(sigs) == 1

    def test_requires_tn(self):
        data = tr.enumerate_family("On", 3)
        with pytest.raises(NotTn):
            tr.signature_class_partition(data, 2)


class TestClassDegrees:
    def test_t3_rank3_degree_one(self):
        data = tr.enumerate_family("Tn", 3)
        (cls,) = tr.signature_class_partition(data, 3)
        assert tr.signature_class_degree(data, cls) == 1

    def test_t3_rank1_degree_three(self):
        data = tr.enumerate_family("Tn", 3)
        (cls,) = tr.signature_class_partition(data, 1)
        assert tr.signature_class_degree(data, cls) == 3

    def test_t4_all_classes_regular(self):
        data = tr.enumerate_family("Tn", 4)
        degrees = {}
        for rank in range(1, 5):
            for cls in tr.signature_class_partition(data, rank):
                degree = tr.signature_class_degree(data, cls)
                assert degree is not None and degree >= 1
                degrees[(rank, cls.signature)] = degree
        assert len(degrees) == 5  # ranks 1, 2a, 2b, 3, 4

    def test_degree_matches_inverse_scan(self):
        data = tr.enumerate_family("Tn", 3)
        for rank in range(1, 4):
            for cls in tr.signature_class_partition(data, rank):
                degree = tr.signature_class_degree(data, cls)
                members = set(cls.elements)
                for a in cls.elements:
                    within = [
                        b
                        for b in corpus.inverses_of(data.semigroup, a)
                        if b in members
                    ]
                    assert len(within) == degree


class TestCycleChase:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_signature_class_maps_onto_itself(self, n):
        data, p = tr.tn_matching_via_classes(n)
        for rank in range(1, n + 1):
            for cls in tr.signature_class_partition(data, rank):
                assert sorted(p[a] for a in cls.elements) == list(cls.elements)

    @pytest.mark.parametrize("found", [lambda g: tuple(range(g.n)),
                                       lambda g: None],
                             ids=["identity", "none"])
    def test_a_class_matching_that_fails_is_refused(self, monkeypatch, found):
        # the identity fills p with no class left out, but T_3 has maps
        # that are not their own inverse; None says a class has no match
        monkeypatch.setattr(tr, "matching_on_graph", found)
        with pytest.raises(NotPerfect):
            tr.tn_matching_via_classes(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_assembled_tn_matching_verifies(self, n):
        data, p = tr.tn_matching_via_classes(n)
        assert matching.verify_permutation_matching(data.semigroup, p)


class TestStrongInverses:
    """The strong-inverse subgraph (corpus.strong_inverse_graph)."""

    def test_idempotents_stay_eligible(self):
        s = corpus.chain_semilattice(4)
        g = corpus.strong_inverse_graph(s)
        assert {a for a in range(g.n) if a in g.inverses[a]} == set(range(4))

    def test_group_inverses_are_strong(self):
        s = corpus.cyclic_group(4)
        g = corpus.strong_inverse_graph(s)
        assert g.inverses[1] == (3,)
        assert g.inverses[3] == (1,)
        p = matching.matching_on_graph(g)
        assert p == (0, 3, 2, 1)

    def test_strong_edges_generate_inverse_subsemigroups(self):
        data = tr.enumerate_family("Tn", 3)
        s = data.semigroup
        g = corpus.strong_inverse_graph(s)
        for a in range(g.n):
            for b in g.inverses[a]:
                members = corpus.generated_closure(s, (a, b))
                assert corpus.is_inverse_subsemigroup(s, members)

    def test_t3_strong_matching_decision_reported(self):
        # exact decision; only n >= 8 is settled in the negative elsewhere,
        # so both outcomes are acceptable but must be internally verified
        data = tr.enumerate_family("Tn", 3)
        g = corpus.strong_inverse_graph(data.semigroup)
        p = matching.matching_on_graph(g)
        if p is not None:
            assert matching.verify_permutation_matching(data.semigroup, p)
            for a in range(27):
                assert p[a] in g.inverses[a]


def pair_scan(maps, n):
    """The inverse graph by testing every same-rank pair of maps: the
    oracle for the kernel-and-image construction."""
    by_rank = {}
    for idx, f in enumerate(maps):
        by_rank.setdefault(tr.rank_of(f, n), []).append(idx)
    return corpus.inverse_graph_from_pairs(len(maps), (
        (ia, ib)
        for members in by_rank.values()
        for pos, ia in enumerate(members)
        for ib in members[pos:]
        if corpus.maps_mutually_inverse(maps[ia], maps[ib], n)
    ))


def composed_table(data):
    """The Cayley table of ``data`` composed one pair at a time: with both
    maps extended by the sentinel n as a fixed point, fg is
    ``itemgetter(*f)(g)``, which is ``corpus.compose`` at C speed (see
    test_composed_table_composes)."""
    ext = [f + (data.n,) for f in data.maps]
    pos = {f: i for i, f in enumerate(ext)}
    return tuple(tuple(pos[fg] for fg in map(itemgetter(*f), ext)) for f in ext)


class TestFamilyInverseGraph:
    @pytest.mark.parametrize("family, n", [
        *(("On", n) for n in range(1, 8)),
        *(("Tn", n) for n in range(1, 5)),
        *(("PTn", n) for n in range(1, 5)),
        *(("OPn", n) for n in range(1, 6)),
        *(("Pn", n) for n in range(1, 6)),
    ])
    def test_equals_the_pair_scan(self, family, n):
        maps = tr.family_maps(family, n)
        assert tr.family_inverse_graph(maps, n) == pair_scan(maps, n)

    def test_equals_the_pair_scan_on_every_signature_class_of_t4(self):
        data = tr.enumerate_family("Tn", 4)
        classes = [cls for rank in range(1, 5)
                   for cls in tr.signature_class_partition(data, rank)]
        assert len(classes) == 5
        for cls in classes:
            maps = [data.maps[g] for g in cls.elements]
            assert tr.family_inverse_graph(maps, 4) == pair_scan(maps, 4)

    def test_equals_the_pair_scan_on_random_subsets(self):
        # PT_3 holds T_3, so a subset may mix total and partial maps; a
        # cell whose inverse is left out must give no edge
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        universe = tr.family_maps("PTn", 3)

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.lists(st.sampled_from(universe), unique=True))
        def check(maps):
            assert tr.family_inverse_graph(maps, 3) == pair_scan(maps, 3)

        check()

    @pytest.mark.parametrize("family, n", [("PTn", 4), ("OPn", 5)])
    def test_equals_the_pair_scan_on_larger_subsets(self, family, n):
        # up to 150 maps in drawn order: k random maps, then for about
        # half of them one of their inverses in the whole family, so a
        # subset holds some inverses and leaves others out
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        universe = tr.family_maps(family, n)
        whole = tr.enumerate_family(family, n).semigroup.inverse_graph
        seen = {"ranks": 0, "partial": False, "missing": False, "edges": False}

        @hypothesis.settings(max_examples=40, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.integers(1, 100), st.randoms(use_true_random=False))
        def check(k, rng):
            chosen = rng.sample(range(len(universe)), k)
            for a in chosen[:k]:
                if whole.inverses[a] and rng.random() < 0.5:
                    b = rng.choice(whole.inverses[a])
                    if b not in chosen:
                        chosen.append(b)
            maps = [universe[i] for i in chosen]
            graph = tr.family_inverse_graph(maps, n)
            assert graph == pair_scan(maps, n)
            assert all(type(vs) is tuple and list(vs) == sorted(set(vs))
                       for vs in graph.inverses)
            seen["ranks"] = max(seen["ranks"],
                                len({tr.rank_of(f, n) for f in maps}))
            seen["partial"] |= any(n in f for f in maps)
            seen["missing"] |= any(not set(whole.inverses[i]) <= set(chosen)
                                   for i in chosen)
            seen["edges"] |= any(len(vs) > 1 for vs in graph.inverses)

        check()
        assert seen["ranks"] >= 3 and seen["missing"] and seen["edges"]
        assert seen["partial"] == (family == "PTn")

    @pytest.mark.parametrize("family, n", [("Tn", 3), ("PTn", 2), ("PTn", 3)])
    def test_pair_test_agrees_with_the_table(self, family, n):
        # anchors the oracle: corpus.maps_mutually_inverse against aba = a,
        # bab = b on the table
        data = tr.enumerate_family(family, n)
        graph = core.inverse_graph_of(data.semigroup)
        for a, f in enumerate(data.maps):
            assert list(graph.inverses[a]) == [
                b for b, g in enumerate(data.maps)
                if corpus.maps_mutually_inverse(f, g, n)
            ]

    def test_matches_table_based_graph(self):
        for family, n in [("Tn", 3), ("On", 3), ("PTn", 2), ("OPn", 3)]:
            data = tr.enumerate_family(family, n)
            fast = tr.family_inverse_graph(data.maps, n)
            slow = matching.build_inverse_graph(data.semigroup)
            assert fast.inverses == slow.inverses

    @pytest.mark.parametrize("family, n", [
        *(("On", n) for n in range(1, 6)),
        ("Tn", 3), ("PTn", 2), ("OPn", 4), ("Pn", 4),
    ])
    def test_equals_the_pair_scan_of_the_table(self, family, n):
        maps = tr.family_maps(family, n)
        table = tr.enumerate_family(family, n).semigroup
        assert tr.family_inverse_graph(maps, n) == core.inverse_graph_of(table)


class TestOnDClasses:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cells_list_the_maps_of_on_once(self, n):
        classes = list(tr.on_d_classes(n))
        assert len(classes) == n
        listed = [f for _, cells in classes for f in cells]
        assert {(type(f), len(f)) for f in listed} == {(bytes, n)}
        assert len(listed) == len(set(listed))
        assert sorted(listed) == [bytes(f) for f in tr.family_maps("On", n)]
        for k, (pattern, cells) in enumerate(classes, 1):
            rows, cols = comb(n - 1, k - 1), comb(n, k)
            assert [len(row) for row in pattern] == [cols] * rows
            assert len(cells) == rows * cols
            assert {tr.rank_of(f, n) for f in cells} == {k}
            # a row is one kernel, a column one image
            for r in range(rows):
                row = cells[r * cols:(r + 1) * cols]
                assert len({tr.kernel_of(f) for f in row}) == 1
            for c in range(cols):
                assert len({frozenset(f) for f in cells[c::cols]}) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pattern_marks_the_idempotent_cells(self, n):
        for pattern, cells in tr.on_d_classes(n):
            entries = [e for row in pattern for e in row]
            assert all(type(e) is bool for e in entries)
            assert entries == [corpus.compose(tuple(f), tuple(f), n) == tuple(f)
                               for f in cells]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pattern_graph_is_the_family_graph_on_each_class(self, n):
        maps = tr.family_maps("On", n)
        pos = {bytes(f): i for i, f in enumerate(maps)}
        whole = tr.family_inverse_graph(maps, n)
        edges = 0
        for pattern, cells in tr.on_d_classes(n):
            graph = core.pattern_inverse_graph(pattern)
            assert graph.n == len(cells) + 1 and graph.inverses[0] == (0,)
            members = {pos[f] for f in cells}
            for f, vs in zip(cells, graph.inverses[1:]):
                assert 0 not in vs
                expected = [b for b in whole.inverses[pos[f]] if b in members]
                assert sorted(pos[cells[v - 1]] for v in vs) == expected
                edges += len(vs)
        # mutual inverses share a D-class: no edge leaves one
        assert edges == sum(map(len, whole.inverses))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mutually_inverse_agrees_with_the_oracle_in_each_class(self, n):
        pad = bytes(256 - n)
        for _, cells in tr.on_d_classes(n):
            for f in cells:
                assert [tr.mutually_inverse(f, g, pad) for g in cells] == [
                    corpus.maps_mutually_inverse(tuple(f), tuple(g), n)
                    for g in cells]

    def test_mutually_inverse_agrees_with_the_oracle_across_classes(self):
        # inside a D-class aba = a gives bab = b; across two it does not,
        # e.g. a = 00000 and b the identity
        maps = tr.family_maps("On", 5)
        pad = bytes(256 - 5)
        for f in maps:
            assert [tr.mutually_inverse(bytes(f), bytes(g), pad)
                    for g in maps] == [
                corpus.maps_mutually_inverse(f, g, 5) for g in maps]


class TestSignatureProperties:
    def test_kernel_signature_shape(self):
        for n in (2, 3, 4):
            for f in tr.family_maps("Tn", n):
                sig = tr.kernel_signature(f, n)
                assert all(k > 0 for k in sig)
                assert sum(sig) == n
                assert len(sig) == tr.rank_of(f, n)
                assert sig == tuple(sorted(sig))


class TestOpenQuestionProbes:
    """Desk-scale findings on the open questions; outcomes are recorded,
    not asserted as theorems."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tn_involution_search_reports(self, n):
        data = tr.enumerate_family("Tn", n)
        inv = matching.find_involution_matching(data.semigroup)
        if inv is not None:
            assert matching.verify_involution_matching(data.semigroup, inv)
        if data.semigroup.order <= 27:
            oracle = matching.involution_backtracking(data.semigroup)
            assert (inv is None) == (oracle is None)

    def test_ptn_matching_present_at_desk_scale(self):
        for n in (2, 3):
            data = tr.enumerate_family("PTn", n)
            p = matching.find_permutation_matching(data.semigroup)
            assert p is not None
            assert matching.verify_permutation_matching(data.semigroup, p)

    @pytest.mark.parametrize(
        "family,n",
        [("OPn", 3), ("OPn", 4), ("Pn", 3), ("Pn", 4), ("On", 4)],
    )
    def test_orientation_families_have_involutions(self, family, n):
        # these classes carry natural involution matchings; the generic
        # gadget must find one
        data = tr.enumerate_family(family, n)
        inv = matching.find_involution_matching(data.semigroup)
        assert inv is not None
        assert matching.verify_involution_matching(data.semigroup, inv)

    def test_t3_strong_matching_is_present(self):
        # settled negatively only from n = 8 upward; at n = 3 the strong
        # subgraph still supports a matching
        data = tr.enumerate_family("Tn", 3)
        p = matching.matching_on_graph(
            corpus.strong_inverse_graph(data.semigroup))
        assert p is not None
        assert matching.verify_permutation_matching(data.semigroup, p)
