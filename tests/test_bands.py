"""0-rectangular bands: patterns, Hall conditions, harem construction,
the induced involution, and the orthodox similarity criterion, checked
through its oracle in corpus.py."""

import itertools
import math
import random

import pytest

import corpus
from invmatch import bands, core, matching
from invmatch.errors import (
    BudgetExhausted,
    NotAPermutation,
    NotDivisible,
    NotRegularPattern,
    ParameterOutOfRange,
    ParseError,
    TooLarge,
)


def full_band(m, n):
    return bands.band_from_rows([[1] * n for _ in range(m)])


def breaks_the_bound(band, rows):
    """The row set meets too few columns: n|T| > m|N(T)|."""
    cols = {j for i in rows for j in range(band.n) if band.pattern[i][j]}
    return band.n * len(rows) > band.m * len(cols)


def agrees_with_the_oracles(band):
    """The scaled Hall verdict, after checking that the clone matching,
    the subset scan and the band's inverse graph agree on it."""
    ok, cert = bands.check_harem_condition(band)
    scan_ok, scan_cert = bands.check_harem_condition_exhaustive(band)
    assert ok == scan_ok == (matching.find_permutation_matching(band)
                             is not None), band.pattern
    for found in filter(None, (cert, scan_cert)):
        assert found[0] == "rows" and breaks_the_bound(band, found[1])
    return ok


class TestCounterexampleBand:
    def test_seven_elements(self):
        band = bands.no_matching_band()
        assert band.order == 7

    def test_orthodox(self):
        rep = core.structure_report(bands.to_semigroup(bands.no_matching_band()))
        assert rep.orthodox

    def test_no_matching(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        assert matching.find_permutation_matching(sg) is None


class TestToSemigroup:
    def test_counterexample_validates(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        core.validate(sg)
        assert core.regularity_check(sg)[0]

    def test_1x1_is_two_element_semilattice(self):
        sg = bands.to_semigroup(full_band(1, 1))
        assert sg.table == corpus.chain_semilattice(2).table

    def test_2x2_full_gives_five_idempotents(self):
        sg = bands.to_semigroup(full_band(2, 2))
        assert sg.order == 5
        assert core.idempotents(sg) == list(range(5))

    def test_rejects_empty_row_or_column(self):
        with pytest.raises(NotRegularPattern):
            bands.to_semigroup(bands.band_from_rows([[1, 1], [0, 0]]))
        with pytest.raises(NotRegularPattern):
            bands.to_semigroup(bands.band_from_rows([[1, 0], [1, 0]]))
        # a pattern of another shape than m x n, or a ragged one
        with pytest.raises(ParameterOutOfRange, match="pattern is not 1 x 1"):
            bands.ZeroRectBand(1, 1, ((True, True),))
        with pytest.raises(ParameterOutOfRange, match="pattern is not 2 x 1"):
            bands.ZeroRectBand(2, 1, ((True,),))
        with pytest.raises(ParameterOutOfRange, match="pattern is not 2 x 2"):
            bands.band_from_rows([[1, 1], [1]])

    def test_corpus_band_semigroups_validate(self):
        for seed in range(15):
            band = bands.random_band(2, 3, 0.6, seed)
            core.validate(bands.to_semigroup(band))

    @staticmethod
    def assert_equals_the_entry_oracle(band):
        got = bands.to_semigroup(band)
        want = corpus.band_table_by_entries(band)
        assert (got.table, got.labels) == (want.table, want.labels), band

    def test_row_strips_equal_the_entry_oracle_on_small_patterns(self):
        for band in corpus.small_regular_patterns():
            self.assert_equals_the_entry_oracle(band)

    def test_row_strips_equal_the_entry_oracle_on_random_bands(self):
        rng = random.Random(49)
        for _ in range(300):
            m, n = rng.randint(1, 8), rng.randint(1, 10)
            self.assert_equals_the_entry_oracle(
                corpus.covering_band(rng, m, n, rng.random()))

    def test_row_strips_equal_the_entry_oracle_on_the_full_1x1500_band(self):
        self.assert_equals_the_entry_oracle(full_band(1, 1500))

    def test_refuses_past_the_cap_before_building_a_row(self, monkeypatch):
        band = full_band(1, core.FAMILY_CAP)
        assert band.order == core.FAMILY_CAP + 1
        # a row is built by chaining strips; the refusal comes first
        monkeypatch.setattr(bands, "chain", None)
        with pytest.raises(TooLarge, match=f"band of order {band.order} exceeds"):
            bands.to_semigroup(band)


class TestMutualInverses:
    def test_counterexample_cases(self):
        band = bands.no_matching_band()
        # display labels (2,2) and (1,1) are 0-based cells (1,1) and (0,0)
        assert corpus.are_mutual_inverses(band, (1, 1), (0, 0))
        assert not corpus.are_mutual_inverses(band, (1, 1), (0, 1))

    def test_full_pattern_all_pairs(self):
        band = full_band(2, 3)
        for x in band.cells():
            for y in band.cells():
                assert corpus.are_mutual_inverses(band, x, y)

    def test_agrees_with_definition_scan(self):
        for seed in range(12):
            band = bands.random_band(2, 4, 0.5, seed)
            sg = bands.to_semigroup(band)
            for x in band.cells():
                inv = corpus.inverses_of(sg, band.cell_index(*x))
                expected = {
                    band.cell_index(*y)
                    for y in band.cells()
                    if corpus.are_mutual_inverses(band, x, y)
                }
                assert set(inv) == expected

    def test_band_matching_check_agrees_with_the_table(self):
        rng = random.Random(3)
        verdicts = set()
        for seed in range(40):
            band = bands.random_band(rng.randint(1, 3), rng.randint(1, 4), 0.6, seed)
            sg = bands.to_semigroup(band)
            maps = [matching.find_permutation_matching(sg)]
            for _ in range(20):
                p = [0] + rng.sample(range(1, band.order), band.order - 1)
                maps.append(p)
            maps.append([1, 0] + list(range(2, band.order)))  # moves 0
            for p in maps:
                if p is None or len(p) < 2:
                    continue
                expected = p[0] == 0 and matching.verify_permutation_matching(sg, p)
                assert bands.verify_band_matching(band, p) == expected
                verdicts.add(expected)
            # a short p is refused whether or not it moves 0
            short = tuple(range(band.order - 1))
            for p in ([0] * band.order, (), short, short[::-1]):
                with pytest.raises(NotAPermutation):
                    bands.verify_band_matching(band, p)
        assert verdicts == {True, False}
        with pytest.raises(NotRegularPattern):
            bands.verify_band_matching(bands.band_from_rows([[1, 0]]), (0, 1, 2))



class TestPatternInverseGraph:
    def test_matches_the_table_on_every_small_pattern(self):
        count = 0
        for band in corpus.all_regular_patterns(3, 4):
            count += 1
            table = core.inverse_graph_of(bands.to_semigroup(band))
            assert core.pattern_inverse_graph(band.pattern) == table
        assert count == 2568

    def test_matches_the_table_on_random_bands(self):
        rng = random.Random(5)
        for seed in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 12)
            band = bands.random_band(m, n, rng.choice([0.4, 0.6, 0.9]), seed)
            table = core.inverse_graph_of(bands.to_semigroup(band))
            assert band.inverse_graph == table
        full = full_band(6, 12)
        assert full.inverse_graph == core.inverse_graph_of(bands.to_semigroup(full))

    def test_matches_the_pair_stream_beyond_table_reach(self):
        rng = random.Random(9)
        patterns = [
            [[True] * 1500],
            [[rng.random() < 0.5 for _ in range(40)] for _ in range(40)],
        ]
        for _ in range(300):
            m, n = rng.randint(1, 8), rng.randint(1, 14)
            density = rng.choice([0.1, 0.3, 0.6, 0.9])
            patterns.append(
                [[rng.random() < density for _ in range(n)] for _ in range(m)])
        for pattern in patterns:
            assert core.pattern_inverse_graph(pattern) == (
                corpus.pattern_inverse_graph(pattern))
        # the draws reach the patterns no Cayley-table test covers
        assert any(not any(row) for p in patterns[2:] for row in p)
        assert any(not all(any(col) for col in zip(*p)) for p in patterns[2:])

    def test_cells_of_a_row_and_column_kind_share_one_tuple(self):
        g = core.pattern_inverse_graph([[True] * 1500])
        assert len({id(vs) for vs in g.inverses}) == 2
        rng = random.Random(31)
        seen = set()
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 12)
            density = rng.choice([0.3, 0.6, 1.0])
            rows = [[rng.random() < density for _ in range(n)] for _ in range(m)]
            # one idempotent in each empty row and column makes it regular
            for row in rows:
                row[rng.randrange(n)] |= not any(row)
            for j in range(n):
                rows[rng.randrange(m)][j] |= not any(row[j] for row in rows)
            band = bands.band_from_rows(rows)
            g = core.pattern_inverse_graph(band.pattern)
            kind = [tuple(row[j] for row in band.pattern) for j in range(n)]
            for i in range(m):
                for j, jj in itertools.product(range(n), repeat=2):
                    shared = (g.inverses[1 + i * n + j]
                              is g.inverses[1 + i * n + jj])
                    assert shared == (kind[j] == kind[jj])
                    seen.add(shared)
            assert g == core.inverse_graph_of(bands.to_semigroup(band))
        assert seen == {True, False}

    def test_irregular_pattern_raises_before_any_graph(self):
        with pytest.raises(NotRegularPattern, match="row 1 has no idempotent"):
            bands.band_from_rows([[1, 1], [0, 0]]).inverse_graph

    def test_band_stands_in_for_its_table(self):
        for band in [bands.no_matching_band(), *corpus.all_regular_patterns(2, 3)]:
            sg = bands.to_semigroup(band)
            for decide in (
                matching.find_permutation_matching,
                matching.find_involution_matching,
                matching.involution_backtracking,
                matching.hall_violator,
            ):
                assert decide(band) == decide(sg)

    def test_band_involution_check_agrees_with_the_table(self):
        rng = random.Random(9)
        verdicts = set()
        for band in corpus.all_regular_patterns(2, 3):
            sg = bands.to_semigroup(band)
            candidates = [matching.find_involution_matching(band)]
            candidates += [
                [0] + rng.sample(range(1, band.order), band.order - 1)
                for _ in range(5)
            ]
            for p in filter(None, candidates):
                expected = matching.verify_involution_matching(sg, p)
                assert bands.verify_band_involution(band, p) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}


class TestHaremCondition:
    def test_full_2x4_holds(self):
        assert bands.check_harem_condition(full_band(2, 4)) == (True, None)

    def test_not_divisible(self):
        # 2 does not divide 3, and the condition is still decided: row 1
        # meets one column, 3 * 1 > 2 * 1
        band = bands.no_matching_band()
        assert bands.check_harem_condition(band) == (False, ("rows", (1,)))
        assert bands.check_harem_condition_exhaustive(band) == (
            False, ("rows", (1,)))

    def test_harem_paths_refuse_before_matching(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bands.graphs, "hopcroft_karp",
                            lambda *args: calls.append(args))
        for build in (bands.harem_family, bands.involution_from_harem):
            with pytest.raises(NotDivisible):
                build(bands.no_matching_band())
        assert calls == []

    def test_irregular_pattern_rejected_upstream(self):
        with pytest.raises(NotRegularPattern):
            bands.check_harem_condition(
                bands.band_from_rows([[1, 1, 1, 1], [0, 0, 0, 0]]))

    def test_flow_agrees_with_subset_oracle(self):
        for seed in range(60):
            band = bands.random_band(3, 6, 0.4 + (seed % 3) * 0.2, seed)
            flow_ok, flow_viol = bands.check_harem_condition(band)
            oracle_ok, _ = bands.check_harem_condition_exhaustive(band)
            assert flow_ok == oracle_ok, f"seed {seed}"
            if not flow_ok:
                side, rows = flow_viol
                assert side == "rows"
                assert breaks_the_bound(band, rows)

    def test_row_scan_agrees_with_the_two_sided_scan(self):
        # every regular pattern of up to 12 cells, 1,090 of them with m
        # dividing n
        checked = divisible = 0
        for band in corpus.small_regular_patterns():
            expected = corpus.harem_condition_two_sided(band)
            assert bands.check_harem_condition_exhaustive(band) == expected
            assert bands.check_harem_condition(band)[0] == expected[0]
            checked += 1
            divisible += band.n % band.m == 0
        assert (checked, divisible) == (6761, 1090)

    def test_clone_matching_decides_every_small_pattern(self):
        # the clone verdict, the subset scan and a matching of the band's
        # own inverse graph agree, and every certificate breaks the bound
        failing = 0
        for band in corpus.small_regular_patterns():
            failing += not agrees_with_the_oracles(band)
        assert failing == 2866

    def test_clone_matching_decides_seeded_random_patterns(self):
        # a seeded share of the 2,000-pattern sweep from 2x2 to 8x10
        rng = random.Random(2025)
        failing = 0
        for _ in range(1000):
            m, n = rng.randint(2, 8), rng.randint(2, 10)
            band = bands.random_band(m, n, rng.uniform(0.25, 0.75),
                                     rng.randrange(1 << 30))
            failing += not agrees_with_the_oracles(band)
        assert failing == 293

    def test_matching_implies_condition(self):
        # one direction of the row/column counting argument, never assumed
        # in reverse
        checked = 0
        for seed in range(80):
            m = 2 + seed % 2
            band = bands.random_band(m, 2 * m, 0.5, seed)
            sg = bands.to_semigroup(band)
            if matching.find_permutation_matching(sg) is None:
                continue
            checked += 1
            assert bands.check_harem_condition(band)[0]
        assert checked > 10


class TestHaremFamily:
    def test_full_2x4_deterministic_family(self):
        fam = bands.harem_family(full_band(2, 4))
        assert fam.functions == ((0, 1), (2, 3))

    def test_right_zero_case(self):
        fam = bands.harem_family(full_band(1, 5))
        assert fam.functions == ((0,), (1,), (2,), (3,), (4,))

    def test_absent_when_condition_fails(self):
        band = bands.band_from_rows([[1, 0, 0, 0], [1, 1, 1, 1]])
        assert bands.check_harem_condition(band)[0] is False
        assert bands.harem_family(band) is None

    def test_family_properties(self):
        count = 0
        for seed in range(60):
            band = bands.random_band(2, 6, 0.7, seed)
            fam = bands.harem_family(band)
            if fam is None:
                continue
            count += 1
            a = band.n // band.m
            assert len(fam.functions) == a
            cols = [c for f in fam.functions for c in f]
            assert sorted(cols) == list(range(band.n))  # disjoint + cover
            for f in fam.functions:
                for i, c in enumerate(f):
                    assert band.pattern[i][c]
        assert count > 20


class TestInvolutionFromHarem:
    def test_square_full_pattern_gives_transpose(self):
        band = full_band(3, 3)
        result = bands.involution_from_harem(band)
        assert result.column_order == (0, 1, 2)
        for i, j in band.cells():
            assert result.matching[band.cell_index(i, j)] == band.cell_index(
                j, i
            )

    def test_full_2x4_verified(self):
        band = full_band(2, 4)
        result = bands.involution_from_harem(band)
        sg = bands.to_semigroup(band)
        assert matching.verify_involution_matching(sg, result.matching)

    def test_counterexample_not_divisible(self):
        with pytest.raises(NotDivisible):
            bands.involution_from_harem(bands.no_matching_band())

    def test_output_fixes_zero_and_squares_to_identity(self):
        for seed in range(50):
            band = bands.random_band(3, 6, 0.75, seed)
            result = bands.involution_from_harem(band)
            if result is None:
                continue
            p = result.matching
            assert p[0] == 0
            assert all(p[p[x]] == x for x in range(band.order))
            for i, j in band.cells():
                image = divmod(p[band.cell_index(i, j)] - 1, band.n)
                assert corpus.are_mutual_inverses(band, (i, j), image)

    def test_harem_implies_verified_involution(self):
        for seed in range(60):
            band = bands.random_band(2, 4, 0.6, seed)
            fam = bands.harem_family(band)
            result = bands.involution_from_harem(band)
            assert (fam is None) == (result is None)
            if result is not None:
                sg = bands.to_semigroup(band)
                assert matching.verify_involution_matching(sg, result.matching)


class TestSimilarity:
    """The block-ratio criterion for orthodox bands (corpus.orthodox_blocks)
    against find_permutation_matching."""

    def test_counterexample_blocks_disagree(self):
        band = bands.no_matching_band()
        blocks = corpus.orthodox_blocks(band)
        assert blocks == ((1, 2), (1, 1))
        assert not corpus.blocks_similar(blocks)
        assert matching.find_permutation_matching(band) is None

    def test_full_pattern_single_block(self):
        band = full_band(2, 5)
        blocks = corpus.orthodox_blocks(band)
        assert blocks == ((2, 5),)
        assert corpus.blocks_similar(blocks)
        assert matching.find_permutation_matching(band) is not None

    def test_two_equal_blocks(self):
        band = bands.band_from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert corpus.blocks_similar(corpus.orthodox_blocks(band))
        assert matching.find_permutation_matching(band) is not None

    def test_not_orthodox_rejected(self):
        band = bands.band_from_rows([[1, 1], [1, 0]])
        assert not core.structure_report(bands.to_semigroup(band)).orthodox
        assert corpus.orthodox_blocks(band) is None

    def test_orthodox_similarity_equals_matching_existence(self):
        rng = random.Random(99)
        for _ in range(60):
            # random block-structured (orthodox) pattern with permuted
            # rows and columns
            k = rng.randint(1, 3)
            row_sizes = [rng.randint(1, 2) for _ in range(k)]
            col_sizes = [rng.randint(1, 3) for _ in range(k)]
            m, n = sum(row_sizes), sum(col_sizes)
            pattern = [[0] * n for _ in range(m)]
            r0 = c0 = 0
            for rs, cs in zip(row_sizes, col_sizes):
                for i in range(r0, r0 + rs):
                    for j in range(c0, c0 + cs):
                        pattern[i][j] = 1
                r0 += rs
                c0 += cs
            rows = list(range(m))
            cols = list(range(n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            shuffled = [
                [pattern[rows[i]][cols[j]] for j in range(n)]
                for i in range(m)
            ]
            band = bands.band_from_rows(shuffled)
            assert core.structure_report(bands.to_semigroup(band)).orthodox
            blocks = corpus.orthodox_blocks(band)
            present = matching.find_permutation_matching(band) is not None
            assert corpus.blocks_similar(blocks) == present, f"blocks {blocks}"


class TestRandomBand:
    def test_density_one_is_full(self):
        band = bands.random_band(2, 2, 1.0, 7)
        assert band.pattern == ((True, True), (True, True))

    def test_deterministic_per_seed(self):
        assert bands.random_band(2, 4, 0.5, 42) == bands.random_band(
            2, 4, 0.5, 42
        )

    def test_rows_and_columns_never_empty(self):
        for seed in range(1000):
            band = bands.random_band(3, 6, 0.6, seed)
            assert all(any(row) for row in band.pattern)
            for j in range(band.n):
                assert any(band.pattern[i][j] for i in range(band.m))

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            bands.random_band(2, 2, 0.0, 1)
        with pytest.raises(ParameterOutOfRange):
            bands.random_band(0, 2, 0.5, 1)

    def test_gives_up_after_the_draw_cap(self, monkeypatch):
        monkeypatch.setattr(bands, "RANDOM_BAND_MAX_DRAWS", 50)
        with pytest.raises(BudgetExhausted, match="in 50 draws"):
            bands.random_band(1, 20, 0.3, 0)


def brute_orbit(band):
    """Every pattern got by permuting the band's rows and columns."""
    return {
        tuple(tuple(band.pattern[i][j] for j in cols) for i in rows)
        for rows in itertools.permutations(range(band.m))
        for cols in itertools.permutations(range(band.n))
    }


def regular_count(m, n):
    """Closed form: m x n patterns with an idempotent in every row and
    column, by inclusion-exclusion over the empty columns."""
    return sum((-1) ** k * math.comb(n, k) * (2 ** (n - k) - 1) ** m
               for k in range(n + 1))


SMALL_SHAPES = [(m, n) for m in range(1, 4) for n in range(1, 4)]

# Orbits of the regular patterns per shape, a shape and its transpose alike.
ORBIT_COUNTS = {(3, 3): 17, (3, 4): 42, (4, 3): 42, (4, 4): 179, (4, 5): 633,
                (5, 4): 633, (5, 5): 3_835}


class TestPatternOrbits:
    @pytest.mark.parametrize("m, n", sorted(
        {(m, n) for m in range(1, 6) for n in range(1, 6)}
        | {(1, 12), (12, 1)}))
    def test_orbit_sizes_sum_to_the_regular_count(self, m, n):
        orbits = list(bands.pattern_orbits(m, n))
        assert sum(size for _, size in orbits) == regular_count(m, n)
        if (m, n) in ORBIT_COUNTS:
            assert len(orbits) == ORBIT_COUNTS[m, n]
        assert all(all(map(any, band.pattern))
                   and all(map(any, zip(*band.pattern))) for band, _ in orbits)
        assert {(band.m, band.n) for band, _ in orbits} == {(m, n)}

    @pytest.mark.parametrize("m, n", SMALL_SHAPES)
    def test_orbit_size_is_the_brute_force_orbit(self, m, n):
        for band, size in bands.pattern_orbits(m, n):
            assert size == len(brute_orbit(band))

    @pytest.mark.parametrize("m, n", SMALL_SHAPES + [(3, 4), (4, 3)])
    def test_orbits_partition_the_regular_patterns(self, m, n):
        # no two representatives share an orbit, and the members of the
        # orbits are exactly the regular patterns, each once
        members = []
        for band, size in bands.pattern_orbits(m, n):
            orbit = bands.orbit_members(band)
            assert len(orbit) == size
            assert {b.pattern for b in orbit} == brute_orbit(band)
            members.extend(b.pattern for b in orbit)
        assert sorted(members) == sorted(
            b.pattern for b in corpus.regular_patterns(m, n))

    @pytest.mark.parametrize("m, n", sorted(
        {(m, n) for m in range(1, 21) for n in range(1, 21) if m * n <= 20}
        | {(1, 12), (12, 1), (2, 7), (7, 2)}))
    def test_the_walk_yields_the_multiset_scan(self, m, n):
        # the same representatives and sizes, in the same order: the walk
        # prunes only prefixes whose every extension the scan drops
        assert (list(bands.pattern_orbits(m, n))
                == list(corpus.orbits_by_multiset_scan(m, n)))

    def test_a_single_line_is_one_orbit(self):
        # only the shorter side is permuted in tables: one here, not 12!
        assert list(bands.pattern_orbits(1, 12)) == [(full_band(1, 12), 1)]
        assert list(bands.pattern_orbits(12, 1)) == [(full_band(12, 1), 1)]


class TestBandFormat:
    def test_round_trip(self):
        band = bands.no_matching_band()
        assert bands.parse_band(bands.format_band(band)) == band

    @pytest.mark.parametrize(
        "text", ["", "2\n11\n", "2 2\n11\n", "2 2\n11\n12\n", "a b\n11\n00\n"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            bands.parse_band(text)
