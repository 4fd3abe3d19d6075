"""Semigroup core: validation, inverses, Green's relations, factors,
structure predicates."""

import itertools
import random
from pathlib import Path

import pytest

import corpus
from invmatch import bands, core
from invmatch.matching import build_inverse_graph
from invmatch.errors import (
    EntryOutOfRange,
    NotAssociative,
    NotRegular,
    ParameterOutOfRange,
    ParseError,
)
from invmatch.transformations import enumerate_family


def first_violating_triple(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


class TestValidate:
    def test_rectangular_band_law_is_associative(self):
        s = corpus.rectangular_band(2, 3)
        core.validate(s)

    def test_entry_out_of_range(self):
        s = core.semigroup_from_rows([[0, 1], [1, 2]])
        with pytest.raises(EntryOutOfRange) as err:
            core.validate(s)
        assert (err.value.a, err.value.b, err.value.value) == (1, 1, 2)

    @pytest.mark.parametrize("table, bad", [
        (((0, 2), (1, 1)), (0, 1, 2)),
        # -3 would index row 0 from the end
        (((0, 1, -3), (1, 1, 1), (2, 2, 2)), (0, 2, -3)),
    ])
    def test_structure_of_an_unvalidated_table_checks_the_range(
            self, table, bad):
        # the generating set checks the range before its closures read
        # an entry as a row index
        with pytest.raises(EntryOutOfRange) as err:
            core.FiniteSemigroup(table).egg_box
        assert (err.value.a, err.value.b, err.value.value) == bad

    @pytest.mark.parametrize("table", [
        ((0,), (0, 1)),
        ((0, 1, 1), (1, 1), (1, 1, 1)),
        # the shape is checked before the range
        ((0, 5), (0,)),
    ])
    @pytest.mark.parametrize("read", ["generators", "egg_box", "validate"])
    def test_an_unvalidated_ragged_table_is_refused(self, table, read):
        # the generating set checks the shape before its closures read a
        # short row
        s = core.FiniteSemigroup(table)
        with pytest.raises(ParseError, match="^table is not square$"):
            core.validate(s) if read == "validate" else getattr(s, read)

    def test_non_associative_triple_reported(self):
        table = [[0, 2, 2], [1, 0, 0], [2, 1, 0]]
        expected = first_violating_triple(table)
        assert expected == (0, 1, 1)
        with pytest.raises(NotAssociative) as err:
            core.validate(core.semigroup_from_rows(table))
        assert err.value.triple == expected

    def test_corpus_validates(self):
        for seed in range(40):
            core.validate(corpus.corpus_semigroup(seed))


GOLDEN = Path(__file__).parent / "golden"


def scan_verdict(table):
    """What validate must report, by the plain scans: the first entry out of
    range, else the first non-associative triple, else (None, None)."""
    n = len(table)
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if not 0 <= v < n:
                return EntryOutOfRange, (a, b, v)
    triple = first_violating_triple(table)
    return (None, None) if triple is None else (NotAssociative, triple)


def validate_verdict(table):
    try:
        core.validate(core.semigroup_from_rows(table))
    except EntryOutOfRange as err:
        return EntryOutOfRange, (err.a, err.b, err.value)
    except NotAssociative as err:
        return NotAssociative, err.triple
    return None, None


def oracle_tables():
    """Name -> table: the corpus, the golden tables, small transformation
    monoids and band tables."""
    tables = {f"corpus {seed}": corpus.corpus_semigroup(seed).table
              for seed in range(40)}
    for name in ("o3", "o5", "t3", "rees"):
        text = (GOLDEN / f"{name}.cayley").read_text(encoding="utf-8")
        tables[name] = core.parse_cayley(text).table
    for family, k in (("Tn", 3), ("On", 4), ("OPn", 3), ("PTn", 2)):
        tables[f"{family} {k}"] = enumerate_family(family, k).semigroup.table
    for name in ("counterexample", "band2x4"):
        text = (GOLDEN / f"{name}.band").read_text(encoding="utf-8")
        tables[name] = bands.to_semigroup(bands.parse_band(text)).table
    return tables


def corrupted(table, rng, first_rows=None):
    """``table`` with one entry changed to another value in [-1, n], in
    one of its first ``first_rows`` rows (any row by default)."""
    n = len(table)
    a, b = rng.randrange(first_rows or n), rng.randrange(n)
    rows = [list(row) for row in table]
    rows[a][b] = rng.choice([v for v in range(-1, n + 1) if v != rows[a][b]])
    return rows


class TestLightTest:
    """validate decides associativity on a generating set; the plain scan
    ``first_violating_triple`` is its oracle."""

    def test_same_verdict_as_the_scan(self):
        for name, table in oracle_tables().items():
            assert validate_verdict(table) == scan_verdict(table) == (None, None), name

    def test_same_error_and_triple_on_corrupted_tables(self):
        classes = set()
        for name, table in oracle_tables().items():
            rng = random.Random(name)
            for _ in range(4):
                rows = corrupted(table, rng)
                expected = scan_verdict(rows)
                assert validate_verdict(rows) == expected, name
                classes.add(expected[0])
        assert classes == {EntryOutOfRange, NotAssociative, None}

    def test_reports_a_triple_the_generators_miss(self):
        # the first bad triple of this table has a middle outside the
        # generating set, so it must come from the scan
        text = (GOLDEN / "o5_corrupted.cayley").read_text(encoding="utf-8")
        s = core.parse_cayley(text)
        table = s.table
        assert scan_verdict(table) == (NotAssociative, (1, 104, 31))
        assert 104 not in s.generators
        assert validate_verdict(table) == (NotAssociative, (1, 104, 31))

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_same_verdict_around_the_byte_order(self, k):
        # Light's test holds the rows as bytes up to order 256 and gathers
        # tuples above it; corrupting the first rows keeps the n^3 scan short
        table = corpus.cyclic_group(k).table
        rng = random.Random(k)
        for _ in range(4):
            rows = corrupted(table, rng, first_rows=3)
            assert validate_verdict(rows) == scan_verdict(rows)

    def test_a_first_bad_triple_in_the_last_byte_column(self):
        # Z_256 with 255 + 255 changed from 254 to 0: the scan must compare
        # the byte rows up to their last entry
        rows = [list(row) for row in corpus.cyclic_group(256).table]
        rows[255][255] = 0
        expected = (NotAssociative, (1, 254, 255))
        assert scan_verdict(rows) == expected
        assert validate_verdict(rows) == expected

    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_every_element_a_generator(self, k):
        for s in (corpus.null_semigroup(k), corpus.rectangular_band(1, k)):
            table = s.table
            assert sorted(s.generators) == list(range(k))
            assert validate_verdict(table) == (None, None)
            rng = random.Random(k)
            for _ in range(10):
                rows = corrupted(table, rng)
                assert validate_verdict(rows) == scan_verdict(rows)

    def test_random_tables(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        tables = st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n, max_size=n))

        @hypothesis.settings(max_examples=1000, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(tables)
        def check(rows):
            assert validate_verdict(rows) == scan_verdict(rows)

        check()


class TestValidateShortcuts:
    """The range check is one set inclusion and Light's test skips a
    two-sided identity; the plain scans stay their oracle."""

    def test_out_of_range_entries_are_named_as_the_row_scan_names_them(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        tables = st.integers(1, 6).flatmap(lambda n: st.lists(
            st.lists(st.integers(-3, n + 2), min_size=n, max_size=n),
            min_size=n, max_size=n)).filter(
                lambda rows: not set().union(*rows) <= set(range(len(rows))))

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(tables)
        def check(rows):
            verdict = validate_verdict(rows)
            assert verdict[0] is EntryOutOfRange
            assert verdict == scan_verdict(rows)

        check()

    def test_a_corrupted_identity_row_or_column_is_refused(self):
        monoids = [enumerate_family("Tn", 3).semigroup,
                   enumerate_family("On", 4).semigroup,
                   corpus.cyclic_group(5)]
        monoids += [corpus.adjoin_identity(corpus.corpus_semigroup(seed))
                    for seed in range(10)]
        refused = tried = 0
        for s in monoids:
            n = s.order
            (e,) = [e for e in range(n)
                    if s.table[e] == tuple(range(n))
                    and all(row[e] == x for x, row in enumerate(s.table))]
            assert e in s.generators
            rng = random.Random(n)
            for _ in range(5):
                x = rng.randrange(n)
                v = rng.choice([v for v in range(n) if v != x])
                for a, b in ((e, x), (x, e)):
                    rows = [list(row) for row in s.table]
                    rows[a][b] = v
                    verdict = scan_verdict(rows)
                    assert validate_verdict(rows) == verdict
                    refused += verdict[0] is NotAssociative
                    tried += 1
        # a few corrupted tables stay associative, as a semigroup with a
        # changed identity row can be
        assert refused > 0.9 * tried


def two_sided_closure(table, seed):
    """Submagma generated by ``seed`` under every bracketing: products of
    members on both sides until nothing new appears."""
    inside = set(seed)
    while True:
        new = {table[a][b] for a in inside for b in inside} - inside
        if not new:
            return inside
        inside |= new


class TestClosure:
    """Closures are taken under right products by the generators only: on
    a non-associative table they hold the left-normed products alone."""

    def test_validate_is_sound_on_every_magma_of_order_at_most_3(self):
        one_sided_misses = 0
        for n in (1, 2, 3):
            for flat in itertools.product(range(n), repeat=n * n):
                table = [flat[i:i + n] for i in range(0, n * n, n)]
                assert validate_verdict(table) == scan_verdict(table), table
                s = core.semigroup_from_rows(table)
                # with an identity adjoined at 0, picked first and skipped
                monoid = corpus.adjoin_identity(s)
                assert monoid.generators[0] == 0
                assert (validate_verdict(monoid.table)
                        == scan_verdict(monoid.table)), table
                gens = set(s.generators)
                assert two_sided_closure(table, gens) == set(range(n)), table
                for g in range(n):
                    inside = set(corpus.generated_closure(s, [g]))
                    one_sided_misses += inside != two_sided_closure(table, {g})
        # the one-sided closure is a proper subset on some tables, so the
        # verdicts above cover the case the soundness argument is about
        assert one_sided_misses > 0

    @pytest.mark.parametrize("family, k", [("On", 6), ("Tn", 4)])
    def test_closures_read_at_most_two_products_per_element_and_generator(
            self, family, k):
        s = enumerate_family(family, k).semigroup
        n = s.order
        reads = [0]

        class Row(tuple):
            def __getitem__(self, i):
                reads[0] += 1
                return tuple.__getitem__(self, i)

        counted = core.FiniteSemigroup(tuple(map(Row, s.table)))
        gens = counted.generators
        assert reads[0] <= 2 * n * len(gens)

        idems = core.idempotents(s)
        picked: list[int] = []
        inside: set[int] = set()
        for e in idems:
            if e not in inside:
                picked.append(e)
                inside = set(corpus.generated_closure(s, picked))
        reads[0] = 0
        closure = corpus.generated_closure(counted, idems)
        assert closure == sorted(two_sided_closure(s.table, idems))
        assert reads[0] <= 2 * n * len(picked)


def graph_oracle_inputs():
    """Name -> semigroup: regular and not, with one D-class or many, up to
    a 1,716-element monoid, a 1,000-element group and a 300-element
    left-zero semigroup."""
    inputs = {name: core.FiniteSemigroup(table)
              for name, table in oracle_tables().items()}
    inputs.update((f"corpus {seed}", corpus.corpus_semigroup(seed, 30))
                  for seed in range(40, 140))
    for family, k in (("Tn", 4), ("On", 6), ("On", 7)):
        inputs[f"{family} {k}"] = enumerate_family(family, k).semigroup
    for k, band in enumerate(corpus.all_regular_patterns(3, 4)):
        inputs[f"band {k}"] = bands.to_semigroup(band)
    for k in range(1, 6):
        inputs[f"null {k}"] = corpus.null_semigroup(k)
        inputs[f"chain {k}"] = corpus.chain_semilattice(k)
        for index in range(1, k + 1):
            inputs[f"cyclic {index} {k + 1 - index}"] = (
                corpus.monogenic_semigroup(index, k + 1 - index))
    inputs["Z 1000"] = corpus.cyclic_group(1000)
    inputs["left zero 300"] = corpus.rectangular_band(300, 1)
    return inputs


class TestInverses:
    """V(a) as ``inverses[a]`` of the inverse graph, against the
    brute-force scan ``corpus.inverses_of``."""

    def test_egg_box_read_equals_the_oracle_on_large_and_irregular_inputs(self):
        # read off the egg-box: V(a) from one inverse and the idempotents of
        # R_a and L_a, empty on a D-class without an idempotent
        inputs = graph_oracle_inputs()
        regular = 0
        for name, s in inputs.items():
            expected = tuple(tuple(corpus.inverses_of(s, a)) for a in range(s.order))
            assert s.inverse_graph == core.InverseGraph(s.order, expected), name
            regular += all(expected)
        assert 0 < regular < len(inputs)

    def test_counterexample_cell_has_unique_inverse(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        g = build_inverse_graph(sg)
        for label in ("(2,2)", "(2,3)"):
            a = sg.labels.index(label)
            assert sg.labels_of(g.inverses[a]) == ["(1,1)"]
            assert list(g.inverses[a]) == corpus.inverses_of(sg, a)

    def test_idempotents_are_self_inverse(self):
        for seed in range(25):
            s = corpus.corpus_semigroup(seed)
            g = build_inverse_graph(s)
            for e in core.idempotents(s):
                assert e in g.inverses[e]

    def test_constant_maps_invert_all_constants(self):
        data = enumerate_family("Tn", 3)
        constants = [
            i for i, f in enumerate(data.maps) if len(set(f)) == 1
        ]
        c1 = data.maps.index((1, 1, 1))
        expected = corpus.inverses_of(data.semigroup, c1)
        assert list(build_inverse_graph(data.semigroup).inverses[c1]) == expected
        assert expected == constants

    def test_mutual_inverse_symmetry(self):
        for seed in range(25):
            s = corpus.corpus_semigroup(seed)
            g = build_inverse_graph(s)
            for a in range(s.order):
                assert list(g.inverses[a]) == corpus.inverses_of(s, a)
                for b in g.inverses[a]:
                    assert a in g.inverses[b]

    def test_x_cubed_elements_are_self_inverse(self):
        for seed in range(25):
            s = corpus.corpus_semigroup(seed)
            t = s.table
            g = build_inverse_graph(s)
            for a in range(s.order):
                if t[t[a][a]][a] == a:
                    assert a in g.inverses[a]


class TestRegularity:
    def test_counterexample_band_is_regular(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        assert core.regularity_check(sg) == (True, None)

    def test_null_semigroup_is_not_regular(self):
        ok, witness = core.regularity_check(corpus.null_semigroup(2))
        assert not ok
        assert witness == 1

    def test_order_preserving_monoid_is_regular(self):
        data = enumerate_family("On", 3)
        assert data.semigroup.order == 10
        assert core.regularity_check(data.semigroup) == (True, None)


class TestGreenRelations:
    def test_rectangular_band_egg_box(self):
        s = corpus.rectangular_band(2, 3)
        egg = core.green_relations(s)
        assert len(egg.d_classes) == 1
        box = egg.d_classes[0]
        assert len(box.grid) == 2
        assert len(box.grid[0]) == 3
        for row in box.grid:
            for cell in row:
                assert len(cell) == 1
        assert all(flag for row in box.group_h for flag in row)

    def test_t3_d_class_sizes(self):
        data = enumerate_family("Tn", 3)
        egg = core.green_relations(data.semigroup)
        sizes = sorted(len(b.elements) for b in egg.d_classes)
        assert sizes == [3, 6, 18]

    def test_counterexample_egg_box(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        egg = core.green_relations(sg)
        by_size = sorted(egg.d_classes, key=lambda b: len(b.elements))
        assert [len(b.elements) for b in by_size] == [1, 6]
        box = by_size[1]
        assert (len(box.grid), len(box.grid[0])) == (2, 3)

    def test_against_ideal_oracle(self):
        # D read off R and L must agree with J
        # (two-sided ideal comparison) and with the R-then-L composition
        for seed in range(60):
            s = corpus.corpus_semigroup(seed)
            egg = core.green_relations(s)
            j_key = {a: corpus.two_sided_ideal(s, a) for a in range(s.order)}
            r_key = {a: corpus.right_ideal(s, a) for a in range(s.order)}
            l_key = {a: corpus.left_ideal(s, a) for a in range(s.order)}
            for a in range(s.order):
                for b in range(s.order):
                    same_d = egg.d_of[a] == egg.d_of[b]
                    assert same_d == (j_key[a] == j_key[b])
                    composed = any(
                        r_key[a] == r_key[c] and l_key[c] == l_key[b]
                        for c in range(s.order)
                    )
                    assert same_d == composed

    def test_egg_box_and_factors_equal_the_ideal_oracle(self):
        # every field of the egg-box, and each factor's zero, members and
        # table, as the ideal-based construction and the minimal-ideal rule
        # by definition (closed, and the two-sided ideal of a member) give
        # them
        families = [("Tn", 4), ("On", 6), ("OPn", 5), ("Pn", 5), ("PTn", 3)]
        inputs = [corpus.corpus_semigroup(seed) for seed in range(400)]
        inputs += [enumerate_family(f, n).semigroup
                   for f, top in families for n in range(1, top + 1)]
        for k in (1, 2, 5, 9):
            inputs += [corpus.null_semigroup(k), corpus.rectangular_band(k, 1),
                       corpus.rectangular_band(1, k)]
        for s in inputs:
            oracle = corpus.ideal_egg_box(s)
            assert core.green_relations(s) == oracle
            if not core.regularity_check(s)[0]:
                continue
            factors = core.principal_factors(s)
            assert len(factors) == len(oracle.d_classes)
            for f, box in zip(factors, oracle.d_classes):
                zero = corpus.ideal_zero_adjoined(s, box.elements)
                assert (f.zero_adjoined, f.members) == (zero, box.elements)
                assert f.semigroup.table == corpus.factor_table(
                    s, box.elements, zero)
                # the factor's egg-box is S's D-class reindexed, and it is
                # what Green's relations give the factor's table, where {0}
                # is a D-class of its own, and a zero-free minimal ideal
                fresh = core.FiniteSemigroup(f.semigroup.table)
                assert f.semigroup.egg_box == core.green_relations(fresh)
                assert f.semigroup.egg_box == corpus.ideal_egg_box(f.semigroup)

    def test_egg_box_does_not_depend_on_the_generating_set(self):
        # components are numbered by least vertex, so every element as a
        # generator gives the same egg-box as the greedy pick
        inputs = [enumerate_family("Tn", 4).semigroup,
                  enumerate_family("On", 5).semigroup,
                  bands.to_semigroup(bands.no_matching_band())]
        inputs += [corpus.corpus_semigroup(seed) for seed in range(200)]
        differ = 0
        for s in inputs:
            fresh = core.FiniteSemigroup(s.table, s.labels)
            vars(fresh)["generators"] = tuple(range(s.order))
            assert core.green_relations(fresh) == core.green_relations(s)
            differ += fresh.generators != s.generators
        assert differ > len(inputs) // 2

    def test_h_cells_tile_evenly_and_group_cells_have_one_idempotent(self):
        for seed in range(40):
            s = corpus.corpus_semigroup(seed)
            egg = core.green_relations(s)
            for box in egg.d_classes:
                sizes = {len(cell) for row in box.grid for cell in row}
                assert len(sizes) == 1
                counted = sum(len(cell) for row in box.grid for cell in row)
                assert counted == len(box.elements)
                for r, row in enumerate(box.grid):
                    for l, cell in enumerate(row):
                        idems = [e for e in cell if s.table[e][e] == e]
                        if box.group_h[r][l]:
                            assert len(idems) == 1
                        else:
                            assert not idems


class TestPrincipalFactors:
    def test_rectangular_band_single_zero_free_factor(self):
        s = corpus.rectangular_band(2, 3)
        factors = core.principal_factors(s)
        assert len(factors) == 1
        f = factors[0]
        assert not f.zero_adjoined
        assert f.semigroup.table == s.table

    def test_t3_factor_shapes(self):
        data = enumerate_family("Tn", 3)
        factors = core.principal_factors(data.semigroup)
        shapes = sorted(
            (len(f.members), f.zero_adjoined) for f in factors
        )
        assert shapes == [(3, False), (6, True), (18, True)]

    def test_counterexample_factor_is_itself(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        factors = core.principal_factors(sg)
        nontrivial = [f for f in factors if len(f.members) > 1]
        assert len(nontrivial) == 1
        f = nontrivial[0]
        # members are the six cells in index order, so the factor table is
        # literally the original one
        assert f.zero_adjoined
        assert f.semigroup.table == sg.table
        trivial = [f for f in factors if len(f.members) == 1]
        assert len(trivial) == 1 and not trivial[0].zero_adjoined

    def test_sizes_sum_to_order(self):
        for seed in range(40):
            s = corpus.corpus_semigroup(seed)
            factors = core.principal_factors(s)
            assert sum(len(f.members) for f in factors) == s.order

    def test_requires_regularity(self):
        with pytest.raises(NotRegular):
            core.principal_factors(corpus.null_semigroup(3))

    def test_factor_products_match_source(self):
        for seed in range(25):
            s = corpus.corpus_semigroup(seed)
            for f in core.principal_factors(s):
                core.validate(f.semigroup)
                members = set(f.members)

                def index(x):
                    return f.members.index(x) + f.zero_adjoined

                for x in f.members:
                    for y in f.members:
                        z = s.table[x][y]
                        fz = f.semigroup.table[index(x)][index(y)]
                        if z in members:
                            assert fz == index(z)
                        else:
                            assert f.zero_adjoined and fz == 0


class TestHQuotient:
    def test_counterexample_quotient_pattern(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        box = [b for b in sg.egg_box.d_classes if len(b.elements) > 1][0]
        band = corpus.quotient_band(box)
        assert (band.m, band.n) == (2, 3)
        truth = {
            (i, j)
            for i in range(2)
            for j in range(3)
            if band.pattern[i][j]
        }
        assert truth == {(0, 1), (0, 2), (1, 0)}

    def test_group_quotient_is_full_1x1(self):
        g = corpus.cyclic_group(4)
        (box,) = g.egg_box.d_classes
        band = corpus.quotient_band(box)
        assert (band.m, band.n) == (1, 1)
        assert band.pattern == ((True,),)

    def test_t3_rank2_quotient_is_transversal_pattern(self):
        data = enumerate_family("Tn", 3)
        egg = data.semigroup.egg_box
        box = next(b for b in egg.d_classes if len(b.elements) == 18)
        band = corpus.quotient_band(box)
        assert (band.m, band.n) == (3, 3)
        # oracle: cell (kernel, image) holds an idempotent iff the image is
        # a transversal of the kernel; a member's R-class fixes its kernel
        # and its L-class its image
        for a in box.elements:
            image = set(data.maps[a])
            kernel = {}
            for x, v in enumerate(data.maps[a]):
                kernel.setdefault(v, set()).add(x)
            transversal = all(
                len(image & cls) == 1 for cls in kernel.values()
            )
            assert band.pattern[egg.r_of[a]][egg.l_of[a]] == transversal


class TestStructureReport:
    def test_rectangular_band_flags(self):
        rep = core.structure_report(corpus.rectangular_band(2, 3))
        assert rep.rectangular_band
        assert rep.x_equals_x_cubed
        assert rep.union_of_groups

    def test_semilattice_is_inverse(self):
        rep = core.structure_report(corpus.chain_semilattice(5))
        assert rep.inverse
        assert rep.idempotent_count == 5

    def test_counterexample_is_orthodox_not_inverse(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        rep = core.structure_report(sg)
        assert rep.orthodox
        assert not rep.inverse
        # independent closure check of the idempotent set
        idems = set(core.idempotents(sg))
        assert all(
            sg.table[e][f] in idems for e in idems for f in idems
        )

    def test_implication_chain(self):
        for seed in range(40):
            s = corpus.corpus_semigroup(seed)
            rep = core.structure_report(s)
            if rep.rectangular_band:
                assert rep.x_equals_x_cubed
            if rep.x_equals_x_cubed:
                assert rep.union_of_groups
            if rep.inverse or rep.union_of_groups:
                assert rep.regular
            if rep.orthodox:
                assert rep.e_solid

    def test_union_of_groups_routes_agree(self):
        for seed in range(30):
            s = corpus.corpus_semigroup(seed)
            rep = core.structure_report(s)
            scan = corpus.is_union_of_groups_subset(s, range(s.order))
            assert rep.union_of_groups == scan

    def test_egg_box_predicates_equal_their_product_scans(self):
        inputs = [corpus.corpus_semigroup(seed) for seed in range(500)]
        inputs += [corpus.corpus_semigroup(seed, 16)
                   for seed in range(1000, 1300)]
        inputs += [enumerate_family(family, k).semigroup
                   for family, top in (("Tn", 4), ("On", 6), ("PTn", 3),
                                       ("OPn", 4), ("Pn", 4))
                   for k in range(1, top + 1)]
        inputs += map(bands.to_semigroup, corpus.all_regular_patterns(3, 3))
        # not regular, so neither predicate may hold
        inputs += [corpus.null_semigroup(k) for k in range(2, 5)]
        inputs += [corpus.monogenic_semigroup(2, 3),
                   corpus.adjoin_zero(corpus.null_semigroup(3))]
        seen, seen_inverse = set(), set()
        for s in inputs:
            rep = core.structure_report(s)
            t, every = s.table, range(s.order)
            closure = corpus.generated_closure(s, core.idempotents(s))
            assert rep.e_solid == (
                rep.regular and corpus.is_union_of_groups_subset(s, closure))
            assert rep.rectangular_band == all(
                t[t[x][y]][x] == x for x in every for y in every)
            idems = core.idempotents(s)
            assert rep.orthodox == (rep.regular and all(
                t[t[e][f]][t[e][f]] == t[e][f] for e in idems for f in idems))
            assert rep.x_equals_x_cubed == all(
                t[t[x][x]][x] == x for x in every)
            seen.add((rep.e_solid, rep.rectangular_band, rep.regular))
            seen_inverse.add((rep.orthodox, rep.x_equals_x_cubed, rep.regular))
        # each value of each predicate occurs, and E-solidity fails both
        # on regular and on non-regular inputs
        assert {(True, True, True), (True, False, True), (False, False, True),
                (False, False, False)} <= seen
        # every combination of orthodox and x = x^3 on regular inputs; a
        # non-regular one has neither
        assert seen_inverse == {(True, True, True), (True, False, True),
                                (False, True, True), (False, False, True),
                                (False, False, False)}


class TestCayleyFormat:
    def test_round_trip(self):
        sg = bands.to_semigroup(bands.no_matching_band())
        text = core.format_cayley(sg)
        back = core.parse_cayley(text)
        assert back.table == sg.table
        assert back.labels == sg.labels
        # order 1: each row is one entry
        text = "1\n0\n# labels: e\n"
        assert core.format_cayley(core.parse_cayley(text)) == text
        # a semigroup built in code takes one label per element too
        for labels in (["z"], ["a", "b", "c"]):
            with pytest.raises(ParameterOutOfRange,
                               match=f"expected 2 labels, found {len(labels)}"):
                core.semigroup_from_rows([[0, 0], [0, 1]], labels=labels)

    def test_round_trip_without_labels(self):
        s = corpus.rectangular_band(2, 2)
        assert core.parse_cayley(core.format_cayley(s)).table == s.table
        assert core.format_cayley(core.parse_cayley("1\n0\n")) == "1\n0\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n0 1\n",
            "2\n0 1\n1 0 0\n",
            "x\n",
            "1\n0\n# labels: a b\n",
            "1\n0\n# foo\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            core.parse_cayley(text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("# labels: a b\n", "empty input"),
        ("2\n0 1\n", "expected 2 rows, found 1"),
        ("0\n", "order must be positive"),
        ("x\n0\n", "bad order line: 'x'"),
        ("1\n0\n# foo\n", "unrecognized trailer: '# foo'"),
        # rows are read in order; a row's entries are read before it is
        # counted, and the labels are counted last
        ("2\n0 x 1\n0\n# labels: a\n", "bad row: '0 x 1'"),
        ("2\n0 1 1\n0 x\n", "row has 3 entries, expected 2"),
        ("2\n0\n1 1\n", "row has 1 entries, expected 2"),
        ("2\n0 1\n1 0\n# labels: a\n", "expected 2 labels, found 1"),
        ("2\n0 x\n1 1\n", "bad row: '0 x'"),
        # the row count is checked before anything of order n is built
        ("1000000000\n0 1\n1 1\n", "expected 1000000000 rows, found 2"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            core.parse_cayley(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("token, table", [
        ("01", ((0, 1), (1, 1))),
        ("+1", ((0, 1), (1, 1))),
        ("-1", ((0, -1), (1, 1))),
        ("999", ((0, 999), (1, 1))),
    ])
    def test_tokens_outside_the_canonical_digits_read_as_int(self, token, table):
        assert core.parse_cayley(f"2\n0 {token}\n1 1\n").table == table

    @pytest.mark.parametrize("token, message", [
        ("-1", "table[0][1] = -1 outside [0, 2)"),
        ("999", "table[0][1] = 999 outside [0, 2)"),
    ])
    def test_out_of_range_tokens_fail_validation(self, token, message):
        s = core.parse_cayley(f"2\n0 {token}\n1 1\n")
        with pytest.raises(EntryOutOfRange) as err:
            core.validate(s)
        assert str(err.value) == message

    def test_comment_lines_before_the_trailer(self):
        s = core.parse_cayley("2\n0 1\n# c\n1 1\n# labels: a b\n")
        assert (s.table, s.labels) == (((0, 1), (1, 1)), ("a", "b"))

    def test_tab_separated_rows(self):
        s = core.parse_cayley("2\n0\t1\n1 \t 1\n")
        assert s.table == ((0, 1), (1, 1))

    def test_entries_outside_the_order_print_as_str(self):
        s = core.FiniteSemigroup(((0, -1), (1, 7)), ("a", "b"))
        assert core.format_cayley(s) == "2\n0 -1\n1 7\n# labels: a b\n"

    @pytest.mark.parametrize("family, top", [
        ("Tn", 4), ("PTn", 4), ("On", 7), ("OPn", 5), ("Pn", 5),
    ])
    def test_family_tables_round_trip(self, family, top):
        for n in range(1, top + 1):
            s = enumerate_family(family, n).semigroup
            back = core.parse_cayley(core.format_cayley(s))
            assert (back.table, back.labels) == (s.table, s.labels), n
