"""Isomorphism invariance of the verdicts on bands, tables and colour
instances.

Permuting a pattern's rows or columns relabels the band's index sets, so
the band it gives is isomorphic; transposing it gives the opposite band,
in which a and b are mutual inverses exactly when they are in the band.
``search-q4`` decides one band per orbit of row and column permutations
(``bands.pattern_orbits``), so it rests on every verdict staying the same
under these moves.  Each is checked here on every regular pattern up to
3x4: whether a permutation matching exists, whether the gadget finds an
involution matching, and whether the backtracking oracle finds one; and
every matching or involution found on an image re-verifies on it.

Several fast paths depend on element order: the greedy generating set of
``validate`` and ``green_relations``, Tarjan's component numbering, the
greedy phase of Hopcroft-Karp, the seeded blossom search and the colour
solver's failed-state keys.  A relabelled table is isomorphic and the
transposed table is the opposite semigroup, with the same inverse
relation; relabelling girls or colours or reordering the balls of a colour
instance leaves the same problem.  So every verdict below must survive
these moves, and every witness found on an image must re-verify on it.
"""

import random

import corpus
from invmatch import bands, colours, core, matching
from invmatch.core import FiniteSemigroup
from invmatch.transformations import enumerate_family


def verdicts(band):
    g = band.inverse_graph
    p = matching.matching_on_graph(g)
    inv = None if p is None else matching.involution_on_graph(g, matching=p)
    oracle = matching.involution_backtracking(band)
    assert p is None or bands.verify_band_matching(band, p)
    assert inv is None or bands.verify_band_involution(band, inv)
    assert oracle is None or bands.verify_band_involution(band, oracle)
    return p is not None, inv is not None, oracle is not None


def images(band, rng):
    rows, cols = list(range(band.m)), list(range(band.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    pat = band.pattern
    yield bands.band_from_rows(pat[i] for i in rows)
    yield bands.band_from_rows([row[j] for j in cols] for row in pat)
    yield bands.band_from_rows(zip(*pat))


def test_verdicts_survive_permutations_and_the_transpose():
    rng = random.Random(2023)
    patterns = checked = moved = 0
    for band in corpus.all_regular_patterns(3, 4):
        patterns += 1
        expected = verdicts(band)
        for image in images(band, rng):
            assert verdicts(image) == expected, (band.pattern, image.pattern)
            checked += 1
            moved += image.pattern != band.pattern
    # the seeded shuffles leave only some images in place
    assert checked == 3 * patterns == 3 * 2_568
    assert moved > checked // 2


def test_band_check_verdict_survives_the_transpose():
    # the transpose swaps m and n, and off the square shapes m | n holds on
    # one side at most; the scaled Hall verdict must not notice
    patterns = failing = 0
    for band in corpus.all_regular_patterns(3, 4):
        ok, _ = bands.check_harem_condition(band)
        transpose = bands.band_from_rows(zip(*band.pattern))
        assert bands.check_harem_condition(transpose)[0] == ok, band.pattern
        patterns += 1
        failing += not ok
    assert patterns == 2_568 and 0 < failing < patterns


def table_verdicts(s):
    rep = matching.equivalence_report(s)
    inv = None
    if rep.has_matching:
        assert matching.verify_permutation_matching(s, rep.matching)
        inv = matching.involution_on_graph(s.inverse_graph, matching=rep.matching)
        assert inv is None or matching.verify_involution_matching(s, inv)
    if rep.h_preserving is not None:
        assert matching.verify_permutation_matching(s, rep.h_preserving)
        assert matching.is_h_preserving(s, rep.h_preserving)
    if rep.violator is not None:
        joint = {b for a in rep.violator.elements for b in s.inverse_graph.inverses[a]}
        assert sorted(joint) == list(rep.violator.image)
        assert len(rep.violator.image) < len(rep.violator.elements)
    return (
        vars(core.structure_report(s)),
        sorted(len(d.elements) for d in s.egg_box.d_classes),
        rep.has_matching,
        rep.hall_ok,
        sorted(rep.factor_verdicts),
        sorted(rep.quotient_verdicts),
        inv is not None,
    )


def test_table_verdicts_survive_relabelling_and_the_transpose():
    rng = random.Random(7)
    inputs = [corpus.corpus_semigroup(seed) for seed in range(300)]
    inputs += map(bands.to_semigroup, corpus.all_regular_patterns(3, 3))
    unmatched = 0
    for s in inputs:
        expected = table_verdicts(s)
        unmatched += not expected[2]
        perm = list(range(s.order))
        rng.shuffle(perm)
        for image in corpus.relabel(s, perm), FiniteSemigroup(tuple(zip(*s.table))):
            assert table_verdicts(image) == expected, s.table
    # both answers to has_matching are exercised
    assert len(inputs) == 627 and 0 < unmatched < len(inputs)


def test_analyze_reports_survive_relabelling(tmp_path):
    rng = random.Random(11)
    inputs = [enumerate_family("Tn", 3).semigroup,
              bands.to_semigroup(bands.no_matching_band())]
    inputs += [corpus.corpus_semigroup(seed) for seed in range(40)]
    path = tmp_path / "s.cayley"
    for s in inputs:
        perm = list(range(s.order))
        rng.shuffle(perm)
        expected = corpus.analyze_verdicts(path, s)
        assert expected[0] == 0
        assert corpus.analyze_verdicts(path, corpus.relabel(s, perm)) == expected


def colour_instances():
    """Band-derived instances from 2x4 to 5x10; some make the solver
    backtrack."""
    for m, n, density, seeds in ((2, 4, 0.7, range(10)), (3, 6, 0.4, range(30)),
                                 (4, 8, 0.4, range(30)), (5, 10, 0.4, range(20, 40))):
        for seed in seeds:
            band = bands.random_band(m, n, density, seed)
            phi = matching.find_permutation_matching(band)
            if phi is not None:
                yield colours.instance_from_matching(band, phi)


def colour_images(inst, rng):
    girls, hues, balls = list(range(inst.m)), list(range(inst.n)), list(inst.balls)
    rng.shuffle(girls)
    rng.shuffle(hues)
    rng.shuffle(balls)
    for image in (
        [(girls[g], c) for g, c in inst.balls],
        [(g, hues[c]) for g, c in inst.balls],
        balls,
    ):
        yield colours.ColourInstance(inst.m, inst.n, tuple(image))


def test_colour_status_survives_relabelling_and_reordering():
    rng = random.Random(2023)
    checked = exhausted = backtracked = 0
    for inst in colour_instances():
        expected = colours.solve(inst, budget=20_000)
        plan = expected.plan
        if plan is not None:
            assert colours.verify_plan(inst, plan)
            # one node per exchange or fixed point when nothing is undone
            pairs = sum(i <= j for i, j in enumerate(plan.pairing))
            backtracked += expected.nodes > pairs
        for image in colour_images(inst, rng):
            result = colours.solve(image, budget=20_000)
            if result.plan is not None:
                assert colours.verify_plan(image, result.plan)
            if "budget_exhausted" in (expected.status, result.status):
                exhausted += 1
            else:
                assert result.status == expected.status, image
                checked += 1
    assert backtracked >= 5
    assert checked > 20 * exhausted
