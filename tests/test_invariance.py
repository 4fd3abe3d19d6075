"""Isomorphism invariance of the band verdicts.

Permuting a pattern's rows or columns relabels the band's index sets, so
the band it gives is isomorphic; transposing it gives the opposite band,
in which a and b are mutual inverses exactly when they are in the band.
``search-q4`` decides one band per orbit of row and column permutations
(``bands.pattern_orbits``), so it rests on every verdict staying the same
under these moves.  Each is checked here on every regular pattern up to
3x4: whether a permutation matching exists, whether the gadget finds an
involution matching, and whether the backtracking oracle finds one; and
every matching or involution found on an image re-verifies on it.
"""

import random

import corpus
from invmatch import bands, matching


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
