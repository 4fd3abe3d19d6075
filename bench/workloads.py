"""Workload inputs and their checkers.

Each workload is a list of :class:`Item`, one CLI call each, that a pass runs
in order.  Inputs come from the benchmark's own seeded generators; the
program receives only the generated text and argv.  Every item carries the
exit code it must end with and a checker that re-verifies its output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from invmatch import bands, colours, core, matching

NAMES = ("tf-analyze", "on-search", "band-stream", "colour-reduce")

# Median wall seconds of one pass at full size when the benchmark was defined
# (2-core shared VM, Python 3.11).  A run makes round(seconds / this) passes,
# at least one, so both sides of a comparison do the same work whatever
# their speed.
NOMINAL_PASS_S = {
    "tf-analyze": 12.5,
    "on-search": 2.2,
    "band-stream": 0.95,
    "colour-reduce": 6.5,
}

# Acceptance-criterion-5 shapes: m divides n, n <= 12, excluding 1x1.
COLOUR_SHAPES = [
    (m, a * m)
    for m in range(1, 7)
    for a in range(1, 13)
    if a * m <= 12 and (m, a) != (1, 1)
]
COLOUR_DENSITIES = (0.35, 0.55, 0.75)
COLOUR_BUDGET = 200_000
# A pass runs the short calls of a workload this many times, then its one
# long call (analyze O_6, ~6 s; colour reduce on the 1x1500 band, ~3 s)
# once, so a 25 s run averages each short call over enough calls to hold
# still between runs.
TF_ROUNDS = 4
COLOUR_ROUNDS = 3

# The corrupted O_n entry sits in row 0, column < this, and its first bad
# triple (0, b, c) has b < this (see corrupt_table).
CORRUPT_COLUMNS = 8

# Shapes of more than 36 cells (4x12, 5x10, 6x12) hold fixed bands at every
# density, drawn once from fixed streams, so the seed varies only the smaller
# shapes.  On those large shapes the solver's cost has a heavy tail: about
# one 6x12 draw in 20 at density 0.35, and about one in 100 at 0.55,
# exhausts the node budget, so whether a seed drew such a band would decide
# its timings and add a failure.  The 0.35 slots hold typical 4x12 and 5x10
# bands and a 6x12 band that the solver settles in about 81,000 nodes, so
# every seed measures that same hard instance; the others are typical draws
# (31 to 56 nodes).
PINNED_BANDS = {
    (4, 12, 0.35): "4 12\n011011001010\n000011000111\n111100010100\n010000111001\n",
    (5, 10, 0.35): "5 10\n1010001100\n1001101010\n1101000001\n1000010000\n0010100101\n",
    (6, 12, 0.35): "6 12\n011011101011\n110001100001\n000010011111\n"
                   "001100000000\n011000110010\n000010010000\n",
    (4, 12, 0.55): "4 12\n110110110110\n001101011100\n101110101001\n111111110111\n",
    (5, 10, 0.55): "5 10\n0111111001\n0101000011\n0111111111\n1101100011\n1111100100\n",
    (6, 12, 0.55): "6 12\n101111100111\n111011010111\n100110010110\n"
                   "100110101100\n110101100100\n111011111100\n",
    (4, 12, 0.75): "4 12\n011111110111\n111111110011\n101111111110\n111101110110\n",
    (5, 10, 0.75): "5 10\n1111111011\n1111110011\n0011011111\n1111111110\n1001111110\n",
    (6, 12, 0.75): "6 12\n010110111111\n011111111101\n111111011101\n"
                   "111111110111\n111100110011\n111110100111\n",
}


@dataclass
class Item:
    """One CLI call: a label, argv, stdin text, the exit code it must end
    with, and a checker returning None when stdout/stderr verify, else a
    reason."""

    label: str
    argv: list[str]
    stdin: str
    expect_code: int
    check: Callable[[str, str], str | None]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Transformation tables, generated independently of invmatch.transformations


def _cayley_text(maps) -> str:
    """The ``gen`` format: order line, rows of products (apply f, then g),
    and a labels trailer."""
    pos = {f: i for i, f in enumerate(maps)}
    lines = [str(len(maps))]
    lines.extend(
        " ".join(str(pos[tuple(g[v] for v in f)]) for g in maps) for f in maps
    )
    lines.append("# labels: " + " ".join("".join(map(str, f)) for f in maps))
    return "\n".join(lines) + "\n"


def full_transformation_text(n: int) -> str:
    return _cayley_text(sorted(itertools.product(range(n), repeat=n)))


def order_preserving_text(n: int) -> str:
    return _cayley_text(sorted(itertools.combinations_with_replacement(range(n), n)))


def _first_bad_triple(t, a0: int, b0: int):
    """Lexicographically first (a, b, c) with (ab)c != a(bc) in a table that
    is associative except at entry (a0, b0).  Only triples whose four
    lookups touch that entry can fail, so the scan is O(n^2)."""
    n = len(t)
    cands = {(a0, b0, z) for z in range(n)} | {(x, a0, b0) for x in range(n)}
    for x in range(n):
        row = t[x]
        for y in range(n):
            if row[y] == a0:
                cands.add((x, y, b0))
            if row[y] == b0:
                cands.add((a0, x, y))
    bad = [(x, y, z) for x, y, z in cands if t[t[x][y]][z] != t[x][t[y][z]]]
    return min(bad) if bad else None


def corrupt_table(text: str, rng: random.Random):
    """Change one entry so the table is not associative; return the new text
    and the first bad triple ``validate`` must report.

    The entry is drawn from the first ``CORRUPT_COLUMNS`` columns of row 0,
    and a draw is kept only when the first bad triple is (0, b, c) with
    b < ``CORRUPT_COLUMNS``, so validate's failure path scans at most that
    many rows of n entries on every seed; the seed moves the triple, not
    the cost.
    """
    lines = text.splitlines()
    n = int(lines[0])
    t = [[int(v) for v in ln.split()] for ln in lines[1 : n + 1]]
    while True:
        a0, b0 = 0, rng.randrange(min(n, CORRUPT_COLUMNS))
        old = t[a0][b0]
        t[a0][b0] = rng.choice([v for v in range(n) if v != old])
        triple = _first_bad_triple(t, a0, b0)
        if triple is not None and triple[0] == 0 and triple[1] < CORRUPT_COLUMNS:
            lines[1 + a0] = " ".join(map(str, t[a0]))
            return "\n".join(lines) + "\n", triple
        t[a0][b0] = old


# ---------------------------------------------------------------------------
# Bands, generated and decided independently of invmatch.bands


def band_text(pattern) -> str:
    return f"{len(pattern)} {len(pattern[0])}\n" + "".join(
        "".join("1" if v else "0" for v in row) + "\n" for row in pattern
    )


def covering_band(rng: random.Random, m: int, n: int, density: float):
    """Pattern with an idempotent in every row and column by construction:
    one random row per column, one random column per still-empty row, then
    ``round(density * k)`` of the ``k`` cells still empty, chosen at random.
    That count is fixed rather than drawn cell by cell, because the cost of
    a call follows it: the seed moves where the idempotents sit, and how
    many the covering step set, but not how many of the rest are added."""
    pat = [[False] * n for _ in range(m)]
    for j in range(n):
        pat[rng.randrange(m)][j] = True
    for row in pat:
        if not any(row):
            row[rng.randrange(n)] = True
    free = [(i, j) for i in range(m) for j in range(n) if not pat[i][j]]
    for i, j in rng.sample(free, round(density * len(free))):
        pat[i][j] = True
    return pat


def is_regular_pattern(pat) -> bool:
    return all(any(row) for row in pat) and all(
        any(row[j] for row in pat) for j in range(len(pat[0]))
    )


def band_has_matching(pat) -> bool:
    """Permutation matching of the 0-rectangular band (zero maps to itself).

    Cell (k, l) is an inverse of (i, j) iff pat[k][j] and pat[i][l]; decided
    by Kuhn's augmenting paths (depth at most the cell count).
    """
    m, n = len(pat), len(pat[0])
    cells = [(i, j) for i in range(m) for j in range(n)]
    adj = [
        [y for y, (k, l) in enumerate(cells) if pat[k][j] and pat[i][l]]
        for i, j in cells
    ]
    owner = [-1] * len(cells)

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if owner[v] == -1 or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return all(augment(u, [False] * len(cells)) for u in range(len(cells)))


def q4_shape_counts(m_max: int, n_max: int) -> list[dict]:
    """Per shape: all patterns, the regular ones, and those with a matching."""
    out = []
    for m, n in sorted(itertools.product(range(1, m_max + 1), range(1, n_max + 1))):
        counts = {"m": m, "n": n, "total": 0, "regular": 0, "matched": 0}
        for bits in range(2 ** (m * n)):
            pat = [[bool(bits >> (i * n + j) & 1) for j in range(n)] for i in range(m)]
            counts["total"] += 1
            if is_regular_pattern(pat):
                counts["regular"] += 1
                counts["matched"] += band_has_matching(pat)
        out.append(counts)
    return out


# ---------------------------------------------------------------------------
# Checkers


def _report(out: str, command: str) -> dict:
    rep = json.loads(out)
    if rep.get("command") != command:
        raise ValueError(f"report command {rep.get('command')!r}")
    return rep


def _check_exact(expected_out: str, expected_err: str = ""):
    def check(out: str, err: str):
        if out != expected_out:
            return "stdout differs from the expected text"
        if err != expected_err:
            return f"stderr {err!r}"
        return None

    return check


def _check_analyze(text: str):
    def check(out: str, err: str):
        rep = _report(out, "analyze")
        sg = core.parse_cayley(text)
        v, w = rep["verdicts"], rep["witnesses"]
        if rep["input"]["digest"] != _sha256(text) or rep["order"] != sg.order:
            return "input digest or order"
        if sum(rep["d_class_sizes"]) != sg.order:
            return "D-class sizes do not sum to the order"
        if not (v["has_matching"] and v["hall_condition"]):
            return "T_n and O_n have a permutation matching"
        if not (all(v["factor_verdicts"]) and all(v["quotient_verdicts"])):
            return "factor or quotient verdict disagrees with the global one"
        if w["hall_violator"] is not None:
            return "hall violator reported next to a matching"
        if not matching.verify_permutation_matching(sg, w["matching"]):
            return "matching witness fails re-verification"
        hp = w["h_preserving"]
        if hp is not None and not (
            matching.verify_permutation_matching(sg, hp)
            and matching.is_h_preserving(sg, hp)
        ):
            return "H-preserving witness fails re-verification"
        return None

    return check


def _check_search_on(n_max: int, oracle_max: int):
    def check(out: str, err: str):
        fams = _report(out, "search-on")["verdicts"]["families"]
        if [f["n"] for f in fams] != list(range(1, n_max + 1)):
            return "family list"
        for f in fams:
            n, size = f["n"], comb(2 * f["n"] - 1, f["n"])
            if f["size"] != size or f["size_formula"] != size:
                return f"|O_{n}| != C(2n-1, n) = {size}"
            if not (f["has_matching"] and f["matching_verified"]):
                return f"O_{n} has no verified matching"
            if f.get("oracle_agrees") is not (True if n <= oracle_max else None):
                return f"oracle verdict on O_{n}"
        return None

    return check


def _check_search_q4(expected_shapes: list[dict]):
    def check(out: str, err: str):
        rep = _report(out, "search-q4")
        v = rep["verdicts"]
        if v["separators_found"] != 0 or rep["witnesses"]["separators"]:
            return "separator found (or the oracle disagreed)"
        got = v["shapes"]
        if len(got) != len(expected_shapes):
            return "shape list"
        for g, e in zip(got, expected_shapes):
            if g["mode"] != "exhaustive" or any(g[k] != e[k] for k in e):
                return f"counts for shape {e['m']}x{e['n']}"
            # zero separators: every matched band has an involution matching
            if g["involution"] != g["matched"]:
                return f"involution count for shape {e['m']}x{e['n']}"
        return None

    return check


def _check_colour_reduce(text: str):
    def check(out: str, err: str):
        rep = _report(out, "colour reduce")
        band = bands.parse_band(text)
        sg = bands.to_semigroup(band)
        v, w = rep["verdicts"], rep["witnesses"]
        if rep["input"]["digest"] != _sha256(text) or (rep["m"], rep["n"]) != (band.m, band.n):
            return "input digest or shape"
        phi = w["matching"]
        if not matching.verify_permutation_matching(sg, phi):
            return "matching witness fails re-verification"
        if v["status"] != "solved":
            return f"status {v['status']!r} on a divisible band with a matching"
        inst = colours.instance_from_matching(band, phi)
        if not colours.verify_plan(inst, colours.ExchangePlan(tuple(w["plan"]))):
            return "plan fails verify_plan"
        if not (v["involution_verified"]
                and matching.verify_involution_matching(sg, w["involution"])):
            return "involution witness fails re-verification"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads


def _tf_analyze(rng: random.Random, smoke: bool) -> list[Item]:
    t_n, o_n = (3, 4) if smoke else (4, 6)
    t_text = full_transformation_text(t_n)
    o_text = order_preserving_text(o_n)
    bad_text, triple = corrupt_table(o_text, rng)
    analyze = ["analyze", "-", "--json"]
    small = [
        Item(f"gen T_{t_n}", ["gen", "Tn", str(t_n)], "", 0, _check_exact(t_text)),
        Item(f"analyze T_{t_n}", analyze, t_text, 0, _check_analyze(t_text)),
        Item(f"gen O_{o_n}", ["gen", "On", str(o_n)], "", 0, _check_exact(o_text)),
        Item(f"analyze corrupted O_{o_n}", analyze, bad_text, 3, _check_exact(
            "", "invalid algebra: (ab)c != a(bc) for (a, b, c) = (%d, %d, %d)\n"
            % triple)),
    ]
    full = Item(f"analyze O_{o_n}", analyze, o_text, 0, _check_analyze(o_text))
    return small * (1 if smoke else TF_ROUNDS) + [full]


def _on_search(rng: random.Random, smoke: bool) -> list[Item]:
    n_max = 4 if smoke else 7
    argv = ["search-on", "--n-max", str(n_max), "--oracle", "--json"]
    return [Item(f"search-on n<={n_max}", argv, "", 0, _check_search_on(n_max, 3))]


def _band_stream(rng: random.Random, smoke: bool) -> list[Item]:
    m_max, n_max = (2, 4) if smoke else (3, 4)
    argv = ["search-q4", "--oracle", "--json"]
    if smoke:
        argv += ["--m-max", str(m_max)]
    return [Item(f"search-q4 {m_max}x{n_max}", argv, "", 0,
                 _check_search_q4(q4_shape_counts(m_max, n_max)))]


def _colour_reduce(rng: random.Random, smoke: bool) -> list[Item]:
    argv = ["colour", "reduce", "--band", "-", "--budget", str(COLOUR_BUDGET), "--json"]
    no_matching = _check_exact("", "band has no permutation matching\n")
    items = []
    for k in range(5 if smoke else 100):
        m, n = COLOUR_SHAPES[k % len(COLOUR_SHAPES)]
        density = COLOUR_DENSITIES[(k // len(COLOUR_SHAPES)) % len(COLOUR_DENSITIES)]
        if (m, n, density) in PINNED_BANDS:
            text = PINNED_BANDS[m, n, density]
            pat = [[ch == "1" for ch in row] for row in text.split()[2:]]
        else:
            pat = covering_band(rng, m, n, density)
            text = band_text(pat)
        label = f"colour reduce #{k} {m}x{n}"
        if band_has_matching(pat):
            items.append(Item(label, argv, text, 0, _check_colour_reduce(text)))
        else:
            items.append(Item(label, argv, text, 4, no_matching))
    if smoke:
        return items
    # every cell of the full band is idempotent, so the identity is a
    # matching and the solver must return a plan; today the recursive solver
    # raises RecursionError here, which counts as a crash
    text = band_text([[True] * 1500])
    full = Item("colour reduce 1x1500", argv, text, 0, _check_colour_reduce(text))
    return items * COLOUR_ROUNDS + [full]


_BUILDERS = {
    "tf-analyze": _tf_analyze,
    "on-search": _on_search,
    "band-stream": _band_stream,
    "colour-reduce": _colour_reduce,
}


def build(name: str, seed: int, smoke: bool = False) -> list[Item]:
    """The items of one pass of workload ``name`` for ``seed``."""
    return _BUILDERS[name](random.Random(f"{name}/{seed}"), smoke)
