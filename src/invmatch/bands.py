"""0-rectangular bands given by their idempotent pattern.

A band here is the set {0} plus an m x n grid of cells (i, j) with
product (i, j)(k, l) = (i, l) when pattern[k][j] holds, else 0.  The
module hosts the scaled Hall conditions on the pattern, the construction
of disjoint row-to-column injections covering all columns (Hall's harem
theorem), the involution matching built from them, and the canonical
7-element band with no permutation matching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations
from math import factorial, lcm, prod
from operator import or_

from . import graphs
from .core import FAMILY_CAP, FiniteSemigroup, InverseGraph
from .core import pattern_inverse_graph
from .errors import (
    BudgetExhausted,
    NotDivisible,
    NotRegularPattern,
    ParameterOutOfRange,
    ParseError,
    TooLarge,
)
from .matching import Matching, check_permutation


@dataclass(frozen=True)
class ZeroRectBand:
    """Indexed as its Cayley table :func:`to_semigroup`, with the same
    ``order`` and ``inverse_graph``: the matching functions that read only
    those take the band itself."""

    m: int
    n: int
    pattern: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        """A band is built m x n and regular: ParameterOutOfRange for a
        pattern of another shape, else NotRegularPattern names its first
        row without an idempotent, else its first such column."""
        if len(self.pattern) != self.m or any(
                len(row) != self.n for row in self.pattern):
            raise ParameterOutOfRange(f"pattern is not {self.m} x {self.n}")
        for i, row in enumerate(self.pattern):
            if not any(row):
                raise NotRegularPattern(f"row {i} has no idempotent")
        for j, column in enumerate(zip(*self.pattern)):
            if not any(column):
                raise NotRegularPattern(f"column {j} has no idempotent")

    @property
    def order(self) -> int:
        return self.m * self.n + 1

    @cached_property
    def inverse_graph(self) -> InverseGraph:
        """Read off the pattern."""
        return pattern_inverse_graph(self.pattern)

    @property
    def aspect_ratio(self) -> int:
        if self.n % self.m:
            raise NotDivisible(self.m, self.n)
        return self.n // self.m

    def cell_index(self, i: int, j: int) -> int:
        """Semigroup index of cell (i, j); the zero sits at index 0."""
        return 1 + i * self.n + j

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.m) for j in range(self.n)]


def band_from_rows(rows) -> ZeroRectBand:
    pattern = tuple(tuple(bool(v) for v in row) for row in rows)
    m = len(pattern)
    return ZeroRectBand(m, len(pattern[0]) if m else 0, pattern)


def no_matching_band() -> ZeroRectBand:
    """The smallest known band without a permutation matching: 7 elements,
    2 x 3, idempotents at 1-based positions (1,2), (1,3), (2,1).

    Cells display 1-based, so the short side A = {(2,2), (2,3)} of its
    Hall violator shows up under exactly those labels.
    """
    return band_from_rows([[0, 1, 1], [1, 0, 0]])


def to_semigroup(band: ZeroRectBand) -> FiniteSemigroup:
    """Cayley table of the band, for the commands that read a table;
    cell (i, j) sits at index 1 + i*n + j and is labelled "(i+1,j+1)"
    (grids are conventionally displayed 1-based).  Past FAMILY_CAP
    elements, the bound on a ``gen`` table, it raises TooLarge before
    allocating."""
    m, n, pat = band.m, band.n, band.pattern
    size = band.order
    if size > FAMILY_CAP:
        raise TooLarge(f"band of order {size} exceeds cap {FAMILY_CAP}")
    rows = [[0] * size for _ in range(size)]
    for i in range(m):
        for j in range(n):
            x = band.cell_index(i, j)
            for k in range(m):
                for l in range(n):
                    if pat[k][j]:
                        rows[x][band.cell_index(k, l)] = band.cell_index(i, l)
    labels = ("0",) + tuple(f"({i + 1},{j + 1})" for i, j in band.cells())
    return FiniteSemigroup(tuple(map(tuple, rows)), labels)


def verify_band_matching(band: ZeroRectBand, p) -> bool:
    """``verify_permutation_matching(to_semigroup(band), p)`` read off the
    pattern, except that a full-length p moving 0 is rejected before the
    permutation check: 0 is the only inverse of 0, and cells (i, j) and
    (k, l) are mutual inverses iff pattern[k][j] and pattern[i][l] (both
    sandwich products are then idempotent)."""
    if len(p) == band.order and p[0] != 0:
        return False
    check_permutation(band.order, p)
    # cell (i, j) sits at 1 + i*n + j: with u = x - 1 and v = p[x] - 1,
    # pattern[k][j] is flat[v - l + j] and pattern[i][l] is flat[u - j + l]
    n = band.n
    flat = [v for row in band.pattern for v in row]
    for u, v in enumerate(p[1:]):
        v -= 1
        shift = v % n - u % n
        if not (flat[v - shift] and flat[u + shift]):
            return False
    return True


def verify_band_involution(band: ZeroRectBand, p) -> bool:
    """:func:`verify_band_matching` plus p[p[x]] = x for every x."""
    return verify_band_matching(band, p) and all(
        p[p[x]] == x for x in range(band.order)
    )


# ---------------------------------------------------------------------------
# The scaled Hall condition and the harem construction


# Most clone-list entries m·lcm(m, n): the full 158 x 159 band takes ~8 s.
CLONE_CAP = 4_000_000


def _clone_matching(band: ZeroRectBand) -> tuple[list[int], tuple | None]:
    """Maximum matching of lcm(m, n) row clones onto as many column clones,
    with g = gcd(m, n): n/g per row (clone u is row u % m) and m/g per
    column (clone v is column v % n), so for m | n no column is cloned.
    Returns ``match_l`` and the deficiency certificate, which is None
    exactly when every clone is matched.

    That happens iff every row set T has n|T| <= m|N(T)|, and iff the band
    has a permutation matching.  Necessity: the n|T| cells in the rows T
    map to distinct cells in the columns N(T), and there are m|N(T)|.
    Sufficiency: Hall on the clones; a perfect clone matching, counted per
    cell and scaled by g, gives integer weights w on the 1-cells with row
    sums n and column sums m, and w[k][j]·w[i][l]/(mn) on each edge
    (i, j) -> (k, l) of the inverse graph is a fractional perfect
    matching, so by König the graph has a perfect one.  Certificate: the
    clones of a row share one list and those of a column one set of
    neighbours, so alternating reachability takes every clone of a row or
    column it reaches, and the rows of the deficient set break the bound.
    """
    m, n, size = band.m, band.n, lcm(band.m, band.n)
    if m * size > CLONE_CAP:
        raise TooLarge(f"clone matching of {m * size} entries exceeds cap "
                       f"{CLONE_CAP}")
    adj = [[v for v in range(size) if row[v % n]] for row in band.pattern]
    adj *= size // m
    _, match_l, _, reached = graphs.hopcroft_karp(size, size, adj)
    return match_l, graphs.deficiency_certificate(adj, reached)


def check_harem_condition(
    band: ZeroRectBand,
) -> tuple[bool, tuple[str, tuple[int, ...]] | None]:
    """Decide the scaled Hall condition by matching feasibility.

    Returns (True, None) or (False, ("rows", T)) where the row set T
    breaks n|T| <= m|N(T)|.  Exhaustive subset checking lives in
    :func:`check_harem_condition_exhaustive` as the small-m oracle.
    """
    _, cert = _clone_matching(band)
    if cert is None:
        return True, None
    return False, ("rows", tuple(sorted({u % band.m for u in cert[0]})))


def check_harem_condition_exhaustive(
    band: ZeroRectBand,
) -> tuple[bool, tuple[str, tuple[int, ...]] | None]:
    """Subset-scan oracle for the scaled Hall condition over the 2^m row
    sets; the column condition follows from the row one."""
    m, n, pat = band.m, band.n, band.pattern
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        cols = {j for j in range(n) for i in rows if pat[i][j]}
        if m * len(cols) < n * len(rows):
            return False, ("rows", tuple(rows))
    return True, None


@dataclass(frozen=True)
class HaremFamily:
    """Injections rows -> columns with pairwise disjoint ranges covering
    every column; ``functions[t][i]`` is the column of row i under the
    t-th injection, and every (i, functions[t][i]) is an idempotent."""

    functions: tuple[tuple[int, ...], ...]


def harem_family(band: ZeroRectBand) -> HaremFamily | None:
    """Constructs the family whenever the scaled Hall condition holds.

    Each row's matched columns are assigned to slots in increasing column
    order, which makes the output deterministic.  Raises NotDivisible
    before any matching when m does not divide n.
    """
    band.aspect_ratio  # raises NotDivisible before any matching
    match_l, cert = _clone_matching(band)
    if cert is not None:
        return None
    per_row: list[list[int]] = [[] for _ in range(band.m)]
    for u, col in enumerate(match_l):
        per_row[u % band.m].append(col)
    # injection t takes column t of every row's sorted matched columns
    return HaremFamily(tuple(zip(*map(sorted, per_row))))


@dataclass
class HaremInvolution:
    """Involution matching of the band plus the data it was built from.

    ``column_order[new]`` is the original column relabelled ``new``; the
    matching itself is expressed in original coordinates over the band
    semigroup indexing (zero fixed at 0).
    """

    matching: Matching
    family: HaremFamily
    column_order: tuple[int, ...]


def involution_from_harem(band: ZeroRectBand) -> HaremInvolution | None:
    """Involution matching from a harem family.

    Columns are relabelled so the t-th injection maps row i to t*m + i;
    in those coordinates cell (i, t*m + r) swaps with (r, t*m + i), which
    squares to the identity and pairs mutual inverses.  None when the
    family does not exist.
    """
    fam = harem_family(band)
    if fam is None:
        return None
    m = band.m
    column_order = tuple(c for f in fam.functions for c in f)
    new_of = {orig: new for new, orig in enumerate(column_order)}
    p = [0] * band.order
    for i, c in band.cells():
        t, r = divmod(new_of[c], m)
        image = (r, column_order[t * m + i])
        p[band.cell_index(i, c)] = band.cell_index(*image)
    return HaremInvolution(tuple(p), fam, column_order)


# ---------------------------------------------------------------------------
# Pattern orbits, random patterns and the text format
#
#   line 1: "m n"; then m rows of n characters '0'/'1'.


# Draws random_band makes before it gives up.  A 1x20 pattern at density
# 0.3 covers its row with p = 0.3**20, so without a cap the sampler would
# not end.  The cap sits above the 941,857 draws that
# random_band(1, 12, 0.35, 1010) needs, the most of any seeded call in the
# tests, so every pattern they and the goldens pin is unchanged.
RANDOM_BAND_MAX_DRAWS = 1_000_000


def random_band(m: int, n: int, density: float, seed: int) -> ZeroRectBand:
    """Seeded pattern, rejection-sampled until every row and column holds
    an idempotent; identical arguments give identical patterns.  Raises
    BudgetExhausted after RANDOM_BAND_MAX_DRAWS uncovered draws."""
    if m < 1 or n < 1:
        raise ParameterOutOfRange("band dimensions must be positive")
    if not 0 < density <= 1:
        raise ParameterOutOfRange("density must lie in (0, 1]")
    rng = random.Random(seed)
    for _ in range(RANDOM_BAND_MAX_DRAWS):
        rows = [
            [rng.random() < density for _ in range(n)] for _ in range(m)
        ]
        if all(any(row) for row in rows) and all(
            any(rows[i][j] for i in range(m)) for j in range(n)
        ):
            return band_from_rows(rows)
    raise BudgetExhausted(
        f"no {m}x{n} pattern at density {density} covered every row and "
        f"column in {RANDOM_BAND_MAX_DRAWS} draws (seed {seed})"
    )


def pattern_orbits(m: int, n: int):
    """Yield (band, orbit_size) once per orbit of the regular m x n patterns
    under permuting rows and columns (isomorphic bands), in the order of its
    least t: the nondecreasing tuple of the L longer-side lines, masks over
    the shorter side, least among its sorted images under the shorter
    side's permutations.  The orbit holds L!/prod(mult!) x (permutations /
    those fixing t) patterns.  Orderly generation (Read 1978; McKay, J.
    Algorithms 1998) extends a prefix only while it is least among its
    images, and loses no least t: if sorted(s(p)) < p for a permutation s
    and the prefix p of t's k least masks, s(p) lies inside s(t), so
    sorted(s(t))[:k] <= sorted(s(p)) entrywise, and sorted(s(t)) < t."""
    short, long = sorted((m, n))
    full = (1 << short) - 1
    tables = [[sum((x >> k & 1) << p[k] for k in range(short))
               for x in range(full + 1)] for p in permutations(range(short))]
    lines = [tuple(x >> k & 1 == 1 for k in range(short)) for x in range(full + 1)]
    masks, x = [], 1  # the walk's prefix and the next mask to try after it
    while masks or x <= full:
        if x <= full:
            masks.append(x)
            if len(masks) < long or reduce(or_, masks) == full:
                fixed = 0
                for t in tables:
                    image = sorted(map(t.__getitem__, masks))
                    if image < masks:
                        break
                    fixed += image == masks
                else:
                    if len(masks) < long:
                        continue  # extend masks by a mask of x or more
                    size = len(tables) // fixed * factorial(long)
                    size //= prod(map(factorial, map(masks.count, set(masks))))
                    pat = tuple(map(lines.__getitem__, masks))
                    yield ZeroRectBand(m, n, pat if m > n else tuple(zip(*pat))), size
        x = masks.pop() + 1  # the last mask is done with: try the next one


def orbit_members(band: ZeroRectBand) -> list[ZeroRectBand]:
    """The patterns of the band's orbit, closed up from swaps of adjacent
    rows and of adjacent columns."""
    def swaps(pat):
        return (pat[:k] + (pat[k + 1], pat[k]) + pat[k + 2:]
                for k in range(len(pat) - 1))
    seen, todo = {band.pattern}, [band.pattern]
    while todo:
        pat = todo.pop()
        cols = (tuple(zip(*c)) for c in swaps(tuple(zip(*pat))))
        for image in {*swaps(pat), *cols} - seen:
            seen.add(image)
            todo.append(image)
    return [ZeroRectBand(band.m, band.n, pat) for pat in seen]


def content_lines(text: str):
    """The lines of ``text``, stripped, without the blank and ``#`` ones,
    one at a time."""
    return (ln for ln in map(str.strip, text.splitlines())
            if ln and not ln.startswith("#"))


def read_headed(text: str, what: str) -> tuple[int, int, list[str]]:
    """The ``m n`` header of a ``what`` file (band or instance) and its
    :func:`content_lines` after it."""
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    try:
        m, n = map(int, head)  # a wrong token count fails the unpacking
    except ValueError as exc:
        raise ParseError(f"bad {what} header: {lines[0]!r}") from exc
    return m, n, lines[1:]


def parse_band(text: str) -> ZeroRectBand:
    m, n, lines = read_headed(text, "band")
    if m < 1 or n < 1:
        raise ParseError("band dimensions must be positive")
    if len(lines) != m:
        raise ParseError(f"expected {m} pattern rows, found {len(lines)}")
    rows = []
    for ln in lines:
        if len(ln) != n or any(ch not in "01" for ch in ln):
            raise ParseError(f"bad pattern row: {ln!r}")
        rows.append(tuple(map("1".__eq__, ln)))
    return ZeroRectBand(m, n, tuple(rows))


def format_band(band: ZeroRectBand) -> str:
    out = [f"{band.m} {band.n}"]
    out.extend("".join(map("01".__getitem__, row)) for row in band.pattern)
    return "\n".join(out) + "\n"
