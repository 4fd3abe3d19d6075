"""Deterministic builders for the regular-semigroup test corpus.

Everything is seeded and reproducible; `corpus_semigroup(seed)` mixes
bands, groups, semilattices, completely (0-)simple semigroups over small
groups, products and adjunctions, all regular by construction.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import random

from invmatch import bands, cli
from invmatch.core import (
    DClassBox,
    EggBox,
    FiniteSemigroup,
    InverseGraph,
    _closure,
    format_cayley,
    semigroup_from_rows,
)
from invmatch.matching import build_inverse_graph


def inverses_of(s: FiniteSemigroup, a: int) -> list[int]:
    """V(a) by its definition: every b with aba = a and bab = b, ascending.
    The brute-force oracle for the inverse graph."""
    t = s.table
    return [
        b for b in range(s.order) if t[t[a][b]][a] == a and t[t[b][a]][b] == b
    ]


def inverse_graph_from_pairs(n: int, pairs) -> InverseGraph:
    """The graph on [0, n) of the mutual-inverse pairs (a, b), a <= b,
    read once (a generator will do); (a, a) puts a in V(a).  Once
    core.InverseGraph.from_pairs, the pair-stream constructor every graph
    oracle here builds with."""
    inverses: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        inverses[a].append(b)
        if a != b:
            inverses[b].append(a)
    return InverseGraph(n, tuple(tuple(sorted(vs)) for vs in inverses))


def compose(f, g, n: int):
    """Apply the map f, then g, as image tuples; the sentinel n absorbs.
    Once transformations.compose, the reference for composed tables."""
    return tuple(g[v] if v < n else n for v in f)


def maps_mutually_inverse(a, b, n: int) -> bool:
    """b in V(a) for maps as image tuples, the sentinel n marking
    "undefined": b sections a on im(a) and a sections b on im(b), with both
    maps extended by n as a fixed point.  The oracle for
    transformations.mutually_inverse and the tests' pair scan."""
    a, b = a + (n,), b + (n,)
    return all(a[b[y]] == y for y in set(a)) and all(
        b[a[z]] == z for z in set(b)
    )


# The per-cell test that bands.verify_band_matching reads off a flat copy
# of the pattern: the tests' oracle for which cells are mutual inverses.
def are_mutual_inverses(band, x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Cells (i, j) and (k, l) are mutual inverses iff pattern[k][j] and
    pattern[i][l] (both sandwich products are then idempotent)."""
    (i, j), (k, l) = x, y
    return band.pattern[k][j] and band.pattern[i][l]


# The pair-stream construction that core.pattern_inverse_graph replaced:
# the oracle for band graphs too large for a Cayley table.
def pattern_inverse_graph(pattern) -> InverseGraph:
    """Inverse graph of the 0-rectangular band with the given idempotent
    pattern, read off the pattern in O(edges): the zero at 0 is its own
    only inverse, and cells (i, j), (k, l) at 1 + i*n + j, 1 + k*n + l
    are mutual inverses iff pattern[k][j] and pattern[i][l]."""
    m = len(pattern)
    n = len(pattern[0]) if m else 0
    # looked up, not computed: all entries for a cell share one int object,
    # which halves the peak memory of a 1 x 1500 band
    index = [list(range(1 + i * n, 1 + (i + 1) * n)) for i in range(m)]
    cols = [[j for j in range(n) if row[j]] for row in pattern]
    rows = [[k for k in range(m) if pattern[k][j]] for j in range(n)]
    pairs = (
        (index[i][j], index[k][l])
        for i in range(m) for j in range(n)
        for k in rows[j] if k >= i
        for l in cols[i] if k > i or l >= j
    )
    return inverse_graph_from_pairs(m * n + 1,
                                    itertools.chain([(0, 0)], pairs))


# The recursive search that matching.matching_backtracking replaced, kept
# verbatim as its oracle: one frame per element and no budget, so only for
# small inputs.
def matching_backtracking(s: FiniteSemigroup) -> tuple[int, ...] | None:
    """Reference search over injective inverse assignments."""
    g = build_inverse_graph(s)
    n = g.n
    cand = g.inverses
    used = [False] * n
    out = [-1] * n

    def place(a: int) -> bool:
        if a == n:
            return True
        for b in cand[a]:
            if not used[b]:
                used[b] = True
                out[a] = b
                if place(a + 1):
                    return True
                used[b] = False
        return False

    return tuple(out) if place(0) else None


# The block-ratio criterion for orthodox bands, once bands.similarity_check:
# an orthodox band has a permutation matching iff its maximal all-true
# rectangles all have the same column/row ratio.
def orthodox_blocks(band) -> tuple[tuple[int, int], ...] | None:
    """(rows, cols) of each maximal all-true rectangle of the pattern, in
    order of first row; None when two rows share some but not all of their
    idempotent columns, as happens exactly when the band is not orthodox."""
    col_sets: dict[frozenset[int], list[int]] = {}
    for i, row in enumerate(band.pattern):
        col_sets.setdefault(frozenset(j for j, x in enumerate(row) if x),
                            []).append(i)
    seen: set[int] = set()
    for cols in col_sets:
        if seen & cols:
            return None
        seen |= cols
    return tuple((len(rows), len(cols)) for cols, rows in col_sets.items())


def blocks_similar(blocks) -> bool:
    r0, c0 = blocks[0]
    return all(c * r0 == c0 * r for r, c in blocks)


# The closure and the pair scan that core.structure_report once decided
# e_solid with: the oracle for its egg-box read.
def generated_closure(s: FiniteSemigroup, seed) -> list[int]:
    """Subsemigroup generated by ``seed``, in |S|·|X| products for the X
    of its elements that the closure of those before them misses; see
    core._closure."""
    return sorted(_closure(s.table, seed)[0])


def is_union_of_groups_subset(s: FiniteSemigroup, subset) -> bool:
    """Completely regular test relative to the subsemigroup ``subset``:
    every a has an inverse x in the subset with ax = xa."""
    t = s.table
    members = list(subset)
    for a in members:
        if not any(
            t[t[a][x]][a] == a and t[a][x] == t[x][a] for x in members
        ):
            return False
    return True


# The strong-inverse subgraph, once transformations.strong_inverse_pairs:
# a matching on it maps every a to an inverse b with <a, b> inverse.
def is_inverse_subsemigroup(s: FiniteSemigroup, members) -> bool:
    """Regular with commuting idempotents, inverses taken inside members."""
    t = s.table
    idems = [e for e in members if t[e][e] == e]
    return all(t[e][f] == t[f][e] for e in idems for f in idems) and all(
        any(t[t[x][y]][x] == x and t[t[y][x]][y] == y for y in members)
        for x in members
    )


def strong_inverse_graph(s: FiniteSemigroup) -> InverseGraph:
    """The inverse graph less every edge {a, b} whose generated
    subsemigroup is not inverse."""
    g = build_inverse_graph(s)
    return inverse_graph_from_pairs(g.n, (
        (a, b)
        for a in range(g.n)
        for b in g.inverses[a]
        if b >= a and is_inverse_subsemigroup(s, generated_closure(s, (a, b)))
    ))


# ---------------------------------------------------------------------------
# Green's relations by their definitions: the oracle for core.green_relations
# and core.principal_factors


def right_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    """a S^1 with the identity adjoined only virtually."""
    row = s.table[a]
    return frozenset(row) | {a}


def left_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    t = s.table
    return frozenset(t[x][a] for x in range(s.order)) | {a}


def two_sided_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    t = s.table
    n = s.order
    out = set(t[a]) | {a}
    out.update(t[x][a] for x in range(n))
    for x in range(n):
        xa = t[x][a]
        out.update(t[xa])
    return frozenset(out)


def _partition_by(n: int, key) -> list[list[int]]:
    groups: dict = {}
    for a in range(n):
        groups.setdefault(key(a), []).append(a)
    return sorted(groups.values(), key=lambda g: g[0])


def ideal_egg_box(s: FiniteSemigroup) -> EggBox:
    """Egg-box decomposition: R by right ideals, L by left ideals,
    H = R intersect L, D = join of R and L (= J on finite semigroups)."""
    n = s.order
    r_ideals = [right_ideal(s, a) for a in range(n)]
    l_ideals = [left_ideal(s, a) for a in range(n)]
    r_classes = _partition_by(n, lambda a: r_ideals[a])
    l_classes = _partition_by(n, lambda a: l_ideals[a])
    r_id = [0] * n
    for i, cls in enumerate(r_classes):
        for a in cls:
            r_id[a] = i
    l_id = [0] * n
    for i, cls in enumerate(l_classes):
        for a in cls:
            l_id[a] = i

    # D = smallest equivalence containing R and L: union-find
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for cls in r_classes:
        for a in cls[1:]:
            union(cls[0], a)
    for cls in l_classes:
        for a in cls[1:]:
            union(cls[0], a)

    d_classes_raw = _partition_by(n, find)
    d_of = [0] * n
    r_of = [0] * n
    l_of = [0] * n
    boxes = []
    for d_idx, members in enumerate(d_classes_raw):
        local_r = sorted({r_id[a] for a in members})
        local_l = sorted({l_id[a] for a in members})
        r_pos = {g: i for i, g in enumerate(local_r)}
        l_pos = {g: i for i, g in enumerate(local_l)}
        cells: list[list[list[int]]] = [
            [[] for _ in local_l] for _ in local_r
        ]
        for a in members:
            i, j = r_pos[r_id[a]], l_pos[l_id[a]]
            cells[i][j].append(a)
            d_of[a] = d_idx
            r_of[a] = i
            l_of[a] = j
        grid = tuple(tuple(tuple(cell) for cell in row) for row in cells)
        group = tuple(
            tuple(any(s.table[e][e] == e for e in cell) for cell in row)
            for row in grid
        )
        boxes.append(
            DClassBox(
                elements=tuple(members),
                r_classes=tuple(tuple(r_classes[g]) for g in local_r),
                l_classes=tuple(tuple(l_classes[g]) for g in local_l),
                grid=grid,
                group_h=group,
            )
        )
    return EggBox(tuple(boxes), tuple(d_of), tuple(r_of), tuple(l_of))


def ideal_zero_adjoined(s: FiniteSemigroup, members) -> bool:
    """Whether the principal factor of the D-class ``members`` gets a zero:
    unless the class is closed under the product and is the two-sided
    ideal of its members, i.e. the minimal ideal."""
    t = s.table
    member_set = set(members)
    closed = all(t[x][y] in member_set for x in members for y in members)
    minimal = two_sided_ideal(s, members[0]) == frozenset(member_set)
    return not (minimal and closed)


def factor_table(s: FiniteSemigroup, members, zero_adjoined: bool):
    """Cayley table of the principal factor on ``members``: the zero at 0
    when adjoined, then the members ascending; products leaving the class
    go to the zero."""
    t = s.table
    off = 1 if zero_adjoined else 0
    pos = {x: i + off for i, x in enumerate(members)}
    rows = [tuple(pos.get(t[x][y], 0) for y in members) for x in members]
    if zero_adjoined:
        rows = [(0,) * (len(members) + 1)] + [(0,) + row for row in rows]
    return tuple(rows)


def lift_by_factors(s: FiniteSemigroup, quotients) -> tuple[int, ...]:
    """The lift of the H-quotient matchings ``quotients``, one per D-class
    of ``s.egg_box``, made in each principal factor's own indices (the
    zero at 0 when adjoined, then ``f.members``) and mapped back into S.
    Each q must fix the zero, and each element must have exactly one
    inverse in its target H-cell of the factor.  The oracle for
    matching.lift_h_matching, which lifts in S's own indices."""
    out = [-1] * s.order
    for f, q in zip(s.factors, quotients, strict=True):
        assert q[0] == 0
        egg = f.semigroup.egg_box
        inverses = f.semigroup.inverse_graph.inverses
        # the factor's own D-class besides the zero, in factor indices
        box, off = egg.d_classes[-1], f.zero_adjoined
        n_cols = len(box.l_classes)
        for i in box.elements:
            target = q[1 + egg.r_of[i] * n_cols + egg.l_of[i]]
            tr, tl = divmod(target - 1, n_cols)
            (y,) = [y for y in box.grid[tr][tl] if y in inverses[i]]
            out[f.members[i - off]] = f.members[y - off]
    return tuple(out)


def quotient_band(box: DClassBox) -> bands.ZeroRectBand:
    """The H-quotient band of the D-class ``box``: its R-classes by its
    L-classes, with ``group_h`` as the pattern."""
    return bands.ZeroRectBand(len(box.r_classes), len(box.l_classes),
                              box.group_h)


def relabel(s: FiniteSemigroup, perm) -> FiniteSemigroup:
    """The table of s with element a renamed perm[a]."""
    t = [[0] * s.order for _ in range(s.order)]
    for a, row in enumerate(s.table):
        for b, ab in enumerate(row):
            t[perm[a]][perm[b]] = perm[ab]
    return FiniteSemigroup(tuple(map(tuple, t)))


def analyze_verdicts(path, s: FiniteSemigroup):
    """``analyze --json`` on s, written to ``path``: its exit code and, on
    exit 0, its structure, D-class sizes and verdicts.  The per-factor
    lists follow the D-class numbering, which follows the element labels,
    so each factor's pair of verdicts is kept and the pairs sorted."""
    path.write_text(format_cayley(s))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", str(path), "--json"])
    if code:
        return code, None
    report = json.loads(out.getvalue())
    verdicts = report["verdicts"]
    verdicts["factor_verdicts"] = sorted(zip(verdicts.pop("factor_verdicts"),
                                             verdicts.pop("quotient_verdicts")))
    return code, (report["structure"], report["d_class_sizes"], verdicts)


def cyclic_group(k: int) -> FiniteSemigroup:
    rows = [[(i + j) % k for j in range(k)] for i in range(k)]
    return semigroup_from_rows(rows, [f"g{i}" for i in range(k)])


def rectangular_band(m: int, n: int) -> FiniteSemigroup:
    """(i, j)(k, l) = (i, l); index of (i, j) is i*n + j."""
    size = m * n
    rows = [[0] * size for _ in range(size)]
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for l in range(n):
                    rows[i * n + j][k * n + l] = i * n + l
    return semigroup_from_rows(rows)


def chain_semilattice(k: int) -> FiniteSemigroup:
    rows = [[min(i, j) for j in range(k)] for i in range(k)]
    return semigroup_from_rows(rows)


def random_semilattice(k: int, seed: int, universe: int = 6) -> FiniteSemigroup:
    """Random family of subsets closed under intersection, meet = cap."""
    rng = random.Random(seed)
    family = {frozenset(range(universe))}
    while len(family) < k:
        family.add(
            frozenset(x for x in range(universe) if rng.random() < 0.5)
        )
        family = _close_under_intersection(family)
    members = sorted(family, key=lambda s: (len(s), sorted(s)))[:k]
    members = sorted(
        _close_under_intersection(set(members)), key=lambda s: (len(s), sorted(s))
    )
    pos = {s: i for i, s in enumerate(members)}
    rows = [[pos[a & b] for b in members] for a in members]
    return semigroup_from_rows(rows)


def _close_under_intersection(family):
    out = set(family)
    changed = True
    while changed:
        changed = False
        items = list(out)
        for i, a in enumerate(items):
            for b in items[i:]:
                c = a & b
                if c not in out:
                    out.add(c)
                    changed = True
    return out


def rees_over_group(
    group: FiniteSemigroup, n_r: int, n_l: int, sandwich
) -> FiniteSemigroup:
    """Completely 0-simple semigroup over a group.

    ``sandwich[l][i]`` is a group element or None (= zero entry); every
    row and column must contain a non-None entry for regularity.
    Elements: 0, then (i, g, l) ordered by (i, l, g).
    """
    g_ord = group.order
    triples = [
        (i, g, l) for i in range(n_r) for l in range(n_l) for g in range(g_ord)
    ]
    pos = {t: k + 1 for k, t in enumerate(triples)}
    size = len(triples) + 1
    rows = [[0] * size for _ in range(size)]
    for x in triples:
        i, g, l = x
        for y in triples:
            j, h, m = y
            p = sandwich[l][j]
            if p is None:
                continue
            rows[pos[x]][pos[y]] = pos[(i, group.table[group.table[g][p]][h], m)]
    labels = ["0"] + [f"({i},{g},{l})" for i, g, l in triples]
    return semigroup_from_rows(rows, labels)


def brandt_b2() -> FiniteSemigroup:
    """5-element Brandt semigroup: 2x2 identity sandwich over the trivial
    group."""
    return rees_over_group(cyclic_group(1), 2, 2, [[0, None], [None, 0]])


def completely_simple(group: FiniteSemigroup, n_r: int, n_l: int, sandwich):
    """Rees matrix semigroup over a group without zero (all sandwich
    entries are group elements)."""
    g_ord = group.order
    triples = [
        (i, g, l) for i in range(n_r) for l in range(n_l) for g in range(g_ord)
    ]
    pos = {t: k for k, t in enumerate(triples)}
    size = len(triples)
    rows = [[0] * size for _ in range(size)]
    for x in triples:
        i, g, l = x
        for y in triples:
            j, h, m = y
            p = sandwich[l][j]
            rows[pos[x]][pos[y]] = pos[(i, group.table[group.table[g][p]][h], m)]
    return semigroup_from_rows(rows)


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    pairs = [(x, y) for x in range(a.order) for y in range(b.order)]
    pos = {p: k for k, p in enumerate(pairs)}
    rows = [
        [pos[(a.table[x1][x2], b.table[y1][y2])] for (x2, y2) in pairs]
        for (x1, y1) in pairs
    ]
    return semigroup_from_rows(rows)


def adjoin_zero(s: FiniteSemigroup) -> FiniteSemigroup:
    n = s.order
    rows = [[0] * (n + 1)]
    for a in range(n):
        rows.append([0] + [s.table[a][b] + 1 for b in range(n)])
    return semigroup_from_rows(rows)


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    n = s.order
    rows = [list(range(n + 1))]
    for a in range(n):
        rows.append([a + 1] + [s.table[a][b] + 1 for b in range(n)])
    return semigroup_from_rows(rows)


def monogenic_semigroup(index: int, period: int) -> FiniteSemigroup:
    """The semigroup generated by a with a^(index + period) = a^index, a^k
    at k - 1; regular only when index is 1, a cyclic group."""
    size = index + period - 1

    def power(k: int) -> int:
        return k if k <= size else index + (k - index) % period

    rows = [[power(i + j) - 1 for j in range(1, size + 1)]
            for i in range(1, size + 1)]
    return semigroup_from_rows(rows)


def null_semigroup(k: int) -> FiniteSemigroup:
    """Zero plus k-1 elements with all products zero; not regular."""
    rows = [[0] * k for _ in range(k)]
    return semigroup_from_rows(rows)


def covering_band(rng: random.Random, m: int, n: int, density: float):
    """An m x n band with an idempotent in every row and column by
    construction: one random row per column, one random column per row
    still empty, then ``round(density * k)`` of the k cells still empty.
    Unlike ``bands.random_band``'s rejection sampling it takes one draw
    on any shape, 1 x 12 at density 0.35 included."""
    pat = [[False] * n for _ in range(m)]
    for j in range(n):
        pat[rng.randrange(m)][j] = True
    for row in pat:
        if not any(row):
            row[rng.randrange(n)] = True
    empty = [(i, j) for i in range(m) for j in range(n) if not pat[i][j]]
    for i, j in rng.sample(empty, round(density * len(empty))):
        pat[i][j] = True
    return bands.band_from_rows(pat)


def regular_patterns(m, n):
    """Every m x n band with an idempotent in each row and column, in the
    order of the pattern's bits: bit i*n + j is cell (i, j)."""
    for bits in range(2 ** (m * n)):
        rows = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(m)]
        if all(map(any, rows)) and all(map(any, zip(*rows))):
            yield bands.band_from_rows(rows)


@functools.cache
def small_regular_patterns():
    """Every regular pattern of at most 12 cells, all shapes: 6,761."""
    return tuple(band for m, n in itertools.product(range(1, 13), repeat=2)
                 if m * n <= 12 for band in regular_patterns(m, n))


# The per-pattern loop that bands.pattern_orbits replaced in search-q4,
# kept as its oracle: every regular pattern as an orbit of its own.  Patched
# in for bands.pattern_orbits, it makes search-q4 decide (and with --oracle
# cross-check) every pattern, in pattern order, as it once did.
def pattern_by_pattern(m, n):
    return ((band, 1) for band in regular_patterns(m, n))


# The multiset scan that orderly generation replaced in
# bands.pattern_orbits, kept as its oracle: every nondecreasing tuple of
# longer-side masks, in lexicographic order, tested whole against every
# permutation of the shorter side.
def orbits_by_multiset_scan(m, n):
    """(band, orbit_size) per orbit of the regular m x n patterns, in the
    order and with the representatives of bands.pattern_orbits."""
    short, long = sorted((m, n))
    full = (1 << short) - 1
    tables = [[sum((x >> k & 1) << p[k] for k in range(short))
               for x in range(full + 1)]
              for p in itertools.permutations(range(short))]
    for masks in itertools.combinations_with_replacement(range(1, full + 1), long):
        if functools.reduce(operator.or_, masks) != full:
            continue
        images = {tuple(sorted(t[x] for x in masks)) for t in tables}
        if min(images) < masks:
            continue
        lines = [[x >> k & 1 for k in range(short)] for x in masks]
        size = math.factorial(long) // math.prod(
            math.factorial(masks.count(x)) for x in set(masks))
        yield (bands.band_from_rows(lines if m > n else zip(*lines)),
               len(images) * size)


# The two-sided subset scan that bands.check_harem_condition_exhaustive
# cut to its row half, kept as its oracle: once every row set T meets
# columns N(T) with n|T| <= m|N(T)|, Hall's theorem matches the n/g clones
# of each row onto the m/g clones of each column (g = gcd(m, n)), so the
# clones of any column set C land on clones of its rows N(C), giving
# m|C| <= n|N(C)|, and the column scan never fires.
def harem_condition_two_sided(band):
    """(True, None), or (False, (side, T)) for the first row set T with
    n|T| > m|N(T)| or column set T with m|T| > n|N(T)|."""
    m, n, pat = band.m, band.n, band.pattern
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        cols = {j for j in range(n) for i in rows if pat[i][j]}
        if m * len(cols) < n * len(rows):
            return False, ("rows", tuple(rows))
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        rows = {i for i in range(m) for j in cols if pat[i][j]}
        if n * len(rows) < m * len(cols):
            return False, ("cols", tuple(cols))
    return True, None


def all_regular_patterns(m_max, n_max):
    """Every band with an idempotent in each row and column, m <= m_max and
    n <= n_max."""
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            yield from regular_patterns(m, n)


def random_zero_band_semigroup(rng: random.Random, max_order: int):
    m = rng.randint(1, 3)
    n_max = max(1, (max_order - 1) // m)
    n = rng.randint(1, min(4, n_max))
    density = rng.choice([0.4, 0.6, 0.8, 1.0])
    band = bands.random_band(m, n, density, rng.randrange(10**6))
    return bands.to_semigroup(band)


def _random_sandwich(rng, group, n_r, n_l, with_zero):
    while True:
        rows = []
        for _ in range(n_l):
            rows.append(
                [
                    (None if with_zero and rng.random() < 0.4 else rng.randrange(group.order))
                    for _ in range(n_r)
                ]
            )
        ok_rows = all(any(v is not None for v in row) for row in rows)
        ok_cols = all(
            any(rows[l][i] is not None for l in range(n_l)) for i in range(n_r)
        )
        if ok_rows and ok_cols:
            return rows


def corpus_semigroup(seed: int, max_order: int = 12) -> FiniteSemigroup:
    """Seeded regular semigroup with order <= max_order."""
    rng = random.Random(seed)
    kind = rng.randrange(10)
    if kind == 0:
        return random_zero_band_semigroup(rng, max_order)
    if kind == 1:
        m = rng.randint(1, 3)
        n = rng.randint(1, max(1, min(4, max_order // m)))
        return rectangular_band(m, n)
    if kind == 2:
        return cyclic_group(rng.randint(1, max_order))
    if kind == 3:
        if rng.random() < 0.5:
            return chain_semilattice(rng.randint(1, max_order))
        return random_semilattice(rng.randint(2, max_order), seed)
    if kind == 4:
        group = cyclic_group(rng.choice([2, 3]))
        n_r = rng.randint(1, 2)
        n_l = rng.randint(1, 2)
        if group.order * n_r * n_l + 1 > max_order:
            n_r = n_l = 1
        sandwich = _random_sandwich(rng, group, n_r, n_l, with_zero=True)
        return rees_over_group(group, n_r, n_l, sandwich)
    if kind == 5:
        group = cyclic_group(rng.choice([2, 3]))
        n_r = rng.randint(1, 2)
        n_l = rng.randint(1, 2)
        if group.order * n_r * n_l > max_order:
            n_r = n_l = 1
        sandwich = _random_sandwich(rng, group, n_r, n_l, with_zero=False)
        return completely_simple(group, n_r, n_l, sandwich)
    if kind == 6:
        g = cyclic_group(rng.randint(1, 3))
        b = rectangular_band(rng.randint(1, 2), rng.randint(1, 2))
        prod = direct_product(g, b)
        if prod.order <= max_order:
            return prod
        return g
    if kind == 7:
        inner = corpus_semigroup(seed + 10_000, max_order - 1)
        return adjoin_zero(inner)
    if kind == 8:
        inner = corpus_semigroup(seed + 20_000, max_order - 1)
        return adjoin_identity(inner)
    return brandt_b2()


def corpus(count: int, base_seed: int = 0, max_order: int = 12):
    """Deterministic list of `count` regular semigroups."""
    return [
        corpus_semigroup(base_seed + k, max_order) for k in range(count)
    ]


# ---------------------------------------------------------------------------
# Random transformation semigroups: the corpus's non-regular inputs, and
# regular ones with nontrivial H-classes


def transformation_semigroup(rng: random.Random, max_order: int = 400):
    """The semigroup generated by 1 to 3 random maps on n = 3 to 5 points,
    each drawn from the partial maps (image n for "undefined") with
    probability 0.3, else from the total ones; its elements indexed in
    lexicographic order.  None when it has more than ``max_order``
    elements."""
    n = rng.randint(3, 5)
    gens = []
    for _ in range(rng.randint(1, 3)):
        top = n + 1 if rng.random() < 0.3 else n
        gens.append(tuple(rng.randrange(top) for _ in range(n)))
    # x(fg) = (xf)g; closing under right products by the generators gives
    # every product of them
    elements, frontier = set(gens), list(gens)
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = compose(f, g, n)
            if h not in elements:
                if len(elements) == max_order:
                    return None
                elements.add(h)
                frontier.append(h)
    maps = sorted(elements)
    index = {f: i for i, f in enumerate(maps)}
    extended = [g + (n,) for g in maps]
    return FiniteSemigroup(tuple(
        tuple(index[tuple(map(g.__getitem__, f))] for g in extended)
        for f in maps))


def transformation_semigroups(seed: int, count: int):
    """The first ``count`` distinct tables :func:`transformation_semigroup`
    draws from ``random.Random(seed)``."""
    rng = random.Random(seed)
    seen: dict = {}
    while len(seen) < count:
        s = transformation_semigroup(rng)
        if s is not None:
            seen.setdefault(s.table, s)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Every semigroup of a small order


@functools.cache
def small_semigroups(n: int) -> tuple[FiniteSemigroup, ...]:
    """Every semigroup of order ``n`` up to isomorphism, each as the table
    that is least, read row-major, among its n! relabellings, in ascending
    order of that reading: 1, 5, 24 and 188 of orders 1 to 4 (OEIS
    A027851).

    A depth-first search, with an explicit cursor for recursion, fills the
    cells row-major with the values 0 to n - 1 in turn.  A triple (x, y, z)
    is checked for (xy)z = x(yz) once all four of its products are set,
    that is, when the last of its cells is filled; a failure prunes the
    subtree.  A complete table is kept when no relabelling reads less.
    Cached: the tests share one listing per order.
    """
    cells = n * n
    t = [-1] * cells  # cell a * n + b holds ab, or -1 while unset
    perms = list(itertools.permutations(range(n)))
    out = []

    def associative_at(k: int) -> bool:
        # every set cell is at an index <= k, so a triple whose cells are
        # all set and include k completes at k
        for x, y in itertools.product(range(n), repeat=2):
            xy = t[x * n + y]
            if xy == -1:
                continue
            for z in range(n):
                yz = t[y * n + z]
                if yz == -1:
                    continue
                left, right = xy * n + z, x * n + yz
                if (t[left] != -1 and t[right] != -1
                        and k in (x * n + y, y * n + z, left, right)
                        and t[left] != t[right]):
                    return False
        return True

    def least(table) -> bool:
        for p in perms:
            image = [0] * cells
            for k, v in enumerate(table):
                a, b = divmod(k, n)
                image[p[a] * n + p[b]] = p[v]
            if image < table:
                return False
        return True

    k = 0
    while k >= 0:
        if k == cells:
            if least(t):
                out.append(FiniteSemigroup(tuple(
                    tuple(t[a * n:(a + 1) * n]) for a in range(n))))
            k -= 1
            continue
        t[k] += 1
        if t[k] == n:
            t[k] = -1
            k -= 1
        elif associative_at(k):
            k += 1
    return tuple(out)
