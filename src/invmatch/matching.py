"""Decide, construct, verify and certify permutation and involution
matchings of finite regular semigroups.

A permutation matching is a bijection p with ``p[a]`` an inverse of ``a``;
an involution matching additionally satisfies ``p[p[a]] == a``.  Existence
of a permutation matching is equivalent to Hall's condition on the
two-copy bipartite graph of the mutual-inverse relation, and decomposes
through principal factors and their H-class quotients; this module
implements all of those routes plus the cross-checking report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import contains, or_

from . import graphs
from .core import (  # noqa: F401  (green_relations stays matching.green_relations)
    FiniteSemigroup,
    InverseGraph,
    green_relations,
    pattern_inverse_graph,
    require_regular,
)
from .errors import (
    BudgetExhausted,
    EquivalenceViolation,
    NoInverseInTargetCell,
    NotAMatching,
    NotAPermutation,
    ParameterOutOfRange,
    ParseError,
)

Matching = tuple[int, ...]


def build_inverse_graph(s: FiniteSemigroup) -> InverseGraph:
    """The mutual-inverse graph of a regular semigroup, or of a band:
    ``s`` needs only ``order`` and ``inverse_graph``."""
    require_regular(s)
    return s.inverse_graph


@dataclass
class HallViolator:
    """Witness set A with more elements than joint inverses V(A)."""

    elements: tuple[int, ...]
    image: tuple[int, ...]


# ---------------------------------------------------------------------------
# Graph-level decisions (shared by semigroups, subgraphs and band patterns)


def hall_on_graph(g: InverseGraph) -> tuple[Matching | None, HallViolator | None]:
    """One maximum matching of the two-copy bipartite graph, read as a
    perfect matching or, when it is not perfect, as a Hall violator."""
    size, match_l, _, reached = graphs.hopcroft_karp(g.n, g.n, g.inverses)
    if size == g.n:
        return tuple(match_l), None
    violator, image = graphs.deficiency_certificate(g.inverses, reached)
    return None, HallViolator(tuple(violator), tuple(image))


def matching_on_graph(g: InverseGraph) -> Matching | None:
    """Perfect matching of the two-copy bipartite graph, or None."""
    return hall_on_graph(g)[0]


def split_cycles(g: InverseGraph, p) -> list[int]:
    """Split the cycles of a permutation matching p of g into an involution.

    Even cycles split into mutually inverse pairs.  An odd cycle fixes its
    least self-eligible member and pairs the rest; an odd cycle with no
    self-eligible member is left at ``-1``, a verdict about this p only.
    A p that is not a permutation, on which the cycle walk would not end,
    raises NotAPermutation; one with some p[a] outside V(a), NotAMatching.
    """
    n = g.n
    check_permutation(n, p)
    if not all(map(contains, g.inverses, p)):
        raise NotAMatching("p maps some element to a non-inverse")
    out = [-1] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        if len(cycle) % 2:
            fixable = [x for x in cycle if x in g.inverses[x]]
            if not fixable:
                continue
            fixed = min(fixable)
            out[fixed] = fixed
            pivot = cycle.index(fixed)
            cycle = cycle[pivot + 1:] + cycle[:pivot]
        for i in range(0, len(cycle), 2):
            a, b = cycle[i], cycle[i + 1]
            out[a], out[b] = b, a
    return out


def involution_on_graph(g: InverseGraph, matching=None) -> Matching | None:
    """Involution assignment via the two-copy gadget.

    Copies A and B of the graph are joined by a cross edge at every
    self-eligible vertex; a perfect matching of the gadget restricted to
    copy A pairs the rest, and cross-matched vertices become fixed points.

    ``matching``, a permutation matching of g, seeds the gadget search with
    its cycle splitting: pairs mirrored in both copies, fixed points on
    their cross edges.  The search then only augments the vertices of the
    odd cycles that splitting left open; when there are none, the split is
    the answer and no gadget is built.
    """
    n = g.n
    seed = None
    if matching is not None:
        split = split_cycles(g, matching)
        if -1 not in split:
            return tuple(split)
        seed = [-1] * (2 * n)
        for a, b in enumerate(split):
            if b == a:
                seed[a], seed[a + n] = a + n, a
            elif b != -1:
                seed[a], seed[a + n] = b, b + n
    # both copies are built in ascending order, so no list needs a sort:
    # copy A lists V(a) less a, then the cross edge a + n when a is in V(a);
    # copy B lists that a first, then V(a) less a, shifted by n
    copy_a, copy_b = [], []
    for a, vs in enumerate(g.inverses):
        others = [b for b in vs if b != a]
        fixable = len(others) < len(vs)
        copy_a.append(others + [a + n] * fixable)
        copy_b.append([a] * fixable + [b + n for b in others])
    mate = graphs.max_matching_general(2 * n, copy_a + copy_b, seed)
    if any(m == -1 for m in mate):
        return None
    p = [0] * n
    for a in range(n):
        m = mate[a]
        p[a] = a if m >= n else m
    return tuple(p)


# ---------------------------------------------------------------------------
# Semigroup-level API


def find_permutation_matching(s: FiniteSemigroup) -> Matching | None:
    return matching_on_graph(build_inverse_graph(s))


def hall_violator(s: FiniteSemigroup) -> HallViolator | None:
    return hall_on_graph(build_inverse_graph(s))[1]


def find_involution_matching(s: FiniteSemigroup) -> Matching | None:
    return involution_on_graph(build_inverse_graph(s))


def check_permutation(n: int, p) -> None:
    if len(p) != n or sorted(p) != list(range(n)):
        raise NotAPermutation(f"not a permutation of [0, {n})")


def verify_permutation_matching(s: FiniteSemigroup, p) -> bool:
    """True iff p is a bijection with a * p[a] * a = a and
    p[a] * a * p[a] = p[a] for every a."""
    check_permutation(s.order, p)
    t = s.table
    return all(
        t[t[a][p[a]]][a] == a and t[t[p[a]][a]][p[a]] == p[a]
        for a in range(s.order)
    )


def verify_involution_matching(s: FiniteSemigroup, p) -> bool:
    if not verify_permutation_matching(s, p):
        return False
    return all(p[p[a]] == a for a in range(s.order))


def is_h_preserving(s: FiniteSemigroup, p) -> bool:
    """True iff a H b implies p[a] H p[b]."""
    egg = s.egg_box
    keys: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for a in range(s.order):
        src = egg.h_key(a)
        dst = egg.h_key(p[a])
        if keys.setdefault(src, dst) != dst:
            return False
    return True


# ---------------------------------------------------------------------------
# H-quotient patterns and lifting


def pattern_matching(pattern) -> Matching | None:
    """Permutation matching of the 0-rectangular band with the given
    idempotent pattern, indexed as :func:`lift_h_matching` takes it; None
    if there is none."""
    return matching_on_graph(pattern_inverse_graph(pattern))


def _take_cells(pool, rows, cols, n: int):
    """Yield the cells (k, l) of ``pool[k] & cols``, k in ``rows``, as
    k * n + l, clearing each from ``pool`` as it is yielded."""
    for k in rows:
        bits = pool[k] & cols
        while bits:
            bit = bits & -bits
            bits ^= bit
            pool[k] ^= bit
            yield k * n + bit.bit_length() - 1


def band_matching(pattern) -> Matching | None:
    """Permutation matching of the 0-rectangular band with the given
    idempotent pattern, indexed as :func:`pattern_matching`'s, or None;
    found without building the band's inverse graph.

    V((i, j)) is K_j x L_i, K_j the rows with an entry in column j and
    L_i the columns with one in row i (Miller-Clifford), so row k's part
    of it is one AND of L_i with an int mask of row k's cells.  This is
    Hopcroft-Karp (SIAM J. Comput. 1973) on such masks, after a greedy
    pass that visits cells of least degree |K_j| |L_i| first (after Karp
    and Sipser, FOCS 1981).  v is in V(u) iff u is in V(v), so the greedy
    pairs cells both ways: a free cell u that takes v also gives itself to
    v, and a cell already taken is skipped, so its initial matching is an
    involution.  Hopcroft-Karp reaches a maximum matching from any initial
    one, so the greedy's order decides only which perfect matching is
    returned, never whether there is one.  A phase's
    breadth-first search ORs the L_i of a layer's cells per column j and
    spreads that over K_j, and keeps per layer the masks of the matched
    right cells it reached first.  A backward pass keeps only the cells
    whose mates reach a free cell (a left cell (i, j) meets a set of masks
    iff L_i meets their union over K_j), and depth-first searches from the
    roots left take cells of those masks, free cells at the last layer,
    clearing each.  The augmenting paths it picks are not those of
    Hopcroft-Karp on the cell graph.
    """
    m = len(pattern)
    n = len(pattern[0]) if m else 0
    powers = [1 << j for j in range(n)]
    rows_of = [list(compress(range(m), col)) for col in zip(*pattern)]
    cols_of = [sum(compress(powers, row)) for row in pattern]
    match_l = [-1] * (m * n)
    match_r = [-1] * (m * n)
    # greedy pass: each free cell, least degree first, takes a free cell in
    # the row k of K_j with least |L_k|, and there the column l with least
    # |K_l|, and gives itself to it; bit b of the ``ranked`` and ``pool``
    # masks stands for column order[b], so the lowest bit is that column
    order = sorted(range(n), key=lambda l: len(rows_of[l]))
    width = [cols.bit_count() for cols in cols_of]
    rows_ranked = [sorted(rows, key=width.__getitem__) for rows in rows_of]
    ranked = [sum(compress(powers, map(row.__getitem__, order)))
              for row in pattern]
    pool = [(1 << n) - 1] * m
    bit_of = [1 << b for b in sorted(range(n), key=order.__getitem__)]
    degree = [len(rows) * w for w in width for rows in rows_of]
    for u in sorted(range(m * n), key=degree.__getitem__):
        if match_l[u] != -1:
            continue
        cols = ranked[u // n]
        for k in rows_ranked[u % n]:
            bits = pool[k] & cols
            if bits:
                bits &= -bits
                pool[k] ^= bits
                v = k * n + order[bits.bit_length() - 1]
                match_l[u], match_r[v] = v, u
                match_l[v], match_r[u] = u, v
                pool[u // n] &= ~bit_of[u % n]
                break
    # the greedy's matching is symmetric, so the right cells it leaves free
    # are the left cells it leaves free, the first phase's roots
    roots = [u for u in range(m * n) if match_l[u] == -1]
    free = [0] * m
    for u in roots:
        free[u // n] |= 1 << u % n
    while roots:
        # breadth-first layers of left cells, up to the first that reaches
        # a free right cell; masks[d][k]: matched cells first reached from
        # layer d, whose mates make layer d + 1
        unseen = [(1 << n) - 1] * m
        masks, layers = [], [roots]
        while True:
            # cell u = i * n + j: K_j is rows_of[u % n], L_i cols_of[u // n]
            span = [0] * n
            for u in layers[-1]:
                span[u % n] |= cols_of[u // n]
            reached = [0] * m
            for rows, cols in zip(rows_of, span):
                if cols:
                    for k in rows:
                        reached[k] |= cols
            found = False
            for k, bits in enumerate(reached):
                bits &= unseen[k]
                unseen[k] ^= bits
                found = found or bits & free[k] != 0
                reached[k] = bits & ~free[k]
            masks.append(reached)
            if found:
                break
            layer = []
            for k, bits in enumerate(reached):
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    layer.append(match_r[k * n + bit.bit_length() - 1])
            if not layer:
                return None  # no augmenting path: the matching is maximum
            layers.append(layer)
        masks[-1] = free
        for d in range(len(layers) - 1, -1, -1):
            union = [reduce(or_, map(masks[d].__getitem__, rows), 0)
                     for rows in rows_of]
            roots = [u for u in layers[d] if union[u % n] & cols_of[u // n]]
            if d:
                masks[d - 1] = [0] * m
                for v in map(match_l.__getitem__, roots):
                    masks[d - 1][v // n] |= 1 << v % n
        # depth-first augmenting paths: path[d] is a left cell of layer d,
        # took[d] the right cell it took
        for root in roots:
            path, took = [root], []
            stack = [_take_cells(masks[0], rows_of[root % n],
                                 cols_of[root // n], n)]
            while stack:
                v = next(stack[-1], -1)
                if v == -1:
                    stack.pop()
                    path.pop()
                    if took:
                        took.pop()
                    continue
                took.append(v)
                if len(stack) == len(masks):
                    for u, v in zip(path, took):
                        match_l[u], match_r[v] = v, u
                    break
                u = match_r[v]
                path.append(u)
                stack.append(_take_cells(masks[len(stack)], rows_of[u % n],
                                         cols_of[u // n], n))
        roots = [u for u in range(m * n) if match_l[u] == -1]
    return (0, *(1 + v for v in match_l))


def lift_h_matching(s: FiniteSemigroup, quotients) -> Matching:
    """Lift matchings of the H-quotient bands of ``s`` to ``s`` itself.

    ``quotients`` is a list aligned with the D-classes of ``s.egg_box``.
    A class's quotient band has the pattern ``box.group_h``: rows are its
    R-classes, columns its L-classes, and a cell is set when the H-cell
    there is a group.  Its matching q is a permutation of the band
    semigroup (zero at index 0, cell (r, l) at ``1 + r * n_cols + l``)
    that fixes the zero.
    Each element of the class maps to its inverse inside the H-cell
    designated by q: an element of a regular D-class has exactly one
    inverse in each H-cell whose row and column meet its own in group
    H-cells (Miller-Clifford; Howie 1995, §2.3), and R, L, H and inverses
    are the same in S as in the class's principal factor, so no factor is
    read.  The result, checked on the table of ``s``, is an H-preserving
    matching, and an involution whenever every q is one.
    """
    egg = s.egg_box
    inverses = s.inverse_graph.inverses
    if len(quotients) != len(egg.d_classes):
        raise ParameterOutOfRange(
            f"{len(quotients)} quotient matchings for "
            f"{len(egg.d_classes)} D-classes"
        )
    out = [-1] * s.order
    for box, q in zip(egg.d_classes, quotients):
        n_cols = len(box.grid[0])
        check_permutation(len(box.grid) * n_cols + 1, q)
        if q[0] != 0:
            raise NotAMatching("quotient matching must fix the zero")
        for x in box.elements:
            target = q[1 + egg.r_of[x] * n_cols + egg.l_of[x]]
            tr, tl = divmod(target - 1, n_cols)
            candidates = [y for y in box.grid[tr][tl] if y in inverses[x]]
            if not candidates:
                raise NoInverseInTargetCell(x, (tr, tl))
            if len(candidates) > 1:
                raise EquivalenceViolation(
                    f"multiple inverses of {x} in one H-cell of a D-class"
                )
            out[x] = candidates[0]
    if not verify_permutation_matching(s, out):
        raise NotAMatching("lifted map is not a matching")
    return tuple(out)


# ---------------------------------------------------------------------------
# Exhaustive oracles (slow; used for cross-checks at small orders)

# placements a reference search may try: O_4 needs 269,956 in the
# involution search and 342,731,358 in the matching search, and T_4's
# involution search would never end
BACKTRACKING_BUDGET = 1_000_000


def _first_fit(n: int, out: list[int], options, budget: int):
    """Fill ``out`` lowest unplaced element (``-1``) first, depth first.

    ``options(a)`` is a generator that places each choice for ``a`` in
    ``out`` before it yields and takes it back when resumed; an explicit
    stack of them stands in for recursion.  Returns the filled ``out`` as
    a tuple, or None, with the number of placements made.  Raises
    BudgetExhausted once placements exceed ``budget``.
    """
    stack = []
    a = placed = 0
    while True:
        while a < n and out[a] != -1:
            a += 1
        if a == n:
            return tuple(out), placed
        stack.append((a, options(a)))
        while stack:
            a, rest = stack[-1]
            if next(rest, None) is not None:
                break
            stack.pop()
        else:
            return None, placed
        placed += 1
        if placed > budget:
            raise BudgetExhausted(
                f"backtracking search stopped after {budget} placements"
            )


def matching_backtracking(s: FiniteSemigroup) -> Matching | None:
    """Reference search over injective inverse assignments."""
    g = build_inverse_graph(s)
    used = [False] * g.n
    out = [-1] * g.n

    def images(a):
        for b in g.inverses[a]:
            if not used[b]:
                used[b], out[a] = True, b
                yield b
                used[b], out[a] = False, -1

    return _first_fit(g.n, out, images, BACKTRACKING_BUDGET)[0]


def involution_backtracking(s: FiniteSemigroup) -> Matching | None:
    """Reference search over pairings into mutual-inverse 2-cycles and
    self-eligible fixed points."""
    g = build_inverse_graph(s)
    out = [-1] * g.n

    def partners(a):
        # every b < a is placed, and V(a) ascends: the fixed point b == a
        # is tried before the pairs
        for b in g.inverses[a]:
            if out[b] == -1:
                out[a], out[b] = b, a
                yield b
                out[a] = out[b] = -1

    return _first_fit(g.n, out, partners, BACKTRACKING_BUDGET)[0]


# ---------------------------------------------------------------------------
# The cross-checking report


@dataclass
class EquivalenceReport:
    """Verdicts of the equivalent matching-existence characterizations.

    ``has_matching`` is the direct bipartite decision; ``hall_ok`` is the
    absence of a violator; ``factor_verdicts`` and ``quotient_verdicts``
    decide per principal factor and per H-quotient band; ``h_preserving``
    carries an H-relation-preserving matching constructed by lifting
    quotient matchings whenever the quotient verdicts hold.
    """

    has_matching: bool
    matching: Matching | None
    hall_ok: bool
    violator: HallViolator | None
    factor_verdicts: tuple[bool, ...]
    quotient_verdicts: tuple[bool, ...]
    h_preserving: Matching | None


def equivalence_report(s: FiniteSemigroup) -> EquivalenceReport:
    """Decide matching existence along every route and insist they agree.

    Raises EquivalenceViolation on any disagreement; that signals an
    implementation bug, never an input property.
    """
    matching, violator = hall_on_graph(build_inverse_graph(s))
    factors = s.factors
    factor_verdicts = [
        find_permutation_matching(f.semigroup) is not None for f in factors
    ]
    quotient_witnesses = [pattern_matching(box.group_h)
                          for box in s.egg_box.d_classes]
    quotient_verdicts = [q is not None for q in quotient_witnesses]
    h_preserving = None
    if all(quotient_verdicts):
        h_preserving = lift_h_matching(s, quotient_witnesses)

    direct = matching is not None
    verdicts = {
        "direct": direct,
        "hall": violator is None,
        "factors": all(factor_verdicts),
        "quotients": all(quotient_verdicts),
        "h_preserving": h_preserving is not None,
    }
    if len(set(verdicts.values())) != 1:
        raise EquivalenceViolation(f"verdicts disagree: {verdicts}")
    # lift_h_matching has verified the lift as a matching
    if h_preserving is not None and not is_h_preserving(s, h_preserving):
        raise EquivalenceViolation("lifted matching is not H-preserving")
    return EquivalenceReport(
        has_matching=direct,
        matching=matching,
        hall_ok=violator is None,
        violator=violator,
        factor_verdicts=tuple(factor_verdicts),
        quotient_verdicts=tuple(quotient_verdicts),
        h_preserving=h_preserving,
    )


# ---------------------------------------------------------------------------
# Serialization: one line of n space-separated images


def format_matching(p) -> str:
    return " ".join(str(v) for v in p) + "\n"


def parse_matching(text: str, n: int) -> Matching:
    try:
        values = [int(v) for v in text.split()]
    except ValueError as exc:
        raise ParseError(f"bad matching line: {text!r}") from exc
    if len(values) != n:
        raise ParseError(f"expected {n} images, found {len(values)}")
    return tuple(values)
