"""Finite semigroups as Cayley tables: the inverse graph, Green's relations,
principal factors, and structural predicates.

Elements are 0-based indices into the table; labels are cosmetic.  All
structures here are treated as immutable once built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import (
    EntryOutOfRange,
    NotAssociative,
    NotRegular,
    ParameterOutOfRange,
    ParseError,
)

# the default cap on the elements of a generated table: at most 16 M entries
FAMILY_CAP = 4_000


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite magma given by its Cayley table; see :func:`validate`.

    Its generating set, egg-box, inverse graph and principal factors are
    computed on first use, each by the function its property calls (a
    principal factor's egg-box is set by :func:`principal_factors`), and
    kept on the object: the table never changes, so neither do they.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != len(self.table):
            raise ParameterOutOfRange(
                f"expected {len(self.table)} labels, found {len(self.labels)}")

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return generating_set(self)

    @cached_property
    def egg_box(self) -> EggBox:
        return green_relations(self)

    @cached_property
    def inverse_graph(self) -> InverseGraph:
        """Mutual-inverse relation, whether or not every degree is positive."""
        return inverse_graph_of(self)

    @cached_property
    def factors(self) -> tuple[PrincipalFactor, ...]:
        return principal_factors(self)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def labels_of(self, xs) -> list[str]:
        return [self.label(x) for x in xs]


def semigroup_from_rows(rows, labels=None) -> FiniteSemigroup:
    """Semigroup of rows of int-like entries, each converted with int().
    Code whose rows already hold ints builds FiniteSemigroup directly."""
    table = tuple(tuple(int(v) for v in row) for row in rows)
    return FiniteSemigroup(table, tuple(labels) if labels is not None else None)


def validate(s: FiniteSemigroup) -> None:
    """Square, entry-range and associativity check.

    The square and range checks are :func:`generating_set`'s, run by
    reading ``s.generators``.  Associativity is decided by Light's test:
    (xg)y = x(gy) for all x, y and each g of that generating set, O(n^2)
    products per generator, skipped for a two-sided identity g (found in
    O(n)), as (xg)y = xy = x(gy).  The g for which the law holds form a
    submagma, and the generating set's one-sided closure (see
    :func:`_closure`) lies in the submagma it generates, so a pass proves
    the table associative.  On a failure the plain scan over all n^3
    triples names the first bad one; it stops at or before the triple the
    test found.

    Raises ParseError for a table that is not square, else
    EntryOutOfRange or NotAssociative with the first failure in
    lexicographic scan order.
    """
    n = s.order
    t = s.table
    every = tuple(range(n))
    # the one in-range table of order 1 is its identity, so it scans none
    middles = [g for g in s.generators
               if t[g] != every or tuple(row[g] for row in t) != every]
    if _first_bad_triple(t, middles):
        raise NotAssociative(*_first_bad_triple(t, range(n)))


def generating_set(s: FiniteSemigroup) -> tuple[int, ...]:
    """A generating set of the magma ``s``, picked greedily: the elements
    with the most distinct products in their row first (idempotents first
    among equals), each only if the closure of those before it misses it.
    A table that is not square is refused first.  The order reads every
    row's image set once, at C speed; their union is the range check,
    which names the first bad entry in row-major order.  The closures read
    at most |S|·|X| products for the X picked.  Use the cached
    ``s.generators``."""
    t = s.table
    n = len(t)
    if any(len(row) != n for row in t):
        raise ParseError("table is not square")
    images = [set(row) for row in t]
    if not set().union(*images) <= set(range(n)):
        a, b = next((a, b) for a, row in enumerate(t)
                    for b, v in enumerate(row) if not 0 <= v < n)
        raise EntryOutOfRange(a, b, t[a][b], n)
    return _closure(t, sorted(range(n), reverse=True,
                              key=lambda a: (len(images[a]), t[a][a] == a)))[1]


def _closure(t, candidates) -> tuple[set[int], tuple[int, ...]]:
    """The closure of ``candidates`` in the magma ``t``, and the generators
    it took: each candidate that the closure of those before it misses.

    The closure is taken under right products by generators only: each
    member is multiplied by a new generator once, and each new element by
    every generator once, so it reads at most |S|·|X| products for the
    generators X (Froidure and Pin's enumeration).  It holds the
    left-normed products (..(g1 g2)..)gk of generators.  On an associative
    table these are all the products, so this is the subsemigroup
    generated.  On any table they lie in the submagma generated, so a set
    whose closure is the whole table generates the table under every
    bracketing, which is what Light's test in :func:`validate` needs.
    """
    inside: set[int] = set()
    gens: list[int] = []
    for g in candidates:
        if g in inside:
            continue
        gens.append(g)
        fresh = list({g, *[t[x][g] for x in inside]} - inside)
        inside.update(fresh)
        while fresh and len(inside) < len(t):
            new = set(map(t[fresh.pop()].__getitem__, gens))
            new -= inside
            inside |= new
            fresh.extend(new)
    return inside, tuple(gens)


_BYTE_ORDER = 256  # the size of a bytes.translate table


def _first_bad_triple(t, middles) -> tuple[int, int, int] | None:
    """First (a, b, c) with b in ``middles`` and (ab)c != a(bc), scanning
    a, then b in the order of ``middles``, then c; or None.  Row (ab)· is
    compared with a(b·), read off row a, at once.  Up to order
    ``_BYTE_ORDER`` the rows are bytes and a(b·) is row b translated by
    row a, padded to a full table with bytes no in-range entry reads;
    above it a(b·) is one ``itemgetter`` gather of row a."""
    if len(t) > _BYTE_ORDER:
        keys, times = t, [(b, itemgetter(*t[b])) for b in middles]
    else:
        t = [bytes(row) for row in t]
        keys = [row + bytes(_BYTE_ORDER - len(t)) for row in t]
        times = [(b, t[b].translate) for b in middles]
    for a, ta in enumerate(keys):
        for b, times_b in times:
            left, right = t[ta[b]], times_b(ta)
            if left != right:
                return a, b, next(c for c, v in enumerate(left) if v != right[c])
    return None


def _gather(keys):
    """``itemgetter(*keys)``, which reads all of ``keys`` in one C call, but
    returning a tuple for any number of keys: itemgetter of one key returns
    the bare item."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda xs: tuple(xs[k] for k in keys)


def idempotents(s: FiniteSemigroup) -> list[int]:
    return [e for e in range(s.order) if s.table[e][e] == e]


@dataclass
class InverseGraph:
    """Mutual-inverse relation of a semigroup.

    ``inverses[a]`` is V(a), the b with aba = a and bab = b, ascending; it
    holds a itself exactly when a = a^3.  Vertices with equal V may share
    one tuple object.
    """

    n: int
    inverses: tuple[tuple[int, ...], ...]

    def degree(self, a: int) -> int:
        """|V(a)|: the number of inverses of a."""
        return len(self.inverses[a])


def inverse_graph_of(s: FiniteSemigroup) -> InverseGraph:
    """V(a) for every a, read off the egg-box ``s.egg_box`` (so the table
    must be associative) in |V(a)| products and one H-class search per a.
    Use the cached ``s.inverse_graph``.

    Mutual inverses share a D-class, and one with no idempotent has no
    regular element.  In a regular one take idempotents e R a and f L a:
    R_f ∩ L_e holds exactly one x with ax = e, an inverse a0 of a with
    a0·a = f.  Then V(a) = {f'·a0·e' : idempotents e' R a, f' L a}, one b
    with ab = e' and ba = f' per pair (Miller and Clifford; Howie 1995,
    §2.3-2.5).
    """
    t = s.table
    egg = s.egg_box
    inverses: list[tuple[int, ...]] = [()] * s.order
    for box in egg.d_classes:
        if not any(map(any, box.group_h)):
            continue
        row_idems = [[x for cell in row for x in cell if t[x][x] == x]
                     for row in box.grid]
        col_idems = [[x for cell in col for x in cell if t[x][x] == x]
                     for col in zip(*box.grid)]
        for es, row in zip(row_idems, box.grid):
            e = es[0]
            for fs, cell in zip(col_idems, row):
                h = box.grid[egg.r_of[fs[0]]][egg.l_of[e]]
                times = _gather(h)  # a·x for x in h
                for a in cell:
                    a0 = h[times(t[a]).index(e)]
                    inverses[a] = tuple(sorted(
                        [t[t[f][a0]][e2] for f in fs for e2 in es]))
    return InverseGraph(s.order, tuple(inverses))


def pattern_inverse_graph(pattern) -> InverseGraph:
    """Inverse graph of the 0-rectangular band with the given idempotent
    pattern, read off the pattern in O(edges): the zero at 0 is its own
    only inverse, and cells (i, j), (k, l) at 1 + i*n + j, 1 + k*n + l
    are mutual inverses iff pattern[k][j] and pattern[i][l]: V((i, j)) is
    the concatenation, over the k with pattern[k][j] ascending, of the
    strips (k, i) of cells (k, l), l in cols[i].  It is ascending, holds
    (i, j) itself exactly when the cell is idempotent, and depends on j
    only through column j's kind, its tuple of entries: each row builds
    one tuple per kind, shared by the cells of that kind."""
    m = len(pattern)
    n = len(pattern[0]) if m else 0
    # looked up, not computed: all strips share one int object per cell,
    # which halves the peak memory of a 1 x 1500 band
    index = [list(range(1 + i * n, 1 + (i + 1) * n)) for i in range(m)]
    cols = [[j for j, e in enumerate(row) if e] for row in pattern]
    kinds: dict[tuple[bool, ...], int] = {}
    kind_of = [kinds.setdefault(col, len(kinds)) for col in zip(*pattern)]
    rows = [[k for k, e in enumerate(col) if e] for col in kinds]
    strips = [[[index[k][l] for l in c] for c in cols] for k in range(m)]
    inverses = [(0,)]
    for i in range(m):
        shared = []
        for ks in rows:
            vs = []
            for k in ks:
                vs += strips[k][i]
            shared.append(tuple(vs))
        inverses += map(shared.__getitem__, kind_of)
    return InverseGraph(m * n + 1, tuple(inverses))


def regularity_check(s: FiniteSemigroup) -> tuple[bool, int | None]:
    """True when every element has an inverse; else the first without one."""
    inverses = s.inverse_graph.inverses
    if all(inverses):
        return True, None
    return False, next(a for a, v in enumerate(inverses) if not v)


def require_regular(s: FiniteSemigroup) -> None:
    ok, witness = regularity_check(s)
    if not ok:
        raise NotRegular(witness)


# ---------------------------------------------------------------------------
# Green's relations


@dataclass
class DClassBox:
    """One D-class of the egg-box: an R x L grid of H-cells."""

    elements: tuple[int, ...]
    r_classes: tuple[tuple[int, ...], ...]
    l_classes: tuple[tuple[int, ...], ...]
    grid: tuple[tuple[tuple[int, ...], ...], ...]  # grid[r][l] = H-cell
    group_h: tuple[tuple[bool, ...], ...]


@dataclass
class EggBox:
    d_classes: tuple[DClassBox, ...]
    d_of: tuple[int, ...]  # element -> D-class index
    r_of: tuple[int, ...]  # element -> row index within its D-class
    l_of: tuple[int, ...]  # element -> column index within its D-class

    def h_key(self, a: int) -> tuple[int, int, int]:
        return self.d_of[a], self.r_of[a], self.l_of[a]


def _partition_by(n: int, key) -> list[list[int]]:
    """Classes of [0, n) by ``key``, each ascending, in order of least member."""
    groups: dict = {}
    for a in range(n):
        groups.setdefault(key(a), []).append(a)
    return list(groups.values())


def _components(n: int, succ) -> list[int]:
    """Strongly connected components of the graph on [0, n) with the edges
    v -> w for w in ``succ(v)``: each vertex's component index, the
    components numbered in order of their least vertex.

    Iterative Tarjan.  A vertex that has been visited but is not yet in a
    component is on Tarjan's stack, so no on-stack array is kept.
    """
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # the root of the vertex's component, once it has one
    stack: list[int] = []
    tick = itertools.count().__next__
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = tick()
        stack.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == -1:
                    index[w] = low[w] = tick()
                    stack.append(w)
                    work.append((w, iter(succ(w))))
                    break
                if comp[w] == -1:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while comp[v] == -1:
                        comp[stack.pop()] = v
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in comp]


def green_relations(s: FiniteSemigroup) -> EggBox:
    """Egg-box decomposition from |S|·|X| products for the generating set
    X = ``s.generators``.  The R-classes are the strongly connected
    components of the right Cayley graph on X (a -> ag), the L-classes
    those of the left one (a -> ga), and H = R intersect L.  On a finite
    semigroup D (= J) is R o L = R v L, so it needs no third search: the
    D-class of a is the union of the L-classes that meet the R-class of a,
    O(|S|) for all classes."""
    n = s.order
    t = s.table
    gens = s.generators
    rows = [t[g] for g in gens]
    r_id = _components(n, lambda a: map(t[a].__getitem__, gens))
    l_id = _components(n, lambda a: [row[a] for row in rows])
    r_classes = _partition_by(n, r_id.__getitem__)
    l_classes = _partition_by(n, l_id.__getitem__)
    d_id = [-1] * n
    for a in range(n):
        if d_id[a] == -1:
            for j in {l_id[b] for b in r_classes[r_id[a]]}:
                for c in l_classes[j]:
                    d_id[c] = a
    d_classes_raw = _partition_by(n, d_id.__getitem__)
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


# ---------------------------------------------------------------------------
# Principal factors


@dataclass
class PrincipalFactor:
    """D-class with products leaving the class sent to an adjoined zero.

    Every class but the minimal ideal gets the zero; the minimal ideal is
    closed under the product and is emitted zero-free.  Factor indices:
    zero at 0 when adjoined, then the class members ascending.
    """

    semigroup: FiniteSemigroup
    zero_adjoined: bool
    members: tuple[int, ...]


def principal_factors(s: FiniteSemigroup) -> tuple[PrincipalFactor, ...]:
    """One factor per D-class, ordered as in the egg-box.  Use the cached
    ``s.factors``."""
    require_regular(s)
    t = s.table
    factors = []
    # pos[z]: z's index in the current factor, or 0 (the zero) for z
    # outside the class; reset to all zeros after each class
    pos = [0] * len(t)
    for box in s.egg_box.d_classes:
        members = box.elements
        member_set = set(members)
        # xS meets the minimal ideal K for any x, so xS lies in the class
        # of x exactly when that class is K
        zero_adjoined = not member_set.issuperset(t[members[0]])
        zero = (0,) if zero_adjoined else ()
        for i, x in enumerate(members, len(zero)):
            pos[x] = i
        # row x of the factor: the members' columns of t[x], then their pos
        cols = _gather(members)
        rows = [(*zero, *_gather(cols(t[x]))(pos)) for x in members]
        egg = _factor_egg_box(s.egg_box, box, pos, zero)
        for x in members:
            pos[x] = 0
        labels = tuple(s.label(x) for x in members)
        if zero_adjoined:
            rows.insert(0, (0,) * (len(members) + 1))
            labels = ("0",) + labels
        semigroup = FiniteSemigroup(tuple(rows), labels)
        vars(semigroup)["egg_box"] = egg  # seeds the cached property
        factors.append(PrincipalFactor(semigroup, zero_adjoined, members))
    return tuple(factors)


def _factor_egg_box(egg: EggBox, box: DClassBox, pos, zero) -> EggBox:
    """What :func:`green_relations` gives the principal factor of the
    regular D-class ``box`` of ``egg``, with its members at ``pos`` and the
    zero ``(0,)`` or ``()``.  R, L and H of a regular D-class are the same
    in S and in its factor, and ``pos`` keeps the members' order, by which
    both number classes; an adjoined zero is a D-class of its own, first."""
    def moved(classes):
        return tuple(_gather(c)(pos) for c in classes)

    members = box.elements
    zero_box = DClassBox((0,), ((0,),), ((0,),), (((0,),),), ((True,),))
    boxes = (zero_box,) * len(zero) + (DClassBox(
        moved([members])[0], moved(box.r_classes), moved(box.l_classes),
        tuple(map(moved, box.grid)), box.group_h),)
    return EggBox(boxes, zero + (len(zero),) * len(members),
                  zero + tuple(egg.r_of[x] for x in members),
                  zero + tuple(egg.l_of[x] for x in members))


# ---------------------------------------------------------------------------
# Structure predicates


@dataclass
class StructureReport:
    regular: bool
    inverse: bool
    union_of_groups: bool
    orthodox: bool
    e_solid: bool
    rectangular_band: bool
    x_equals_x_cubed: bool
    idempotent_count: int
    d_class_count: int


def structure_report(s: FiniteSemigroup) -> StructureReport:
    """The class predicates of ``s``, read off the egg-box and the inverse
    graph, with no closure and no product scan.

    ``orthodox`` (E a subsemigroup) holds for regular ``s`` iff every
    inverse of an idempotent is an idempotent.  If x ∈ V(e), then
    x = (xe)(ex), a product of two idempotents.  Conversely, if
    x ∈ V(ef), then fxe is an idempotent inverse of ef, so
    ef ∈ V(fxe) ⊆ E.  ``x_equals_x_cubed``: x = x^3 iff x ∈ V(x).

    ``e_solid`` (<E> completely regular) holds for regular ``s`` iff
    idempotents e L f R g always have an idempotent h with e R h L g
    (T. E. Hall): in each D-class, the distinct rows of ``group_h`` are
    pairwise disjoint.  Easy direction: x = eg has x R e (x = e·g,
    e = x·f) and x L g (x = x·g, g = f·x); if <E> is completely regular,
    x lies in a group H-class, whose idempotent is the h.

    ``rectangular_band`` (xyx = x): x^3 = x^4 = x gives x^2 = x, and
    x R xy L y makes ``s`` one D-class.  Conversely, in a band with one
    D-class (= J) x = a·xyx·b, so ax = x = xb and x = (ax)yx·b = xyx.
    """
    n = s.order
    egg = s.egg_box
    inverses = s.inverse_graph.inverses
    degrees = [len(vs) for vs in inverses]
    regular = all(degrees)
    inverse = all(d == 1 for d in degrees)
    # every H-cell of every D-class is a group (no egg-box cell is empty)
    union_of_groups = all(all(map(all, box.group_h)) for box in egg.d_classes)
    idems = idempotents(s)
    idem_set = set(idems)
    orthodox = regular and all(
        idem_set.issuperset(inverses[e]) for e in idems
    )
    e_solid = regular and all(
        sum(column) <= 1
        for box in egg.d_classes for column in zip(*set(box.group_h))
    )
    xcubed = all(x in vs for x, vs in enumerate(inverses))
    return StructureReport(
        regular=regular,
        inverse=inverse,
        union_of_groups=union_of_groups,
        orthodox=orthodox,
        e_solid=e_solid,
        rectangular_band=len(egg.d_classes) == 1 and len(idems) == n,
        x_equals_x_cubed=xcubed,
        idempotent_count=len(idems),
        d_class_count=len(egg.d_classes),
    )


# ---------------------------------------------------------------------------
# Cayley table text format
#
#   line 1:  n
#   lines 2..n+1:  n space-separated 0-based entries
#   optional:  "# labels: <l0> <l1> ..."


def parse_cayley(text: str) -> FiniteSemigroup:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    labels = None
    if lines and lines[-1].startswith("#"):
        tail = lines.pop()
        body = tail.lstrip("#").strip()
        if not body.startswith("labels:"):
            raise ParseError(f"unrecognized trailer: {tail!r}")
        labels = body[len("labels:"):].split()
    lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines:
        raise ParseError("empty input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad order line: {lines[0]!r}") from exc
    if n < 1:
        raise ParseError("order must be positive")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    # built only once the text is known to hold n rows; a row with a token
    # other than "0".."n-1", such as "01" or "999", is read by int() instead
    token = {str(v): v for v in range(n)}
    rows = []
    for ln in lines[1:]:
        try:
            row = _gather(ln.split())(token)
        except KeyError:
            try:
                row = tuple(map(int, ln.split()))
            except ValueError as exc:
                raise ParseError(f"bad row: {ln!r}") from exc
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}")
        rows.append(row)
    try:
        return FiniteSemigroup(
            tuple(rows), tuple(labels) if labels is not None else None
        )
    except ParameterOutOfRange as exc:
        raise ParseError(str(exc)) from exc


def format_cayley(s: FiniteSemigroup) -> str:
    # a dict, not a tuple, so that an entry of -1 misses instead of wrapping
    digits = {v: str(v) for v in range(s.order)}
    out = [str(s.order)]
    for row in s.table:
        try:
            out.append(" ".join(_gather(row)(digits)))
        except KeyError:  # an entry outside [0, n), as validate would report
            out.append(" ".join(map(str, row)))
    if s.labels is not None:
        out.append("# labels: " + " ".join(s.labels))
    return "\n".join(out) + "\n"
