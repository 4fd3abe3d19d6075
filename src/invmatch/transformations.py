"""Transformation monoids at desk scale: full and partial maps,
order-preserving maps on a chain, and orientation-preserving/reversing
maps on a cycle.

Maps are image tuples of length n; the sentinel value n encodes
"undefined" so partial maps compose like total ones.  Products run left
to right, x(fg) = (xf)g, which makes R-classes kernel classes and
L-classes image classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import itemgetter

from . import matching
from .core import FAMILY_CAP, FiniteSemigroup
from .errors import NotPerfect, NotTn, TooLarge
from .matching import (
    InverseGraph,
    matching_on_graph,
    verify_permutation_matching,
)

FAMILIES = ("Tn", "PTn", "On", "OPn", "Pn")

Map = tuple[int, ...]


def rank_of(f: Map, n: int) -> int:
    return len({v for v in f if v < n})


def kernel_of(f: Map) -> tuple[tuple[int, ...], ...]:
    """Partition of the domain by equal image, the undefined points one
    class, ordered by first occurrence."""
    groups: dict[int, list[int]] = {}
    for x, v in enumerate(f):
        groups.setdefault(v, []).append(x)
    return tuple(map(tuple, groups.values()))


def kernel_signature(f: Map, n: int) -> tuple[int, ...]:
    """Ascending kernel-class sizes; length equals the rank for total maps."""
    return tuple(sorted(len(cls) for cls in kernel_of(f) if f[cls[0]] < n))


# ---------------------------------------------------------------------------
# Family enumeration


def _monotone_maps(n: int):
    return itertools.combinations_with_replacement(range(n), n)


def _rotations(t: tuple[int, ...]):
    for s in range(len(t)):
        yield t[s:] + t[:s]


def family_size(family: str, n: int) -> int:
    if family == "Tn":
        return n**n
    if family == "PTn":
        return (n + 1) ** n
    if family == "On":
        return comb(2 * n - 1, n)
    # |OP_n| = n C(2n-1, n-1) - n(n-1) (Catarino & Higgins 1999).  P_n is
    # OP_n with its mirror image, which has as many maps; the two share the
    # n constants and 2 C(n,2)^2 maps of rank 2.
    op_n = n * comb(2 * n - 1, n - 1) - n * (n - 1) if n else 0
    if family == "OPn":
        return op_n
    if family == "Pn":
        return 2 * op_n - n - 2 * comb(n, 2) ** 2
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def check_family_cap(family: str, n: int, cap: int) -> None:
    """Raise TooLarge past cap maps; a family holds its n constant maps,
    so n > cap is refused before the (slow, for huge n) size is computed.
    A size of 2,000 bits or more is named by its leading power of two:
    str() of an int may be refused from 640 digits on."""
    if n > cap:
        raise TooLarge(f"|{family}({n})| >= {n} exceeds cap {cap}")
    size = family_size(family, n)
    if size > cap:
        bits = size.bit_length()
        shown = f"= {size}" if bits < 2000 else f">= 2**{bits - 1}"
        raise TooLarge(f"|{family}({n})| {shown} exceeds cap {cap}")


def family_maps(family: str, n: int) -> list[Map]:
    """All members of the family in lexicographic order; no Cayley table
    is built.  ``itertools.product`` and ``combinations_with_replacement``
    yield maps in that order, so only the rotation families are sorted."""
    if family == "Tn":
        return list(itertools.product(range(n), repeat=n))
    if family == "PTn":
        return list(itertools.product(range(n + 1), repeat=n))
    if family == "On":
        return list(_monotone_maps(n))
    if family in ("OPn", "Pn"):
        monos = list(_monotone_maps(n))
        if family == "Pn":
            monos += [mono[::-1] for mono in monos]
        return sorted({rot for mono in monos for rot in _rotations(mono)})
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _map_label(f: Map, n: int) -> str:
    if n <= 10:
        return "".join("-" if v >= n else str(v) for v in f)
    return ",".join("-" if v >= n else str(v) for v in f)


@dataclass
class FamilyData:
    family: str
    n: int
    semigroup: FiniteSemigroup
    maps: tuple[Map, ...]


def enumerate_family(family: str, n: int, cap: int = FAMILY_CAP) -> FamilyData:
    """Enumerate the family and build its Cayley table.

    With the maps extended by the sentinel n as a fixed point, fg is
    ``itemgetter(*f)(g)``: a tuple, as f has n + 1 >= 2 entries.  Only the
    rows of a generating set, picked greedily highest rank first, are
    composed so.  Every other row comes by associativity: for a reached h
    and a generator s, (hs)g = h(sg), so the row of hs is the row of s read
    through the row of h.  A family of one map has a generator's row only,
    so no itemgetter of one index, which returns an entry, reads a row.
    """
    check_family_cap(family, n, cap)
    maps = family_maps(family, n)
    ext = [f + (n,) for f in maps]
    pos = {f: i for i, f in enumerate(ext)}.__getitem__
    rows = [None] * len(ext)
    reached, gens = [], []
    # set(f + (n,)) has rank + 1 values; the sort is stable, so ties go by index
    for g in sorted(range(len(ext)), key=lambda i: len(set(ext[i])), reverse=True):
        if rows[g] is not None:
            continue
        rows[g] = tuple(map(pos, map(itemgetter(*ext[g]), ext)))
        gens.append(g)
        # keep the reached set closed under right products by generators
        todo = [(h, g) for h in reached] + [(g, s) for s in gens]
        reached.append(g)
        while todo:
            h, s = todo.pop()
            hs = rows[h][s]
            if rows[hs] is None:
                rows[hs] = itemgetter(*rows[s])(rows[h])
                reached.append(hs)
                todo += [(hs, t) for t in gens]
    labels = tuple(_map_label(f, n) for f in maps)
    return FamilyData(family, n, FiniteSemigroup(tuple(rows), labels), tuple(maps))


# ---------------------------------------------------------------------------
# Mutual inverses without a Cayley table


def family_inverse_graph(maps, n: int) -> InverseGraph:
    """Mutual-inverse graph over ``maps``, as one join on sections.

    Every map is extended by the sentinel n as a fixed point, so a partial
    map is a total map on n + 1 points and both kinds take one path.  Then
    b is in V(a) iff I = im(b) is a transversal of ker(a) and, for every y
    in im(a), b(y) is the x in I with a(x) = y (Miller and Clifford;
    Howie 1995, §2.3).  If so, aba = a as a(b(y)) = y on im(a); and for z
    in im(b), a(b(a(z))) = a(z) with a injective on I, so bab = b.  The
    converse is aba = a and the transversal condition.  The two conditions
    make im(a) a transversal of ker(b), so b's values on im(a) are all of
    I: that key alone names im(b).

    So each image J indexes, by values on J, the maps c with J a
    transversal of ker(c), and each a looks up, for each transversal I of
    ker(a), the key "the point of I in the class over y" for y in im(a),
    ascending.  A rank-1 itemgetter returns a scalar on both sides.
    """
    ext = [f + (n,) for f in maps]
    by_kernel: dict[tuple[int, ...], list[int]] = {}
    # points[K]: per transversal I of K, the point of I in each class;
    # images holds one tuple per image, by size
    points: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    images: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    lookups = []  # per map a: points[ker(a)], im(a), the getter of a's keys
    for a, f in enumerate(ext):
        first: dict[int, int] = {}
        kernel = tuple(first.setdefault(v, len(first)) for v in f)
        by_kernel.setdefault(kernel, []).append(a)
        image = tuple(sorted(first))
        image = images.setdefault(len(image), {}).setdefault(image, image)
        lookups.append((points.setdefault(kernel, []), image,
                        itemgetter(*map(first.__getitem__, image))))
    # index[J]: the maps c with J a transversal of ker(c), by values on J
    index: dict[tuple[int, ...], dict] = {}
    for kernel, members in by_kernel.items():
        classes = max(kernel) + 1  # labels run 0, 1, ... by first occurrence
        pts = points[kernel]
        rows = [ext[c] for c in members]
        for image in images.get(classes, ()):
            rep = dict(zip(map(kernel.__getitem__, image), image))
            if len(rep) == classes:
                pts.append(tuple(map(rep.__getitem__, range(classes))))
                sections = index.setdefault(image, {})
                for key, c in zip(map(itemgetter(*image), rows), members):
                    sections.setdefault(key, []).append(c)
    inverses = []
    for pts, image, get in lookups:
        sections = index.get(image, {})
        found = [c for key in map(get, pts) for c in sections.get(key, ())]
        inverses.append(tuple(sorted(found)))
    return InverseGraph(len(maps), tuple(inverses))


def on_d_classes(n: int):
    """The D-classes of O_n, rank 1 to n, each as (pattern, cells).

    O_n is H-trivial, so the rank-k class is a grid of one map per cell.
    Its rows are the convex kernels with k blocks, cut at k - 1 of the
    points 1..n-1, and its columns the k-subsets c of 0..n-1, the images;
    the map in cell (r, c) sends the i-th block onto the i-th point of c.
    ``cells`` lists the maps row by row, each as ``bytes`` whose byte x is
    the image of x (so n < 256), one ``translate`` of the kernel's block
    bytes through the image's table.  ``pattern[r][c]`` says whether that
    map is idempotent: whether each point of c lies in its own block, i.e.
    c is a transversal of the kernel, read as one ``translate`` of c
    through the block bytes.  Mutual inverses share a D-class
    and, in one, a in (r, c) and b in (r', c') are mutual inverses iff the
    cells (r, c') and (r', c) hold idempotents (Miller-Clifford; Howie
    1995, §2.3), so ``core.pattern_inverse_graph(pattern)`` less its zero
    is the class's inverse graph, cell i at vertex 1 + i.
    """
    pad = bytes(256 - n)
    for k in range(1, n + 1):
        images = [bytes(c) for c in itertools.combinations(range(n), k)]
        tables = [c + bytes(256 - k) for c in images]
        own = bytes(range(k))
        pattern, cells = [], []
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0, *cuts, n)
            block = bytes(i for i in range(k)
                          for _ in range(bounds[i], bounds[i + 1]))
            cells += map(block.translate, tables)
            # c is a transversal iff its i-th point lies in block i
            blocks = block + pad
            pattern.append([c.translate(blocks) == own for c in images])
        yield pattern, cells


def mutually_inverse(a: bytes, b: bytes, pad: bytes) -> bool:
    """b in V(a), i.e. aba = a and bab = b, for total maps of n points as
    bytes, with ``pad`` the 256 - n bytes that make each a ``translate``
    table.  Products run left to right, so ab is a translated through b."""
    ta, tb = a + pad, b + pad
    return (a.translate(tb).translate(ta) == a
            and b.translate(ta).translate(tb) == b)


def class_witness_holds(cells, p) -> bool:
    """Whether p, a matching of an ``on_d_classes`` pattern graph (cell i
    at vertex 1 + i), fixes the zero, permutes the cells and pairs each
    cell's map with a mutual inverse.  aba = a and bab = b is symmetric in
    a and b, so a pair with p[p[a]] = a is tested once, from its lesser
    cell; each cell of a longer cycle is tested on its own."""
    if sorted(p) != list(range(len(cells) + 1)) or p[0] != 0:
        return False
    tested = [a for a in range(1, len(p)) if p[a] >= a or p[p[a]] != a]
    pad = bytes(256 - len(cells[0]))
    return all(mutually_inverse(cells[a - 1], cells[p[a] - 1], pad)
               for a in tested)


def on_verdict(n: int) -> tuple[int, bool, bool]:
    """(size, has_matching, verified) for O_n, from one walk over
    ``on_d_classes(n)``.  Mutual inverses share a D-class, so O_n has a
    matching iff each class has one, matched on its pattern.  ``size``
    counts the cells the classes list; ``verified`` needs each class's
    matching to pass ``class_witness_holds`` and the cells, sorted, to be
    the maps of O_n once each, which ``_monotone_maps`` yields in order
    (bytes of one length sort as their tuples)."""
    found, verified, listed = True, True, []
    for pattern, cells in on_d_classes(n):
        listed += cells
        if found:
            p = matching.band_matching(pattern)
            found = p is not None
            verified = found and verified and class_witness_holds(cells, p)
    listed.sort()
    verified = verified and listed == list(map(bytes, _monotone_maps(n)))
    return len(listed), found, verified


# ---------------------------------------------------------------------------
# Signature classes (R-classes grouped by kernel-class-size signature)


@dataclass(frozen=True)
class SignatureClass:
    rank: int
    signature: tuple[int, ...]
    elements: tuple[int, ...]  # ascending semigroup indices


def signature_class_partition(
    data: FamilyData, rank: int
) -> list[SignatureClass]:
    """Split the rank-``rank`` D-class of a full transformation monoid into
    unions of R-classes sharing a kernel-size signature."""
    if data.family != "Tn":
        raise NotTn(f"signature classes are defined on Tn, not {data.family}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, f in enumerate(data.maps):
        if rank_of(f, data.n) != rank:
            continue
        groups.setdefault(kernel_signature(f, data.n), []).append(idx)
    return [
        SignatureClass(rank, sig, tuple(members))
        for sig, members in sorted(groups.items())
    ]


def _class_graph(data: FamilyData, cls: SignatureClass) -> InverseGraph:
    """Within-class mutual-inverse graph, indexed by position in the class."""
    return family_inverse_graph([data.maps[g] for g in cls.elements], data.n)


def signature_class_degree(data: FamilyData, cls: SignatureClass) -> int | None:
    """Common within-class inverse count, or None if the two-copy graph is
    not regular (which would be a reportable finding, not an expected
    outcome)."""
    g = _class_graph(data, cls)
    degrees = {g.degree(a) for a in range(g.n)}
    if len(degrees) != 1:
        return None
    return degrees.pop()


def tn_matching_via_classes(n: int) -> tuple[FamilyData, tuple[int, ...]]:
    """Permutation matching of the full transformation monoid assembled
    from one perfect matching of each signature class's two-copy graph,
    written into p through the class's members and verified once, whole,
    on the Cayley table; T_n past ``FAMILY_CAP`` maps is refused.  Raises
    NotPerfect when a class has no perfect matching or p is no matching."""
    data = enumerate_family("Tn", n)
    p = [-1] * data.semigroup.order
    for rank in range(1, n + 1):
        for cls in signature_class_partition(data, rank):
            q = matching_on_graph(_class_graph(data, cls))
            if q is None:
                raise NotPerfect(
                    f"signature class {cls.signature} of rank {rank} has no "
                    "perfect matching"
                )
            for a, j in zip(cls.elements, q):
                p[a] = cls.elements[j]
    if not verify_permutation_matching(data.semigroup, p):
        raise NotPerfect("assembled map is not a permutation matching")
    return data, tuple(p)
