"""Deterministic matching algorithms on small graphs.

Everything here processes vertices and adjacency lists in ascending index
order, so repeated runs on the same input produce identical results.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

INF = -1  # sentinel distance / unmatched marker


def hopcroft_karp(
    n_left: int, n_right: int, adj: Sequence[Sequence[int]]
) -> tuple[int, list[int], list[int], list[int]]:
    """Maximum matching of a bipartite graph.

    ``adj[u]`` lists the right-neighbours of left vertex ``u``.  Returns
    ``(size, match_left, match_right, reached)`` with ``-1`` marking
    unmatched vertices; ``reached`` lists, ascending, the left vertices the
    last breadth-first search reached, ``[]`` when none is unmatched.  The
    augmenting search is iterative, so left-side paths may be as long as
    the graph without hitting the recursion limit.  The greedy first pass
    reads one list object shared by consecutive u once.  Each later phase
    searches from the vertices its breadth-first search found free, and
    scans each list at most once through a cursor.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [INF] * n_left
    choice = [0] * n_left

    # with every dist 0, phase 1 reduces to each u taking its first free v;
    # no v is freed in it, so a u holding the previous u's list object goes
    # on where that scan stopped: every v passed is still matched
    size = 0
    prev = rest = None
    for u in range(n_left):
        if adj[u] is not prev:
            prev = adj[u]
            rest = iter(prev)
        for v in rest:
            if match_r[v] == -1:
                match_l[u], match_r[v] = v, u
                size += 1
                break
    while True:
        # breadth-first layers from the free left vertices, to exhaustion
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        # no left vertex is freed within a phase: these are its roots
        roots = list(queue)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break
        # depth-first augmenting paths along the layers; a left vertex
        # gets its cursor on its first visit in the phase
        cursor: dict[int, Iterator[int]] = {}
        for root in roots:
            stack = [root]
            while stack:
                u = stack[-1]
                edges = cursor.get(u)
                if edges is None:
                    edges = cursor[u] = iter(adj[u])
                layer = dist[u] + 1
                for v in edges:
                    w = match_r[v]
                    if w == -1:
                        # free right vertex: flip the alternating path
                        match_l[u] = v
                        match_r[v] = u
                        stack.pop()
                        while stack:
                            uu = stack.pop()
                            vv = choice[uu]
                            match_l[uu] = vv
                            match_r[vv] = uu
                        size += 1
                        break
                    if dist[w] == layer:
                        choice[u] = v
                        stack.append(w)
                        break
                else:
                    dist[u] = INF
                    stack.pop()
    # no depth-first search followed the last one: dist holds its layers
    if size == n_left:
        return size, match_l, match_r, []
    return size, match_l, match_r, [u for u, d in enumerate(dist) if d != INF]


def deficiency_certificate(
    adj: Sequence[Sequence[int]], reached: list[int]
) -> tuple[list[int], list[int]] | None:
    """Hall-condition violator ``(A, N(A))`` read off the ``reached`` list
    of :func:`hopcroft_karp` on ``adj``, or None when that list is empty.

    A is that list and N(A) its neighbours, ascending.  The last search met
    no free right vertex, so N(A) is matched into A, and |A| - |N(A)| is
    the number of unmatched vertices in A (Koenig duality).
    """
    if not reached:
        return None
    return reached, sorted({v for u in reached for v in adj[u]})


def max_matching_general(
    n: int, adj: Sequence[Sequence[int]], mate: Sequence[int] | None = None
) -> list[int]:
    """Maximum matching of an arbitrary undirected graph.

    Augmenting-path search with blossom contraction (Edmonds).  ``mate``,
    when given, is a starting matching (symmetric, on edges of the graph);
    otherwise a greedy pass builds one.  Only the vertices the start leaves
    exposed are searched; by Berge's theorem augmenting from any matching
    reaches a maximum one.  Returns the mate array (``-1`` = unmatched).

    Each search resets and relabels only the vertices of its own tree, in
    index order, so it costs the size of that tree, not n, and gives the
    mate array of a search that resets all n.
    """
    if mate is None:
        match = [-1] * n
        for v in range(n):
            if match[v] == -1:
                for to in adj[v]:
                    if to != v and match[to] == -1:
                        match[v] = to
                        match[to] = v
                        break
    else:
        match = list(mate)
        if len(match) != n or any(
            m != -1 and not (0 <= m < n and m != v and match[m] == v)
            for v, m in enumerate(match)
        ):
            raise ValueError("starting mate array is not a matching")

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    tree: list[int] = []  # vertices labelled by the current search

    def lca(a: int, b: int) -> int:
        on_path = set()
        while True:
            a = base[a]
            on_path.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in on_path:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in tree:
            used[i] = False
            p[i] = -1
            base[i] = i
        tree.clear()
        used[root] = True
        tree.append(root)
        queue: deque[int] = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom to its base.  Every
                    # vertex whose base is in it lies in the tree, which is
                    # sorted but for the vertices added since the last sort
                    cur_base = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, cur_base, to, blossom)
                    mark_path(to, cur_base, v, blossom)
                    tree.sort()
                    for i in tree:
                        if base[i] in blossom:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    tree.append(to)
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    tree.append(match[to])
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_path(v)
        while end != -1:
            prev = p[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt
    return match
