"""Reference Hopcroft-Karp for the tests of ``graphs.hopcroft_karp``.

This is the search as it stood before its first phase became a greedy
pass: every phase, the first included, starts with a breadth-first search
over all edges.  The greedy start must return the same
``(size, match_left, match_right)`` for the same input.

``deficiency_certificate`` is the Hall violator as it was found before
Hopcroft-Karp handed over its last breadth-first search: a second
alternating search from the unmatched left vertices of a maximum matching.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

INF = -1  # sentinel distance / unmatched marker


def hopcroft_karp(
    n_left: int, n_right: int, adj: Sequence[Sequence[int]]
) -> tuple[int, list[int], list[int]]:
    """Maximum matching of a bipartite graph.

    ``adj[u]`` lists the right-neighbours of left vertex ``u``.  Returns
    ``(size, match_left, match_right)`` with ``-1`` marking unmatched
    vertices.  The augmenting search is iterative, so left-side paths may
    be as long as the graph without hitting the recursion limit.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [INF] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
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
        return found

    ptr = [0] * n_left
    choice = [0] * n_left

    def dfs(root: int) -> bool:
        stack = [root]
        while stack:
            u = stack[-1]
            step = -1
            while ptr[u] < len(adj[u]):
                v = adj[u][ptr[u]]
                ptr[u] += 1
                w = match_r[v]
                if w == -1:
                    step = v
                    break
                if dist[w] == dist[u] + 1:
                    choice[u] = v
                    stack.append(w)
                    step = -2
                    break
            if step == -1:
                dist[u] = INF
                stack.pop()
            elif step >= 0:
                # free right vertex: flip the alternating path on the stack
                match_l[u] = step
                match_r[step] = u
                stack.pop()
                while stack:
                    uu = stack.pop()
                    vv = choice[uu]
                    match_l[uu] = vv
                    match_r[vv] = uu
                return True
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            ptr[u] = 0
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def deficiency_certificate(
    n_left: int,
    n_right: int,
    adj: Sequence[Sequence[int]],
    match_l: Sequence[int],
    match_r: Sequence[int],
) -> tuple[list[int], list[int]] | None:
    """Hall-condition violator extracted from a maximum matching.

    Alternating reachability from the unmatched left vertices yields a set
    ``A`` of left vertices whose joint neighbourhood is smaller than ``A``
    (Koenig duality).  Returns ``(A, N(A))``, or None when the matching
    saturates the left side.
    """
    free = [u for u in range(n_left) if match_l[u] == -1]
    if not free:
        return None
    seen_l = [False] * n_left
    seen_r = [False] * n_right
    queue: deque[int] = deque()
    for u in free:
        seen_l[u] = True
        queue.append(u)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if seen_r[v]:
                continue
            seen_r[v] = True
            w = match_r[v]
            # v is matched, else the matching was not maximum
            if w != -1 and not seen_l[w]:
                seen_l[w] = True
                queue.append(w)
    violator = [u for u in range(n_left) if seen_l[u]]
    image = [v for v in range(n_right) if seen_r[v]]
    return violator, image
