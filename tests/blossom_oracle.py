"""Reference blossom search for the tests of ``graphs.max_matching_general``.

This is the search as it stood before its tree-local rewrite: every search
resets all n vertices and every contraction relabels all n.  The rewrite
must return the same mate array for the same input.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def max_matching_general(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching of an arbitrary undirected graph.

    Augmenting-path search with blossom contraction.  A greedy pass seeds
    the matching so the contraction phase only runs for the few remaining
    exposed vertices.  Returns the mate array (``-1`` = unmatched).
    """
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if to != v and match[to] == -1:
                    match[v] = to
                    match[to] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        queue: deque[int] = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    cur_base = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur_base, to, blossom)
                    mark_path(to, cur_base, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
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
