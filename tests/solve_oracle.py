"""Reference solver for the tests of ``colours.solve``.

This is the search as it stood before its partners were read off
bitmasks: for the lowest unpaired ball it walks every later ball in
index order, checks each against the ``need`` table and keeps a set of
the (owner, colour) classes already tried.  The bitmask search must
return the same ``(status, nodes, plan)`` for the same input and budget.
"""

from __future__ import annotations

from invmatch import matching
from invmatch.colours import ColourInstance, ExchangePlan, SolveResult
from invmatch.errors import BudgetExhausted


def solve(instance: ColourInstance, budget: int | None = None) -> SolveResult:
    """Exact backtracking over ball pairings, remembering failed states.

    Branches on the lowest unpaired ball, trying partners in index order
    and skipping partners equivalent under (owner, colour).

    The search state is one int: bit k is set when ball k is paired, and
    bit ``total + g*n + c`` when girl g has received colour c.  Everything
    below a node depends on that state alone: the branch ball is the
    lowest unpaired one, and which partners are admissible depends only
    on which balls are paired and which colours each girl still needs,
    not on who was paired with whom.  So a state whose partners all
    failed has no solution below it wherever it recurs, and the search
    skips it ("nogood learning").  Skipping never changes the order in
    which the remaining nodes are visited, so status and plan are those
    of the plain search whenever it finishes within the budget.  The set
    holds at most one state per pairing tried, so the budget also bounds
    its memory.

    ``nodes`` counts the pairings actually tried; a skipped state adds
    none.  ``budget`` caps that count, None meaning
    ``matching.BACKTRACKING_BUDGET``; exceeding it yields the explicit
    "budget_exhausted" status, which is not a solvability verdict.
    """
    if budget is None:
        budget = matching.BACKTRACKING_BUDGET
    total = instance.m * instance.n
    owner = [g for g, _ in instance.balls]
    colour = [c for _, c in instance.balls]
    # need[g][c]: girl g still lacks colour c among her post-exchange balls
    need = [[True] * instance.n for _ in range(instance.m)]
    pairing = [-1] * total
    state = 0
    failed: set[int] = set()

    def pair(i: int, j: int, on: bool) -> None:
        nonlocal state
        pairing[i], pairing[j] = (j, i) if on else (-1, -1)
        need[owner[i]][colour[j]] = not on
        state ^= 1 << i | 1 << (total + owner[i] * instance.n + colour[j])
        if i != j:
            need[owner[j]][colour[i]] = not on
            state ^= 1 << j | 1 << (total + owner[j] * instance.n + colour[i])

    def partners(i: int):
        """Pair ball i with each admissible partner in index order, one per
        (owner, colour), and unpair it when resumed; each partner is checked
        against the state when it is reached.  A failed state yields none,
        and a state whose partners all failed is recorded as failed."""
        if state in failed:
            return
        gi, ci = owner[i], colour[i]
        tried: set[tuple[int, int]] = set()
        for j in range(i, total):
            if pairing[j] != -1:
                continue
            gj, cj = owner[j], colour[j]
            if (gj, cj) in tried:
                continue
            if i == j:
                ok = need[gi][cj]
            elif gi == gj and ci == cj:
                # pairing two same-colour balls of one girl hands her that
                # colour twice; both reads below would hit one need cell
                ok = False
            else:
                ok = need[gi][cj] and need[gj][ci]
            if ok:
                tried.add((gj, cj))
                pair(i, j, True)
                yield j
                pair(i, j, False)
        failed.add(state)

    try:
        plan, nodes = matching._first_fit(total, pairing, partners, budget)
    except BudgetExhausted:
        return SolveResult("budget_exhausted", None, budget + 1)
    if plan is None:
        return SolveResult("unsolvable", None, nodes)
    return SolveResult("solved", ExchangePlan(plan), nodes)
