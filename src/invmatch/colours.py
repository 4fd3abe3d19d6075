"""The ball-exchange alignment problem and its reduction to involution
matchings of 0-rectangular bands.

m girls hold n balls each, m balls of each of n colours; one round of
pairwise exchanges (a single involution on balls, fixed points allowed)
must leave every girl with one ball of each colour.  A solved plan
converts into an involution matching of a band through each ball's
(girl, colour) alone (:func:`involution_from_plan`); its pairs are mutual
inverses when every girl holds only colours c with pattern[girl][c], as
the instances derived from a permutation matching of the band do.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matching
from .bands import (ZeroRectBand, read_headed, verify_band_involution,
                    verify_band_matching)
from .errors import (
    BudgetExhausted,
    IndexOutOfRange,
    MalformedInstance,
    NotAMatching,
    ParseError,
    PlanInstanceMismatch,
    WellDefinednessViolation,
)

Ball = tuple[int, int]  # (girl, colour)


@dataclass(frozen=True)
class ColourInstance:
    m: int  # girls
    n: int  # colours
    balls: tuple[Ball, ...]

    def __post_init__(self) -> None:
        """An instance is built well formed, or MalformedInstance says why."""
        if self.m < 1 or self.n < 1:
            raise MalformedInstance("instance dimensions must be positive")
        if len(self.balls) != self.m * self.n:
            raise MalformedInstance(
                f"{len(self.balls)} balls for an {self.m} x {self.n} instance")
        per_girl = [0] * self.m
        per_colour = [0] * self.n
        for girl, colour in self.balls:
            if not (0 <= girl < self.m and 0 <= colour < self.n):
                raise MalformedInstance(f"ball ({girl}, {colour}) out of range")
            per_girl[girl] += 1
            per_colour[colour] += 1
        if any(c != self.n for c in per_girl):
            raise MalformedInstance("some girl does not hold exactly n balls")
        if any(c != self.m for c in per_colour):
            raise MalformedInstance("some colour does not have exactly m balls")


@dataclass(frozen=True)
class ExchangePlan:
    """One-shot pairing of balls; fixed points are vacuous exchanges."""

    pairing: tuple[int, ...]

    def validate(self, n_balls: int) -> None:
        if len(self.pairing) != n_balls:
            raise IndexOutOfRange(
                f"plan covers {len(self.pairing)} balls, expected {n_balls}"
            )
        for i, j in enumerate(self.pairing):
            if not 0 <= j < n_balls:
                raise IndexOutOfRange(f"ball index {j} out of range")
            if self.pairing[j] != i:
                raise PlanInstanceMismatch("pairing is not an involution")

    def exchanges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.pairing) if i < j]


def instance_from_matching(band: ZeroRectBand, phi) -> ColourInstance:
    """One ball per cell: girl i's ball for column x has the colour of the
    second coordinate of the matching's image of (i, x)."""
    if not verify_band_matching(band, phi):
        raise NotAMatching("phi is not a matching of the band fixing 0")
    # cell (a, x) sits at 1 + a*n + x, so its image's column is read off
    # the image's index mod n
    n = band.n
    balls = tuple(
        (a, (phi[1 + a * n + x] - 1) % n) for a in range(band.m) for x in range(n)
    )
    return ColourInstance(band.m, n, balls)


@dataclass
class SolveResult:
    status: str  # "solved" | "unsolvable" | "budget_exhausted"
    plan: ExchangePlan | None
    nodes: int


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

    Partners are read off int bitmasks over the balls: ``free`` (the
    unpaired balls), ``wants[g]`` (the balls of the colours girl g still
    needs) and ``wanted[c]`` (the balls whose girl still needs colour c).
    Ball j may trade with ball i iff girl i needs j's colour and girl j
    needs i's, so the candidates are ``free & wants[gi] & wanted[ci]``;
    ball i itself is among them iff its girl needs its own colour, which
    is when keeping it is admissible.  Admissibility depends only on j's
    (girl, colour) class, so taking the lowest candidate and then dropping
    its whole class tries the first ball of each admissible class in
    index order.  The class of i itself can yield only i: i is its lowest
    free ball, and handing a girl the colour of her own ball twice would
    leave her short.
    """
    if budget is None:
        budget = matching.BACKTRACKING_BUDGET
    m, n = instance.m, instance.n
    total = m * n
    owner = [g for g, _ in instance.balls]
    colour = [c for _, c in instance.balls]
    of_girl = [0] * m
    of_colour = [0] * n
    for j, (g, c) in enumerate(instance.balls):
        of_girl[g] |= 1 << j
        of_colour[c] |= 1 << j
    free = (1 << total) - 1
    # every girl still needs every colour: all balls, one shared int
    wants = [free] * m
    wanted = [free] * n
    pairing = [-1] * total
    state = 0
    failed: set[int] = set()

    def pair(i: int, j: int, on: bool) -> None:
        """Toggle the exchange of i and j: girl owner[i] gains or gives up
        colour[j], and girl owner[j] colour[i]; each was needed before."""
        nonlocal state, free
        pairing[i], pairing[j] = (j, i) if on else (-1, -1)
        gi, cj = owner[i], colour[j]
        wants[gi] ^= of_colour[cj]
        wanted[cj] ^= of_girl[gi]
        bits = 1 << i | 1 << j
        state ^= bits | 1 << (total + gi * n + cj)
        if i != j:
            gj, ci = owner[j], colour[i]
            wants[gj] ^= of_colour[ci]
            wanted[ci] ^= of_girl[gj]
            state ^= 1 << (total + gj * n + ci)
        free ^= bits

    def partners(i: int):
        """Pair ball i with the first free ball of each admissible class in
        index order, and unpair it when resumed.  The state is the same at
        every resumption, so the candidates are read once.  A failed state
        yields none, and a state whose partners all failed is recorded as
        failed."""
        if state in failed:
            return
        # every ball below i is paired: the candidates are held shifted
        # down by i, so the open frames of a deep search hold half as much
        cand = (free & wants[owner[i]] & wanted[colour[i]]) >> i
        while cand:
            j = i + (cand & -cand).bit_length() - 1
            cand &= ~((of_colour[colour[j]] & of_girl[owner[j]]) >> i)
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


def verify_plan(instance: ColourInstance, plan: ExchangePlan) -> bool:
    """Apply the exchanges; true iff every girl ends with exactly one ball
    of each colour."""
    plan.validate(len(instance.balls))
    counts = [[0] * instance.n for _ in range(instance.m)]
    for i, j in enumerate(plan.pairing):
        girl = instance.balls[i][0]
        counts[girl][instance.balls[j][1]] += 1
    return all(c == 1 for row in counts for c in row)


def involution_from_plan(
    band: ZeroRectBand, instance: ColourInstance, plan: ExchangePlan
) -> matching.Matching:
    """Involution matching of the band induced by a plan: when ball x of
    girl a trades with ball y of girl b, cell (a, colour of y) swaps with
    (b, colour of x).  A plan that leaves every girl one ball of each
    colour assigns every cell exactly one image.

    Raises PlanInstanceMismatch when the instance is not of the band's
    shape, and WellDefinednessViolation when the plan does not align the
    instance or the induced map is not an involution matching.
    """
    if (instance.m, instance.n) != (band.m, band.n):
        raise PlanInstanceMismatch(
            f"{instance.m} x {instance.n} instance for a {band.m} x {band.n} band"
        )
    if not verify_plan(instance, plan):
        raise WellDefinednessViolation("plan does not align the instance")
    n, balls = band.n, instance.balls
    p = [0] * band.order
    for (a, cx), y in zip(balls, plan.pairing):
        b, cy = balls[y]
        p[1 + a * n + cy] = 1 + b * n + cx
    if not verify_band_involution(band, p):
        raise WellDefinednessViolation("induced map is not an involution matching")
    return tuple(p)


# ---------------------------------------------------------------------------
# Text formats
#
#   instance: line 1 "m n"; then m*n lines "girl colour"
#   plan:     "i j" exchange lines, fixed points omitted


def parse_instance(text: str) -> ColourInstance:
    m, n, lines = read_headed(text, "instance")
    balls = []
    for ln in lines:
        try:
            # a wrong field count fails the unpacking with ValueError too
            g, c = map(int, ln.split())
        except ValueError as exc:
            raise ParseError(f"bad instance line: {ln!r}") from exc
        balls.append((g, c))
    try:
        return ColourInstance(m, n, tuple(balls))
    except MalformedInstance as exc:
        raise ParseError(str(exc)) from exc


def format_instance(instance: ColourInstance) -> str:
    out = [f"{instance.m} {instance.n}"]
    out.extend(f"{g} {c}" for g, c in instance.balls)
    return "\n".join(out) + "\n"


def format_plan(plan: ExchangePlan) -> str:
    lines = [f"{i} {j}" for i, j in plan.exchanges()]
    return "\n".join(lines) + ("\n" if lines else "")
