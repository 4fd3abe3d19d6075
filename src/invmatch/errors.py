"""Exception types shared across the package.

The CLI maps these onto exit codes: parse failures (2), invalid algebra (3),
unmet preconditions (4), exhausted search budgets (5).
"""


class InvmatchError(Exception):
    """Base class for all package errors."""


class ParseError(InvmatchError):
    """Malformed input file."""


class EntryOutOfRange(InvmatchError):
    """Cayley table entry outside [0, n)."""

    def __init__(self, a: int, b: int, value: int, order: int):
        self.a, self.b, self.value, self.order = a, b, value, order
        super().__init__(
            f"table[{a}][{b}] = {value} outside [0, {order})")


class NotAssociative(InvmatchError):
    """Associativity fails; carries the first violating triple."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"(ab)c != a(bc) for (a, b, c) = ({a}, {b}, {c})")


class NotRegular(InvmatchError):
    """Some element has no inverse; carries a witness element."""

    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(f"element {witness} has no inverse")


class NotRegularPattern(InvmatchError):
    """Idempotent pattern with an empty row or column."""


class NotDivisible(InvmatchError):
    """Row count does not divide column count."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        super().__init__(f"{m} does not divide {n}")


class NotAPermutation(InvmatchError):
    """Candidate map is not a bijection of [0, n)."""


class NotAMatching(InvmatchError):
    """Candidate permutation does not map every element to an inverse."""


class NoInverseInTargetCell(InvmatchError):
    """Lift failed: no inverse inside the designated H-cell."""

    def __init__(self, element: int, cell: tuple):
        self.element, self.cell = element, cell
        super().__init__(f"element {element} has no inverse in H-cell {cell}")


class NotPerfect(InvmatchError):
    """Edge set is not a perfect matching of the given graph."""


class NotTn(InvmatchError):
    """Operation requires the full transformation family."""


class TooLarge(InvmatchError):
    """Enumeration exceeds the configured size cap."""


class ParameterOutOfRange(InvmatchError):
    """Parameter outside its documented range."""


class MalformedInstance(InvmatchError):
    """Ball multiset violates the per-girl / per-colour count identities."""


class IndexOutOfRange(InvmatchError):
    """Plan refers to a ball index outside the instance."""


class PlanInstanceMismatch(InvmatchError):
    """Plan and instance do not belong together."""


class WellDefinednessViolation(InvmatchError):
    """Exchange plan induced a colliding or incomplete involution."""


class EquivalenceViolation(InvmatchError):
    """Internally inconsistent verdicts; indicates an implementation bug."""


class BudgetExhausted(InvmatchError):
    """Search stopped by the node budget before reaching a verdict."""
