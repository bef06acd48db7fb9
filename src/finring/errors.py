"""Exception hierarchy for the toolkit.

Three coarse families matter to callers: validation failures (malformed or
axiom-violating presentations and files), domain failures (well formed values
that break an operation's precondition or contract), and enumeration cap
overruns.  The CLI maps the families to distinct exit codes, so new errors
should subclass one of ValidationError, DomainError or CapExceeded.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """A presentation or serialized input failed structural validation."""


class ShapeMismatch(ValidationError):
    """Dimensions, index ranges or reduction constraints are off."""


class OrderViolation(ValidationError):
    """Structure constants incompatible with the generator orders."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(
            "product of generators (%d, %d) is not annihilated by their orders" % (i, j)
        )


class UnitFailure(ValidationError):
    """The designated unit vector is not a two-sided identity."""

    def __init__(self, index: int):
        self.index = index
        super().__init__("unit law fails on generator %d" % index)


class NonAssociative(ValidationError):
    """Associativity fails on a generator triple."""

    def __init__(self, i: int, j: int, l: int):
        self.triple = (i, j, l)
        super().__init__("associativity fails on generator triple (%d, %d, %d)" % (i, j, l))


class DomainError(ToolkitError):
    """A well formed value violates an operation's precondition or contract."""


class AmbientMismatch(DomainError):
    """Operands live in different rings."""


class NotIdempotent(DomainError):
    """An argument required to be idempotent is not."""


class NotSemicentral(DomainError):
    """An idempotent required to be semicentral is not."""


class NotSemicentralReduced(DomainError):
    """An idempotent whose corner must be semicentral reduced fails the test."""


class NotIsomorphism(DomainError):
    """An additive map fails to be the required kind of isomorphism."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class NotBijective(DomainError):
    """A map required to be bijective is not."""


class InvalidSequence(DomainError):
    """A proposed triangulating sequence violates one of its axioms."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class StructureViolation(DomainError):
    """An internal structural guarantee failed; indicates corrupt input or a bug."""


class PreconditionViolated(DomainError):
    """A reordering precondition fails; carries the first offending index."""

    def __init__(self, index: int):
        self.index = index
        super().__init__("component at index %d obstructs the move" % index)


class LocationMismatch(DomainError):
    """phi(e) does not sit over f in the expected coset."""


class InadmissiblePermutation(DomainError):
    """The requested block order is not strongly triangular."""

    def __init__(self, sigma):
        self.sigma = tuple(sigma)
        super().__init__("block order %s is not admissible" % (self.sigma,))


class InconsistentQuadruple(DomainError):
    """Corner data does not satisfy the synthesis compatibility equations."""

    def __init__(self, reason: str, level: int | None = None):
        self.reason = reason
        self.level = level
        where = "" if level is None else " at level %d" % level
        super().__init__(reason + where)


class CapExceeded(ToolkitError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, size: int, cap: int, what: str = "enumeration"):
        self.size = size
        self.cap = cap
        self.what = what
        super().__init__("%s size %d exceeds cap %d" % (what, size, cap))
