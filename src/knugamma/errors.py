"""Typed domain errors.

Every function in this package is total over its stated precondition
domain; out-of-domain inputs raise one of these instead of returning
NaN, so callers (and the CLI) can report the failure kind by name.
"""


class ScalarDomainError(ValueError):
    """Base class: the requested value is mathematically undefined or
    not representable in double precision."""

    kind = "ScalarDomain"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"{self.kind}: {detail}" if detail else self.kind)


class NonPositiveArgument(ScalarDomainError):
    kind = "NonPositiveArgument"


class PoleHit(ScalarDomainError):
    """Argument on the pole set (x <= 0 for the deformed Gamma; the
    negative axis is out of scope)."""

    kind = "PoleHit"


class DivergentSeries(ScalarDomainError):
    """Series argument at or beyond its abscissa of convergence."""

    kind = "DivergentSeries"


class Overflow(ScalarDomainError):
    """Result exceeds the double-precision range."""

    kind = "Overflow"


class ParameterRange(ScalarDomainError):
    """A deformation pair outside the double range: k or nu infinite,
    or c = k nu or r = k/nu overflowing or below the smallest normal
    double."""

    kind = "ParameterRange"


class DomainWindow(ScalarDomainError):
    """Argument outside the window on which a bound is valid, or an
    order or truncation length below its minimum (polygamma order
    m < 1, a limit or product truncated too short)."""

    kind = "DomainWindow"
