"""The deformation parameter pair (k, nu) and its derived composites."""

from dataclasses import dataclass, field

from .constants import _MAX, _MIN_NORMAL
from .errors import NonPositiveArgument, ParameterRange


@dataclass(frozen=True)
class Params:
    """Deformation pair.  ``c = k*nu`` is the step of every recurrence
    and series in the family; ``r = k/nu`` is the base of the rescaling
    prefactors.  Both are stored at construction so all call sites use
    the exact same doubles.  k and nu must be finite and > 0, and c and
    r normal doubles (``ParameterRange`` otherwise).
    """

    k: float
    nu: float
    c: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        if not (self.k > 0.0):
            raise NonPositiveArgument(f"k must be > 0, got {self.k}")
        if not (self.nu > 0.0):
            raise NonPositiveArgument(f"nu must be > 0, got {self.nu}")
        # c and r are divided by and raised to powers everywhere; a
        # subnormal one has lost precision, a zero one or an infinite
        # one means nothing.
        c, r = self.k * self.nu, self.k / self.nu
        if not (_MIN_NORMAL <= c <= _MAX and _MIN_NORMAL <= r <= _MAX):
            raise ParameterRange(
                f"k={self.k}, nu={self.nu}: c = k*nu = {c} and r = k/nu = {r} "
                "must be finite normal doubles"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
