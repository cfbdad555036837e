"""The deformed Beta function B_{k,nu}(x, y) = G(x) G(y) / G(x+y).

Always routed through log-Gamma differences; the two integral
representations are test-only oracles (see :mod:`knugamma.oracle`).
B_{k,nu} is finite on the whole open positive quadrant (x + y > 0 is
automatic), so no near-pole special casing is needed; only the final
exponentiation can overflow, for extremely small arguments.
"""

import math

from .errors import Overflow
from .gamma import log_gamma_knu
from .params import Params

__all__ = ["log_beta_knu", "beta_knu"]


def log_beta_knu(p: Params, x: float, y: float) -> float:
    """ln B_{k,nu}(x, y) for x, y > 0 (PoleHit below the quadrant), the
    sum of three ``log_gamma_knu`` terms.  Raises ``Overflow`` where a
    term leaves the double range or takes the sum with it (inf, or
    inf - inf)."""
    value = log_gamma_knu(p, x) + log_gamma_knu(p, y) - log_gamma_knu(p, x + y)
    if not math.isfinite(value):
        raise Overflow(f"log_beta_knu({x}, {y}) exceeds double range")
    return value


def beta_knu(p: Params, x: float, y: float) -> float:
    log_value = log_beta_knu(p, x, y)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise Overflow(f"beta_knu({x}, {y}) exceeds double range") from None
