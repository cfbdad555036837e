"""The deformed Beta function B_{k,nu}(x, y) = G(x) G(y) / G(x+y).

Always routed through log-Gamma differences; the two integral
representations are test-only oracles (see :mod:`knugamma.oracle`).
B_{k,nu} is finite on the whole open positive quadrant (x + y > 0 is
automatic), so no near-pole special casing is needed; only the final
exponentiation can overflow, for extremely small arguments.
"""

import math

from .constants import _MAX, _MIN_NORMAL
from .errors import Overflow
from .gamma import log_gamma_knu
from .params import Params

__all__ = ["log_beta_knu", "beta_knu"]


def log_beta_knu(p: Params, x: float, y: float) -> float:
    """ln B_{k,nu}(x, y) for x, y > 0 (PoleHit below the quadrant).
    Raises ``Overflow`` where a log-Gamma term leaves the double range
    and takes the sum with it (inf, or inf - inf).

    Where x/c, y/c and (x+y)/c are normal doubles the three terms
    (u - 1) ln r + ln Gamma(u) of ``log_gamma_knu`` are formed here with
    ln r taken once; anywhere else, or where the sum is not finite, the
    three ``log_gamma_knu`` calls give it, with their errors.  Both
    give the same bits."""
    c = p.c
    u, v, w = x / c, y / c, (x + y) / c
    if _MIN_NORMAL <= u and _MIN_NORMAL <= v and w <= _MAX:
        log_r = math.log(p.r)
        try:
            value = (
                (u - 1.0) * log_r + math.lgamma(u) + ((v - 1.0) * log_r + math.lgamma(v))
                - ((w - 1.0) * log_r + math.lgamma(w))
            )
        except OverflowError:  # ln Gamma(w) beyond the double range
            value = math.nan
        if math.isfinite(value):
            return value
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
