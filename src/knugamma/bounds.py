"""Evaluable forms of the Beta-ratio and Beta-Gamma bounds.

All quantities are computed in log space and exponentiated at the end:
the ratio bounds involve powers like (x/c)^(x/c) that overflow in
linear space long before the ratios themselves do.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .beta import log_beta_knu
from .errors import DomainWindow, Overflow, PoleHit
from .gamma import _exp_sat, log_gamma_knu
from .params import _MAX, _MIN_NORMAL, Params

__all__ = [
    "BoundReport",
    "chebyshev_beta_bound",
    "jensen_beta_bound",
    "ratio_bounds",
    "beta_gamma_upper",
    "novariable_upper",
]


def chebyshev_beta_bound(p: Params, x: float, y: float) -> Tuple[float, str]:
    """The bound k nu^3/(x y) on B_{k,nu}(x, y), with its direction.

    Synchronized arguments, (x - c)(y - c) > 0, give an *upper* bound
    (B <= k nu^3/(x y)); asynchronized ones give a lower bound.  On the
    boundary lines x = c or y = c both directions hold with equality
    (exactly: B(c, y) = nu^2/y = bound).  A bound beyond the double
    range raises ``Overflow``."""
    if not (x > 0.0 and y > 0.0):
        raise PoleHit(f"chebyshev_beta_bound requires x, y > 0, got ({x}, {y})")
    try:
        num = p.k * p.nu**3
    except OverflowError:
        num = math.inf
    den = x * y
    if _MIN_NORMAL <= min(num, den) and max(num, den, num / den) <= _MAX:
        bound = num / den
    else:  # k nu^3 or x y is not a normal double, or the quotient overflows
        try:
            bound = math.exp(math.log(p.k) + 3.0 * math.log(p.nu) - math.log(x) - math.log(y))
        except OverflowError:
            raise Overflow(f"chebyshev_beta_bound k nu^3/(x y) overflows at ({x}, {y})") from None
    if x == p.c or y == p.c:
        direction = "equality"
    elif (x > p.c) == (y > p.c):
        direction = "upper"
    else:
        direction = "lower"
    return bound, direction


def jensen_beta_bound(p: Params, x: float, y: float) -> Optional[Tuple[float, str]]:
    """The bound (nu/k) (1/2)^((x+y)/c - 2) on B_{k,nu}(x, y).

    Lower on (0, c] x [2c, inf) and its mirror (convex integrand),
    upper on [c, 2c]^2 (concave integrand), absent elsewhere.
    """
    if not (x > 0.0 and y > 0.0):
        raise PoleHit(f"jensen_beta_bound requires x, y > 0, got ({x}, {y})")
    a, b = x / p.c, y / p.c
    bound = (p.nu / p.k) * 0.5 ** (a + b - 2.0)
    if (a <= 1.0 and b >= 2.0) or (a >= 2.0 and b <= 1.0):
        return bound, "lower"
    if 1.0 <= a <= 2.0 and 1.0 <= b <= 2.0:
        return bound, "upper"
    return None


@dataclass(frozen=True)
class BoundReport:
    """All five ratio bounds and the actual ratio
    B_{k,nu}(x2, y) / B_{k,nu}(x1, y) at one (x1, x2, y).

    The exact values satisfy lower_T1 < actual_ratio < upper_T1,
    actual_ratio < upper_T2, and lower_T31 <= actual_ratio <= upper_T32.
    The fields are those values exponentiated from log space, so where
    both sides of a strict inequality lie below the double range they
    both read 0.0 and only the non-strict form holds.
    """

    lower_T1: float
    upper_T1: float
    upper_T2: float
    lower_T31: float
    upper_T32: float
    actual_ratio: float


def _log_ratio(num: float, den: float) -> float:
    """ln(num/den) for num, den > 0: the log of the quotient where that
    is a normal double, else the difference of the two logs, so a
    quotient that underflows or overflows costs no accuracy."""
    quotient = num / den
    if _MIN_NORMAL <= quotient <= _MAX:
        return math.log(quotient)
    return math.log(num) - math.log(den)


def ratio_bounds(p: Params, x1: float, x2: float, y: float) -> BoundReport:
    """The ``BoundReport`` at (x1, x2, y).  Raises ``PoleHit`` for x1
    or y not > 0 (nan included) and ``DomainWindow`` for x2 not > x1."""
    if not (x1 > 0.0):
        raise PoleHit(f"ratio_bounds requires x1 > 0, got {x1}")
    if not (x2 > x1):
        raise DomainWindow(f"ratio_bounds requires x1 < x2, got ({x1}, {x2})")
    if not (y > 0.0):
        raise PoleHit(f"ratio_bounds requires y > 0, got {y}")
    c = p.c
    b = y / c
    log_front = _log_ratio(x2 + y, x1 + y)
    log_x_ratio = _log_ratio(x1, x2)

    log_lower_t1 = log_front + (b + 1.0) * log_x_ratio
    log_upper_t1 = log_front + log_x_ratio + b * _log_ratio(x1 + y + c, x2 + y + c)
    log_upper_t2 = b * _log_ratio(x1 + y, x2 + y)

    a1, a2 = x1 / c, x2 / c
    s1, s2 = (x1 + y) / c, (x2 + y) / c
    ln_a1, ln_a2 = _log_ratio(x1, c), _log_ratio(x2, c)
    ln_s1, ln_s2 = _log_ratio(x1 + y, c), _log_ratio(x2 + y, c)
    log_lower_t31 = (a2 - 1.0) * ln_a2 + (1.0 - a1) * ln_a1 + (1.0 - s2) * ln_s2 + (s1 - 1.0) * ln_s1
    log_upper_t32 = a2 * ln_a2 - a1 * ln_a1 - s2 * ln_s2 + s1 * ln_s1

    log_actual = log_beta_knu(p, x2, y) - log_beta_knu(p, x1, y)
    return BoundReport(
        lower_T1=_exp_sat(log_lower_t1),
        upper_T1=_exp_sat(log_upper_t1),
        upper_T2=_exp_sat(log_upper_t2),
        lower_T31=_exp_sat(log_lower_t31),
        upper_T32=_exp_sat(log_upper_t32),
        actual_ratio=_exp_sat(log_actual),
    )


def beta_gamma_upper(p: Params, x: float) -> float:
    """sqrt(pi) 2^(1 - 2x/c) (nu/k)^(1/2) G(x)/G(x + c/2): an upper
    bound for B_{k,nu}(x, y) valid for every y > x."""
    if not (x > 0.0):
        raise PoleHit(f"beta_gamma_upper requires x > 0, got {x}")
    c = p.c
    log_value = (
        0.5 * math.log(math.pi)
        + (1.0 - 2.0 * x / c) * math.log(2.0)
        + 0.5 * math.log(p.nu / p.k)
        + log_gamma_knu(p, x)
        - log_gamma_knu(p, x + 0.5 * c)
    )
    return _exp_sat(log_value)


def novariable_upper(p: Params, x: float) -> float:
    """(nu/k) sqrt(pi) 2^(1 - 2x/c): constant upper bound for
    B_{k,nu}(x, y), y > x, valid only on the window 1.5c <= x <= 2c."""
    c = p.c
    if not (1.5 * c <= x <= 2.0 * c):
        raise DomainWindow(
            f"novariable_upper valid only for {1.5 * c} <= x <= {2.0 * c}, got {x}"
        )
    return (p.nu / p.k) * math.sqrt(math.pi) * 2.0 ** (1.0 - 2.0 * x / c)
