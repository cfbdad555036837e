"""The two-parameter deformed Gamma function.

The fast path reduces to the classical function through
``Gamma_{k,nu}(x) = (k/nu)^(x/(k nu) - 1) * Gamma(x/(k nu))``; the
defining limit, integral, and product representations live in
:mod:`knugamma.oracle` as independent cross-checks.
"""

import math

from .errors import DomainWindow, Overflow, PoleHit
from .constants import _MAX, _MIN_NORMAL
from .params import Params, Record, _log_ratio

__all__ = [
    "GammaValue",
    "log_gamma_knu",
    "gamma_knu",
    "pochhammer",
    "param_transform",
    "stirling_approx",
]


class GammaValue(Record):
    """Overflow-safe carrier: ``value`` may be ``inf`` for large
    arguments while ``log_value`` stays finite."""

    log_value: float
    value: float


def _exp_sat(log_value: float) -> float:
    """exp that saturates to inf instead of raising, the policy of
    ``GammaValue.value``: a value or bound beyond the double range is
    still an (unusable but valid) answer."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_gamma_knu(p: Params, x: float) -> float:
    """ln Gamma_{k,nu}(x) = (x/c - 1) ln r + ln Gamma(x/c) for x > 0; the
    one place that forms it, and the workhorse for every product or
    ratio of deformed Gamma values.  Raises ``Overflow`` where the log
    itself leaves the double range."""
    if not (x > 0.0):
        raise PoleHit(f"Gamma_{{k,nu}} pole set is x <= 0; got x={x}")
    u = x / p.c
    if u < _MIN_NORMAL:
        # x/c has lost bits or is 0: ln Gamma(u) = ln Gamma(1 + u) - ln u,
        # where 1 + u rounds to 1 and ln Gamma(1) = 0, with ln u exact
        value = (u - 1.0) * p.log_r - _log_ratio(x, p.c)
    else:
        try:
            value = (u - 1.0) * p.log_r + math.lgamma(u)
        except OverflowError:  # ln Gamma(u) beyond the double range
            value = math.inf
    if not (abs(value) <= _MAX):  # u = inf, or (u - 1) ln r or ln Gamma(u) overflows
        raise Overflow(f"log_gamma_knu({p.k}, {p.nu}, {x}) exceeds double range")
    return value


def gamma_knu(p: Params, x: float) -> GammaValue:
    """Gamma_{k,nu}(x) for x > 0, in both linear and log form."""
    log_value = log_gamma_knu(p, x)
    return GammaValue(log_value, _exp_sat(log_value))


def pochhammer(x: float, n: int, a: float) -> float:
    """Shifted factorial (x)_{n,a} = x (x+a) ... (x+(n-1)a); the empty
    product (n = 0) is 1; n < 0 raises ``DomainWindow``."""
    if n < 0:
        raise DomainWindow(f"pochhammer requires n >= 0, got {n}")
    result = 1.0
    for j in range(n):
        result *= x + j * a
        if not (abs(result) <= _MAX):  # beyond the double range, or nan from a nan or inf argument
            raise Overflow(f"pochhammer({x}, {n}, {a}) is not a finite double")
    return result


def param_transform(from_p: Params, to_p: Params, x: float) -> float:
    """Gamma_{to}(x) computed by rescaling an evaluation of Gamma_{from}:

        Gamma_{l,mu}(x) = (l*nu/(k*mu))^(x/(l*mu)-1)
                          * Gamma_{k,nu}(k*nu*x/(l*mu))

    with (k, nu) = from and (l, mu) = to.  Agrees with a direct
    evaluation to full precision; useful as a consistency check and to
    reuse tabulated values under parameter changes.
    """
    if not (x > 0.0):
        raise PoleHit(f"param_transform requires x > 0, got x={x}")
    # the factor is r_to / r_from; where it is not a normal double it has
    # lost bits or left the range, ln r_to - ln r_from has not
    factor = (to_p.k * from_p.nu) / (from_p.k * to_p.nu)
    log_factor = math.log(factor) if _MIN_NORMAL <= factor <= _MAX else to_p.log_r - from_p.log_r
    exponent = x / to_p.c - 1.0
    return _exp_sat(exponent * log_factor + log_gamma_knu(from_p, from_p.c * x / to_p.c))


def stirling_approx(p: Params, x: float) -> float:
    """Leading Stirling-type term for Gamma_{k,nu}(x):

        sqrt(2 pi) (k/nu)^(x/c - 1) (x/c)^(x/c - 1/2) e^(-x/c),  c = k nu.

    No remainder is included; the relative error decays like O(c/x) and
    equals the classical Stirling error at the reduced argument x/c.  A
    value beyond the double range raises ``Overflow``.
    """
    if not (x > 0.0):
        raise PoleHit(f"stirling_approx requires x > 0, got x={x}")
    u = x / p.c
    if u > _MAX:  # x = inf, or x/c overflows: u ln u is beyond the double range
        raise Overflow(f"stirling_approx({p.k}, {p.nu}, {x}): x/c exceeds double range")
    log_u = _log_ratio(x, p.c)
    log_r = p.log_r
    log_value = 0.5 * math.log(2.0 * math.pi) + (u - 1.0) * log_r + (u - 0.5) * log_u - u
    if math.isnan(log_value):  # (u - 1) ln r and (u - 1/2) ln u overflow with opposite signs
        log_value = u * (log_r + log_u - 1.0) + 0.5 * math.log(2.0 * math.pi) - log_r - 0.5 * log_u
    value = _exp_sat(log_value)
    if math.isinf(value):
        raise Overflow(f"stirling_approx({p.k}, {p.nu}, {x}) exceeds double range")
    return value
