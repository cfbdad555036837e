"""The two-parameter deformed Gamma function.

The fast path reduces to the classical function through
``Gamma_{k,nu}(x) = (k/nu)^(x/(k nu) - 1) * Gamma(x/(k nu))``; the
defining limit, integral, and product representations live in
:mod:`knugamma.oracle` as independent cross-checks.
"""

import math
from dataclasses import dataclass

from . import scalar
from .errors import Overflow, PoleHit
from .params import _MAX, _MIN_NORMAL, Params

__all__ = [
    "GammaValue",
    "log_gamma_knu",
    "gamma_knu",
    "pochhammer",
    "param_transform",
    "stirling_approx",
]


@dataclass(frozen=True)
class GammaValue:
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
    """ln Gamma_{k,nu}(x) for x > 0; the workhorse for every product or
    ratio of deformed Gamma values."""
    if not (x > 0.0):
        raise PoleHit(f"Gamma_{{k,nu}} pole set is x <= 0; got x={x}")
    u = x / p.c
    return (u - 1.0) * math.log(p.r) + scalar.ln_gamma(u)


def gamma_knu(p: Params, x: float) -> GammaValue:
    """Gamma_{k,nu}(x) for x > 0, in both linear and log form."""
    log_value = log_gamma_knu(p, x)
    return GammaValue(log_value=log_value, value=_exp_sat(log_value))


def pochhammer(x: float, n: int, a: float) -> float:
    """Shifted factorial (x)_{n,a} = x (x+a) ... (x+(n-1)a); the empty
    product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got {n}")
    result = 1.0
    for j in range(n):
        result *= x + j * a
        if math.isinf(result):
            raise Overflow(f"pochhammer({x}, {n}, {a}) exceeds double range")
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
    factor = (to_p.k * from_p.nu) / (from_p.k * to_p.nu)
    exponent = x / to_p.c - 1.0
    return _exp_sat(exponent * math.log(factor) + log_gamma_knu(from_p, from_p.c * x / to_p.c))


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
    # where x/c is below the normal doubles it has lost bits; ln x - ln c has not
    log_u = math.log(u) if u >= _MIN_NORMAL else math.log(x) - math.log(p.c)
    log_r = math.log(p.r)
    log_value = 0.5 * math.log(2.0 * math.pi) + (u - 1.0) * log_r + (u - 0.5) * log_u - u
    if math.isnan(log_value):  # (u - 1) ln r and (u - 1/2) ln u overflow with opposite signs
        log_value = u * (log_r + log_u - 1.0) + 0.5 * math.log(2.0 * math.pi) - log_r - 0.5 * log_u
    value = _exp_sat(log_value)
    if math.isinf(value):
        raise Overflow(f"stirling_approx({p.k}, {p.nu}, {x}) exceeds double range")
    return value
