"""Classical special-function engine: ln Gamma, psi, polygamma, zeta,
Hurwitz zeta on the positive real axis.

No numpy, no scipy: ln Gamma is the C library's ``lgamma`` (via
``math.lgamma``), psi and its derivatives use upward recurrence plus
Bernoulli asymptotics, and the zetas use Euler-Maclaurin with fixed
effort caps.  The constant series coefficients are computed once, not
per call.  All routines are pure and reentrant.

Every routine returns a finite double or raises a ``ScalarDomainError``
subclass, for every float argument including inf, nan and subnormals.
"""

import math

from .constants import EULER_GAMMA
from .errors import DivergentSeries, NonPositiveArgument, Overflow

__all__ = [
    "EULER_GAMMA",
    "ln_gamma",
    "digamma",
    "polygamma",
    "riemann_zeta",
    "hurwitz_zeta",
]

# B_{2n} for n = 1..15 as double literals.
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

# psi/polygamma: shift the argument above this before switching to the
# Bernoulli asymptotic series.
_PSI_SHIFT = 10.0
# Euler-Maclaurin effort caps (deterministic, not adaptive).
_ZETA_BASE_TERMS = 25
_ZETA_BERNOULLI_TERMS = 12

# digamma's asymptotic coefficients B_{2n}/(2n), n = 1..7.
_DIGAMMA_COEFFS = tuple(_BERNOULLI_EVEN[n - 1] / (2 * n) for n in range(1, 8))


def _em_coeffs():
    """(B_2k/(2k)!, 2k) for k = 1.._ZETA_BERNOULLI_TERMS, with (2k)!
    accumulated as a running double product (rounded at each step, so it
    is not always float((2k)!))."""
    out = []
    fact = 2.0
    for k in range(1, _ZETA_BERNOULLI_TERMS + 1):
        out.append((_BERNOULLI_EVEN[k - 1] / fact, float(2 * k)))
        fact *= (2 * k + 1) * (2 * k + 2)
    return tuple(out)


_EM_COEFFS = _em_coeffs()

# polygamma's constants per order m, filled on first use of each m:
# (m!, (m-1)!, B_{2j} (2j+m-1)!/(2j)! for j = 1..10) as doubles.
_POLYGAMMA_TABLES = {}
# The largest m whose constants are all finite doubles: for m = 151 the
# j = 10 coefficient B_20 * 170!/20! already overflows.
_POLYGAMMA_MAX_ORDER = 150


def _polygamma_table(m: int):
    table = _POLYGAMMA_TABLES.get(m)
    if table is None:
        if m > _POLYGAMMA_MAX_ORDER:
            raise Overflow(
                f"polygamma order m={m} > {_POLYGAMMA_MAX_ORDER}: its series "
                "coefficients exceed double range"
            )
        coeffs = tuple(
            _BERNOULLI_EVEN[j - 1] * math.factorial(2 * j + m - 1) / math.factorial(2 * j)
            for j in range(1, 11)
        )
        table = (float(math.factorial(m)), float(math.factorial(m - 1)), coeffs)
        _POLYGAMMA_TABLES[m] = table
    return table


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Raises NonPositiveArgument for x <= 0 or nan, and Overflow where
    ln Gamma(x) exceeds double range (x above about 2.5e305, and
    x = inf).
    """
    if not (x > 0.0):
        raise NonPositiveArgument(f"ln_gamma requires x > 0, got {x}")
    if x < math.inf:
        try:
            return math.lgamma(x)
        except OverflowError:
            pass
    raise Overflow(f"ln_gamma({x}) exceeds double range")


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0.

    Raises NonPositiveArgument for x <= 0 or nan, and Overflow where
    |psi(x)| exceeds double range (x below about 5.6e-309, and x = inf).
    """
    if not (x > 0.0):
        raise NonPositiveArgument(f"digamma requires x > 0, got {x}")
    acc = 0.0
    z = x
    while z < _PSI_SHIFT:
        acc -= 1.0 / z
        z += 1.0
    # psi(z) ~ ln z - 1/(2z) - sum_n B_{2n}/(2n z^{2n}); seven terms at
    # z >= 10 leave the tail below 1e-17 relative.
    inv = 1.0 / z
    inv2 = inv * inv
    result = math.log(z) - 0.5 * inv
    power = inv2
    for coeff in _DIGAMMA_COEFFS:
        result -= coeff * power
        power *= inv2
    result = acc + result
    if not math.isfinite(result):
        raise Overflow(f"digamma({x}) exceeds double range")
    return result


def polygamma(m: int, x: float) -> float:
    """psi^(m)(x) = (-1)^(m+1) m! sum_{n>=0} (x+n)^-(m+1), for m >= 1,
    x > 0.

    Raises ValueError for m < 1, NonPositiveArgument for x <= 0 or nan,
    and Overflow where the result exceeds double range (small x) or
    m > 150 (the order's series constants exceed it).  x = inf gives
    the limit 0.
    """
    if m < 1:
        raise ValueError(f"polygamma requires m >= 1, got {m}")
    if not (x > 0.0):
        raise NonPositiveArgument(f"polygamma requires x > 0, got {x}")
    fact_m, fact_m1, coeffs = _polygamma_table(m)
    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
    # Upward recurrence: psi^(m)(z) = psi^(m)(z+1) + (-1)^(m+1) m! z^-(m+1).
    shift = _PSI_SHIFT + m
    step = sign * fact_m
    acc = 0.0
    z = x
    try:
        while z < shift:
            acc += step * z ** (-(m + 1))
            z += 1.0
    except OverflowError:
        raise Overflow(f"polygamma({m}, {x}) exceeds double range") from None
    # Asymptotic series ((-1)^(m-1) factor equals (-1)^(m+1) == sign):
    # psi^(m)(z) ~ (-1)^(m-1) [ (m-1)!/z^m + m!/(2 z^(m+1))
    #                + sum_j B_{2j} (2j+m-1)!/(2j)! z^-(2j+m) ].
    inv = 1.0 / z
    xm = inv**m
    total = fact_m1 * xm + 0.5 * fact_m * xm * inv
    inv2 = inv * inv
    power = xm * inv2
    for coeff in coeffs:
        total += coeff * power
        power *= inv2
    result = acc + sign * total
    if not math.isfinite(result):
        raise Overflow(f"polygamma({m}, {x}) exceeds double range")
    return result


def _em_tail(s: float, base: float) -> float:
    """Euler-Maclaurin correction sum_{k} B_2k/(2k)! (s)_{2k-1} base^(-s-2k+1)."""
    total = 0.0
    rising = s  # (s)_1
    power = base ** (-s - 1.0)
    inv2 = 1.0 / (base * base)
    for coeff, two_k in _EM_COEFFS:
        # Once the power underflows every later term is zero; stopping
        # here also keeps an overflowing (s)_{2k-1} (huge s) from
        # turning 0 * inf into nan.
        if power == 0.0:
            break
        total += coeff * rising * power
        # (s)_{2k-1} -> (s)_{2k+1}; s + 2k - 1 is rounded as (s + 2k) - 1
        t = s + two_k
        rising *= (t - 1.0) * t
        power *= inv2
    return total


def riemann_zeta(s: float) -> float:
    """zeta(s) = sum_{n>=1} n^-s for s > 1, by Euler-Maclaurin with a
    fixed direct-sum length and Bernoulli-term count.

    Raises DivergentSeries for s <= 1 or nan; s = inf gives the limit 1.
    """
    if not (s > 1.0):
        raise DivergentSeries(f"riemann_zeta requires s > 1, got {s}")
    n_terms = _ZETA_BASE_TERMS + int(0.5 * min(s, 200.0))
    direct = 0.0
    for n in range(n_terms - 1, 0, -1):  # ascending magnitude
        direct += float(n) ** (-s)
    big_n = float(n_terms)
    tail = big_n ** (1.0 - s) / (s - 1.0) + 0.5 * big_n ** (-s)
    return direct + tail + _em_tail(s, big_n)


def hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum_{n>=0} (q+n)^-s for s > 1, q > 0.

    Raises DivergentSeries for s <= 1 or nan, NonPositiveArgument for
    q <= 0 or nan, and Overflow where the result exceeds double range
    (small q).  s = inf and q = inf give their limits.
    """
    if not (s > 1.0):
        raise DivergentSeries(f"hurwitz_zeta requires s > 1, got {s}")
    if not (q > 0.0):
        raise NonPositiveArgument(f"hurwitz_zeta requires q > 0, got {q}")
    n_terms = _ZETA_BASE_TERMS + int(0.5 * min(s, 200.0))
    try:
        direct = 0.0
        for n in range(n_terms - 1, -1, -1):
            direct += (q + n) ** (-s)
    except OverflowError:
        raise Overflow(f"hurwitz_zeta({s}, {q}) exceeds double range") from None
    base = q + n_terms
    tail = base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s)
    result = direct + tail + _em_tail(s, base)
    if not math.isfinite(result):
        raise Overflow(f"hurwitz_zeta({s}, {q}) exceeds double range")
    return result
