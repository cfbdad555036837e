"""Classical special-function engine: ln Gamma, psi, polygamma, zeta,
Hurwitz zeta on the positive real axis.

No numpy, no scipy: ln Gamma is the C library's ``lgamma`` (via
``math.lgamma``), psi uses upward recurrence plus Bernoulli
asymptotics, and the zetas share one Euler-Maclaurin series,
``_zeta_series``: it sums (q+n)^-s directly only until the base q + n
reaches _ZETA_BASE + s (none where q is already there), then adds the
integral, the half term and 12 Bernoulli terms in Horner form.
Its derivatives have one series, ``_polygamma_scaled``, which gives
psi^(m)(x/c) / c^(m+1) in scaled form: ``polygamma`` is c = 1 and
``psi.polygamma_knu`` is c = k nu.  The constant series coefficients
are computed once, not per call.  All routines are pure and reentrant.

Every routine returns a finite double or raises a ``ScalarDomainError``
subclass, for every float argument including inf, nan and subnormals.
"""

import math

from .constants import EULER_GAMMA
from .errors import DivergentSeries, DomainWindow, NonPositiveArgument, Overflow

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
# Euler-Maclaurin: the direct sum shifts q until the base b = q + n
# reaches _ZETA_BASE + s, where successive Bernoulli terms fall by about
# ((s+2k)/(2 pi b))^2, below 1/3 for all 12; at most _ZETA_MAX_TERMS
# direct terms, a cap that binds only above s = 200, where the tail
# beyond them is below e^-200 of the first term.
_ZETA_BASE = 6.0
_ZETA_MAX_TERMS = 206
_ZETA_BERNOULLI_TERMS = 12

# digamma's asymptotic coefficients B_{2n}/(2n), n = 1..7.
_DIGAMMA_COEFFS = tuple(_BERNOULLI_EVEN[n - 1] / (2 * n) for n in range(1, 8))


def _em_horner():
    """(C_k, 2k - 1, 2k) for k = _ZETA_BERNOULLI_TERMS - 1 .. 1, the
    Horner steps of ``_em_sum``, with C_k = B_2k/(2k)! and (2k)!
    accumulated as a running double product (rounded at each step, so
    it is not always float((2k)!)); and C_12, the innermost constant."""
    coeffs = []
    fact = 2.0
    for k in range(1, _ZETA_BERNOULLI_TERMS + 1):
        coeffs.append((_BERNOULLI_EVEN[k - 1] / fact, float(2 * k - 1), float(2 * k)))
        fact *= (2 * k + 1) * (2 * k + 2)
    return tuple(reversed(coeffs[:-1])), coeffs[-1][0]


_EM_HORNER, _EM_LAST = _em_horner()

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
    x > 0: the scaled series below at c = 1.

    Raises DomainWindow for m < 1, NonPositiveArgument for x <= 0 or nan,
    and Overflow where the result exceeds double range (small x) or
    m > 150 (the order's series constants exceed it).  x = inf gives
    the limit 0.
    """
    return _polygamma_scaled(m, x, 1.0)


def _polygamma_scaled(m: int, x: float, c: float) -> float:
    """psi^(m)(u) / c^(m+1) for u = x/c, the one polygamma series: also
    where u, psi^(m)(u), c^(m+1) or their quotient leaves the normal
    doubles.  It is s / (x^e c^(m+1-e)) with s = u^e |psi^(m)(u)|,
    summed by upward recurrence and the Bernoulli asymptotic series
    with u^e taken into each term: e = m+1 below u = 1 and e = m above
    keep s between (m-1)! and about 2 m! for every u, 0 and inf
    included, and x^e c^(m+1-e) is formed on binary mantissas and
    exponents, so nothing over- or underflows before the last step."""
    if m < 1:
        raise DomainWindow(f"polygamma requires m >= 1, got {m}")
    if not (x > 0.0):
        raise NonPositiveArgument(f"polygamma requires x > 0, got {x}")
    fact_m, fact_m1, coeffs = _polygamma_table(m)
    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
    if x == math.inf:
        return 0.0
    u = x / c
    e = m + 1 if u < 1.0 else m
    # Recurrence terms m! u^e (u+j)^-(m+1) = m! (u/(u+j))^e (u+j)^(e-m-1);
    # the j = 0 one is m! u^(e-m-1).
    acc = 0.0
    z = u
    if u < _PSI_SHIFT + m:
        acc = fact_m if e > m else fact_m / u
        z = u + 1.0
        while z < _PSI_SHIFT + m:
            t = (u / z) ** e
            acc += fact_m * (t if e > m else t / z)
            z += 1.0
    # Series: u^e psi^(m)(z) ~ (u/z)^e z^(e-m) [ (m-1)! + m!/(2z)
    #                                         + sum_j B_2j (2j+m-1)!/(2j)! z^-2j ].
    inv = 1.0 / z
    inv2 = inv * inv
    total = fact_m1 + 0.5 * fact_m * inv
    power = inv2
    for coeff in coeffs:
        total += coeff * power
        power *= inv2
    if z != u:
        total *= (u / z) ** e
    if e > m:
        total *= z
    s_mant, s_exp = math.frexp(acc + total)
    d_mant, d_exp = math.frexp(x)
    d_mant, d_exp = d_mant**e, d_exp * e
    if e == m:
        c_mant, c_exp = math.frexp(c)
        d_mant, d_exp = d_mant * c_mant, d_exp + c_exp
    try:
        value = math.ldexp(sign * s_mant / d_mant, s_exp - d_exp)
    except OverflowError:
        raise Overflow(f"polygamma({m}, {x}/{c}) / {c}^{m + 1} exceeds double range") from None
    return value if value else 0.0  # an underflow reads 0.0, as the x = inf limit


def _zeta_terms(s: float, q: float) -> int:
    """How many direct terms (q+n)^-s, n = 0, 1, ..., the zeta series
    takes: enough to bring the base q + n to _ZETA_BASE + s, at most
    _ZETA_MAX_TERMS, and none where q is there already."""
    gap = _ZETA_BASE + s - q
    return math.ceil(min(gap, _ZETA_MAX_TERMS)) if gap > 0.0 else 0


def _em_sum(s: float, base: float) -> float:
    """sum_{k=1..12} B_2k/(2k)! (s)_{2k-1} base^(1-2k), the Bernoulli
    terms of Euler-Maclaurin relative to base^(1-s), in Horner form:
    s/base (C_1 + f_1 (C_2 + f_2 (... + f_11 C_12))) with
    C_k = B_2k/(2k)! and f_k = (s+2k-1)(s+2k)/base^2.  Each factor of
    f_k is divided by base first, so s and base may both be huge;
    s/base must not be (the terms then diverge)."""
    inv = 1.0 / base
    acc = _EM_LAST
    for coeff, odd, even in _EM_HORNER:
        acc = coeff + (s + odd) * inv * ((s + even) * inv) * acc
    return s * inv * acc


def _zeta_series(s: float, q: float) -> float:
    """sum_{n>=0} (q+n)^-s for s > 1 and q > 0, the series of both
    zetas: the direct terms of ``_zeta_terms``, in ascending magnitude,
    then at the base b = q + N the tail
    b^(1-s) (1/(s-1) + (1/2 + ``_em_sum``)/b).  b is at least 7, so
    b^(1-s) never overflows; where it underflows (s = inf, or s ln b
    beyond the double range) the tail is below every double and is not
    evaluated, which also keeps an overflowing Horner sum at huge s out
    of it.  A direct term beyond the double range (small q) raises
    OverflowError."""
    n_terms = _zeta_terms(s, q)
    direct = 0.0
    for n in range(n_terms - 1, -1, -1):
        direct += (q + n) ** (-s)
    base = q + n_terms
    lead = base ** (1.0 - s)
    if lead == 0.0:
        return direct
    return direct + (lead / (s - 1.0) + lead * (0.5 + _em_sum(s, base)) / base)


def riemann_zeta(s: float) -> float:
    """zeta(s) = sum_{n>=1} n^-s for s > 1: ``_zeta_series`` at q = 1.

    Raises DivergentSeries for s <= 1 or nan; s = inf gives the limit 1.
    """
    if not (s > 1.0):
        raise DivergentSeries(f"riemann_zeta requires s > 1, got {s}")
    return _zeta_series(s, 1.0)


def hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum_{n>=0} (q+n)^-s for s > 1, q > 0: ``_zeta_series``.

    Raises DivergentSeries for s <= 1 or nan, NonPositiveArgument for
    q <= 0 or nan, and Overflow where the result exceeds double range
    (small q).  s = inf and q = inf give their limits.
    """
    if not (s > 1.0):
        raise DivergentSeries(f"hurwitz_zeta requires s > 1, got {s}")
    if not (q > 0.0):
        raise NonPositiveArgument(f"hurwitz_zeta requires q > 0, got {q}")
    try:
        result = _zeta_series(s, q)
    except OverflowError:
        raise Overflow(f"hurwitz_zeta({s}, {q}) exceeds double range") from None
    if not math.isfinite(result):
        raise Overflow(f"hurwitz_zeta({s}, {q}) exceeds double range")
    return result
