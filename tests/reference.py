"""The mpmath references of the tests, each written once with its
precision rule; no other test module imports mpmath or sets its
precision.  A reference takes mpf arguments only (ints for an order m
or a count n): a float sum such as ``u + n`` rounds before mpmath sees
it.  A reduced argument is ``exact(x, c)``, the quotient of the two
doubles, or ``rounded(x, c)``, the double quotient the library takes.

References run at ``DPS`` digits, except: mpmath's zeta(s, q) stops its
series at an absolute 2^-prec, so it takes ``ZETA_DPS`` plus the
decades of q^s; a direct sum of (q+n)^-s replaces it where that sum
stops within ``DIRECT_TERMS`` terms (at s = 2e4, q = 2 mpmath's would
take 6221 digits); and the log of the truncated Beta product, whose
log-Gamma terms cancel over about 200 digits where u is huge, takes
``PRODUCT_DPS`` below c = 1e-3.
"""

import functools
import math

import mpmath
from mpmath import mpf

DPS = 50
ZETA_DPS = 200
PRODUCT_DPS = 450
DIRECT_TERMS = 1000
EXTRA_DPS = 0  # digits added to every rule and to ``exact``: a test raises it


def _digits(dps=DPS):
    return mpmath.workdps(dps + EXTRA_DPS)


def _reference(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        if any(isinstance(a, float) for a in args):
            raise TypeError(f"{fn.__name__} takes mpf arguments, not floats: {args}")
        with _digits():
            return fn(*args)

    return wrapper


def exact(x, y):
    with _digits():
        return mpf(x) / mpf(y)


def rounded(x, y):
    return mpf(x / y)


def ulps(got, want):
    """|got - want| in units of the last place of ``want``, a normal double."""
    with _digits():
        return float(abs(mpf(got) - want)) / math.ulp(float(want))


def _log_beta(a, b):
    a, b = max(a, b), min(a, b)  # the terms that cancel where a >> b first
    return (mpmath.loggamma(a) - mpmath.loggamma(a + b)) + mpmath.loggamma(b)


def _hurwitz(s, q, x):
    """zeta(s, q); the direct sum stops where the integral bound of the
    rest is below 10^(5-dps) of the total.  x^-s leads the scored value."""
    tol, n = mpf(10) ** (5 - mpmath.mp.dps), DIRECT_TERMS
    if (q / (q + n)) ** s * (q + n) / (s - 1) >= tol:  # the first term is below the total
        return _mpmath_zeta(s, q, x)
    total, n = mpf(0), 0
    while True:
        term = (q + n) ** -s
        total += term
        if term * (q + n) / (s - 1) < total * tol:
            return total
        n += 1


def _mpmath_zeta(s, q, x):
    # not the decades where x^-s < 1e-340: the value is below the normal
    # doubles (at most 1e21 times it in the tests), and ZETA_DPS shows that
    decades = int(mpmath.ceil(s * mpmath.log10(q)))
    with _digits(ZETA_DPS + decades if decades > 0 and -s * mpmath.log10(x) >= -340 else ZETA_DPS):
        return +mpmath.zeta(s, q)


@_reference
def polygamma(m, x):
    return mpmath.polygamma(m, x)


@_reference
def riemann_zeta(s):
    # mpmath's Riemann zeta sums no Hurwitz series: DPS holds it
    return mpmath.zeta(s)


@_reference
def hurwitz_zeta(s, q):
    return _hurwitz(s, q, q)


@_reference
def log_gamma_knu(u, r):
    return (u - 1) * mpmath.log(r) + mpmath.loggamma(u)


@_reference
def log_beta_knu(u, v, r):
    # the (. - 1) ln r terms of its three ln Gamma_{k,nu} sum to -ln r
    return -mpmath.log(r) + _log_beta(u, v)


@_reference
def psi_knu(u, r, c):
    return (mpmath.log(r) + mpmath.digamma(u)) / c


@_reference
def polygamma_knu(m, u, c):
    return mpmath.polygamma(m, u) / c ** (m + 1)


@_reference
def zeta_knu(s, c):
    """c^-s zeta(s) at s = x/c."""
    return c**-s * mpmath.zeta(s)


@_reference
def hurwitz_knu(s, q, c):
    """c^-s zeta(s, q) at s = s/c and q = x/c."""
    return c**-s * _hurwitz(s, q, q * c)


@_reference
def stirling_approx(u, r):
    return mpmath.sqrt(2 * mpmath.pi) * r ** (u - 1) * u ** (u - 0.5) * mpmath.exp(-u)


@_reference
def ratio_bounds(a1, a2, b):
    """The actual ratio B(a2, b)/B(a1, b) and the five bounds, by name, at
    a1 = x1/c, a2 = x2/c and b = y/c, on which alone they depend."""
    ln = mpmath.log
    s1, s2 = a1 + b, a2 + b
    front, x_ratio = ln(s2 / s1), ln(a1 / a2)
    logs = {
        "actual_ratio": _log_beta(a2, b) - _log_beta(a1, b),
        "lower_T1": front + (b + 1) * x_ratio,
        "upper_T1": front + x_ratio + b * ln((s1 + 1) / (s2 + 1)),
        "upper_T2": b * ln(s1 / s2),
        "lower_T31": (a2 - 1) * ln(a2) + (1 - a1) * ln(a1) + (1 - s2) * ln(s2) + (s1 - 1) * ln(s1),
        "upper_T32": a2 * ln(a2) - a1 * ln(a1) - s2 * ln(s2) + s1 * ln(s1),
    }
    return {name: mpmath.exp(v) for name, v in logs.items()}


@_reference
def chebyshev_beta_bound(k, nu, x, y):
    return k * nu**3 / (x * y)


@_reference
def log_truncated_product(u, v, n, c):
    """ln G(n+1+u+v) G(1+u) G(1+v) G(n+1) / (G(1+u+v) G(n+1+u) G(n+1+v))."""
    lg = mpmath.loggamma
    with _digits(DPS if c >= 1e-3 else PRODUCT_DPS):
        return (lg(n + 1 + u + v) + lg(1 + u) + lg(1 + v) + lg(n + 1)
                - lg(1 + u + v) - lg(n + 1 + u) - lg(n + 1 + v))


@_reference
def log_gamma_limit(u, r, n):
    """ln of the oracle's ``gamma-limit`` at n terms."""
    lg = mpmath.loggamma
    return lg(n + 1) - lg(u + n) + lg(u) + (u - 1) * (mpmath.log(n) + mpmath.log(r))


@_reference
def log_recip_product(u, r, n):
    """ln of the oracle's ``recip-product`` at n terms."""
    lg = mpmath.loggamma
    tail = lg(n + 1 + u) - lg(u + 1) - lg(n + 1) - u * mpmath.harmonic(n)
    return tail + (1 - u) * mpmath.log(r) + mpmath.log(u) + mpmath.euler * u
