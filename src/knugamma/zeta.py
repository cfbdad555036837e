"""Deformed Riemann and Hurwitz zeta functions (series fast path).

Domains are strict, with typed errors and no analytic continuation:
the plain zeta needs x > k nu, the Hurwitz form needs x > 0 and
s > k nu.  At s = (m+1) k nu the Hurwitz form bridges to the deformed
polygamma: zeta_{k,nu}(x, (m+1)c) = ((-1)^(m+1)/m!) Psi^(m)_{k,nu}(x).

Both return a finite double (the limit, for an infinite argument) or
raise a ``ScalarDomainError`` subclass, ``Overflow`` where the value
exceeds double range.
"""

import math

from . import scalar
from .constants import _MIN_NORMAL
from .errors import DivergentSeries, NonPositiveArgument, Overflow, PoleHit
from .params import Params

__all__ = ["zeta_knu", "hurwitz_knu"]


def zeta_knu(p: Params, x: float) -> float:
    """zeta_{k,nu}(x) = sum_{n>=1} (n c)^(-x/c) = c^(-x/c) zeta(x/c).
    zeta(x/c) lies in [1, 2^53], so the value overflows exactly when the
    product does."""
    if not (x > p.c):
        raise DivergentSeries(f"zeta_knu requires x > k*nu = {p.c}, got x={x}")
    s = x / p.c
    try:
        value = p.c ** (-s) * scalar.riemann_zeta(s)
        if value < math.inf:
            return value
    except OverflowError:
        pass
    raise Overflow(f"zeta_knu({x}) exceeds double range at k*nu = {p.c}")


def hurwitz_knu(p: Params, x: float, s: float) -> float:
    """zeta_{k,nu}(x, s) = sum_{n>=0} (x + n c)^(-s/c)
    = c^(-s/c) zeta(s/c, x/c).

    The product is used where both factors are normal doubles and it is
    finite.  Elsewhere (a factor that overflows or is subnormal while
    the value need not be, x/c underflowing to 0, or s/c = inf) the
    limit is returned or the sum is evaluated in log space about its
    first term by ``_log_hurwitz_about_x``."""
    if not (x > 0.0):
        raise PoleHit(f"hurwitz_knu requires x > 0, got x={x}")
    if not (s > p.c):
        raise DivergentSeries(f"hurwitz_knu requires s > k*nu = {p.c}, got s={s}")
    sc = s / p.c
    try:
        prefactor = p.c ** (-sc)
        z = scalar.hurwitz_zeta(sc, x / p.c)
        value = prefactor * z
        if prefactor >= _MIN_NORMAL and z >= _MIN_NORMAL and value < math.inf:
            return value
    except (OverflowError, Overflow, NonPositiveArgument):
        # c^(-s/c) overflows, zeta(s/c, x/c) overflows, or x/c underflows to 0
        pass
    if sc == math.inf:
        # every term with x + n c > 1 vanishes; a first term x < 1 grows without bound
        if x < 1.0:
            raise Overflow(f"hurwitz_knu({x}, {s}) exceeds double range at k*nu = {p.c}")
        return 1.0 if x == 1.0 else 0.0
    if x == math.inf:
        return 0.0
    try:
        value = math.exp(_log_hurwitz_about_x(x, p.c, sc))
        if value < math.inf:
            return value
    except OverflowError:
        pass
    raise Overflow(f"hurwitz_knu({x}, {s}) exceeds double range at k*nu = {p.c}")


def _log_hurwitz_about_x(x: float, c: float, sc: float) -> float:
    """ln sum_{n>=0} (x + n c)^(-sc) for finite x, c > 0 and finite
    sc > 1, as -sc ln x + ln S with S = sum_{n>=0} (1 + n w)^(-sc),
    w = c/x: the Euler-Maclaurin sum of ``scalar.hurwitz_zeta`` (same
    term counts, q = x/c) divided through by its first term, so no
    intermediate leaves double range.  S is at least 1."""
    w = c / x  # may be inf: every n >= 1 term is then 0
    n_terms = scalar._ZETA_BASE_TERMS + int(0.5 * min(sc, 200.0))
    direct = 0.0
    for n in range(n_terms - 1, 0, -1):  # ascending magnitude
        direct += math.exp(-sc * math.log1p(n * w))
    ln_s = math.log1p(direct)
    # The tail u (base/(sc-1) + 1/2 + sum_k B_2k/(2k)! (sc)_{2k-1} base^(1-2k)),
    # base = q + N, u = (base/q)^(-sc), is skipped where its leading term
    # is below e^-60 (S >= 1); that also keeps (sc)_{2k-1}/base^(2k-1),
    # whose series diverges for sc >> base, to sc/base < 5.
    log1p_nw = math.log1p(n_terms * w)
    ln_lead = (1.0 - sc) * log1p_nw + math.log(x) - math.log(c) - math.log(sc - 1.0)
    if ln_lead > -60.0:
        base = x / c + n_terms
        em = 0.0
        ratio = sc / base  # (sc)_{2k-1} / base^(2k-1)
        for coeff, two_k in scalar._EM_COEFFS:
            em += coeff * ratio
            t = sc + two_k
            ratio *= (t - 1.0) / base * (t / base)
        ln_tail = ln_lead + math.log1p((sc - 1.0) * (0.5 + em) / base)
        hi, lo = max(ln_s, ln_tail), min(ln_s, ln_tail)
        ln_s = hi + math.log1p(math.exp(lo - hi))
    return -sc * math.log(x) + ln_s
