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
from .constants import _MAX, _MIN_NORMAL
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
    w = c/x: the series of ``scalar.hurwitz_zeta`` at q = x/c divided
    through by its first term, so no intermediate leaves double range.
    It takes the same direct terms, shifting the base q + N up to
    _ZETA_BASE + sc, except that the first term (the 1 of S) is always
    one of them.  S is at least 1."""
    w = c / x  # may be inf: every n >= 1 term is then 0
    q = x / c
    n_terms = max(1, scalar._zeta_terms(sc, q))
    direct = 0.0
    for n in range(n_terms - 1, 0, -1):  # ascending magnitude
        direct += math.exp(-sc * math.log1p(n * w))
    ln_s = math.log1p(direct)
    # The tail u (base/(sc-1) + 1/2 + sum_k B_2k/(2k)! (sc)_{2k-1} base^(1-2k)),
    # base = q + N, u = (base/q)^(-sc), is skipped where its leading term
    # is below e^-60 (S >= 1); that also keeps the Horner sum, whose
    # terms diverge for sc >> base, to sc/base below 1 (below about 1/3
    # where the direct terms are capped).
    # ln(q/(sc-1)) from the quotient where it and q are normal doubles: the
    # tail may be most of S, and a difference of logs would cost ulps of ln q
    ratio = q / (sc - 1.0)
    if _MIN_NORMAL <= min(q, ratio) and max(q, ratio) <= _MAX:
        ln_ratio = math.log(ratio)
    else:
        ln_ratio = math.log(x) - math.log(c) - math.log(sc - 1.0)
    ln_lead = (1.0 - sc) * math.log1p(n_terms * w) + ln_ratio
    if ln_lead > -60.0:
        base = q + n_terms
        em = scalar._em_sum(sc, base)
        ln_tail = ln_lead + math.log1p((sc - 1.0) * (0.5 + em) / base)
        hi, lo = max(ln_s, ln_tail), min(ln_s, ln_tail)
        ln_s = hi + math.log1p(math.exp(lo - hi))
    return -sc * math.log(x) + ln_s
