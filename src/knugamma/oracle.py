"""Independent slow evaluators of the defining representations.

These are the ground-truth paths used by the verification suites: the
limit definition, the Euler-type integrals, and the truncated
Weierstrass product.  Nothing here calls the scalar engine or the fast
reductions -- independence is the point, so agreement is evidence.

Quadrature is adaptive Gauss-Kronrod (G7/K15) over finite panels.  The
integrands have algebraic endpoint singularities for small reduced
arguments, handled by power substitutions t = u^p chosen so the
transformed integrand is at least C^1 at the endpoint; infinite upper
limits are mapped by t = a + v/(1-v).  Kronrod nodes are strictly
interior, so singular endpoints are never evaluated.
"""

import heapq
import math
from typing import Callable, Optional, Sequence

from .constants import _MIN_NORMAL, EULER_GAMMA
from .errors import DivergentSeries, DomainWindow, NonPositiveArgument, Overflow, PoleHit
from .params import Params, Record

__all__ = ["OracleResult", "oracle_eval", "ORACLE_TARGETS"]

# The one evaluation policy: an integral has converged once its error
# estimate is within max(_ABS_TOL, _REL_TOL * |value|), and gives up
# after _MAX_SUBDIVISIONS bisections; a limit or product target takes at
# most _MAX_TERMS terms.
_ABS_TOL = 1e-12
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 2000
_MAX_TERMS = 10_000_000


def _tolerance(value: float) -> float:
    return max(_ABS_TOL, _REL_TOL * abs(value))


class OracleResult(Record):
    value: float
    err_estimate: float
    effort: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss: (node, Gauss weight,
# Kronrod weight); Gauss weight 0 marks Kronrod-only nodes.
_GK15 = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
)


def _gk15_panel(f: Callable[[float], float], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kronrod = 0.0
    for node, w_g, w_k in _GK15:
        y = f(mid + half * node)
        gauss += w_g * y
        kronrod += w_k * y
    gauss *= half
    kronrod *= half
    diff = abs(kronrod - gauss)
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
    return kronrod, err


def _integrate(f: Callable[[float], float], a: float, b: float):
    """Adaptive bisection on [a, b]; returns (value, err, evals, converged)."""
    value, err = _gk15_panel(f, a, b)
    evals = 15
    # heap of (-err, order, a, b, value, err)
    order = 0
    heap = [(-err, order, a, b, value, err)]
    total_v, total_e = value, err
    subdivisions = 0
    while total_e > _tolerance(total_v):
        if subdivisions >= _MAX_SUBDIVISIONS:
            return total_v, total_e, evals, False
        neg, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        v1, e1 = _gk15_panel(f, pa, pm)
        v2, e2 = _gk15_panel(f, pm, pb)
        evals += 30
        subdivisions += 1
        total_v += v1 + v2 - pv
        total_e += e1 + e2 - pe
        order += 1
        heapq.heappush(heap, (-e1, order, pa, pm, v1, e1))
        order += 1
        heapq.heappush(heap, (-e2, order, pm, pb, v2, e2))
    return total_v, total_e, evals, True


def _integrate_singular_0(f: Callable[[float], float], width: float, alpha: float):
    """Integral of f over [0, width] with f ~ t^(alpha-1) near 0, made
    panel-friendly by t = u^p."""
    p = 1 if alpha >= 1.0 else max(2, math.ceil(2.0 / alpha))
    if p == 1:
        return _integrate(f, 0.0, width)

    def g(u: float) -> float:
        t = u**p
        if t <= 0.0:  # underflow right at the singular endpoint
            return 0.0
        return p * u ** (p - 1) * f(t)

    return _integrate(g, 0.0, width ** (1.0 / p))


def _integrate_to_inf(f: Callable[[float], float], a: float):
    """Integral of f over [a, inf) via t = a + v/(1-v)."""

    def g(v: float) -> float:
        om = 1.0 - v
        if om == 0.0:  # a node this close to v = 1 stands for t = inf
            raise Overflow("integral to infinity reaches t beyond the double range")
        t = a + v / om
        y = f(t)
        if y == 0.0:
            return 0.0
        return y / (om * om)

    return _integrate(g, 0.0, 1.0)


def _combine(parts):
    value = sum(x[0] for x in parts)
    err = sum(x[1] for x in parts)
    evals = sum(x[2] for x in parts)
    converged = all(x[3] for x in parts)
    return value, err, evals, converged


def _quotient(num, den):
    """The quotient of two integrals, with first-order error propagation;
    ``Overflow`` where the normaliser ``den`` is 0 (it underflowed)."""
    num_v, num_e, num_n, num_ok = num
    den_v, den_e, den_n, den_ok = den
    if den_v == 0.0:
        raise Overflow("quotient exceeds double range: its normaliser is 0")
    value = num_v / den_v
    err = num_e / abs(den_v) + abs(num_v) * den_e / (den_v * den_v)
    return value, err, num_n + den_n, num_ok and den_ok


def _result(value, err, effort, converged) -> OracleResult:
    ok = converged and math.isfinite(value) and math.isfinite(err) and err <= _tolerance(value)
    return OracleResult(value=value, err_estimate=err, effort=effort, converged=ok)


# ----------------------------------------------------------------------
# integral targets


def _gamma_integral(p: Params, x: float):
    """Gamma_{k,nu}(x) = int_0^inf e^-t (r t)^(x/c - 1) dt."""
    if not (x > 0.0):
        raise PoleHit(f"gamma integral requires x > 0, got {x}")
    u = x / p.c
    lr = math.log(p.r)

    def f(t: float) -> float:
        arg = (u - 1.0) * (lr + math.log(t)) - t
        if arg > 709.0:
            raise Overflow(f"gamma integrand exceeds double range at x={x}")
        return math.exp(arg) if arg > -745.0 else 0.0

    parts = [
        _integrate_singular_0(f, 1.0, u),
        _integrate_to_inf(f, 1.0),
    ]
    return _combine(parts)


def _beta_unit_integral(p: Params, x: float, y: float):
    """B_{k,nu}(x,y) = (nu/k) int_0^1 t^(a-1) (1-t)^(b-1) dt."""
    if not (x > 0.0 and y > 0.0):
        raise PoleHit(f"beta integral requires x, y > 0, got ({x}, {y})")
    a, b = x / p.c, y / p.c

    def f_left(t: float) -> float:
        return t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)

    def f_right(s: float) -> float:  # s = 1 - t
        return s ** (b - 1.0) * (1.0 - s) ** (a - 1.0)

    parts = [
        _integrate_singular_0(f_left, 0.5, a),
        _integrate_singular_0(f_right, 0.5, b),
    ]
    value, err, evals, conv = _combine(parts)
    scale = 1.0 / p.r
    return value * scale, err * scale, evals, conv


def _beta_scaled_integral(p: Params, x: float, y: float):
    """B_{k,nu}(x,y) = int_0^(nu/k) (r t)^(a-1) (1 - r t)^(b-1) dt."""
    if not (x > 0.0 and y > 0.0):
        raise PoleHit(f"beta integral requires x, y > 0, got ({x}, {y})")
    a, b = x / p.c, y / p.c
    top = p.nu / p.k

    def f_left(t: float) -> float:
        rt = p.r * t
        return rt ** (a - 1.0) * (1.0 - rt) ** (b - 1.0)

    def f_right(s: float) -> float:  # s = nu/k - t, so r t = 1 - r s
        rs = p.r * s
        return (1.0 - rs) ** (a - 1.0) * rs ** (b - 1.0)

    parts = [
        _integrate_singular_0(f_left, 0.5 * top, a),
        _integrate_singular_0(f_right, 0.5 * top, b),
    ]
    return _combine(parts)


def _psi_integral(p: Params, x: float):
    """Psi_{k,nu}(x) = (ln k - ln nu - gamma)/c
    + int_0^inf (e^-ct - e^-xt)/(1 - e^-ct) dt."""
    if not (x > 0.0):
        raise PoleHit(f"psi integral requires x > 0, got {x}")
    c = p.c

    def f(t: float) -> float:
        den = -math.expm1(-c * t)
        if den == 0.0:
            return 0.0
        return (math.expm1(-c * t) - math.expm1(-x * t)) / den

    value, err, evals, conv = _integrate_to_inf(f, 0.0)
    const = (math.log(p.k) - math.log(p.nu) - EULER_GAMMA) / c
    return const + value, err, evals, conv


def _psi_log_integral(p: Params, x: float):
    """Psi_{k,nu}(x) = (ln k - ln nu - gamma)/c
    + (1/c) int_0^1 (1 - u^(a-1))/(1 - u) du, a = x/c."""
    if not (x > 0.0):
        raise PoleHit(f"psi log integral requires x > 0, got {x}")
    a = x / p.c

    def f(u: float) -> float:
        return -math.expm1((a - 1.0) * math.log(u)) / (1.0 - u)

    # Near u=0 the integrand behaves like 1 - u^(a-1): singular only
    # when a < 1, with exponent a.
    parts = [
        _integrate_singular_0(f, 0.5, a if a < 1.0 else 1.0),
        _integrate(f, 0.5, 1.0),
    ]
    value, err, evals, conv = _combine(parts)
    const = (math.log(p.k) - math.log(p.nu) - EULER_GAMMA) / p.c
    return const + value / p.c, err / p.c, evals, conv


def _polygamma_integral(p: Params, m: int, x: float):
    """Psi^(m)_{k,nu}(x) = (-1)^(m+1) int_0^inf t^m e^-xt/(1-e^-ct) dt."""
    m = int(m)
    if m < 1:
        raise DomainWindow(f"polygamma integral requires m >= 1, got {m}")
    if not (x > 0.0):
        raise PoleHit(f"polygamma integral requires x > 0, got {x}")
    c = p.c

    def f(t: float) -> float:
        den = -math.expm1(-c * t)
        if den == 0.0:
            return 0.0
        return t**m * math.exp(-x * t) / den

    value, err, evals, conv = _integrate_to_inf(f, 0.0)
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * value, err, evals, conv


def _bose_integral(p: Params, exponent: float, decay: float):
    """int_0^inf (r t)^(exponent-1) e^(-decay t)/(1 - e^(-c t)) dt with
    the 1/(1-e^-ct) pole at 0 folded in; behaves like t^(exponent-2)."""
    c = p.c
    lr = math.log(p.r)

    def f(t: float) -> float:
        ct = c * t
        arg = (exponent - 1.0) * (lr + math.log(t)) - decay * t
        if arg > 709.0:
            raise Overflow("zeta integrand exceeds double range")
        if ct > 700.0:  # 1 - e^-ct == 1 to double precision
            return math.exp(arg) if arg > -745.0 else 0.0
        den = -math.expm1(-ct)
        if den == 0.0:
            return 0.0
        return math.exp(arg) / den if arg > -745.0 else 0.0

    parts = [
        _integrate_singular_0(f, 1.0, exponent - 1.0),
        _integrate_to_inf(f, 1.0),
    ]
    return _combine(parts)


def _zeta_integral(p: Params, x: float):
    """zeta_{k,nu}(x) = (1/Gamma_{k,nu}(x)) int_0^inf (r u)^(x/c-1)
    / (e^(c u) - 1) du; the normalization is itself evaluated by the
    oracle's gamma integral."""
    if not (x > p.c):
        raise DivergentSeries(f"zeta integral requires x > k*nu = {p.c}, got {x}")
    # 1/(e^cu - 1) = e^-cu/(1 - e^-cu): reuse the Bose kernel with decay c.
    return _quotient(_bose_integral(p, x / p.c, p.c), _gamma_integral(p, x))


def _hurwitz_integral(p: Params, x: float, s: float):
    """zeta_{k,nu}(x, s) = (1/Gamma_{k,nu}(s)) int_0^inf (r u)^(s/c-1)
    e^(-x u)/(1 - e^(-c u)) du."""
    if not (x > 0.0):
        raise PoleHit(f"hurwitz integral requires x > 0, got {x}")
    if not (s > p.c):
        raise DivergentSeries(f"hurwitz integral requires s > k*nu = {p.c}, got {s}")
    return _quotient(_bose_integral(p, s / p.c, x), _gamma_integral(p, s))


def _sine_integral(_p: Optional[Params], x: float):
    """int_0^1 t^(x-1) (1-t)^(-x) dt = pi/sin(pi x), 0 < x < 1; no
    (k, nu), so ``_p`` is ignored."""
    if not (x > 0.0):
        raise NonPositiveArgument(f"sine integral requires x > 0, got {x}")
    if x >= 1.0:
        raise DivergentSeries(f"sine integral diverges for x >= 1, got {x}")

    def f_left(t: float) -> float:
        return t ** (x - 1.0) * (1.0 - t) ** (-x)

    def f_right(s: float) -> float:  # s = 1 - t
        return s ** (-x) * (1.0 - s) ** (x - 1.0)

    parts = [
        _integrate_singular_0(f_left, 0.5, x),
        _integrate_singular_0(f_right, 0.5, 1.0 - x),
    ]
    return _combine(parts)


# ----------------------------------------------------------------------
# series / product targets (numpy-vectorized, chunked); numpy is
# imported inside them, so the rest of the package never loads it.  A
# chunk's terms are built in place in its own array, with one reused
# _BLOCK-sized buffer for the values an elementwise step needs beside
# it: no chunk-sized temporaries, whose fresh pages the allocator
# would fault in again on every call.

_CHUNK = 1 << 20
_BLOCK = 1 << 15


def _sums(terms, n: int, half: int):
    """The sums of the terms j = 1..n and j = 1..half (1 <= half <= n)
    from one pass over chunks of _CHUNK terms; ``terms(j0, j1)`` gives
    the array of terms j0..j1.  Each sum adds its chunk sums in order,
    and the chunk that holds ``half`` adds the sum of its prefix, so the
    half-length sum has the bits a pass of its own would give."""
    total = total_half = 0.0
    j0 = 1
    while j0 <= n:
        j1 = min(n, j0 + _CHUNK - 1)
        chunk = terms(j0, j1)
        s = float(chunk.sum())
        total += s
        if j1 <= half:
            total_half += s
        elif j0 <= half:
            total_half += float(chunk[: half - j0 + 1].sum())
        j0 = j1 + 1
    return total, total_half


def _blocks(a):
    """(view, buffer) pairs over ``a`` in blocks of _BLOCK elements, all
    sharing one buffer."""
    import numpy as np

    buf = np.empty(min(_BLOCK, len(a)))
    for i in range(0, len(a), _BLOCK):
        view = a[i:i + _BLOCK]
        yield view, buf[:len(view)]


def _gamma_limit(p: Params, x: float, n: int):
    """Limit definition Gamma_{k,nu}(x) = lim n! c^n (n k/nu)^(x/c-1)
    / (x)_{n,c}, truncated at a given n; the error estimate compares
    against the half-length truncation (both are O(1/n))."""
    if not (x > 0.0):
        raise PoleHit(f"gamma limit requires x > 0, got {x}")
    n = int(n)
    if n < 2:
        raise DomainWindow(f"gamma limit requires n >= 2, got {n}")
    n = min(n, _MAX_TERMS)
    import numpy as np

    c = p.c
    u = x / c

    # ln[ m! c^m (m r)^(u-1) / (x)_{m,c} ] at m = n and m = n // 2; the
    # per-term form ln(j c / (x + (j-1) c)) keeps partial sums O(ln n), so
    # no catastrophic cancellation against the (u-1) ln(m r) compensation.
    def terms(j0: int, j1: int):
        j = np.arange(j0, j1 + 1, dtype=np.float64)
        # j c or x + (j-1) c overflows in this chunk where c is near
        # DBL_MAX: the same ratio is then taken as j / (x/c + j - 1)
        scaled = math.isinf(j1 * c) or math.isinf(x + (j1 - 1.0) * c)
        # the first term c/x overflows where x < c/DBL_MAX: its log is
        # taken as ln c - ln x there (errstate None leaves a setting as is)
        first_overflows = j0 == 1 and math.isinf(c / x)
        flag = "ignore" if first_overflows else None
        with np.errstate(over=flag, divide=flag):
            for jb, den in _blocks(j):
                np.subtract(jb, 1.0, out=den)
                if scaled:
                    den += u
                else:
                    den *= c
                    den += x
                    jb *= c
                jb /= den
            np.log(j, out=j)
        if first_overflows:
            j[0] = math.log(c) - math.log(x)
        return j

    half_n = n // 2
    total, total_half = _sums(terms, n, half_n)
    lr = math.log(p.r)
    value = math.exp(total + (u - 1.0) * (math.log(n) + lr))
    half = math.exp(total_half + (u - 1.0) * (math.log(half_n) + lr))
    err = abs(value - half)
    return value, err, n + half_n, True


def _recip_product(p: Params, x: float, n_terms: int):
    """Truncated Weierstrass-type product for 1/Gamma_{k,nu}(x)."""
    if not (x > 0.0):
        raise PoleHit(f"recip product requires x > 0, got {x}")
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainWindow(f"recip product requires n_terms >= 1, got {n_terms}")
    n_terms = min(n_terms, _MAX_TERMS)
    import numpy as np

    c = p.c
    u = x / c

    def terms(j0: int, j1: int):  # ln(1 + w) - w, w = x/(j c)
        w = np.arange(j0, j1 + 1, dtype=np.float64)
        with np.errstate(over="ignore"):  # j c = inf where c is near the top of the doubles: its term is 0
            w *= c
        np.divide(x, w, out=w)
        for wb, log1p in _blocks(w):
            np.log1p(wb, out=log1p)
            np.subtract(log1p, wb, out=wb)
        return w

    tail, tail_half = _sums(terms, n_terms, max(1, n_terms // 2))
    log_pref = (u - 1.0) * math.log(p.nu) - u * math.log(p.k)
    # where x/nu is below the normal doubles it has lost bits or is 0;
    # ln x - ln nu has not
    x_nu = x / p.nu
    log_pref += (math.log(x_nu) if x_nu >= _MIN_NORMAL else math.log(x) - math.log(p.nu)) + EULER_GAMMA * u
    value = math.exp(log_pref + tail)
    half = math.exp(log_pref + tail_half)
    err = abs(value - half)
    return value, err, n_terms + n_terms // 2, True


# ----------------------------------------------------------------------

# target -> (evaluator, argument names); the names give the order of
# ``oracle_eval``'s ``args`` and are the ``knu eval`` flags that supply them
ORACLE_TARGETS = {
    "gamma-integral": (_gamma_integral, ("x",)),
    "gamma-limit": (_gamma_limit, ("x", "n")),
    "beta-unit-integral": (_beta_unit_integral, ("x", "y")),
    "beta-scaled-integral": (_beta_scaled_integral, ("x", "y")),
    "psi-integral": (_psi_integral, ("x",)),
    "psi-log-integral": (_psi_log_integral, ("x",)),
    "polygamma-integral": (_polygamma_integral, ("m", "x")),
    "zeta-integral": (_zeta_integral, ("x",)),
    "hurwitz-integral": (_hurwitz_integral, ("x", "s")),
    "recip-product": (_recip_product, ("x", "n")),
    "sine-integral": (_sine_integral, ("x",)),
}


def oracle_eval(target: str, p: Optional[Params], args: Sequence[float]) -> OracleResult:
    """Evaluate one defining representation.  ``args`` are the values
    of the argument names ``ORACLE_TARGETS[target]`` lists, in that
    order; ``sine-integral`` is parameter-free and ignores ``p``.

    A result that exhausts its budget, or whose value or error estimate
    is not finite, reads ``converged=False``, never a silently degraded
    value.  An evaluation beyond the double range raises ``Overflow``.
    """
    if target not in ORACLE_TARGETS:
        raise ValueError(f"unknown oracle target {target!r}")
    evaluate, names = ORACLE_TARGETS[target]
    if len(args) != len(names):
        raise ValueError(f"{target} expects {len(names)} argument(s), got {len(args)}")
    if p is None and evaluate is not _sine_integral:
        raise ValueError(f"{target} requires Params")
    try:
        out = evaluate(p, *args)
    except OverflowError:
        raise Overflow(f"{target} exceeds double range at {list(args)}") from None
    return _result(*out)
