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

Each integrand family is written once and every integral target is
built from it: the power-exponential (r t)^(e-1) e^(-lam t) is
``_power_exp``, the Bose weight 1/(1 - e^(-ct)) is ``_over_bose``, and
the Beta kernel t^(a-1) (1-t)^(b-1) is ``_unit_beta``.  A Beta-type
integral is split at its midpoint (``_two_ended``), a half-line one at
t = 1 (``_half_line``).  zeta_{k,nu}(x) is the Hurwitz integral at
x = c.

The limit and product targets sum up to 10^7 log terms with
``_em_sum``: 32 terms one by one, the rest by Euler-Maclaurin from
closed-form derivatives, about 130 term values in all.  It is the
package's one truncated-series sum (the checks' truncated Beta product
uses it too), and it needs only ``math``, so the oracle loads no numpy.
"""

import functools
import heapq
import math
from typing import Callable, Optional, Sequence, Tuple

from .constants import EULER_GAMMA
from .errors import DivergentSeries, DomainWindow, NonPositiveArgument, Overflow, PoleHit
from .params import Params, Record, _log_ratio

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


def _power_exp(log_r: float, e: float, lam: float) -> Callable[[float], float]:
    """t -> (r t)^(e-1) e^(-lam t), as exp((e-1)(ln r + ln t) - lam t):
    0 where that underflows, ``Overflow`` where it exceeds the doubles."""

    def f(t: float) -> float:
        arg = (e - 1.0) * (log_r + math.log(t)) - lam * t
        if arg > 709.0:
            raise Overflow("integrand exceeds double range")
        return math.exp(arg) if arg > -745.0 else 0.0

    return f


def _over_bose(c: float, num: Callable[[float], float]) -> Callable[[float], float]:
    """t -> num(t) / (1 - e^(-c t)), 0 where the denominator underflows;
    num(t) is taken first, so an ``Overflow`` of it raises there too."""

    def f(t: float) -> float:
        y = num(t)
        den = -math.expm1(-c * t)
        return y / den if den != 0.0 else 0.0

    return f


def _half_line(f: Callable[[float], float], alpha: float):
    """Integral of f over [0, inf), f ~ t^(alpha-1) near 0: [0, 1] and [1, inf)."""
    return _combine([_integrate_singular_0(f, 1.0, alpha), _integrate_to_inf(f, 1.0)])


def _two_ended(f_left, f_right, half: float, a: float, b: float):
    """Integral over [0, 2 half] split at its midpoint: ``f_left(t)``
    ~ t^(a-1) near t = 0 and ``f_right(s)`` ~ s^(b-1) near s = 2 half - t = 0."""
    return _combine([_integrate_singular_0(f_left, half, a), _integrate_singular_0(f_right, half, b)])


def _unit_beta(ea: float, eb: float, a: float, b: float):
    """int_0^1 t^ea (1-t)^eb dt, ea = a - 1 and eb = b - 1 as the caller rounds them."""
    return _two_ended(lambda t: t**ea * (1.0 - t) ** eb, lambda s: s**eb * (1.0 - s) ** ea, 0.5, a, b)


def _gamma_integral(p: Params, x: float):
    """Gamma_{k,nu}(x) = int_0^inf e^-t (r t)^(x/c - 1) dt."""
    if not (x > 0.0):
        raise PoleHit(f"gamma integral requires x > 0, got {x}")
    u = x / p.c
    return _half_line(_power_exp(p.log_r, u, 1.0), u)


def _beta_unit_integral(p: Params, x: float, y: float):
    """B_{k,nu}(x,y) = (nu/k) int_0^1 t^(a-1) (1-t)^(b-1) dt."""
    if not (x > 0.0 and y > 0.0):
        raise PoleHit(f"beta integral requires x, y > 0, got ({x}, {y})")
    a, b = x / p.c, y / p.c
    value, err, evals, conv = _unit_beta(a - 1.0, b - 1.0, a, b)
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

    return _two_ended(f_left, f_right, 0.5 * top, a, b)


def _psi_integral(p: Params, x: float):
    """Psi_{k,nu}(x) = (ln k - ln nu - gamma)/c
    + int_0^inf (e^-ct - e^-xt)/(1 - e^-ct) dt."""
    if not (x > 0.0):
        raise PoleHit(f"psi integral requires x > 0, got {x}")
    c = p.c
    f = _over_bose(c, lambda t: math.expm1(-c * t) - math.expm1(-x * t))
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
    f = _over_bose(p.c, lambda t: t**m * math.exp(-x * t))
    value, err, evals, conv = _integrate_to_inf(f, 0.0)
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * value, err, evals, conv


def _zeta_integral(p: Params, x: float):
    """zeta_{k,nu}(x) = sum_{n>=1} (n c)^(-x/c): the Hurwitz integral at
    x = c, s = x."""
    if not (x > p.c):
        raise DivergentSeries(f"zeta integral requires x > k*nu = {p.c}, got {x}")
    return _hurwitz_integral(p, p.c, x)


def _hurwitz_integral(p: Params, x: float, s: float):
    """zeta_{k,nu}(x, s) = (1/Gamma_{k,nu}(s)) int_0^inf (r u)^(s/c-1)
    e^(-x u)/(1 - e^(-c u)) du, the normalization by the gamma integral."""
    if not (x > 0.0):
        raise PoleHit(f"hurwitz integral requires x > 0, got {x}")
    if not (s > p.c):
        raise DivergentSeries(f"hurwitz integral requires s > k*nu = {p.c}, got {s}")
    e = s / p.c
    num = _half_line(_over_bose(p.c, _power_exp(p.log_r, e, x)), e - 1.0)
    return _quotient(num, _gamma_integral(p, s))


def _sine_integral(_p: Optional[Params], x: float):
    """int_0^1 t^(x-1) (1-t)^(-x) dt = pi/sin(pi x), 0 < x < 1; no
    (k, nu), so ``_p`` is ignored."""
    if not (x > 0.0):
        raise NonPositiveArgument(f"sine integral requires x > 0, got {x}")
    if x >= 1.0:
        raise DivergentSeries(f"sine integral diverges for x >= 1, got {x}")
    return _unit_beta(x - 1.0, -x, x, 1.0 - x)


# ----------------------------------------------------------------------
# series / product targets

# A truncated series of smooth terms f(j), j = 1..n: its first _EM_HEAD
# terms are added one by one, the rest by Euler-Maclaurin (DLMF 2.10(i))
# from the integral, the two end values and six Bernoulli terms.
_EM_HEAD = 32
# 10-point Gauss-Legendre on [-1, 1]: the nodes +-x and their weight
_GAUSS_LEGENDRE = (
    (0.14887433898163122, 0.29552422471475287),
    (0.4333953941292472, 0.26926671930999635),
    (0.6794095682990244, 0.21908636251598204),
    (0.8650633666889845, 0.1494513491505806),
    (0.9739065285171717, 0.06667134430868814),
)
# B_2k / (2k (2k-1)), k = 1..6: the weight B_2k / (2k)! of f^(2k-1),
# times the (2k-2)! that ``_em_sum``'s callers divide it by
_EULER_MACLAURIN = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


@functools.lru_cache(maxsize=16)
def _tail_nodes(n: int) -> Tuple[Tuple[float, float], ...]:
    """Nodes s and weights of the integral over [_EM_HEAD + 1, n]:
    Gauss-Legendre in ln s on equal panels no wider than 1, so each
    weight carries the ds = s d(ln s)."""
    lo, hi = math.log(_EM_HEAD + 1), math.log(n)
    panels = math.ceil(hi - lo)
    if not panels:
        return ()
    h = (hi - lo) / panels
    nodes = []
    for i in range(panels):
        mid = lo + (i + 0.5) * h
        for x, w in _GAUSS_LEGENDRE:
            for tau in (mid - 0.5 * h * x, mid + 0.5 * h * x):
                s = math.exp(tau)
                nodes.append((s, 0.5 * h * w * s))
    return tuple(nodes)


def _em_sum(head: Callable[[int], float], f: Callable[[float], float],
            derivatives: Callable[[float], Sequence[Sequence[float]]], n: int) -> Tuple[float, int]:
    """sum_{j=1..n} f(j), and the number of term values it took.

    ``head(j)`` gives the terms j = 1.._EM_HEAD one by one, in whatever
    form is accurate there.  The rest, j = _EM_HEAD+1..n, is the
    integral of ``f`` over [_EM_HEAD+1, n], its two end values and the
    Bernoulli terms of f', f''', ..., f^(11): ``derivatives(s)`` gives
    those six, each as pieces that add to f^(m)(s)/(m-1)!.  All the
    terms go to one ``math.fsum``, so their order does not matter; where
    a partial sum leaves the doubles, to one of the terms times 2^-64,
    times 2^64 (both scalings exact), which may read +-inf."""
    terms = [head(j) for j in range(1, min(n, _EM_HEAD) + 1)]
    evals = len(terms)
    if n > _EM_HEAD:
        a_end, n_end = float(_EM_HEAD + 1), float(n)
        terms += [w * f(s) for s, w in _tail_nodes(n)]
        terms += (0.5 * f(a_end), 0.5 * f(n_end))
        evals = len(terms)
        terms += [b * d for b, ds in zip(_EULER_MACLAURIN, derivatives(n_end)) for d in ds]
        terms += [-b * d for b, ds in zip(_EULER_MACLAURIN, derivatives(a_end)) for d in ds]
    try:
        return math.fsum(terms), evals
    except OverflowError:
        return math.fsum([t * 2.0**-64 for t in terms]) * 2.0**64, evals


def _reduced(p: Params, x: float, what: str) -> Tuple[float, float]:
    """u = x/c and ln u for a series target; ``Overflow`` where u is
    infinite."""
    u = x / p.c
    if math.isinf(u):
        raise Overflow(f"{what}: x/(k nu) = {x}/{p.c} exceeds the double range")
    return u, _log_ratio(x, p.c)


def _truncated(head, f, derivatives, rest: Callable[[int], float], n: int, half: int):
    """A series target's result: its value exp(sum_{j<=m} f(j) + rest(m))
    at m = n, that value's distance to the one at m = ``half`` as the
    error estimate, and the term values both sums took (``_em_sum``
    takes ``head``, ``f`` and ``derivatives``).  ``Overflow`` where
    either value is not below inf (-inf + inf is nan); a log of -inf is a 0."""
    (log_n, evals_n), (log_half, evals_half) = (_em_sum(head, f, derivatives, m) for m in (n, half))
    value, value_half = math.exp(log_n + rest(n)), math.exp(log_half + rest(half))
    if not (value < math.inf and value_half < math.inf):
        raise Overflow(f"truncated value exceeds double range at n={n}")
    return value, abs(value - value_half), evals_n + evals_half, True


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
    u, log_u = _reduced(p, x, "gamma limit")
    a = u - 1.0

    # ln[ m! c^m (m r)^(u-1) / (x)_{m,c} ] = sum_j f(j) + (u-1) ln(m r),
    # f(j) = ln(j c / (x + (j-1) c)) = -ln(1 + (u-1)/j), and f(1) = -ln u;
    # the terms are O(1/j), so no catastrophic cancellation against the
    # (u-1) ln(m r) compensation.
    def f(s: float) -> float:
        return -math.log1p(a / s)

    def head(j: int) -> float:
        return f(j) if j > 1 else -log_u

    def derivatives(s: float):  # f^(m)(s)/(m-1)! = s^-m - (s+u-1)^-m
        return [(a / (s + a) / s,)] + [(s**-m, -(s + a) ** -m) for m in range(3, 12, 2)]

    return _truncated(head, f, derivatives, lambda m: a * (math.log(m) + p.log_r), n, n // 2)


def _recip_product(p: Params, x: float, n_terms: int):
    """Truncated Weierstrass-type product for 1/Gamma_{k,nu}(x) =
    r^(1-u) u e^(gamma u) prod_j (1 + u/j) e^(-u/j), u = x/c."""
    if not (x > 0.0):
        raise PoleHit(f"recip product requires x > 0, got {x}")
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainWindow(f"recip product requires n_terms >= 1, got {n_terms}")
    n_terms = min(n_terms, _MAX_TERMS)
    u, log_u = _reduced(p, x, "recip product")

    def f(s: float) -> float:  # ln(1 + w) - w, w = u/s
        w = u / s
        return math.log1p(w) - w

    def derivatives(s: float):  # f^(m)(s)/(m-1)! = (s+u)^-m - s^-m + m u s^-(m+1)
        return [((u / s) * (u / (s + u)) / s,)] + [
            ((s + u) ** -m, -s**-m, (u / s) * (m * s**-m)) for m in range(3, 12, 2)
        ]

    log_pref = (1.0 - u) * p.log_r + log_u + EULER_GAMMA * u
    return _truncated(f, f, derivatives, lambda m: log_pref, n_terms, max(1, n_terms // 2))


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
