"""Named verification suites: identities, inequalities, oracle
equivalence, and PDE residuals.

Each check samples a deterministic grid, reports its worst observed
deviation against its tolerance, and never stops at the first failure;
the CLI renders one line per check.  Deviations are relative, with a
floor on the normalization scale where the compared quantity passes
through zero (the Psi family), so a tolerance of 1e-10 keeps meaning.

A check is declared once, where it is defined.  Most are declared with
``_check(suite, name, tol, cases)`` on a function that takes one case
and returns its deviation; the runner calls it on every case of
``cases(grid)`` and keeps the largest.  Checks of another shape (early
exits with a note, skipped points, buffers or value lists shared by
several points) are declared with ``_register(suite, name, tol)`` on a
function that fills a ``_Tally`` itself.  Registration alone applies the ``--tol`` override, builds the
``CheckResult`` and adds the check to its suite in definition order.
It also turns a ``ValueError`` (a ``ScalarDomainError`` or a math
domain error) or an ``ArithmeticError`` raised inside a check into that
check's failure (``max_dev`` inf, the points counted so far, the error
kind as note), so the rest of the suite runs.

numpy and the sign-map module are imported only inside the product
table and the check that use them, so importing this module (the CLI
does, for the suite names) loads neither.
"""

import functools
import math
from itertools import chain, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import scalar
from .beta import beta_knu, log_beta_knu
from .bounds import (
    beta_gamma_upper,
    chebyshev_beta_bound,
    jensen_beta_bound,
    novariable_upper,
    ratio_bounds,
)
from .gamma import (
    gamma_knu,
    log_gamma_knu,
    param_transform,
    pochhammer,
    stirling_approx,
)
from .oracle import oracle_eval
from .params import Params, Record
from .psi import pde_residuals, polygamma_knu, psi_knu, psi_shift_sum
from .zeta import hurwitz_knu, zeta_knu

__all__ = ["CheckResult", "run_suite", "SUITES", "GRID_KNU", "GRID_X"]

GRID_KNU = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.4, 1.1, 2.5, 6.0)


class CheckResult(Record):
    name: str
    passed: bool
    max_dev: float
    tol: float
    points: int
    skipped: int = 0
    note: str = ""


class _Grid(Record):
    params: List[Params]
    xs: Tuple[float, ...]
    tol_override: Optional[float] = None

    def tol(self, default: float) -> float:
        return self.tol_override if self.tol_override is not None else default


def _rel(got: float, want: float, floor: float = 1e-300) -> float:
    return abs(got - want) / max(abs(got), abs(want), floor)


def _make(name, dev, tol, points, skipped=0, note=""):
    # an infinite deviation (a raised or early-exited check) fails even
    # under --tol inf
    return CheckResult(
        name=name, passed=dev <= tol and dev < math.inf, max_dev=dev, tol=tol, points=points,
        skipped=skipped, note=note,
    )


class _Tally:
    """What a check has seen so far: its worst deviation, points,
    skipped points and note."""

    def __init__(self):
        self.dev, self.points, self.skipped, self.note = 0.0, 0, 0, ""

    def add(self, dev: float) -> None:
        self.dev = max(self.dev, dev)
        self.points += 1

    def fail(self, note: str) -> None:
        self.dev, self.note = math.inf, note


SUITES: Dict[str, List[Callable[[_Grid], CheckResult]]] = {
    "identities": [], "inequalities": [], "oracle": [], "pde": [],
}


def _register(suite: str, name: str, tol: float):
    """Declare ``body(g, tally)`` as check ``name`` of ``suite`` with
    default tolerance ``tol``."""

    def register(body):
        @functools.wraps(body)
        def check(g: _Grid) -> CheckResult:
            t = _Tally()
            try:
                body(g, t)
            except (ValueError, ArithmeticError) as exc:
                t.fail(f"raised {type(exc).__name__}")
            return _make(name, t.dev, g.tol(tol), t.points, t.skipped, t.note)

        SUITES[suite].append(check)
        return check

    return register


def _check(suite: str, name: str, tol: float, cases):
    """Declare ``deviation(*case)``, for each case of ``cases(g)``, as
    check ``name``: one point per case, max_dev the largest deviation."""

    def declare(deviation):
        @functools.wraps(deviation)
        def body(g, t):
            for case in cases(g):
                t.add(deviation(*case))

        return _register(suite, name, tol)(body)

    return declare


def _p_x(g):
    return product(g.params, g.xs)


def _p_x_y(g):
    return product(g.params, g.xs, g.xs)


# ----------------------------------------------------------------------
# identities


@_check("identities", "scalar-lngamma-recurrence", 1e-12,
        lambda g: product((0.1, 0.5, 1.7, 3.3, 9.9)))
def check_scalar_lngamma_recurrence(x):
    return abs(scalar.ln_gamma(x + 1.0) - scalar.ln_gamma(x) - math.log(x))


@_check("identities", "scalar-hurwitz-recurrence", 1e-11,
        lambda g: product((1.5, 2.0, 4.0), (0.3, 1.0, 7.0)))
def check_scalar_hurwitz_recurrence(s, q):
    got = scalar.hurwitz_zeta(s, q) - scalar.hurwitz_zeta(s, q + 1.0)
    return _rel(got, q**-s)


@_check("identities", "gamma-value-at-knu", 1e-12, lambda g: product(g.params))
def check_gamma_value_at_c(p):
    return abs(gamma_knu(p, p.c).value - 1.0)


@_check("identities", "gamma-recurrence", 1e-11,
        lambda g: product(g.params, (0.3, 0.7, 1.5, 2.9, 4.2, 7.7)))
def check_gamma_recurrence(p, x):
    delta = log_gamma_knu(p, x + p.c) - math.log(x / p.nu**2) - log_gamma_knu(p, x)
    return abs(math.expm1(delta))


@_check("identities", "gamma-reflection", 1e-10, lambda g: product(g.params, range(1, 10)))
def check_gamma_reflection(p, i):
    x = p.c * i / 10.0
    lhs = log_gamma_knu(p, x) + log_gamma_knu(p, p.c - x)
    rhs = math.log((p.nu / p.k) * math.pi / math.sin(math.pi * x / p.c))
    return abs(math.expm1(lhs - rhs))


@_check("identities", "gamma-rescale-k", 1e-11, _p_x)
def check_gamma_rescale_k(p, x):
    lhs = log_gamma_knu(p, p.k * x)
    rhs = (x / p.nu - 1.0) * math.log(p.k) + log_gamma_knu(Params(1.0, p.nu), x)
    return abs(math.expm1(lhs - rhs))


@_check("identities", "gamma-rescale-nu", 1e-11, _p_x)
def check_gamma_rescale_nu(p, x):
    lhs = log_gamma_knu(p, p.nu * x)
    rhs = (1.0 - x / p.k) * math.log(p.nu) + log_gamma_knu(Params(p.k, 1.0), x)
    return abs(math.expm1(lhs - rhs))


@_check("identities", "pochhammer-gamma", 1e-11, lambda g: product(g.params, g.xs, (1, 2, 5)))
def check_pochhammer_gamma(p, x, m):
    lhs = pochhammer(x, m, p.c)
    rhs = p.nu ** (2 * m) * math.exp(log_gamma_knu(p, x + m * p.c) - log_gamma_knu(p, x))
    return _rel(lhs, rhs)


@_check("identities", "gamma-duplication", 1e-10, _p_x)
def check_gamma_duplication(p, x):
    lhs = log_gamma_knu(p, 2.0 * x)
    rhs = (
        (2.0 * x / p.c - 1.0) * math.log(2.0)
        - 0.5 * math.log(math.pi)
        + 0.5 * math.log(p.r)
        + log_gamma_knu(p, x)
        + log_gamma_knu(p, x + 0.5 * p.c)
    )
    return abs(math.expm1(lhs - rhs))


@_check("identities", "gamma-log-convexity", 1e-12,
        lambda g: ((p, x, y) for p, x, y in _p_x_y(g) if x != y))
def check_gamma_log_convexity(p, x, y):
    # Bohr-Mollerup hypothesis (iii): midpoint log-convexity.
    mid = log_gamma_knu(p, 0.5 * (x + y))
    avg = 0.5 * (log_gamma_knu(p, x) + log_gamma_knu(p, y))
    return mid - avg


_TRANSFORM_PAIRS = (
    (Params(1.0, 1.0), Params(2.0, 3.0)),
    (Params(2.0, 3.0), Params(0.5, 2.0)),
    (Params(0.5, 2.0), Params(3.0, 0.5)),
    (Params(2.0, 3.0), Params(2.0, 3.0)),
)


@_check("identities", "param-transform", 1e-12, lambda g: product(_TRANSFORM_PAIRS, g.xs))
def check_param_transform(pair, x):
    from_p, to_p = pair
    got = param_transform(from_p, to_p, x)
    want = gamma_knu(to_p, x).value
    return _rel(got, want)


@_check("identities", "beta-symmetry", 1e-12, _p_x_y)
def check_beta_symmetry(p, x, y):
    return _rel(beta_knu(p, x, y), beta_knu(p, y, x))


@_check("identities", "beta-shift-x", 1e-10, _p_x_y)
def check_beta_shift_x(p, x, y):
    return _rel(beta_knu(p, x + p.c, y), x / (x + y) * beta_knu(p, x, y))


@_check("identities", "beta-shift-y", 1e-10, _p_x_y)
def check_beta_shift_y(p, x, y):
    return _rel(beta_knu(p, x, y + p.c), y / (x + y) * beta_knu(p, x, y))


@_check("identities", "beta-pascal", 1e-10, _p_x_y)
def check_beta_pascal(p, x, y):
    return _rel(beta_knu(p, x + p.c, y) + beta_knu(p, x, y + p.c), beta_knu(p, x, y))


@_check("identities", "beta-ratio-identity", 1e-10,
        lambda g: product(g.params, g.xs, g.xs, (1, 2), (1, 2)))
def check_beta_ratio_identity(p, x, y, m, mm):
    lhs = math.exp(log_beta_knu(p, x + m * p.c, y + mm * p.c) - log_beta_knu(p, x, y))
    rhs = pochhammer(x, m, p.c) * pochhammer(y, mm, p.c) / pochhammer(x + y, m + mm, p.c)
    return _rel(lhs, rhs)


def _log_truncated_products(c: float, xs: Sequence[float], n: int) -> List[List[float]]:
    """ln prod_{j=1..n} (1 + (x+y)/(jc)) / ((1 + x/(jc))(1 + y/(jc))) for
    each ordered pair of ``xs``: table[a][b] for (xs[a], xs[b]).

    The factor at j is 1 + t with t = -q_x q_y, q_x = x/(jc + x), so a
    pair costs one multiply, one log1p and one sum, and (x, y) and (y, x)
    share them.  t rises with j toward 0; on the head where t < -1/2 the
    log is taken of (jc/(jc+x)) ((jc+y+x)/(jc+y)) itself, with x <= y,
    which stays finite where t rounds to -1 (c <= 1e-20 on small x)."""
    import numpy as np

    jc = np.arange(1, n + 1, dtype=np.float64)
    jc *= c
    q = np.empty((len(xs), n))
    for a, x in enumerate(xs):
        np.add(jc, x, out=q[a])
        np.divide(x, q[a], out=q[a])
    t = np.empty(n)
    table = [[0.0] * len(xs) for _ in xs]
    for a in range(len(xs)):
        for b in range(a, len(xs)):
            np.multiply(q[a], q[b], out=t)
            np.negative(t, out=t)
            head = int(np.searchsorted(t, -0.5))
            np.log1p(t[head:], out=t[head:])
            if head:
                x, y = sorted((xs[a], xs[b]))
                jh, th = jc[:head], t[:head]
                w = jh + y
                np.add(w, x, out=th)
                np.divide(th, w, out=th)
                np.add(jh, x, out=w)
                np.divide(jh, w, out=w)
                np.multiply(th, w, out=th)
                np.log(th, out=th)
            table[a][b] = table[b][a] = float(t.sum())
    return table


@_register("identities", "beta-product-truncation", 1.0)
def check_beta_product_truncation(g: _Grid, t: _Tally) -> None:
    # The infinite-product form converges O(1/N) with leading tail
    # -x y/(c^2 N), so the attainable accuracy at N=1e5 depends on the
    # cell: 1e-3 where x y/c^2 is moderate, ~6e-3 at the grid corner.
    # The check normalizes each cell by its O(1/N) envelope (factor-2
    # slack), which is what the identity actually promises.  The table
    # depends only on c, so (k, nu) and (nu, k) share it.
    n_factors = 100_000
    tables: Dict[float, List[List[float]]] = {}
    for p in g.params:
        log_prod = tables.get(p.c)
        if log_prod is None:
            log_prod = tables[p.c] = _log_truncated_products(p.c, g.xs, n_factors)
        for a, x in enumerate(g.xs):
            for b, y in enumerate(g.xs):
                approx = (x + y) / (x * y) * p.nu**2 * math.exp(log_prod[a][b])
                envelope = max(1e-3, 2.0 * x * y / (p.c**2 * n_factors))
                t.add(_rel(approx, beta_knu(p, x, y)) / envelope)


@_check("identities", "beta-secant", 1e-10, lambda g: product(g.params, range(1, 8)))
def check_beta_secant(p, i):
    x = p.c * i / 8.0
    lhs = beta_knu(p, 0.5 * (x + p.c), 0.5 * (p.c - x))
    rhs = (p.nu / p.k) * math.pi / math.cos(math.pi * x / (2.0 * p.c))
    return _rel(lhs, rhs)


@_check("identities", "beta-self-duplication", 1e-10, _p_x)
def check_beta_self_duplication(p, x):
    lhs = beta_knu(p, x, x)
    rhs = 2.0 ** (1.0 - 2.0 * x / p.c) * beta_knu(p, x, 0.5 * p.c)
    return _rel(lhs, rhs)


@_check("identities", "psi-reflection", 1e-10,
        lambda g: product(g.params, (1, 2, 3, 5, 6, 7, None)))
def check_psi_reflection(p, i):
    if i is None:  # midpoint: both sides vanish
        return abs(psi_knu(p, 0.5 * p.c) - psi_knu(p, 0.5 * p.c))
    x = p.c * i / 8.0
    lhs = psi_knu(p, x) - psi_knu(p, p.c - x)
    rhs = -(math.pi / p.c) / math.tan(math.pi * x / p.c)
    return _rel(lhs, rhs, 1.0 / p.c)


@_check("identities", "psi-duplication", 1e-10, _p_x)
def check_psi_duplication(p, x):
    lhs = psi_knu(p, 2.0 * x)
    rhs = math.log(2.0) / p.c + 0.5 * psi_knu(p, x) + 0.5 * psi_knu(p, x + 0.5 * p.c)
    return _rel(lhs, rhs, 1.0 / p.c)


@_check("identities", "psi-shift-sum", 1e-11, lambda g: product(g.params, g.xs, (0, 2, 5)))
def check_psi_shift_sum(p, x, m):
    got = psi_shift_sum(p, x, m)
    want = psi_knu(p, x + (m + 1) * p.c) - psi_knu(p, x)
    return _rel(got, want)


@_register("identities", "psi-limit-formula", 1e-3)
def check_psi_limit_formula(g: _Grid, t: _Tally) -> None:
    # Psi(x + (n+1)c) - (ln n)/c -> (1/c) ln(k/nu); error decays ~1/n.
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
        p = Params(k, nu)
        target = math.log(p.r) / p.c
        x = 1.0
        gaps = []
        for n in (1000, 10_000, 100_000):
            gap = abs(psi_knu(p, x + (n + 1) * p.c) - math.log(n) / p.c - target)
            gaps.append(gap)
            t.points += 1
        if not (gaps[0] > gaps[1] > gaps[2]):
            return t.fail("gap not monotone")
        t.dev = max(t.dev, gaps[-1])


@_check("identities", "zeta-polygamma-bridge", 1e-10,
        lambda g: product(g.params, g.xs, (1, 2, 3)))
def check_zeta_polygamma_bridge(p, x, m):
    lhs = hurwitz_knu(p, x, (m + 1) * p.c)
    sign = 1.0 if m % 2 == 1 else -1.0
    rhs = sign / math.factorial(m) * polygamma_knu(p, m, x)
    return _rel(lhs, rhs)


@_check("identities", "hurwitz-knu-recurrence", 1e-10,
        lambda g: product(g.params, g.xs, (1.5, 2.0, 3.0)))
def check_hurwitz_knu_recurrence(p, x, s_mult):
    s = s_mult * p.c
    got = hurwitz_knu(p, x, s) - hurwitz_knu(p, x + p.c, s)
    return _rel(got, x ** (-s / p.c))


@_register("identities", "zeta-limit-bridge", 1.0)
def check_zeta_limit_bridge(g: _Grid, t: _Tally) -> None:
    # The n=0 term x^(-s/c) diverges as x -> 0+, so it is removed
    # before comparing against zeta_knu.  The subtraction is done by
    # index shift (sum_{n>=1} (x+nc)^(-s/c) == hurwitz_knu(x+c, s)),
    # which is exact, where the literal subtraction would lose the
    # signal to cancellation.  The remaining gap is ~1.46 x/c at
    # s = 2c: bounded by a 1/c-scaled tolerance and linear in x.
    # max_dev is normalized: <= 1 means every gap was inside its bound.
    for p in g.params:
        s = 2.0 * p.c
        z = zeta_knu(p, s)
        gaps = []
        for x in (1e-5, 1e-6):
            gap = abs(hurwitz_knu(p, x + p.c, s) - z) / z
            gaps.append(gap)
            t.points += 1
        tol_here = 2e-6 * max(1.0, 1.0 / p.c) * 1.1
        t.dev = max(t.dev, gaps[1] / tol_here)
        ratio = gaps[0] / gaps[1]
        if not (8.0 <= ratio <= 12.0):
            return t.fail(f"gap not linear in x (ratio {ratio:.2f})")


# ----------------------------------------------------------------------
# inequalities: max_dev is the worst violation margin (0 when clean)


_INEQ_EPS = 1e-12


def _viol(lhs: float, rhs: float) -> float:
    """Violation margin of lhs <= rhs, relative to scale."""
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


_JENSEN_LOWER_U = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0, 2.0, 2.5, 3.5, 5.0, 8.0, 12.0)
_JENSEN_UPPER_U = (1.0, 1.05, 1.15, 1.3, 1.45, 1.55, 1.7, 1.8, 1.9, 1.95, 1.99, 2.0)


@_check("inequalities", "jensen-gamma", _INEQ_EPS, lambda g: (
    (p, u, lower)
    for p in g.params
    for lower, us in ((True, _JENSEN_LOWER_U), (False, _JENSEN_UPPER_U))
    for u in us
))
def check_jensen_gamma(p, u, lower):
    log_bound = (u - 1.0) * math.log(p.r)
    if lower:
        return _viol(log_bound, log_gamma_knu(p, u * p.c))
    return _viol(log_gamma_knu(p, u * p.c), log_bound)


_CHEBYSHEV_SAMPLES = (  # (x/c, y/c)
    (1.3, 1.7), (2.5, 4.0), (0.3, 0.7),  # synchronized
    (0.5, 2.0), (0.25, 3.0),             # asynchronized
    (1.0, 1.7), (0.4, 1.0),              # boundary
)


@_check("inequalities", "chebyshev-beta", _INEQ_EPS,
        lambda g: product(g.params, _CHEBYSHEV_SAMPLES))
def check_chebyshev_beta(p, sample):
    x, y = sample[0] * p.c, sample[1] * p.c
    bound, direction = chebyshev_beta_bound(p, x, y)
    b_val = beta_knu(p, x, y)
    if direction == "upper":
        return _viol(b_val, bound)
    if direction == "lower":
        return _viol(bound, b_val)
    return _rel(b_val, bound)


@_check("inequalities", "gamma-superadditivity", _INEQ_EPS, lambda g: (
    (p, xf, yf) for p, xf, yf in product(g.params, (1.1, 1.6, 2.5, 6.0), (1.2, 2.0, 4.0))
    if p.k >= p.nu
))
def check_superadditivity(p, xf, yf):
    x, y = xf * p.c, yf * p.c
    return _viol(log_gamma_knu(p, x) + log_gamma_knu(p, y), log_gamma_knu(p, x + y))


def _product_bound_cases(g):
    for p, xf, n in product(g.params, (1.0, 1.4, 2.5, 6.0), (2, 3)):
        x = xf * p.c
        yield p, x, n, False
        if x >= 1.0:
            yield p, x, n, True


@_check("inequalities", "gamma-product-bound", _INEQ_EPS, _product_bound_cases)
def check_gamma_product_bound(p, x, n, x_free):
    # Iterating the synchronized Chebyshev step gives
    #   G(nx) >= (n-1)! x^(2(n-1)) (k nu^3)^(1-n) G(x)^n   for x >= k nu;
    # the x-free variant needs the extra x^(2(n-1)) >= 1, i.e. x >= 1.
    # (Stated without either restriction it fails already classically:
    # G(0.8) < G(0.4)^2.)
    base = (
        math.log(math.factorial(n - 1))
        + (1.0 - n) * math.log(p.k * p.nu**3)
        + n * log_gamma_knu(p, x)
    )
    rhs = log_gamma_knu(p, n * x)
    if x_free:
        return _viol(base, rhs)
    return _viol(base + 2.0 * (n - 1) * math.log(x), rhs)


@_check("inequalities", "gamma-half-shift-bound", _INEQ_EPS, _p_x)
def check_gamma_half_shift_bound(p, x):
    rhs = (
        1.5 * math.log(p.k)
        + 2.5 * math.log(p.nu)
        + (2.0 * x / p.c - 1.0) * math.log(2.0)
        - 2.0 * math.log(x)
        - 0.5 * math.log(math.pi)
        + log_gamma_knu(p, x + 0.5 * p.c)
    )
    return _viol(log_gamma_knu(p, x), rhs)


@_register("inequalities", "jensen-beta", _INEQ_EPS)
def check_jensen_beta(g: _Grid, t: _Tally) -> None:
    # Only the samples inside a region of the bound are points.
    for p in g.params:
        c = p.c
        cases = [
            (0.5 * c, 3.0 * c), (0.2 * c, 2.0 * c), (1.0 * c, 2.5 * c),
            (3.0 * c, 0.8 * c),                               # lower region
            (1.2 * c, 1.8 * c), (1.5 * c, 1.5 * c), (1.0 * c, 2.0 * c),  # upper region
        ]
        for x, y in cases:
            res = jensen_beta_bound(p, x, y)
            if res is None:
                continue
            bound, direction = res
            b_val = beta_knu(p, x, y)
            if direction == "lower":
                t.add(_viol(bound, b_val))
            else:
                t.add(_viol(b_val, bound))
        if jensen_beta_bound(p, 1.5 * c, 5.0 * c) is not None:
            return t.fail("bound given outside both regions")


def _ratio_cases(g):
    return ((p, x1, x2, y) for p, x1, x2, y in product(g.params, g.xs, g.xs, g.xs) if x1 < x2)


@_check("inequalities", "ratio-bound-chain", _INEQ_EPS, _ratio_cases)
def check_ratio_bound_chain(p, x1, x2, y):
    r = ratio_bounds(p, x1, x2, y)
    return max(
        _viol(r.lower_T1, r.actual_ratio),
        _viol(r.actual_ratio, r.upper_T1),
        _viol(r.actual_ratio, r.upper_T2),
        _viol(r.lower_T31, r.actual_ratio),
        _viol(r.actual_ratio, r.upper_T32),
    )


@_check("inequalities", "ordering-upper-T1-lt-T2", _INEQ_EPS, _ratio_cases)
def check_ordering_upper(p, x1, x2, y):
    r = ratio_bounds(p, x1, x2, y)
    return _viol(r.upper_T1, r.upper_T2)


@_check("inequalities", "ordering-lower-T31-gt-T1", _INEQ_EPS, _ratio_cases)
def check_ordering_lower(p, x1, x2, y):
    r = ratio_bounds(p, x1, x2, y)
    return _viol(r.lower_T1, r.lower_T31)


@_check("inequalities", "beta-gamma-upper", _INEQ_EPS,
        lambda g: ((p, x, y) for p, x in _p_x(g) for y in (1.5 * x, 3.0 * x, x + 10.0)))
def check_beta_gamma_upper(p, x, y):
    bound = beta_gamma_upper(p, x)
    return _viol(beta_knu(p, x, y), bound)


@_check("inequalities", "novariable-upper", _INEQ_EPS,
        lambda g: product(g.params, (1.5, 1.7, 2.0), (1.2, 3.0)))
def check_novariable_upper(p, xf, yf):
    x = xf * p.c
    bound = novariable_upper(p, x)
    return _viol(beta_knu(p, x, yf * x), bound)


@_check("inequalities", "alzer-window-improvement", _INEQ_EPS,
        lambda g: product((1.5, 1.6, 1.75, 1.9, 2.0), (0.25, 0.75)))
def check_alzer_window(x, frac):
    # Classical parameters: on 3/2 <= x <= 2, x < y < 2^(2x-1)/(x sqrt(pi))
    # the constant bound improves on 1/(x y).
    p = Params(1.0, 1.0)
    y_hi = 2.0 ** (2.0 * x - 1.0) / (x * math.sqrt(math.pi))
    bound = novariable_upper(p, x)
    y = x + frac * (y_hi - x)
    return max(_viol(bound, 1.0 / (x * y)), _viol(beta_knu(p, x, y), bound))


@_register("inequalities", "polygamma-table", _INEQ_EPS)
def check_polygamma_table(g: _Grid, t: _Tally) -> None:
    # sign (-1)^(m+1); even m increasing and concave, odd m decreasing
    # and convex, on ascending grids.
    xs = (0.4, 0.9, 1.6, 2.5, 3.9, 6.0)
    for p, m in product(g.params, (1, 2, 3, 4, 5)):
        vals = [polygamma_knu(p, m, x) for x in xs]
        sign = 1.0 if m % 2 == 1 else -1.0
        for v in vals:
            t.add(_viol(0.0, sign * v))  # sign * v > 0
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        for d in diffs:
            # even m: increasing (d > 0); odd m: decreasing (d < 0)
            t.add(_viol(0.0, d if m % 2 == 0 else -d))
        second = [b - a for a, b in zip(diffs, diffs[1:])]
        for s2 in second:
            # even m concave (2nd diff < 0); odd m convex (> 0)
            t.add(_viol(0.0, -s2 if m % 2 == 0 else s2))


@_register("inequalities", "psi-increasing-lngamma-convex", _INEQ_EPS)
def check_psi_increasing_lngamma_convex(g: _Grid, t: _Tally) -> None:
    xs = sorted(set(list(g.xs) + [0.9, 1.7, 3.4, 9.0]))
    for p in g.params:
        vals = [psi_knu(p, x) for x in xs]
        for a, b in zip(vals, vals[1:]):
            t.add(_viol(a, b))
        for x, y in product(g.xs, g.xs):
            if x < y:
                mid = log_gamma_knu(p, 0.5 * (x + y))
                avg = 0.5 * (log_gamma_knu(p, x) + log_gamma_knu(p, y))
                t.add(_viol(mid, avg))


def _pg(p, order, x):
    """Psi^(order) with the order-0 and order-(-1) conventions."""
    if order == -1:
        return log_gamma_knu(p, x)
    if order == 0:
        return psi_knu(p, x)
    return polygamma_knu(p, order, x)


def _mean_value_cases(orders):
    """(p, x, y, m, odd) for x < y: one case for the odd-order bound
    and one for the even-order bound of each order m."""
    return lambda g: (
        (p, x, y, m, odd)
        for p, x, y, m, odd in product(g.params, g.xs, g.xs, orders, (True, False))
        if x < y
    )


@_check("inequalities", "polygamma-midpoint-bounds", _INEQ_EPS, _mean_value_cases((1, 2)))
def check_mean_value_ineq(p, x, y, m, odd):
    # midpoint bounds on difference quotients, m in {1, 2}
    mid = 0.5 * (x + y)
    if odd:
        slope_odd = (_pg(p, 2 * m - 1, y) - _pg(p, 2 * m - 1, x)) / (y - x)
        return _viol(slope_odd, _pg(p, 2 * m, mid))
    slope_even = (_pg(p, 2 * m, y) - _pg(p, 2 * m, x)) / (y - x)
    return _viol(_pg(p, 2 * m + 1, mid), slope_even)


@_check("inequalities", "polygamma-trapezoid-bounds", _INEQ_EPS, _mean_value_cases((0, 1, 2)))
def check_trapezoid_ineq(p, x, y, m, odd):
    # endpoint-average bounds on difference quotients, m in {0, 1, 2}
    if odd:
        avg_even = 0.5 * (_pg(p, 2 * m, x) + _pg(p, 2 * m, y))
        slope_odd = (_pg(p, 2 * m - 1, y) - _pg(p, 2 * m - 1, x)) / (y - x)
        return _viol(avg_even, slope_odd)
    slope_even = (_pg(p, 2 * m, y) - _pg(p, 2 * m, x)) / (y - x)
    avg_odd = 0.5 * (_pg(p, 2 * m + 1, x) + _pg(p, 2 * m + 1, y))
    return _viol(slope_even, avg_odd)


def _power_ratio(g: _Grid, t: _Tally, r: float, reverse: bool) -> None:
    """Ratio-power monotonicity at one r: for r > 1 the x-side term of
    the even-order form stays below the (x+y)-side one and the odd-order
    form runs the other way; ``reverse`` swaps both, for r < 1."""
    for p, theta, x, y in product(g.params, (0.0, 1.0), (0.5, 1.5, 3.0), (0.7, 2.0)):
        vals = (
            psi_knu(p, theta + x),
            psi_knu(p, theta + r * x),
            psi_knu(p, theta + x + y),
            psi_knu(p, theta + r * (x + y)),
        )
        if all(v > 0.0 for v in vals):
            at_x = r * math.log(vals[0]) - math.log(vals[1])
            at_xy = r * math.log(vals[2]) - math.log(vals[3])
            t.add(_viol(at_xy, at_x) if reverse else _viol(at_x, at_xy))
        else:
            t.skipped += 1
        for m in (0, 1):  # odd orders 2m+1: always positive
            o = 2 * m + 1
            at_xy = r * math.log(polygamma_knu(p, o, theta + x + y)) - math.log(
                polygamma_knu(p, o, theta + r * (x + y))
            )
            at_x = r * math.log(polygamma_knu(p, o, theta + x)) - math.log(
                polygamma_knu(p, o, theta + r * x)
            )
            t.add(_viol(at_x, at_xy) if reverse else _viol(at_xy, at_x))


@_register("inequalities", "polygamma-power-ratio-r-gt-1", _INEQ_EPS)
def check_power_ratio_monotone(g: _Grid, t: _Tally) -> None:
    # The even-order form needs a positive base, so it is evaluated
    # with Psi (order 0) and only where all four quantities are
    # positive; out-of-sign points are skipped and counted.  The
    # odd-order form is unconditional.
    for r in (1.5, 2.0):
        _power_ratio(g, t, r, reverse=False)


@_register("inequalities", "polygamma-power-ratio-r-lt-1", _INEQ_EPS)
def check_power_ratio_reversed(g: _Grid, t: _Tally) -> None:
    # Same statement with r < 1: directions reverse.
    _power_ratio(g, t, 0.5, reverse=True)


@_register("inequalities", "sign-F-antisymmetry", 0.0)
def check_sign_antisymmetry(g: _Grid, t: _Tally) -> None:
    # max_dev counts the points where the sign rule fails
    import numpy as np

    from .signmap import sign_F

    rng = np.random.default_rng(20240817)
    a, b, y = np.empty(200), np.empty(200), np.empty(200)
    for i in range(200):
        a[i], b[i] = np.exp(rng.uniform(math.log(0.1), math.log(1001.0), size=2))
        y[i] = rng.uniform(0.1, 20.0)
    diag = np.array([0.3, 5.0, 40.0, 800.0])
    t.dev += float(np.count_nonzero(sign_F(a, b, y) != -sign_F(b, a, y)))
    t.dev += float(np.count_nonzero(sign_F(diag, diag, 1.0)))
    t.points += len(a) + len(diag)


@_register("inequalities", "stirling-error-decay", _INEQ_EPS)
def check_stirling_decay(g: _Grid, t: _Tally) -> None:
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
        p = Params(k, nu)
        errs = []
        for mult in (10.0, 100.0):
            x = mult * p.c
            approx = stirling_approx(p, x)
            exact = math.exp(log_gamma_knu(p, x))
            errs.append(abs(approx - exact) / exact)
            t.points += 1
        t.dev = max(t.dev, _viol(errs[1], errs[0]))  # err(100c) < err(10c)
    p11_err = abs(stirling_approx(Params(1, 1), 10.0) - math.exp(scalar.ln_gamma(10.0))) / math.exp(
        scalar.ln_gamma(10.0)
    )
    if not (0.005 <= p11_err <= 0.015):
        t.fail(f"classical err {p11_err:.4f}")


# ----------------------------------------------------------------------
# oracle equivalence


_ORACLE_PARAMS = (Params(1.0, 1.0), Params(2.0, 3.0), Params(0.5, 2.0), Params(3.0, 0.5))
_ORACLE_U = (0.25, 0.6, 1.0, 2.5, 7.0)
_ORACLE_PAIRS = ((0.3, 0.8), (1.2, 0.5), (3.0, 2.0), (0.4, 4.0), (1.0, 1.0))


def _oracle_cases(*values):
    """Cases of an oracle-equivalence check: each element of the product
    of ``_ORACLE_PARAMS`` and ``values``."""
    return lambda g: product(_ORACLE_PARAMS, *values)


def _oracle_dev(res, want, floor=1e-300):
    """Relative deviation of an oracle result from the fast path, less
    the oracle's own error estimate."""
    allowed_extra = res.err_estimate / max(abs(want), floor)
    return max(0.0, _rel(res.value, want, floor) - allowed_extra)


@_check("oracle", "oracle-gamma-integral", 1e-8, _oracle_cases(_ORACLE_U))
def check_oracle_gamma_integral(p, u):
    x = u * p.c
    return _oracle_dev(oracle_eval("gamma-integral", p, [x]), gamma_knu(p, x).value)


@_check("oracle", "oracle-beta-unit", 1e-8, _oracle_cases(_ORACLE_PAIRS))
def check_oracle_beta_unit(p, pair):
    x, y = pair[0] * p.c, pair[1] * p.c
    return _oracle_dev(oracle_eval("beta-unit-integral", p, [x, y]), beta_knu(p, x, y))


@_check("oracle", "oracle-beta-scaled", 1e-8, _oracle_cases(_ORACLE_PAIRS))
def check_oracle_beta_scaled(p, pair):
    x, y = pair[0] * p.c, pair[1] * p.c
    return _oracle_dev(oracle_eval("beta-scaled-integral", p, [x, y]), beta_knu(p, x, y))


@_check("oracle", "oracle-psi-integral", 1e-7, _oracle_cases(_ORACLE_U))
def check_oracle_psi_integral(p, u):
    x = u * p.c
    return _oracle_dev(oracle_eval("psi-integral", p, [x]), psi_knu(p, x), floor=1.0)


@_check("oracle", "oracle-psi-log-integral", 1e-7, _oracle_cases(_ORACLE_U))
def check_oracle_psi_log_integral(p, u):
    x = u * p.c
    return _oracle_dev(oracle_eval("psi-log-integral", p, [x]), psi_knu(p, x), floor=1.0)


@_check("oracle", "oracle-polygamma", 1e-8, _oracle_cases((1, 2), (0.4, 1.0, 2.5)))
def check_oracle_polygamma(p, m, u):
    x = u * p.c
    return _oracle_dev(oracle_eval("polygamma-integral", p, [m, x]), polygamma_knu(p, m, x))


@_check("oracle", "oracle-zeta-integral", 1e-7, _oracle_cases((1.3, 2.0, 3.0, 6.0, 11.0)))
def check_oracle_zeta_integral(p, u):
    x = u * p.c
    return _oracle_dev(oracle_eval("zeta-integral", p, [x]), zeta_knu(p, x))


@_check("oracle", "oracle-hurwitz-integral", 1e-7,
        _oracle_cases(((0.5, 1.5), (1.0, 2.0), (2.0, 3.0), (0.8, 6.0), (3.0, 2.5))))
def check_oracle_hurwitz_integral(p, combo):
    x, s = combo[0] * p.c, combo[1] * p.c
    return _oracle_dev(oracle_eval("hurwitz-integral", p, [x, s]), hurwitz_knu(p, x, s))


@_check("oracle", "oracle-sine-integral", 1e-8,
        lambda g: product((0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)))
def check_oracle_sine_integral(x):
    res = oracle_eval("sine-integral", None, [x])
    want = math.pi / math.sin(math.pi * x)
    return _rel(res.value, want)


@_check("oracle", "oracle-recip-product", 1.0, lambda g: (
    (Params(1, 1), 1.0), (Params(1, 1), 2.0), (Params(2, 3), 1.0), (Params(0.5, 2), 1.7)
))
def check_oracle_recip_product(p, u):
    # normalized against the truncation error estimate
    x = u * p.c
    res = oracle_eval("recip-product", p, [x, 100_000])
    want = math.exp(-log_gamma_knu(p, x))
    allowed = max(3.0 * res.err_estimate, 1e-8 * abs(want))
    return abs(res.value - want) / allowed


@_register("oracle", "oracle-gamma-limit-rate", 1.0)
def check_oracle_gamma_limit_rate(g: _Grid, t: _Tally) -> None:
    # error halves (within 20%) when n doubles: O(1/n) convergence;
    # max_dev stays 0 unless a ratio falls outside
    for p, u in ((Params(1, 1), 0.3), (Params(2, 3), 0.5), (Params(0.5, 2), 1.7)):
        x = u * p.c
        exact = gamma_knu(p, x).value
        errs = []
        for n in (1 << 17, 1 << 18):
            res = oracle_eval("gamma-limit", p, [x, n])
            errs.append(abs(res.value - exact) / exact)
            t.points += 1
        ratio = errs[0] / errs[1]
        if not (1.6 <= ratio <= 2.4):
            return t.fail(f"halving ratio {ratio:.2f}")


# ----------------------------------------------------------------------
# PDE residuals

PDE_TRIPLES = tuple(
    (k, nu, x) for (k, nu) in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)) for x in (1.0, 4.5, 7.0)
)


@_check("pde", "pde-residuals", 1e-4, lambda g: PDE_TRIPLES)
def check_pde_residuals(k, nu, x):
    res = pde_residuals(Params(k, nu), x, step=1e-4)
    return max(abs(res.res_k), abs(res.res_nu))


SUITES["all"] = list(chain.from_iterable(SUITES.values()))


def run_suite(
    suite: str,
    tol: Optional[float] = None,
    knu_values: Sequence[float] = GRID_KNU,
) -> List[CheckResult]:
    """Every check of ``suite`` on the (k, nu) grid ``knu_values`` x
    ``knu_values``, in suite order, spread by ``_fork.fork_map`` over
    one process per CPU; the results do not depend on the count."""
    from ._fork import fork_map

    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    params = [Params(k, nu) for k in knu_values for nu in knu_values]
    grid = _Grid(params=params, xs=GRID_X, tol_override=tol)
    return fork_map(lambda check: check(grid), SUITES[suite])
