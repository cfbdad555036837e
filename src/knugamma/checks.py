"""Named verification suites: identities, inequalities, oracle
equivalence, and PDE residuals.

Each check samples a deterministic grid, reports its worst observed
deviation against its tolerance, and never stops at the first failure;
the CLI renders one line per check.  Deviations are relative, with a
floor on the normalization scale where the compared quantity passes
through zero (the Psi family), so a tolerance of 1e-10 keeps meaning.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from .oracle import EvalControl, oracle_eval
from .params import Params
from .psi import pde_residuals, polygamma_knu, psi_knu, psi_shift_sum
from .signmap import sign_F
from .zeta import hurwitz_knu, zeta_knu

__all__ = ["CheckResult", "run_suite", "SUITES", "GRID_KNU", "GRID_X"]

GRID_KNU = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.4, 1.1, 2.5, 6.0)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    tol: float
    points: int
    skipped: int = 0
    note: str = ""


@dataclass
class _Grid:
    params: List[Params]
    xs: Tuple[float, ...]
    tol_override: Optional[float] = None

    def tol(self, default: float) -> float:
        return self.tol_override if self.tol_override is not None else default


def _rel(got: float, want: float, floor: float = 1e-300) -> float:
    return abs(got - want) / max(abs(got), abs(want), floor)


def _make(name, dev, tol, points, skipped=0, note=""):
    return CheckResult(
        name=name, passed=dev <= tol, max_dev=dev, tol=tol, points=points,
        skipped=skipped, note=note,
    )


# ----------------------------------------------------------------------
# identities


def check_scalar_lngamma_recurrence(g: _Grid) -> CheckResult:
    tol = g.tol(1e-12)
    dev, n = 0.0, 0
    for x in (0.1, 0.5, 1.7, 3.3, 9.9):
        delta = abs(scalar.ln_gamma(x + 1.0) - scalar.ln_gamma(x) - math.log(x))
        dev = max(dev, delta)
        n += 1
    return _make("scalar-lngamma-recurrence", dev, tol, n)


def check_scalar_hurwitz_recurrence(g: _Grid) -> CheckResult:
    tol = g.tol(1e-11)
    dev, n = 0.0, 0
    for s in (1.5, 2.0, 4.0):
        for q in (0.3, 1.0, 7.0):
            got = scalar.hurwitz_zeta(s, q) - scalar.hurwitz_zeta(s, q + 1.0)
            dev = max(dev, _rel(got, q**-s))
            n += 1
    return _make("scalar-hurwitz-recurrence", dev, tol, n)


def check_gamma_value_at_c(g: _Grid) -> CheckResult:
    tol = g.tol(1e-12)
    dev = max(abs(gamma_knu(p, p.c).value - 1.0) for p in g.params)
    return _make("gamma-value-at-knu", dev, tol, len(g.params))


def check_gamma_recurrence(g: _Grid) -> CheckResult:
    tol = g.tol(1e-11)
    dev, n = 0.0, 0
    for p in g.params:
        for x in (0.3, 0.7, 1.5, 2.9, 4.2, 7.7):
            delta = log_gamma_knu(p, x + p.c) - math.log(x / p.nu**2) - log_gamma_knu(p, x)
            dev = max(dev, abs(math.expm1(delta)))
            n += 1
    return _make("gamma-recurrence", dev, tol, n)


def check_gamma_reflection(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for i in range(1, 10):
            x = p.c * i / 10.0
            lhs = log_gamma_knu(p, x) + log_gamma_knu(p, p.c - x)
            rhs = math.log((p.nu / p.k) * math.pi / math.sin(math.pi * x / p.c))
            dev = max(dev, abs(math.expm1(lhs - rhs)))
            n += 1
    return _make("gamma-reflection", dev, tol, n)


def check_gamma_rescale_k(g: _Grid) -> CheckResult:
    tol = g.tol(1e-11)
    dev, n = 0.0, 0
    for p in g.params:
        base = Params(1.0, p.nu)
        for x in g.xs:
            lhs = log_gamma_knu(p, p.k * x)
            rhs = (x / p.nu - 1.0) * math.log(p.k) + log_gamma_knu(base, x)
            dev = max(dev, abs(math.expm1(lhs - rhs)))
            n += 1
    return _make("gamma-rescale-k", dev, tol, n)


def check_gamma_rescale_nu(g: _Grid) -> CheckResult:
    tol = g.tol(1e-11)
    dev, n = 0.0, 0
    for p in g.params:
        base = Params(p.k, 1.0)
        for x in g.xs:
            lhs = log_gamma_knu(p, p.nu * x)
            rhs = (1.0 - x / p.k) * math.log(p.nu) + log_gamma_knu(base, x)
            dev = max(dev, abs(math.expm1(lhs - rhs)))
            n += 1
    return _make("gamma-rescale-nu", dev, tol, n)


def check_pochhammer_gamma(g: _Grid) -> CheckResult:
    tol = g.tol(1e-11)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for m in (1, 2, 5):
                lhs = pochhammer(x, m, p.c)
                rhs = p.nu ** (2 * m) * math.exp(
                    log_gamma_knu(p, x + m * p.c) - log_gamma_knu(p, x)
                )
                dev = max(dev, _rel(lhs, rhs))
                n += 1
    return _make("pochhammer-gamma", dev, tol, n)


def check_gamma_duplication(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            lhs = log_gamma_knu(p, 2.0 * x)
            rhs = (
                (2.0 * x / p.c - 1.0) * math.log(2.0)
                - 0.5 * math.log(math.pi)
                + 0.5 * math.log(p.r)
                + log_gamma_knu(p, x)
                + log_gamma_knu(p, x + 0.5 * p.c)
            )
            dev = max(dev, abs(math.expm1(lhs - rhs)))
            n += 1
    return _make("gamma-duplication", dev, tol, n)


def check_gamma_log_convexity(g: _Grid) -> CheckResult:
    # Bohr-Mollerup hypothesis (iii): midpoint log-convexity.
    tol = g.tol(1e-12)
    worst, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                if x == y:
                    continue
                mid = log_gamma_knu(p, 0.5 * (x + y))
                avg = 0.5 * (log_gamma_knu(p, x) + log_gamma_knu(p, y))
                worst = max(worst, mid - avg)
                n += 1
    return _make("gamma-log-convexity", max(worst, 0.0), tol, n)


def check_param_transform(g: _Grid) -> CheckResult:
    tol = g.tol(1e-12)
    dev, n = 0.0, 0
    pairs = [
        (Params(1.0, 1.0), Params(2.0, 3.0)),
        (Params(2.0, 3.0), Params(0.5, 2.0)),
        (Params(0.5, 2.0), Params(3.0, 0.5)),
        (Params(2.0, 3.0), Params(2.0, 3.0)),
    ]
    for from_p, to_p in pairs:
        for x in g.xs:
            got = param_transform(from_p, to_p, x)
            want = gamma_knu(to_p, x).value
            dev = max(dev, _rel(got, want))
            n += 1
    return _make("param-transform", dev, tol, n)


def check_beta_symmetry(g: _Grid) -> CheckResult:
    tol = g.tol(1e-12)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                dev = max(dev, _rel(beta_knu(p, x, y), beta_knu(p, y, x)))
                n += 1
    return _make("beta-symmetry", dev, tol, n)


def _beta_identity_dev(g, fn) -> Tuple[float, int]:
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                dev = max(dev, fn(p, x, y))
                n += 1
    return dev, n


def check_beta_shift_x(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = _beta_identity_dev(
        g, lambda p, x, y: _rel(beta_knu(p, x + p.c, y), x / (x + y) * beta_knu(p, x, y))
    )
    return _make("beta-shift-x", dev, tol, n)


def check_beta_shift_y(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = _beta_identity_dev(
        g, lambda p, x, y: _rel(beta_knu(p, x, y + p.c), y / (x + y) * beta_knu(p, x, y))
    )
    return _make("beta-shift-y", dev, tol, n)


def check_beta_pascal(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = _beta_identity_dev(
        g,
        lambda p, x, y: _rel(
            beta_knu(p, x + p.c, y) + beta_knu(p, x, y + p.c), beta_knu(p, x, y)
        ),
    )
    return _make("beta-pascal", dev, tol, n)


def check_beta_ratio_identity(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                for m in (1, 2):
                    for mm in (1, 2):
                        lhs = math.exp(
                            log_beta_knu(p, x + m * p.c, y + mm * p.c)
                            - log_beta_knu(p, x, y)
                        )
                        rhs = (
                            pochhammer(x, m, p.c)
                            * pochhammer(y, mm, p.c)
                            / pochhammer(x + y, m + mm, p.c)
                        )
                        dev = max(dev, _rel(lhs, rhs))
                        n += 1
    return _make("beta-ratio-identity", dev, tol, n)


def check_beta_product_truncation(g: _Grid) -> CheckResult:
    # The infinite-product form converges O(1/N) with leading tail
    # -x y/(c^2 N), so the attainable accuracy at N=1e5 depends on the
    # cell: 1e-3 where x y/c^2 is moderate, ~6e-3 at the grid corner.
    # The check normalizes each cell by its O(1/N) envelope (factor-2
    # slack), which is what the identity actually promises.
    tol = g.tol(1.0)
    n_factors = 100_000
    j = np.arange(1, n_factors + 1, dtype=np.float64)
    xs = g.xs
    # log1p(x/(j c)) once per x and log1p((x+y)/(j c)) once per unordered
    # pair, into buffers allocated once; each ordered cell still sums its
    # own elementwise L_xy - L_x - L_y, as a direct evaluation would.
    inv_jc = np.empty(n_factors)
    log_x = np.empty((len(xs), n_factors))
    log_xy = np.empty(n_factors)
    diff = np.empty(n_factors)
    log_prod = [[0.0] * len(xs) for _ in xs]
    dev, n = 0.0, 0
    for p in g.params:
        np.multiply(j, p.c, out=inv_jc)
        np.divide(1.0, inv_jc, out=inv_jc)
        for a, x in enumerate(xs):
            np.multiply(x, inv_jc, out=log_x[a])
            np.log1p(log_x[a], out=log_x[a])
        for a, x in enumerate(xs):
            for b in range(a, len(xs)):
                np.multiply(x + xs[b], inv_jc, out=log_xy)
                np.log1p(log_xy, out=log_xy)
                for first, second in {(a, b), (b, a)}:
                    np.subtract(log_xy, log_x[first], out=diff)
                    np.subtract(diff, log_x[second], out=diff)
                    log_prod[first][second] = float(diff.sum())
        for a, x in enumerate(xs):
            for b, y in enumerate(xs):
                approx = (x + y) / (x * y) * p.nu**2 * math.exp(log_prod[a][b])
                envelope = max(1e-3, 2.0 * x * y / (p.c**2 * n_factors))
                dev = max(dev, _rel(approx, beta_knu(p, x, y)) / envelope)
                n += 1
    return _make("beta-product-truncation", dev, tol, n)


def check_beta_secant(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for i in range(1, 8):
            x = p.c * i / 8.0
            lhs = beta_knu(p, 0.5 * (x + p.c), 0.5 * (p.c - x))
            rhs = (p.nu / p.k) * math.pi / math.cos(math.pi * x / (2.0 * p.c))
            dev = max(dev, _rel(lhs, rhs))
            n += 1
    return _make("beta-secant", dev, tol, n)


def check_beta_self_duplication(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            lhs = beta_knu(p, x, x)
            rhs = 2.0 ** (1.0 - 2.0 * x / p.c) * beta_knu(p, x, 0.5 * p.c)
            dev = max(dev, _rel(lhs, rhs))
            n += 1
    return _make("beta-self-duplication", dev, tol, n)


def check_psi_reflection(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        floor = 1.0 / p.c
        for i in (1, 2, 3, 5, 6, 7):
            x = p.c * i / 8.0
            lhs = psi_knu(p, x) - psi_knu(p, p.c - x)
            rhs = -(math.pi / p.c) / math.tan(math.pi * x / p.c)
            dev = max(dev, _rel(lhs, rhs, floor))
            n += 1
        # midpoint: both sides vanish
        dev = max(dev, abs(psi_knu(p, 0.5 * p.c) - psi_knu(p, 0.5 * p.c)))
        n += 1
    return _make("psi-reflection", dev, tol, n)


def check_psi_duplication(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        floor = 1.0 / p.c
        for x in g.xs:
            lhs = psi_knu(p, 2.0 * x)
            rhs = math.log(2.0) / p.c + 0.5 * psi_knu(p, x) + 0.5 * psi_knu(p, x + 0.5 * p.c)
            dev = max(dev, _rel(lhs, rhs, floor))
            n += 1
    return _make("psi-duplication", dev, tol, n)


def check_psi_shift_sum(g: _Grid) -> CheckResult:
    tol = g.tol(1e-11)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for m in (0, 2, 5):
                got = psi_shift_sum(p, x, m)
                want = psi_knu(p, x + (m + 1) * p.c) - psi_knu(p, x)
                dev = max(dev, _rel(got, want))
                n += 1
    return _make("psi-shift-sum", dev, tol, n)


def check_psi_limit_formula(g: _Grid) -> CheckResult:
    # Psi(x + (n+1)c) - (ln n)/c -> (1/c) ln(k/nu); error decays ~1/n.
    tol = g.tol(1e-3)
    dev, n_pts = 0.0, 0
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
        p = Params(k, nu)
        target = math.log(p.r) / p.c
        x = 1.0
        gaps = []
        for n in (1000, 10_000, 100_000):
            gap = abs(psi_knu(p, x + (n + 1) * p.c) - math.log(n) / p.c - target)
            gaps.append(gap)
            n_pts += 1
        if not (gaps[0] > gaps[1] > gaps[2]):
            return _make("psi-limit-formula", math.inf, tol, n_pts, note="gap not monotone")
        dev = max(dev, gaps[-1])
    return _make("psi-limit-formula", dev, tol, n_pts)


def check_zeta_polygamma_bridge(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for m in (1, 2, 3):
                lhs = hurwitz_knu(p, x, (m + 1) * p.c)
                sign = 1.0 if m % 2 == 1 else -1.0
                rhs = sign / math.factorial(m) * polygamma_knu(p, m, x)
                dev = max(dev, _rel(lhs, rhs))
                n += 1
    return _make("zeta-polygamma-bridge", dev, tol, n)


def check_hurwitz_knu_recurrence(g: _Grid) -> CheckResult:
    tol = g.tol(1e-10)
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for s_mult in (1.5, 2.0, 3.0):
                s = s_mult * p.c
                got = hurwitz_knu(p, x, s) - hurwitz_knu(p, x + p.c, s)
                dev = max(dev, _rel(got, x ** (-s / p.c)))
                n += 1
    return _make("hurwitz-knu-recurrence", dev, tol, n)


def check_zeta_limit_bridge(g: _Grid) -> CheckResult:
    # The n=0 term x^(-s/c) diverges as x -> 0+, so it is removed
    # before comparing against zeta_knu.  The subtraction is done by
    # index shift (sum_{n>=1} (x+nc)^(-s/c) == hurwitz_knu(x+c, s)),
    # which is exact, where the literal subtraction would lose the
    # signal to cancellation.  The remaining gap is ~1.46 x/c at
    # s = 2c: bounded by a 1/c-scaled tolerance and linear in x.
    dev, n = 0.0, 0
    for p in g.params:
        s = 2.0 * p.c
        z = zeta_knu(p, s)
        gaps = []
        for x in (1e-5, 1e-6):
            gap = abs(hurwitz_knu(p, x + p.c, s) - z) / z
            gaps.append(gap)
            n += 1
        tol_here = 2e-6 * max(1.0, 1.0 / p.c) * 1.1
        dev = max(dev, gaps[1] / tol_here)
        ratio = gaps[0] / gaps[1]
        if not (8.0 <= ratio <= 12.0):
            return _make("zeta-limit-bridge", math.inf, g.tol(1.0), n,
                         note=f"gap not linear in x (ratio {ratio:.2f})")
    # normalized: dev <= 1 means every gap was inside its scaled bound
    return _make("zeta-limit-bridge", dev, g.tol(1.0), n)


IDENTITY_CHECKS = [
    check_scalar_lngamma_recurrence,
    check_scalar_hurwitz_recurrence,
    check_gamma_value_at_c,
    check_gamma_recurrence,
    check_gamma_reflection,
    check_gamma_rescale_k,
    check_gamma_rescale_nu,
    check_pochhammer_gamma,
    check_gamma_duplication,
    check_gamma_log_convexity,
    check_param_transform,
    check_beta_symmetry,
    check_beta_shift_x,
    check_beta_shift_y,
    check_beta_pascal,
    check_beta_ratio_identity,
    check_beta_product_truncation,
    check_beta_secant,
    check_beta_self_duplication,
    check_psi_reflection,
    check_psi_duplication,
    check_psi_shift_sum,
    check_psi_limit_formula,
    check_zeta_polygamma_bridge,
    check_hurwitz_knu_recurrence,
    check_zeta_limit_bridge,
]


# ----------------------------------------------------------------------
# inequalities: max_dev is the worst violation margin (0 when clean)


_INEQ_EPS = 1e-12


def _viol(lhs: float, rhs: float) -> float:
    """Violation margin of lhs <= rhs, relative to scale."""
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def check_jensen_gamma(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    lower_u = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0, 2.0, 2.5, 3.5, 5.0, 8.0, 12.0)
    upper_u = (1.0, 1.05, 1.15, 1.3, 1.45, 1.55, 1.7, 1.8, 1.9, 1.95, 1.99, 2.0)
    for p in g.params:
        log_bound = lambda u: (u - 1.0) * math.log(p.r)
        for u in lower_u:
            worst = max(worst, _viol(log_bound(u), log_gamma_knu(p, u * p.c)))
            n += 1
        for u in upper_u:
            worst = max(worst, _viol(log_gamma_knu(p, u * p.c), log_bound(u)))
            n += 1
    return _make("jensen-gamma", max(worst, 0.0), tol, n)


def check_chebyshev_beta(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        c = p.c
        samples = [
            (1.3 * c, 1.7 * c), (2.5 * c, 4.0 * c), (0.3 * c, 0.7 * c),  # synchronized
            (0.5 * c, 2.0 * c), (0.25 * c, 3.0 * c),                      # asynchronized
            (c, 1.7 * c), (0.4 * c, c),                                    # boundary
        ]
        for x, y in samples:
            bound, direction = chebyshev_beta_bound(p, x, y)
            b_val = beta_knu(p, x, y)
            if direction == "upper":
                worst = max(worst, _viol(b_val, bound))
            elif direction == "lower":
                worst = max(worst, _viol(bound, b_val))
            else:
                worst = max(worst, _rel(b_val, bound))
            n += 1
    return _make("chebyshev-beta", max(worst, 0.0), tol, n)


def check_superadditivity(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        if p.k < p.nu:
            continue
        for xf in (1.1, 1.6, 2.5, 6.0):
            for yf in (1.2, 2.0, 4.0):
                x, y = xf * p.c, yf * p.c
                worst = max(
                    worst,
                    _viol(log_gamma_knu(p, x) + log_gamma_knu(p, y), log_gamma_knu(p, x + y)),
                )
                n += 1
    return _make("gamma-superadditivity", max(worst, 0.0), tol, n)


def check_gamma_product_bound(g: _Grid) -> CheckResult:
    # Iterating the synchronized Chebyshev step gives
    #   G(nx) >= (n-1)! x^(2(n-1)) (k nu^3)^(1-n) G(x)^n   for x >= k nu;
    # the x-free variant needs the extra x^(2(n-1)) >= 1, i.e. x >= 1.
    # (Stated without either restriction it fails already classically:
    # G(0.8) < G(0.4)^2.)
    tol = g.tol(_INEQ_EPS)
    worst, cnt = 0.0, 0
    for p in g.params:
        for xf in (1.0, 1.4, 2.5, 6.0):
            x = xf * p.c
            for n in (2, 3):
                base = (
                    math.log(math.factorial(n - 1))
                    + (1.0 - n) * math.log(p.k * p.nu**3)
                    + n * log_gamma_knu(p, x)
                )
                rhs = log_gamma_knu(p, n * x)
                worst = max(worst, _viol(base + 2.0 * (n - 1) * math.log(x), rhs))
                cnt += 1
                if x >= 1.0:
                    worst = max(worst, _viol(base, rhs))
                    cnt += 1
    return _make("gamma-product-bound", max(worst, 0.0), tol, cnt)


def check_gamma_half_shift_bound(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            rhs = (
                1.5 * math.log(p.k)
                + 2.5 * math.log(p.nu)
                + (2.0 * x / p.c - 1.0) * math.log(2.0)
                - 2.0 * math.log(x)
                - 0.5 * math.log(math.pi)
                + log_gamma_knu(p, x + 0.5 * p.c)
            )
            worst = max(worst, _viol(log_gamma_knu(p, x), rhs))
            n += 1
    return _make("gamma-half-shift-bound", max(worst, 0.0), tol, n)


def check_jensen_beta(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
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
                worst = max(worst, _viol(bound, b_val))
            else:
                worst = max(worst, _viol(b_val, bound))
            n += 1
        assert jensen_beta_bound(p, 1.5 * c, 5.0 * c) is None
    return _make("jensen-beta", max(worst, 0.0), tol, n)


def _ratio_triples(g: _Grid):
    triples = []
    for x1 in g.xs:
        for x2 in g.xs:
            if x2 <= x1:
                continue
            for y in g.xs:
                triples.append((x1, x2, y))
    return triples


def check_ratio_bound_chain(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x1, x2, y in _ratio_triples(g):
            r = ratio_bounds(p, x1, x2, y)
            worst = max(worst, _viol(r.lower_T1, r.actual_ratio))
            worst = max(worst, _viol(r.actual_ratio, r.upper_T1))
            worst = max(worst, _viol(r.actual_ratio, r.upper_T2))
            worst = max(worst, _viol(r.lower_T31, r.actual_ratio))
            worst = max(worst, _viol(r.actual_ratio, r.upper_T32))
            n += 1
    return _make("ratio-bound-chain", max(worst, 0.0), tol, n)


def check_ordering_upper(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x1, x2, y in _ratio_triples(g):
            r = ratio_bounds(p, x1, x2, y)
            worst = max(worst, _viol(r.upper_T1, r.upper_T2))
            n += 1
    return _make("ordering-upper-T1-lt-T2", max(worst, 0.0), tol, n)


def check_ordering_lower(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x1, x2, y in _ratio_triples(g):
            r = ratio_bounds(p, x1, x2, y)
            worst = max(worst, _viol(r.lower_T1, r.lower_T31))
            n += 1
    return _make("ordering-lower-T31-gt-T1", max(worst, 0.0), tol, n)


def check_beta_gamma_upper(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            bound = beta_gamma_upper(p, x)
            for y in (1.5 * x, 3.0 * x, x + 10.0):
                worst = max(worst, _viol(beta_knu(p, x, y), bound))
                n += 1
    return _make("beta-gamma-upper", max(worst, 0.0), tol, n)


def check_novariable_upper(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for xf in (1.5, 1.7, 2.0):
            x = xf * p.c
            bound = novariable_upper(p, x)
            for y in (1.2 * x, 3.0 * x):
                worst = max(worst, _viol(beta_knu(p, x, y), bound))
                n += 1
    return _make("novariable-upper", max(worst, 0.0), tol, n)


def check_alzer_window(g: _Grid) -> CheckResult:
    # Classical parameters: on 3/2 <= x <= 2, x < y < 2^(2x-1)/(x sqrt(pi))
    # the constant bound improves on 1/(x y).
    tol = g.tol(_INEQ_EPS)
    p = Params(1.0, 1.0)
    worst, n = 0.0, 0
    for x in (1.5, 1.6, 1.75, 1.9, 2.0):
        y_hi = 2.0 ** (2.0 * x - 1.0) / (x * math.sqrt(math.pi))
        bound = novariable_upper(p, x)
        for t in (0.25, 0.75):
            y = x + t * (y_hi - x)
            worst = max(worst, _viol(bound, 1.0 / (x * y)))
            worst = max(worst, _viol(beta_knu(p, x, y), bound))
            n += 1
    return _make("alzer-window-improvement", max(worst, 0.0), tol, n)


def check_polygamma_table(g: _Grid) -> CheckResult:
    # sign (-1)^(m+1); even m increasing and concave, odd m decreasing
    # and convex, on ascending grids.
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    xs = (0.4, 0.9, 1.6, 2.5, 3.9, 6.0)
    for p in g.params:
        for m in (1, 2, 3, 4, 5):
            vals = [polygamma_knu(p, m, x) for x in xs]
            sign = 1.0 if m % 2 == 1 else -1.0
            for v in vals:
                worst = max(worst, _viol(0.0, sign * v))  # sign * v > 0
                n += 1
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            for d in diffs:
                # even m: increasing (d > 0); odd m: decreasing (d < 0)
                worst = max(worst, _viol(0.0, d if m % 2 == 0 else -d))
                n += 1
            second = [b - a for a, b in zip(diffs, diffs[1:])]
            for s2 in second:
                # even m concave (2nd diff < 0); odd m convex (> 0)
                worst = max(worst, _viol(0.0, -s2 if m % 2 == 0 else s2))
                n += 1
    return _make("polygamma-table", max(worst, 0.0), tol, n)


def check_psi_increasing_lngamma_convex(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    xs = sorted(set(list(g.xs) + [0.9, 1.7, 3.4, 9.0]))
    for p in g.params:
        vals = [psi_knu(p, x) for x in xs]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, _viol(a, b))
            n += 1
        for x in g.xs:
            for y in g.xs:
                if x >= y:
                    continue
                mid = log_gamma_knu(p, 0.5 * (x + y))
                avg = 0.5 * (log_gamma_knu(p, x) + log_gamma_knu(p, y))
                worst = max(worst, _viol(mid, avg))
                n += 1
    return _make("psi-increasing-lngamma-convex", max(worst, 0.0), tol, n)


def _pg(p, order, x):
    """Psi^(order) with the order-0 and order-(-1) conventions."""
    if order == -1:
        return log_gamma_knu(p, x)
    if order == 0:
        return psi_knu(p, x)
    return polygamma_knu(p, order, x)


def check_mean_value_ineq(g: _Grid) -> CheckResult:
    # midpoint bounds on difference quotients, m in {1, 2}
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                if x >= y:
                    continue
                mid = 0.5 * (x + y)
                for m in (1, 2):
                    slope_odd = (_pg(p, 2 * m - 1, y) - _pg(p, 2 * m - 1, x)) / (y - x)
                    worst = max(worst, _viol(slope_odd, _pg(p, 2 * m, mid)))
                    n += 1
                    slope_even = (_pg(p, 2 * m, y) - _pg(p, 2 * m, x)) / (y - x)
                    worst = max(worst, _viol(_pg(p, 2 * m + 1, mid), slope_even))
                    n += 1
    return _make("polygamma-midpoint-bounds", max(worst, 0.0), tol, n)


def check_trapezoid_ineq(g: _Grid) -> CheckResult:
    # endpoint-average bounds on difference quotients, m in {0, 1, 2}
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                if x >= y:
                    continue
                for m in (0, 1, 2):
                    avg_even = 0.5 * (_pg(p, 2 * m, x) + _pg(p, 2 * m, y))
                    slope_odd = (_pg(p, 2 * m - 1, y) - _pg(p, 2 * m - 1, x)) / (y - x)
                    worst = max(worst, _viol(avg_even, slope_odd))
                    n += 1
                    slope_even = (_pg(p, 2 * m, y) - _pg(p, 2 * m, x)) / (y - x)
                    avg_odd = 0.5 * (_pg(p, 2 * m + 1, x) + _pg(p, 2 * m + 1, y))
                    worst = max(worst, _viol(slope_even, avg_odd))
                    n += 1
    return _make("polygamma-trapezoid-bounds", max(worst, 0.0), tol, n)


def _power_ratio_cases(g: _Grid):
    for p in g.params:
        for theta in (0.0, 1.0):
            for x in (0.5, 1.5, 3.0):
                for y in (0.7, 2.0):
                    yield p, theta, x, y


def check_power_ratio_monotone(g: _Grid) -> CheckResult:
    # Ratio-power monotonicity for r > 1.  The even-order form needs a
    # positive base, so it is evaluated with Psi (order 0) and only
    # where all four quantities are positive; out-of-sign points are
    # skipped and counted.  The odd-order form is unconditional.
    tol = g.tol(_INEQ_EPS)
    worst, n, skipped = 0.0, 0, 0
    for r in (1.5, 2.0):
        for p, theta, x, y in _power_ratio_cases(g):
            vals = (
                psi_knu(p, theta + x),
                psi_knu(p, theta + r * x),
                psi_knu(p, theta + x + y),
                psi_knu(p, theta + r * (x + y)),
            )
            if all(v > 0.0 for v in vals):
                lhs = r * math.log(vals[0]) - math.log(vals[1])
                rhs = r * math.log(vals[2]) - math.log(vals[3])
                worst = max(worst, _viol(lhs, rhs))
                n += 1
            else:
                skipped += 1
            for m in (0, 1):  # odd orders 2m+1: always positive
                o = 2 * m + 1
                lhs = r * math.log(polygamma_knu(p, o, theta + x + y)) - math.log(
                    polygamma_knu(p, o, theta + r * (x + y))
                )
                rhs = r * math.log(polygamma_knu(p, o, theta + x)) - math.log(
                    polygamma_knu(p, o, theta + r * x)
                )
                worst = max(worst, _viol(lhs, rhs))
                n += 1
    return _make("polygamma-power-ratio-r-gt-1", max(worst, 0.0), tol, n, skipped=skipped)


def check_power_ratio_reversed(g: _Grid) -> CheckResult:
    # Same statement with r < 1: directions reverse.
    tol = g.tol(_INEQ_EPS)
    worst, n, skipped = 0.0, 0, 0
    r = 0.5
    for p, theta, x, y in _power_ratio_cases(g):
        vals = (
            psi_knu(p, theta + x),
            psi_knu(p, theta + r * x),
            psi_knu(p, theta + x + y),
            psi_knu(p, theta + r * (x + y)),
        )
        if all(v > 0.0 for v in vals):
            lhs = r * math.log(vals[2]) - math.log(vals[3])
            rhs = r * math.log(vals[0]) - math.log(vals[1])
            worst = max(worst, _viol(lhs, rhs))
            n += 1
        else:
            skipped += 1
        for m in (0, 1):
            o = 2 * m + 1
            lhs = r * math.log(polygamma_knu(p, o, theta + x)) - math.log(
                polygamma_knu(p, o, theta + r * x)
            )
            rhs = r * math.log(polygamma_knu(p, o, theta + x + y)) - math.log(
                polygamma_knu(p, o, theta + r * (x + y))
            )
            worst = max(worst, _viol(lhs, rhs))
            n += 1
    return _make("polygamma-power-ratio-r-lt-1", max(worst, 0.0), tol, n, skipped=skipped)


def check_sign_antisymmetry(g: _Grid) -> CheckResult:
    tol = g.tol(0.0)
    rng = np.random.default_rng(20240817)
    n, bad = 0, 0
    for _ in range(200):
        a, b = np.exp(rng.uniform(math.log(0.1), math.log(1001.0), size=2))
        y = float(rng.uniform(0.1, 20.0))
        if sign_F(float(a), float(b), y) != -sign_F(float(b), float(a), y):
            bad += 1
        n += 1
    for v in (0.3, 5.0, 40.0, 800.0):
        if sign_F(v, v, 1.0) != 0:
            bad += 1
        n += 1
    return _make("sign-F-antisymmetry", float(bad), tol, n)


def check_stirling_decay(g: _Grid) -> CheckResult:
    tol = g.tol(_INEQ_EPS)
    worst, n = 0.0, 0
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
        p = Params(k, nu)
        errs = []
        for mult in (10.0, 100.0):
            x = mult * p.c
            approx = stirling_approx(p, x)
            exact = math.exp(log_gamma_knu(p, x))
            errs.append(abs(approx - exact) / exact)
            n += 1
        worst = max(worst, _viol(errs[1], errs[0]))  # err(100c) < err(10c)
    p11_err = abs(stirling_approx(Params(1, 1), 10.0) - math.exp(scalar.ln_gamma(10.0))) / math.exp(
        scalar.ln_gamma(10.0)
    )
    if not (0.005 <= p11_err <= 0.015):
        return _make("stirling-error-decay", math.inf, tol, n, note=f"classical err {p11_err:.4f}")
    return _make("stirling-error-decay", max(worst, 0.0), tol, n)


INEQUALITY_CHECKS = [
    check_jensen_gamma,
    check_chebyshev_beta,
    check_superadditivity,
    check_gamma_product_bound,
    check_gamma_half_shift_bound,
    check_jensen_beta,
    check_ratio_bound_chain,
    check_ordering_upper,
    check_ordering_lower,
    check_beta_gamma_upper,
    check_novariable_upper,
    check_alzer_window,
    check_polygamma_table,
    check_psi_increasing_lngamma_convex,
    check_mean_value_ineq,
    check_trapezoid_ineq,
    check_power_ratio_monotone,
    check_power_ratio_reversed,
    check_sign_antisymmetry,
    check_stirling_decay,
]


# ----------------------------------------------------------------------
# oracle equivalence


_ORACLE_PARAMS = (Params(1.0, 1.0), Params(2.0, 3.0), Params(0.5, 2.0), Params(3.0, 0.5))
_ORACLE_U = (0.25, 0.6, 1.0, 2.5, 7.0)


def _oracle_check(name, target, cases, fast_fn, g, tol_default=1e-8, floor=1e-300):
    ctrl = EvalControl()
    tol = g.tol(tol_default)
    dev, n = 0.0, 0
    for p, args in cases:
        res = oracle_eval(target, p, args, ctrl)
        want = fast_fn(p, args)
        allowed_extra = res.err_estimate / max(abs(want), floor)
        dev = max(dev, max(0.0, _rel(res.value, want, floor) - allowed_extra))
        n += 1
    return _make(name, dev, tol, n)


def check_oracle_gamma_integral(g: _Grid) -> CheckResult:
    cases = [(p, [u * p.c]) for p in _ORACLE_PARAMS for u in _ORACLE_U]
    return _oracle_check(
        "oracle-gamma-integral", "gamma-integral", cases,
        lambda p, a: gamma_knu(p, a[0]).value, g,
    )


def check_oracle_beta_unit(g: _Grid) -> CheckResult:
    pairs = ((0.3, 0.8), (1.2, 0.5), (3.0, 2.0), (0.4, 4.0), (1.0, 1.0))
    cases = [(p, [ux * p.c, uy * p.c]) for p in _ORACLE_PARAMS for ux, uy in pairs]
    return _oracle_check(
        "oracle-beta-unit", "beta-unit-integral", cases,
        lambda p, a: beta_knu(p, a[0], a[1]), g,
    )


def check_oracle_beta_scaled(g: _Grid) -> CheckResult:
    pairs = ((0.3, 0.8), (1.2, 0.5), (3.0, 2.0), (0.4, 4.0), (1.0, 1.0))
    cases = [(p, [ux * p.c, uy * p.c]) for p in _ORACLE_PARAMS for ux, uy in pairs]
    return _oracle_check(
        "oracle-beta-scaled", "beta-scaled-integral", cases,
        lambda p, a: beta_knu(p, a[0], a[1]), g,
    )


def check_oracle_psi_integral(g: _Grid) -> CheckResult:
    cases = [(p, [u * p.c]) for p in _ORACLE_PARAMS for u in _ORACLE_U]
    return _oracle_check(
        "oracle-psi-integral", "psi-integral", cases,
        lambda p, a: psi_knu(p, a[0]), g, tol_default=1e-7, floor=1.0,
    )


def check_oracle_psi_log_integral(g: _Grid) -> CheckResult:
    cases = [(p, [u * p.c]) for p in _ORACLE_PARAMS for u in _ORACLE_U]
    return _oracle_check(
        "oracle-psi-log-integral", "psi-log-integral", cases,
        lambda p, a: psi_knu(p, a[0]), g, tol_default=1e-7, floor=1.0,
    )


def check_oracle_polygamma(g: _Grid) -> CheckResult:
    cases = [
        (p, [m, u * p.c]) for p in _ORACLE_PARAMS for m in (1, 2) for u in (0.4, 1.0, 2.5)
    ]
    return _oracle_check(
        "oracle-polygamma", "polygamma-integral", cases,
        lambda p, a: polygamma_knu(p, int(a[0]), a[1]), g,
    )


def check_oracle_zeta_integral(g: _Grid) -> CheckResult:
    cases = [(p, [u * p.c]) for p in _ORACLE_PARAMS for u in (1.3, 2.0, 3.0, 6.0, 11.0)]
    return _oracle_check(
        "oracle-zeta-integral", "zeta-integral", cases,
        lambda p, a: zeta_knu(p, a[0]), g, tol_default=1e-7,
    )


def check_oracle_hurwitz_integral(g: _Grid) -> CheckResult:
    combos = ((0.5, 1.5), (1.0, 2.0), (2.0, 3.0), (0.8, 6.0), (3.0, 2.5))
    cases = [(p, [ux * p.c, us * p.c]) for p in _ORACLE_PARAMS for ux, us in combos]
    return _oracle_check(
        "oracle-hurwitz-integral", "hurwitz-integral", cases,
        lambda p, a: hurwitz_knu(p, a[0], a[1]), g, tol_default=1e-7,
    )


def check_oracle_sine_integral(g: _Grid) -> CheckResult:
    tol = g.tol(1e-8)
    dev, n = 0.0, 0
    for x in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9):
        res = oracle_eval("sine-integral", None, [x])
        want = math.pi / math.sin(math.pi * x)
        dev = max(dev, _rel(res.value, want))
        n += 1
    return _make("oracle-sine-integral", dev, tol, n)


def check_oracle_recip_product(g: _Grid) -> CheckResult:
    tol = g.tol(1.0)  # normalized against the truncation error estimate
    dev, n = 0.0, 0
    for p, u in ((Params(1, 1), 1.0), (Params(1, 1), 2.0), (Params(2, 3), 1.0), (Params(0.5, 2), 1.7)):
        x = u * p.c
        res = oracle_eval("recip-product", p, [x, 100_000])
        want = math.exp(-log_gamma_knu(p, x))
        allowed = max(3.0 * res.err_estimate, 1e-8 * abs(want))
        dev = max(dev, abs(res.value - want) / allowed)
        n += 1
    return _make("oracle-recip-product", dev, tol, n)


def check_oracle_gamma_limit_rate(g: _Grid) -> CheckResult:
    # error halves (within 20%) when n doubles: O(1/n) convergence
    tol = g.tol(1.0)
    dev, n_pts = 0.0, 0
    for p, u in ((Params(1, 1), 0.3), (Params(2, 3), 0.5), (Params(0.5, 2), 1.7)):
        x = u * p.c
        exact = gamma_knu(p, x).value
        errs = []
        for n in (1 << 17, 1 << 18):
            res = oracle_eval("gamma-limit", p, [x, n])
            errs.append(abs(res.value - exact) / exact)
            n_pts += 1
        ratio = errs[0] / errs[1]
        if not (1.6 <= ratio <= 2.4):
            return _make("oracle-gamma-limit-rate", math.inf, tol, n_pts,
                         note=f"halving ratio {ratio:.2f}")
    return _make("oracle-gamma-limit-rate", 0.0, tol, n_pts)


ORACLE_CHECKS = [
    check_oracle_gamma_integral,
    check_oracle_beta_unit,
    check_oracle_beta_scaled,
    check_oracle_psi_integral,
    check_oracle_psi_log_integral,
    check_oracle_polygamma,
    check_oracle_zeta_integral,
    check_oracle_hurwitz_integral,
    check_oracle_sine_integral,
    check_oracle_recip_product,
    check_oracle_gamma_limit_rate,
]


# ----------------------------------------------------------------------
# PDE residuals

PDE_TRIPLES = tuple(
    (k, nu, x) for (k, nu) in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)) for x in (1.0, 4.5, 7.0)
)


def check_pde_residuals(g: _Grid) -> CheckResult:
    tol = g.tol(1e-4)
    dev, n = 0.0, 0
    for k, nu, x in PDE_TRIPLES:
        res = pde_residuals(Params(k, nu), x, step=1e-4)
        dev = max(dev, abs(res.res_k), abs(res.res_nu))
        n += 1
    return _make("pde-residuals", dev, tol, n)


PDE_CHECKS = [check_pde_residuals]


SUITES: Dict[str, List[Callable[[_Grid], CheckResult]]] = {
    "identities": IDENTITY_CHECKS,
    "inequalities": INEQUALITY_CHECKS,
    "oracle": ORACLE_CHECKS,
    "pde": PDE_CHECKS,
}
SUITES["all"] = IDENTITY_CHECKS + INEQUALITY_CHECKS + ORACLE_CHECKS + PDE_CHECKS


def run_suite(
    suite: str,
    tol: Optional[float] = None,
    knu_values: Sequence[float] = GRID_KNU,
    x_values: Sequence[float] = GRID_X,
) -> List[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    params = [Params(k, nu) for k in knu_values for nu in knu_values]
    grid = _Grid(params=params, xs=tuple(x_values), tol_override=tol)
    return [fn(grid) for fn in SUITES[suite]]
