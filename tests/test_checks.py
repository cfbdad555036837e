"""Check-suite internals that the acceptance gate sees only through
verdicts."""

import inspect
import math
import warnings

import numpy as np
import pytest

import reference as ref
from knugamma import Params, beta_knu, checks
from knugamma.errors import Overflow, PoleHit
from knugamma.oracle import OracleResult

# (name, points, skipped, tol) on the default grid, then (points,
# skipped) on knu_values=(1, 2) with tol=1e-3: what each check samples
# must not change when the way checks are run does.
SHAPES = [
    ("scalar-lngamma-recurrence", 5, 0, 1e-12, 5, 0),
    ("scalar-hurwitz-recurrence", 9, 0, 1e-11, 9, 0),
    ("gamma-value-at-knu", 16, 0, 1e-12, 4, 0),
    ("gamma-recurrence", 96, 0, 1e-11, 24, 0),
    ("gamma-reflection", 144, 0, 1e-10, 36, 0),
    ("gamma-rescale-k", 64, 0, 1e-11, 16, 0),
    ("gamma-rescale-nu", 64, 0, 1e-11, 16, 0),
    ("pochhammer-gamma", 192, 0, 1e-11, 48, 0),
    ("gamma-duplication", 64, 0, 1e-10, 16, 0),
    ("gamma-log-convexity", 192, 0, 1e-12, 48, 0),
    ("param-transform", 16, 0, 1e-12, 16, 0),
    ("beta-symmetry", 256, 0, 1e-12, 64, 0),
    ("beta-shift-x", 256, 0, 1e-10, 64, 0),
    ("beta-shift-y", 256, 0, 1e-10, 64, 0),
    ("beta-pascal", 256, 0, 1e-10, 64, 0),
    ("beta-ratio-identity", 1024, 0, 1e-10, 256, 0),
    ("beta-product-truncation", 256, 0, 1.0, 64, 0),
    ("beta-secant", 112, 0, 1e-10, 28, 0),
    ("beta-self-duplication", 64, 0, 1e-10, 16, 0),
    ("psi-reflection", 112, 0, 1e-10, 28, 0),
    ("psi-duplication", 64, 0, 1e-10, 16, 0),
    ("psi-shift-sum", 192, 0, 1e-11, 48, 0),
    ("psi-limit-formula", 9, 0, 1e-3, 9, 0),
    ("zeta-polygamma-bridge", 192, 0, 1e-10, 48, 0),
    ("hurwitz-knu-recurrence", 192, 0, 1e-10, 48, 0),
    ("zeta-limit-bridge", 32, 0, 1.0, 8, 0),
    ("jensen-gamma", 432, 0, 1e-12, 108, 0),
    ("chebyshev-beta", 112, 0, 1e-12, 28, 0),
    ("gamma-superadditivity", 120, 0, 1e-12, 36, 0),
    ("gamma-product-bound", 242, 0, 1e-12, 64, 0),
    ("gamma-half-shift-bound", 64, 0, 1e-12, 16, 0),
    ("jensen-beta", 112, 0, 1e-12, 28, 0),
    ("ratio-bound-chain", 384, 0, 1e-12, 96, 0),
    ("ordering-upper-T1-lt-T2", 384, 0, 1e-12, 96, 0),
    ("ordering-lower-T31-gt-T1", 384, 0, 1e-12, 96, 0),
    ("beta-gamma-upper", 192, 0, 1e-12, 48, 0),
    ("novariable-upper", 96, 0, 1e-12, 24, 0),
    ("alzer-window-improvement", 10, 0, 1e-12, 10, 0),
    ("polygamma-table", 1200, 0, 1e-12, 300, 0),
    ("psi-increasing-lngamma-convex", 208, 0, 1e-12, 52, 0),
    ("polygamma-midpoint-bounds", 384, 0, 1e-12, 96, 0),
    ("polygamma-trapezoid-bounds", 576, 0, 1e-12, 144, 0),
    ("polygamma-power-ratio-r-gt-1", 920, 232, 1e-12, 224, 64),
    ("polygamma-power-ratio-r-lt-1", 440, 136, 1e-12, 104, 40),
    ("sign-F-antisymmetry", 204, 0, 0.0, 204, 0),
    ("stirling-error-decay", 6, 0, 1e-12, 6, 0),
    ("oracle-gamma-integral", 20, 0, 1e-8, 20, 0),
    ("oracle-beta-unit", 20, 0, 1e-8, 20, 0),
    ("oracle-beta-scaled", 20, 0, 1e-8, 20, 0),
    ("oracle-psi-integral", 20, 0, 1e-7, 20, 0),
    ("oracle-psi-log-integral", 20, 0, 1e-7, 20, 0),
    ("oracle-polygamma", 24, 0, 1e-8, 24, 0),
    ("oracle-zeta-integral", 20, 0, 1e-7, 20, 0),
    ("oracle-hurwitz-integral", 20, 0, 1e-7, 20, 0),
    ("oracle-sine-integral", 7, 0, 1e-8, 7, 0),
    ("oracle-recip-product", 4, 0, 1.0, 4, 0),
    ("oracle-gamma-limit-rate", 6, 0, 1.0, 6, 0),
    ("pde-residuals", 9, 0, 1e-4, 9, 0),
]
SUITE_NAMES = ("identities", "inequalities", "oracle", "pde")


def _shape(results):
    return [(r.name, r.points, r.skipped, r.tol) for r in results]


def test_suite_names_points_skips_and_tolerances_are_pinned():
    assert _shape(checks.run_suite("all")) == [s[:4] for s in SHAPES]
    small = checks.run_suite("all", knu_values=(1, 2), tol=1e-3)
    assert _shape(small) == [(s[0], s[4], s[5], 1e-3) for s in SHAPES]


def test_suites_hold_public_module_functions():
    # perfbench/workloads.py wraps and names the checks through these
    # lists and the module attributes
    assert list(checks.SUITES) == [*SUITE_NAMES, "all"]
    assert checks.SUITES["all"] == [fn for s in SUITE_NAMES for fn in checks.SUITES[s]]
    assert len({id(fns) for fns in checks.SUITES.values()}) == 5
    fns = checks.SUITES["all"]
    assert len({fn.__name__ for fn in fns}) == len(fns) == len(SHAPES)
    for fn in fns:
        assert inspect.isfunction(fn) and fn.__module__ == "knugamma.checks"
        assert not fn.__name__.startswith("_")
        assert getattr(checks, fn.__name__) is fn
    assert checks.check_beta_product_truncation in checks.SUITES["identities"]


@pytest.mark.parametrize("error", [Overflow("x"), OverflowError(), ZeroDivisionError()])
def test_a_raising_check_fails_with_its_points_so_far(monkeypatch, error):
    calls = []

    def pochhammer(*args):
        calls.append(args)
        if len(calls) == 3:
            raise error
        return 1.0

    monkeypatch.setattr(checks, "pochhammer", pochhammer)
    # it fails whatever the tolerance
    g = checks._Grid([Params(1.0, 1.0)], checks.GRID_X, tol_override=math.inf)
    r = checks.check_pochhammer_gamma(g)
    assert (r.passed, r.max_dev, r.points) == (False, math.inf, 2)
    assert r.note == f"raised {type(error).__name__}"


def test_recip_product_check_fails_on_a_zero_estimate(monkeypatch):
    # the deviation is normalised by 3 err_estimate alone: no floor
    # stands in for an estimate of 0, so the check fails
    def zero_estimate(target, p, args, _eval=checks.oracle_eval):
        res = _eval(target, p, args)
        return OracleResult(res.value, 0.0, res.effort, res.converged)

    real = checks.check_oracle_recip_product(DEFAULT_GRID)
    monkeypatch.setattr(checks, "oracle_eval", zero_estimate)
    r = checks.check_oracle_recip_product(DEFAULT_GRID)
    assert (real.passed, r.passed, r.note) == (True, False, "raised ZeroDivisionError")


def _pg_uncached(p, order, x):
    """``checks._pg`` as it was before it kept values: every call
    evaluates."""
    if order == -1:
        return checks.log_gamma_knu(p, x)
    if order == 0:
        return checks.psi_knu(p, x)
    return checks.polygamma_knu(p, order, x)


# the checks that read their values through ``_pg``
CACHED = ("check_mean_value_ineq", "check_trapezoid_ineq",
          "check_power_ratio_monotone", "check_power_ratio_reversed")
DEFAULT_GRID = checks._Grid([Params(k, nu) for k in checks.GRID_KNU for nu in checks.GRID_KNU],
                            checks.GRID_X)


def test_cached_runs_equal_uncached_runs(monkeypatch):
    runs = ({}, {"knu_values": (1, 2), "tol": 1e-3})
    cached = [checks.run_suite("all", **kw) for kw in runs]
    monkeypatch.setattr(checks, "_pg", _pg_uncached)
    assert [checks.run_suite("all", **kw) for kw in runs] == cached


def _counting(monkeypatch, calls):
    """Record every call of the three fast paths ``_pg`` reads."""
    for name in ("log_gamma_knu", "psi_knu", "polygamma_knu"):
        def count(p, *args, _name=name, _fn=getattr(checks, name)):
            calls.append((_name, p.k, p.nu, *args))
            return _fn(p, *args)

        monkeypatch.setattr(checks, name, count)


@pytest.mark.parametrize("name", CACHED)
def test_a_check_evaluates_each_point_once(monkeypatch, name):
    calls = []
    _counting(monkeypatch, calls)
    check = getattr(checks, name)
    with monkeypatch.context() as m:
        m.setattr(checks, "_pg", _pg_uncached)
        want = check(DEFAULT_GRID)
    points = set(calls)
    assert len(points) < len(calls)  # the check repeats points
    for _ in range(2):  # a second run starts empty and evaluates them all again
        calls.clear()
        assert check(DEFAULT_GRID) == want
        assert sorted(calls) == sorted(points)


def test_the_cache_is_empty_after_every_check():
    for check in checks.SUITES["all"]:
        check(DEFAULT_GRID)
        assert checks._VALUES == {}, check.__name__


@pytest.mark.parametrize("error", [Overflow("x"), OverflowError(), ZeroDivisionError()])
def test_a_raising_cached_check_leaves_the_cache_empty(monkeypatch, error):
    calls = []

    def polygamma_knu(p, m, x):
        calls.append((p.k, p.nu, m, x))
        if len(calls) == 4:  # the first call of the second case
            raise error
        return 1.0

    monkeypatch.setattr(checks, "polygamma_knu", polygamma_knu)
    g = checks._Grid([Params(1.0, 1.0)], checks.GRID_X, tol_override=math.inf)
    r = checks.check_mean_value_ineq(g)
    assert (r.passed, r.max_dev, r.points) == (False, math.inf, 1)
    assert r.note == f"raised {type(error).__name__}"
    assert checks._VALUES == {}
    assert len(set(calls)) == len(calls)


def test_a_raising_call_is_not_kept():
    # outside a check nothing empties the cache, so a kept value would show
    p = Params(1.0, 1.0)
    for _ in range(2):
        with pytest.raises(PoleHit):
            checks._pg(p, 1, -1.0)
    assert checks._VALUES == {}


def test_jensen_beta_bound_outside_its_regions_fails(monkeypatch):
    monkeypatch.setattr(checks, "jensen_beta_bound", lambda p, x, y: (1.0, "upper"))
    g = checks._Grid([Params(1.0, 1.0), Params(2.0, 3.0)], checks.GRID_X)
    r = checks.check_jensen_beta(g)
    assert (r.passed, r.max_dev, r.points) == (False, math.inf, 7)
    assert r.note == "bound given outside both regions"


def _log_product_direct(c, x, y, n):
    """One cell of the product table from its own call, on the pair
    (x, y) alone, so nothing is shared with another pair."""
    return checks._log_truncated_products(c, (x, y), n)[0][1]


def _beta_product_truncation_direct(g):
    """The check as a direct triple loop, one fresh product per ordered
    (x, y) cell."""
    n_factors = 100_000
    dev, n = 0.0, 0
    for p in g.params:
        for x in g.xs:
            for y in g.xs:
                log_prod = _log_product_direct(p.c, x, y, n_factors)
                approx = (x + y) / (x * y) * p.nu**2 * math.exp(log_prod)
                envelope = max(1e-3, 2.0 * x * y / (p.c**2 * n_factors))
                dev = max(dev, checks._rel(approx, beta_knu(p, x, y)) / envelope)
                n += 1
    return checks._make("beta-product-truncation", dev, g.tol(1.0), n)


def test_beta_product_truncation_matches_direct_loop():
    for pairs, points in (
        # a repeated x exercises the shared (x, y)/(y, x) buffers
        (((0.5, 2.0), (3.0, 1.0)), 32),
        # (0.5, 2), (2, 0.5) and (1, 1) share c = 1, and so one table
        (((0.5, 2.0), (3.0, 1.0), (2.0, 0.5), (1.0, 1.0)), 64),
    ):
        g = checks._Grid([Params(k, nu) for k, nu in pairs], (0.4, 2.5, 2.5, 6.0))
        got = checks.check_beta_product_truncation(g)
        assert got == _beta_product_truncation_direct(g)
        assert got.points == points


@pytest.mark.parametrize("c", [1e-200, 1e-3, 1.0, 9.0])
def test_log_truncated_products_match_direct_cells(c):
    # every cell, not only the worst one the check reports; the log of
    # the factor itself (t < -1/2) is never taken at c = 9, is taken up
    # to j = 2 at c = 1, and at every head factor at c = 1e-3 and c =
    # 1e-200, as at every tail node at c = 1e-200
    xs, n = (6.0, 0.4, 2.5, 2.5, 1.1), 1000
    table = checks._log_truncated_products(c, xs, n)
    assert table == [[_log_product_direct(c, x, y, n) for y in xs] for x in xs]


def _log_product_reference(c, x, y, n):
    """The closed form at the exact u = x/c and v = y/c, rounded once."""
    return float(ref.log_truncated_product(ref.exact(x, c), ref.exact(y, c), n, ref.mpf(c)))


# --grid 0.7,1.3,4, beside the default grid
OTHER_GRID = (0.7, 1.3, 4.0)
# c = k nu on both grids, where the check takes its products
GRID_C = sorted({Params(k, nu).c for grid in (checks.GRID_KNU, OTHER_GRID) for k in grid for nu in grid})


@pytest.mark.parametrize(
    "c",
    [1e-200, 1e-20, 1e-3, 0.25, 1.0, 9.0, 1e3, 1e100, 1e200]
    + [c for c in GRID_C if c not in (0.25, 1.0, 9.0)],
)
def test_log_truncated_products_match_closed_form(c):
    # n = 1 and 32 are direct sums alone; from 33 the Euler-Maclaurin
    # tail starts, with no panel at n = 33 and four at n = 1000
    xs = checks.GRID_X
    for n in (1, 32, 33, 1000, 100_000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = checks._log_truncated_products(c, xs, n)
        for a, x in enumerate(xs):
            for b, y in enumerate(xs):
                want = _log_product_reference(c, x, y, n)
                assert abs(table[a][b] - want) <= 1e-15 * max(1.0, abs(want)), (x, y, n)


@pytest.mark.parametrize(
    "grid,max_dev",
    [(checks.GRID_KNU, 0.4998050617328837), (OTHER_GRID, 0.49979801383146827)],
    ids=["default", "0.7,1.3,4"],
)
def test_beta_product_truncation_max_dev_from_exact_products(monkeypatch, grid, max_dev):
    # the check's result, max_dev to the last bit, is the one it gives
    # with every log-product rounded once from its closed form
    g = checks._Grid([Params(k, nu) for k in grid for nu in grid], checks.GRID_X)
    got = checks.check_beta_product_truncation(g)
    monkeypatch.setattr(
        checks, "_log_truncated_products",
        lambda c, xs, n: [[_log_product_reference(c, x, y, n) for y in xs] for x in xs],
    )
    assert got == checks.check_beta_product_truncation(g)
    assert got.max_dev == max_dev
