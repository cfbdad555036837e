"""Oracle evaluators against closed forms and the fast paths they are
meant to police."""

import ast
import math
import sys
import warnings

import pytest

from knugamma import (
    DivergentSeries,
    Overflow,
    Params,
    PoleHit,
    beta_knu,
    gamma_knu,
    hurwitz_knu,
    oracle,
    oracle_eval,
    polygamma_knu,
    psi_knu,
    zeta_knu,
)

from knugamma.constants import EULER_GAMMA

SQRT_32_PI = 2.1708037636748028


class TestControls:
    def test_defaults(self):
        assert oracle._ABS_TOL == 1e-12
        assert oracle._REL_TOL == 1e-9
        assert oracle._MAX_SUBDIVISIONS == 2000
        assert oracle._MAX_TERMS == 10_000_000

    def test_converged_implies_within_tolerance(self):
        res = oracle_eval("gamma-integral", Params(2, 3), [4.0])
        assert res.converged
        assert res.err_estimate <= max(1e-12, 1e-9 * abs(res.value))

    def test_budget_exhaustion_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 3)
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-15)
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-300)
        res = oracle_eval("beta-unit-integral", Params(0.5, 2.0), [0.3, 0.4])
        assert not res.converged
        assert math.isfinite(res.value)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            oracle_eval("nope", Params(1, 1), [1.0])

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            oracle_eval("gamma-integral", Params(1, 1), [1.0, 2.0])

    @pytest.mark.parametrize(
        "target,args", [("zeta-integral", [1.01]), ("hurwitz-integral", [0.5, 1.01])]
    )
    def test_non_finite_result_is_not_converged(self, target, args):
        # the Bose integral near its abscissa of convergence reads inf
        res = oracle_eval(target, Params(1, 1), args)
        assert not math.isfinite(res.value) or not math.isfinite(res.err_estimate)
        assert not res.converged

    @pytest.mark.parametrize(
        "target,args",
        [("gamma-integral", [170.0]), ("beta-unit-integral", [0.01, 1.0]), ("gamma-limit", [400.0, 1000])],
    )
    def test_overflow_is_typed(self, target, args):
        with pytest.raises(Overflow):
            oracle_eval(target, Params(1, 1), args)


class TestGammaTargets:
    def test_integral_unit(self):
        res = oracle_eval("gamma-integral", Params(1, 1), [1.0])
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_integral_deformed(self):
        res = oracle_eval("gamma-integral", Params(2, 3), [3.0])
        assert res.value == pytest.approx(SQRT_32_PI, rel=1e-8)

    def test_integral_endpoint_singularity(self):
        # integrable singularity at t=0 for x/c in [0.2, 1)
        for u in (0.2, 0.35, 0.6, 0.95):
            p = Params(2.0, 3.0)
            res = oracle_eval("gamma-integral", p, [u * p.c])
            assert res.converged
            assert res.value == pytest.approx(gamma_knu(p, u * p.c).value, rel=1e-8)

    def test_limit_definition(self):
        p = Params(2, 3)
        res = oracle_eval("gamma-limit", p, [3.0, 1_000_000])
        assert res.value == pytest.approx(SQRT_32_PI, rel=2e-5)

    def test_limit_error_halves_when_n_doubles(self):
        p = Params(2, 3)
        exact = gamma_knu(p, 3.0).value
        errs = []
        for n in (1 << 16, 1 << 17):
            res = oracle_eval("gamma-limit", p, [3.0, n])
            errs.append(abs(res.value - exact) / exact)
        assert 1.6 <= errs[0] / errs[1] <= 2.4

    def test_recip_product(self):
        for k, nu, x in ((1.0, 1.0, 1.0), (2.0, 3.0, 6.0), (1.0, 1.0, 2.0)):
            res = oracle_eval("recip-product", Params(k, nu), [x, 100_000])
            assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_pole(self):
        with pytest.raises(PoleHit):
            oracle_eval("gamma-integral", Params(1, 1), [-1.0])


class TestBetaTargets:
    @pytest.mark.parametrize("target", ["beta-unit-integral", "beta-scaled-integral"])
    def test_matches_fast_path(self, target):
        for p in (Params(1, 1), Params(2, 3), Params(0.5, 2), Params(3, 0.5)):
            for ux, uy in ((0.3, 0.8), (1.2, 0.5), (3.0, 2.0)):
                res = oracle_eval(target, p, [ux * p.c, uy * p.c])
                want = beta_knu(p, ux * p.c, uy * p.c)
                assert res.value == pytest.approx(want, rel=1e-8)

    def test_flat_case(self):
        res = oracle_eval("beta-unit-integral", Params(2, 3), [6.0, 6.0])
        assert res.value == pytest.approx(1.5, rel=1e-9)

    def test_double_endpoint_singularity(self):
        # both endpoints singular for x/c, y/c in [0.2, 1)
        p = Params(2.0, 3.0)
        for ux, uy in ((0.2, 0.3), (0.25, 0.9), (0.5, 0.2)):
            res = oracle_eval("beta-unit-integral", p, [ux * p.c, uy * p.c])
            assert res.converged
            assert res.value == pytest.approx(beta_knu(p, ux * p.c, uy * p.c), rel=1e-7)


class TestPsiTargets:
    @pytest.mark.parametrize("target", ["psi-integral", "psi-log-integral"])
    def test_matches_fast_path(self, target):
        for p in (Params(1, 1), Params(2, 3), Params(0.5, 2)):
            for u in (0.3, 1.0, 2.5, 7.0):
                res = oracle_eval(target, p, [u * p.c])
                want = psi_knu(p, u * p.c)
                assert abs(res.value - want) <= 1e-7 * max(1.0, abs(want))

    def test_polygamma_integral(self):
        for p in (Params(1, 1), Params(2, 3)):
            for m in (1, 2, 3):
                for u in (0.4, 1.0, 2.5):
                    res = oracle_eval("polygamma-integral", p, [m, u * p.c])
                    want = polygamma_knu(p, m, u * p.c)
                    assert res.value == pytest.approx(want, rel=1e-7)


class TestZetaTargets:
    def test_zeta_integral(self):
        for p in (Params(1, 1), Params(2, 3), Params(0.5, 2)):
            for u in (1.3, 2.0, 4.0):
                res = oracle_eval("zeta-integral", p, [u * p.c])
                assert res.value == pytest.approx(zeta_knu(p, u * p.c), rel=1e-7)

    def test_hurwitz_integral(self):
        for p in (Params(1, 1), Params(2, 3)):
            for ux, us in ((0.5, 1.5), (1.0, 2.0), (2.0, 3.0)):
                res = oracle_eval("hurwitz-integral", p, [ux * p.c, us * p.c])
                want = hurwitz_knu(p, ux * p.c, us * p.c)
                assert res.value == pytest.approx(want, rel=1e-7)

    def test_domains(self):
        with pytest.raises(DivergentSeries):
            oracle_eval("zeta-integral", Params(1, 1), [0.8])
        with pytest.raises(DivergentSeries):
            oracle_eval("hurwitz-integral", Params(1, 1), [1.0, 0.9])


class TestSineIntegral:
    def test_at_half(self):
        res = oracle_eval("sine-integral", None, [0.5])
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_sweep(self):
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            res = oracle_eval("sine-integral", None, [x])
            assert res.value == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DivergentSeries):
            oracle_eval("sine-integral", None, [1.0])


class TestEffortAccounting:
    def test_integral_effort_counts_evaluations(self):
        res = oracle_eval("gamma-integral", Params(1, 1), [0.7])
        assert res.effort >= 30 and res.effort % 15 == 0

    def test_series_effort_counts_terms(self):
        res = oracle_eval("gamma-limit", Params(1, 1), [1.5, 1024])
        assert res.effort == 1024 + 512


def _two_pass_limit(p, x, n):
    """The limit target as two chunked passes, one per truncation
    length, each chunk's terms built from fresh arrays."""
    import numpy as np

    c, u = p.c, x / p.c

    def log_value(m):
        total, j0 = 0.0, 1
        while j0 <= m:
            j1 = min(m, j0 + oracle._CHUNK - 1)
            j = np.arange(j0, j1 + 1, dtype=np.float64)
            first_overflows = j0 == 1 and math.isinf(c / x)
            flag = "ignore" if first_overflows else None
            with np.errstate(over=flag, divide=flag):
                if math.isinf(j1 * c) or math.isinf(x + (j1 - 1.0) * c):
                    terms = np.log(j / (u + (j - 1.0)))
                else:
                    terms = np.log(j * c / (x + (j - 1.0) * c))
            if first_overflows:
                terms[0] = math.log(c) - math.log(x)
            total += float(terms.sum())
            j0 = j1 + 1
        return total + (u - 1.0) * (math.log(m) + math.log(p.r))

    value, half = math.exp(log_value(n)), math.exp(log_value(n // 2))
    return value, abs(value - half), n + n // 2, True


def _two_pass_product(p, x, n):
    """The product target as two chunked passes, one per truncation
    length, each chunk's terms built from fresh arrays."""
    import numpy as np

    def tail(m):
        total, j0 = 0.0, 1
        while j0 <= m:
            j1 = min(m, j0 + oracle._CHUNK - 1)
            w = x / (np.arange(j0, j1 + 1, dtype=np.float64) * p.c)
            total += float((np.log1p(w) - w).sum())
            j0 = j1 + 1
        return total

    u = x / p.c
    log_pref = (u - 1.0) * math.log(p.nu) - u * math.log(p.k)
    x_nu = x / p.nu
    log_x_nu = math.log(x_nu) if x_nu >= sys.float_info.min else math.log(x) - math.log(p.nu)
    log_pref += log_x_nu + EULER_GAMMA * u
    value = math.exp(log_pref + tail(n))
    half = math.exp(log_pref + tail(max(1, n // 2)))
    return value, abs(value - half), n + n // 2, True


@pytest.mark.parametrize("n", [2, 3, 8, 15, 16, 17, 33])
@pytest.mark.parametrize("p,x", [(Params(1, 1), 1.5), (Params(2, 3), 0.7), (Params(0.5, 2), 4.5)])
def test_one_pass_sums_match_two_passes(monkeypatch, p, x, n):
    # with 8-term chunks, n // 2 falls before, on and after a chunk end
    monkeypatch.setattr(oracle, "_CHUNK", 8)
    assert oracle._gamma_limit(p, x, n) == _two_pass_limit(p, x, n)
    assert oracle._recip_product(p, x, n) == _two_pass_product(p, x, n)


def _bits(fn, *args):
    """The hex digits of each float ``fn`` returns, or the error it raises."""
    try:
        return [v.hex() if isinstance(v, float) else v for v in fn(*args)]
    except ArithmeticError as exc:
        return type(exc).__name__


def _series_draws():
    import numpy as np

    rng = np.random.default_rng(20261020)
    for _ in range(40):
        k, nu, u = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=3))
        p = Params(float(k), float(nu))
        yield p, float(u) * p.c, int(np.exp(rng.uniform(np.log(2), np.log(5000))))
    yield Params(1e3, 1e3), 5e-324, 500  # the first term c/x overflows
    yield Params(1e200, 1e-100), 1e-250, 3000  # ... and the value, ~1e50, does not
    yield Params(1e154, 1e154), 1.0, 3000  # j c overflows from j = 2
    yield Params(1e154, 1e154), 5e-324, 3000  # both
    yield Params(1e-100, 1e200), 1e-300, 3000  # x / nu underflows to 0


@pytest.mark.parametrize("chunk,block", [(1 << 20, 1 << 15), (256, 100), (1000, 1000)])
def test_in_place_series_terms_keep_their_bits(monkeypatch, chunk, block):
    # small chunks and blocks put block ends inside a chunk and chunk ends
    # inside the half-length sum
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    with warnings.catch_warnings():
        # the product's j c overflows to inf where c is near DBL_MAX, and
        # numpy warns; its terms are then 0, on both sides
        warnings.simplefilter("ignore", RuntimeWarning)
        for p, x, n in _series_draws():
            assert _bits(oracle._gamma_limit, p, x, n) == _bits(_two_pass_limit, p, x, n), (p, x, n)
            assert _bits(oracle._recip_product, p, x, n) == _bits(_two_pass_product, p, x, n), (p, x, n)


def test_oracle_imports_no_fast_path():
    """The oracle shares no code with the fast paths it polices: of the
    package it imports only constants, errors and params."""
    with open(oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {alias.name for alias in node.names}
    assert relative == {"constants", "errors", "params"}  # ``from . import x`` reads None
    assert not [name for name in absolute if name.split(".")[0] == "knugamma"]
