"""Oracle evaluators against closed forms and the fast paths they are
meant to police."""

import ast
import math
import sys

import pytest

import reference as ref
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

    # the oracle-zeta-integral check's points
    @pytest.mark.parametrize("p", [Params(1, 1), Params(2, 3), Params(0.5, 2), Params(3, 0.5)])
    @pytest.mark.parametrize("u", [1.3, 2.0, 3.0, 6.0, 11.0])
    def test_zeta_is_hurwitz_at_x_equal_c(self, p, u):
        x = u * p.c
        assert oracle_eval("zeta-integral", p, [x]) == oracle_eval("hurwitz-integral", p, [p.c, x])

    def test_zeta_and_hurwitz_at_x_equal_c_overflow_alike(self):
        p = Params(1e-5, 1)
        with pytest.raises(Overflow):
            oracle_eval("zeta-integral", p, [1e-3])
        with pytest.raises(Overflow):
            oracle_eval("hurwitz-integral", p, [p.c, 1e-3])

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


class TestSeriesRange:
    def test_log_sum_beyond_the_doubles_reads_0(self):
        # the head's partial sums, about -u H_j at u = 1e308, leave the
        # doubles; the truncated value 1/Gamma(1e308) underflows to 0
        res = oracle_eval("recip-product", Params(1e-3, 1e-3), [1e302, 100_000])
        assert (res.value, res.err_estimate, res.converged) == (0.0, 0.0, True)

    def test_log_of_minus_inf_plus_inf_is_overflow(self):
        # the log sum reads -inf and the prefactor (1 - u) ln r reads +inf
        with pytest.raises(Overflow):
            oracle_eval("recip-product", Params(1e-3, 1.0), [1e305, 1000])


class TestEffortAccounting:
    def test_integral_effort_counts_evaluations(self):
        res = oracle_eval("gamma-integral", Params(1, 1), [0.7])
        assert res.effort >= 30 and res.effort % 15 == 0

    def test_series_effort_counts_terms(self):
        # 32 head terms, 10 Gauss-Legendre nodes on each of 4 (n = 1024)
        # and 3 (n = 512) panels, and 2 end values; below 33 terms, each
        res = oracle_eval("gamma-limit", Params(1, 1), [1.5, 1024])
        assert res.effort == (32 + 40 + 2) + (32 + 30 + 2)
        res = oracle_eval("recip-product", Params(1, 1), [1.5, 40])
        assert res.effort == (32 + 10 + 2) + 20


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


# In units of 2^-53 max(1, |ln value|) over _series_draws, the
# Euler-Maclaurin sums read 18 (limit) and 710 (product); a direct sum
# of every term reads 370 and 1337, and meets the bounds too.  The
# product's error is the rounding of ln r, times u, in its prefactor.
SERIES_BOUND = {"gamma-limit": 512, "recip-product": 2048}


@pytest.mark.parametrize("target", sorted(SERIES_BOUND))
def test_series_targets_match_closed_forms(target):
    # the closed form at the exact u = x/c and r = k/nu
    log_value = ref.log_gamma_limit if target == "gamma-limit" else ref.log_recip_product
    log_max, log_min = math.log(sys.float_info.max), math.log(sys.float_info.min)
    for p, x, n in _series_draws():
        for m in (n, n // 2):
            if m < (2 if target == "gamma-limit" else 1):
                continue
            want = float(log_value(ref.exact(x, p.c), ref.exact(p.k, p.nu), m))
            try:
                value = oracle_eval(target, p, [x, m]).value
            except Overflow:
                assert want > log_max, (p, x, m, want)
                continue
            if value < sys.float_info.min:  # below the normal doubles, or 0
                assert want < log_min + 1.0, (p, x, m, want, value)
                continue
            units = abs(math.log(value) - want) / (2**-53 * max(1.0, abs(want)))
            assert units <= SERIES_BOUND[target], (p, x, m, units)


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
