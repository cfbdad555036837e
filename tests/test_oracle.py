"""Oracle evaluators against closed forms and the fast paths they are
meant to police."""

import math

import pytest

from knugamma import (
    DivergentSeries,
    EvalControl,
    Overflow,
    Params,
    PoleHit,
    beta_knu,
    gamma_knu,
    hurwitz_knu,
    oracle_eval,
    polygamma_knu,
    psi_knu,
    zeta_knu,
)

SQRT_32_PI = 2.1708037636748028


class TestControls:
    def test_defaults(self):
        ctrl = EvalControl()
        assert ctrl.abs_tol == 1e-12
        assert ctrl.rel_tol == 1e-9
        assert ctrl.max_subdivisions == 2000
        assert ctrl.max_terms == 10_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalControl(abs_tol=0.0)
        with pytest.raises(ValueError):
            EvalControl(max_subdivisions=0)

    def test_converged_implies_within_tolerance(self):
        ctrl = EvalControl()
        res = oracle_eval("gamma-integral", Params(2, 3), [4.0], ctrl)
        assert res.converged
        assert res.err_estimate <= max(ctrl.abs_tol, ctrl.rel_tol * abs(res.value))

    def test_budget_exhaustion_reports_not_converged(self):
        ctrl = EvalControl(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
        res = oracle_eval("beta-unit-integral", Params(0.5, 2.0), [0.3, 0.4], ctrl)
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
