"""Deformed Gamma: point values, identities, the overflow-safe
carrier, and the Stirling approximation."""

import math

import pytest

from knugamma import (
    GammaValue,
    NonPositiveArgument,
    Overflow,
    Params,
    PoleHit,
    gamma_knu,
    log_gamma_knu,
    oracle_eval,
    param_transform,
    pochhammer,
    stirling_approx,
)

SQRT_32_PI = 2.1708037636748028  # sqrt(3/2) * sqrt(pi)


class TestParams:
    def test_derived_fields(self):
        p = Params(2.0, 3.0)
        assert p.c == 6.0 and p.r == 2.0 / 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            Params(0.0, 1.0)
        with pytest.raises(NonPositiveArgument):
            Params(1.0, -2.0)

    def test_frozen(self):
        p = Params(1.0, 1.0)
        with pytest.raises(Exception):
            p.k = 5.0


class TestGammaKnu:
    def test_classical_one(self):
        assert gamma_knu(Params(1, 1), 1.0).value == pytest.approx(1.0, rel=1e-14)

    def test_value_one_at_c(self):
        assert gamma_knu(Params(2, 3), 6.0).value == pytest.approx(1.0, rel=1e-14)

    def test_half_c_value(self):
        # G(c/2) = sqrt(nu/k) * sqrt(pi)
        assert gamma_knu(Params(2, 3), 3.0).value == pytest.approx(SQRT_32_PI, rel=1e-13)

    def test_log_consistency(self):
        gv = gamma_knu(Params(0.5, 2.0), 4.2)
        assert isinstance(gv, GammaValue)
        assert abs(math.log(gv.value) - gv.log_value) <= 1e-12 * max(1.0, abs(gv.log_value))

    def test_overflow_carrier(self):
        # linear value saturates to inf, log stays finite
        gv = gamma_knu(Params(1, 1), 500.0)
        assert math.isinf(gv.value) and math.isfinite(gv.log_value)

    def test_pole(self):
        for x in (0.0, -1.0, -6.0):
            with pytest.raises(PoleHit):
                gamma_knu(Params(2, 3), x)

    def test_accuracy_across_scale(self):
        # relative accuracy of the log form over x/c in [1e-3, 1e3]
        import scipy.special as sp

        for k, nu in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
            p = Params(k, nu)
            for u in (1e-3, 0.04, 0.5, 1.0, 17.0, 1e3):
                want = (u - 1.0) * math.log(p.r) + float(sp.gammaln(u))
                got = log_gamma_knu(p, u * p.c)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(5.0, 0, 7.0) == 1.0

    def test_unit_step(self):
        assert pochhammer(1.0, 3, 1.0) == 6.0

    def test_stride(self):
        assert pochhammer(2.0, 2, 3.0) == 10.0

    def test_negative_base_ok(self):
        assert pochhammer(-4.0, 2, 1.0) == 12.0

    def test_overflow(self):
        with pytest.raises(Overflow):
            pochhammer(1e300, 3, 1e300)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1, 1.0)


class TestParamTransform:
    def test_identity_transform(self):
        p = Params(2, 3)
        got = param_transform(p, p, 4.5)
        assert got == pytest.approx(gamma_knu(p, 4.5).value, rel=1e-13)

    def test_unit_point(self):
        assert param_transform(Params(1, 1), Params(2, 3), 6.0) == pytest.approx(1.0, rel=1e-13)

    def test_closed_form_point(self):
        # (2/3)^(1/2) * Gamma(3/2)
        want = math.sqrt(2.0 / 3.0) * math.gamma(1.5)
        assert param_transform(Params(1, 1), Params(2, 3), 9.0) == pytest.approx(want, rel=1e-13)

    def test_agrees_with_direct(self):
        pairs = [
            (Params(1, 1), Params(2, 3)),
            (Params(2, 3), Params(0.5, 2)),
            (Params(3, 0.5), Params(1, 1)),
        ]
        for from_p, to_p in pairs:
            for x in (0.4, 1.1, 2.5, 6.0):
                got = param_transform(from_p, to_p, x)
                want = gamma_knu(to_p, x).value
                assert got == pytest.approx(want, rel=1e-12)


class TestRecipProduct:
    @pytest.mark.parametrize(
        "k,nu,x",
        [(1.0, 1.0, 1.0), (2.0, 3.0, 6.0), (1.0, 1.0, 2.0)],
    )
    def test_unit_values(self, k, nu, x):
        # all three points have Gamma == 1, so the product tends to 1
        got = oracle_eval("recip-product", Params(k, nu), [x, 100_000]).value
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_truncation_error_halves(self):
        p = Params(2.0, 3.0)
        x = 4.0
        exact = 1.0 / gamma_knu(p, x).value
        e1 = abs(oracle_eval("recip-product", p, [x, 20_000]).value - exact)
        e2 = abs(oracle_eval("recip-product", p, [x, 40_000]).value - exact)
        assert 1.7 <= e1 / e2 <= 2.3

    def test_rejects_bad_args(self):
        with pytest.raises(PoleHit):
            oracle_eval("recip-product", Params(1, 1), [-1.0, 10])
        with pytest.raises(ValueError):
            oracle_eval("recip-product", Params(1, 1), [1.0, 0])


class TestStirling:
    def test_classical_ten(self):
        approx = stirling_approx(Params(1, 1), 10.0)
        assert approx == pytest.approx(359869.5618741046, rel=1e-12)
        rel_err = abs(approx - 362880.0) / 362880.0
        assert 0.005 < rel_err < 0.015

    def test_error_shrinks_with_x(self):
        for k, nu in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
            p = Params(k, nu)
            errs = []
            for mult in (10.0, 100.0):
                x = mult * p.c
                exact = math.exp(log_gamma_knu(p, x))
                errs.append(abs(stirling_approx(p, x) - exact) / exact)
            assert errs[1] < errs[0]
            assert errs[0] < 0.015

    def test_positive(self):
        for k, nu, x in ((0.5, 2.0, 0.3), (3.0, 3.0, 40.0), (1.0, 1.0, 1e-3)):
            assert stirling_approx(Params(k, nu), x) > 0.0

    def test_overflow(self):
        with pytest.raises(Overflow):
            stirling_approx(Params(1, 1), 1e6)
