"""Deformed digamma/polygamma: point values, identities, the PDE
residual check, and the inequality family."""

import math

import pytest

from knugamma import (
    EULER_GAMMA,
    DomainWindow,
    Params,
    PoleHit,
    log_gamma_knu,
    pde_residuals,
    polygamma_knu,
    psi_knu,
    psi_shift_sum,
)

PI2_6 = math.pi**2 / 6.0
GRID_PARAMS = [Params(k, nu) for k in (0.5, 1.0, 2.0, 3.0) for nu in (0.5, 1.0, 2.0, 3.0)]
GRID_X = (0.4, 1.1, 2.5, 6.0)


def _rel(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestPsiValues:
    def test_classical_one(self):
        assert psi_knu(Params(1, 1), 1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)

    def test_classical_two(self):
        assert psi_knu(Params(1, 1), 2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-13)

    def test_deformed_at_c(self):
        # (1/6)(ln(2/3) - gamma)
        want = (math.log(2.0 / 3.0) - EULER_GAMMA) / 6.0
        assert psi_knu(Params(2, 3), 6.0) == pytest.approx(want, rel=1e-13)

    def test_pole(self):
        with pytest.raises(PoleHit):
            psi_knu(Params(1, 1), 0.0)


class TestPolygammaKnu:
    def test_classical_basel(self):
        assert polygamma_knu(Params(1, 1), 1, 1.0) == pytest.approx(PI2_6, rel=1e-12)

    def test_deformed_scaling(self):
        # sum 1/(6+6n)^2 = zeta(2)/36
        assert polygamma_knu(Params(2, 3), 1, 6.0) == pytest.approx(PI2_6 / 36.0, rel=1e-12)

    def test_classical_m2(self):
        want = -2.0 * 1.2020569031595943
        assert polygamma_knu(Params(1, 1), 2, 1.0) == pytest.approx(want, rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleHit):
            polygamma_knu(Params(1, 1), 1, -3.0)


class TestShiftSum:
    def test_single_term(self):
        assert psi_shift_sum(Params(2, 3), 5.0, 0) == pytest.approx(0.2, rel=1e-15)

    def test_harmonic(self):
        assert psi_shift_sum(Params(1, 1), 1.0, 2) == pytest.approx(11.0 / 6.0, rel=1e-15)

    def test_strided(self):
        assert psi_shift_sum(Params(2, 3), 6.0, 1) == pytest.approx(0.25, rel=1e-15)

    def test_matches_psi_difference(self):
        for p in GRID_PARAMS:
            for x in GRID_X:
                for n in (0, 2, 5):
                    got = psi_shift_sum(p, x, n)
                    want = psi_knu(p, x + (n + 1) * p.c) - psi_knu(p, x)
                    assert _rel(got, want) <= 1e-11

    @pytest.mark.parametrize(
        "k,nu,x,n", [(1, 1, 0.4, 1000), (0.5, 3, 1.1, 200), (2, 3, 2.5, 50), (1, 1, 1e-3, 10)]
    )
    def test_sums_left_to_right(self, k, nu, x, n):
        # points where a compensated sum (math.fsum, or the builtin sum()
        # since Python 3.12) rounds differently, so the check's max_dev
        # stays the same on every Python version
        p = Params(k, nu)
        terms = [1.0 / (x + j * p.c) for j in range(n + 1)]
        total = 0.0
        for term in terms:
            total += term
        assert psi_shift_sum(p, x, n) == total != math.fsum(terms)


class TestPsiIdentities:
    def test_reflection(self):
        for p in GRID_PARAMS:
            for i in (1, 2, 3, 5, 6, 7):
                x = p.c * i / 8.0
                lhs = psi_knu(p, x) - psi_knu(p, p.c - x)
                rhs = -(math.pi / p.c) / math.tan(math.pi * x / p.c)
                assert _rel(lhs, rhs, 1.0 / p.c) <= 1e-10

    def test_duplication(self):
        for p in GRID_PARAMS:
            for x in GRID_X:
                lhs = psi_knu(p, 2.0 * x)
                rhs = (
                    math.log(2.0) / p.c
                    + 0.5 * psi_knu(p, x)
                    + 0.5 * psi_knu(p, x + 0.5 * p.c)
                )
                assert _rel(lhs, rhs, 1.0 / p.c) <= 1e-10

    def test_limit_toward_log_ratio(self):
        for k, nu in ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
            p = Params(k, nu)
            target = math.log(p.r) / p.c
            gaps = []
            for n in (1000, 10_000, 100_000):
                gap = abs(psi_knu(p, 1.0 + (n + 1) * p.c) - math.log(n) / p.c - target)
                gaps.append(gap)
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-3


class TestPdeResiduals:
    @pytest.mark.parametrize(
        "k,nu,x", [(1.0, 1.0, 1.0), (2.0, 3.0, 4.5), (0.5, 2.0, 7.0)]
    )
    def test_residuals_small(self, k, nu, x):
        res = pde_residuals(Params(k, nu), x, step=1e-4)
        assert abs(res.res_k) <= 1e-4
        assert abs(res.res_nu) <= 1e-4
        assert res.step == 1e-4

    def test_residual_shrinks_with_step(self):
        p = Params(2.0, 3.0)
        r_coarse = pde_residuals(p, 4.5, step=1e-2)
        r_fine = pde_residuals(p, 4.5, step=1e-3)
        assert abs(r_fine.res_k) < abs(r_coarse.res_k)

    def test_stencil_domain_guard(self):
        with pytest.raises(PoleHit):
            pde_residuals(Params(1, 1), 0.5, step=0.6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            pde_residuals(Params(1, 1), 1.0, step=0.0)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
    def test_bad_step_is_a_typed_error(self, step):
        with pytest.raises(DomainWindow):
            pde_residuals(Params(1, 1), 1.0, step=step)


def _pg(p, order, x):
    if order == -1:
        return log_gamma_knu(p, x)
    if order == 0:
        return psi_knu(p, x)
    return polygamma_knu(p, order, x)


class TestPolygammaShape:
    def test_sign_and_monotonicity_table(self):
        xs = (0.4, 0.9, 1.6, 2.5, 3.9, 6.0)
        for p in GRID_PARAMS[::3]:
            for m in (1, 2, 3, 4, 5):
                vals = [polygamma_knu(p, m, x) for x in xs]
                sign = 1.0 if m % 2 == 1 else -1.0
                assert all(sign * v > 0.0 for v in vals)
                diffs = [b - a for a, b in zip(vals, vals[1:])]
                if m % 2 == 0:
                    assert all(d > 0.0 for d in diffs)  # increasing
                else:
                    assert all(d < 0.0 for d in diffs)  # decreasing
                second = [b - a for a, b in zip(diffs, diffs[1:])]
                if m % 2 == 0:
                    assert all(s < 0.0 for s in second)  # concave
                else:
                    assert all(s > 0.0 for s in second)  # convex

    def test_psi_increasing(self):
        for p in GRID_PARAMS[::5]:
            xs = (0.2, 0.7, 1.3, 2.4, 5.0, 11.0)
            vals = [psi_knu(p, x) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPolygammaInequalities:
    def _pairs(self):
        for x in GRID_X:
            for y in GRID_X:
                if x < y:
                    yield x, y

    def test_midpoint_bounds(self):
        for p in GRID_PARAMS[::3]:
            for x, y in self._pairs():
                mid = 0.5 * (x + y)
                for m in (1, 2):
                    slope = (_pg(p, 2 * m - 1, y) - _pg(p, 2 * m - 1, x)) / (y - x)
                    assert slope <= _pg(p, 2 * m, mid) * (1 + 1e-12) + 1e-12
                    slope2 = (_pg(p, 2 * m, y) - _pg(p, 2 * m, x)) / (y - x)
                    assert _pg(p, 2 * m + 1, mid) <= slope2 + 1e-12 * max(1.0, abs(slope2))

    def test_trapezoid_bounds(self):
        for p in GRID_PARAMS[::3]:
            for x, y in self._pairs():
                for m in (0, 1, 2):
                    avg = 0.5 * (_pg(p, 2 * m, x) + _pg(p, 2 * m, y))
                    slope = (_pg(p, 2 * m - 1, y) - _pg(p, 2 * m - 1, x)) / (y - x)
                    assert avg <= slope + 1e-12 * max(1.0, abs(slope))
                    slope2 = (_pg(p, 2 * m, y) - _pg(p, 2 * m, x)) / (y - x)
                    avg2 = 0.5 * (_pg(p, 2 * m + 1, x) + _pg(p, 2 * m + 1, y))
                    assert slope2 <= avg2 + 1e-12 * max(1.0, abs(avg2))

    def test_power_ratio_monotonicity(self):
        # positive-base guard: the even-order (order 0) form only where
        # all four Psi values are positive; odd orders unconditionally
        skipped = 0
        tested = 0
        for r in (1.5, 2.0):
            for p in GRID_PARAMS[::4]:
                for theta in (0.0, 1.0):
                    for x, y in ((0.5, 0.7), (1.5, 2.0), (3.0, 0.7)):
                        vals = [
                            psi_knu(p, theta + x),
                            psi_knu(p, theta + r * x),
                            psi_knu(p, theta + x + y),
                            psi_knu(p, theta + r * (x + y)),
                        ]
                        if all(v > 0 for v in vals):
                            lhs = vals[0] ** r / vals[1]
                            rhs = vals[2] ** r / vals[3]
                            assert lhs <= rhs * (1 + 1e-10)
                            tested += 1
                        else:
                            skipped += 1
                        o = 1  # first odd order
                        lhs = polygamma_knu(p, o, theta + x + y) ** r / polygamma_knu(
                            p, o, theta + r * (x + y)
                        )
                        rhs = polygamma_knu(p, o, theta + x) ** r / polygamma_knu(
                            p, o, theta + r * x
                        )
                        assert lhs <= rhs * (1 + 1e-10)
                        tested += 1
        assert tested > 0 and skipped > 0  # the guard does fire

    def test_power_ratio_reversed_for_small_r(self):
        r = 0.5
        for p in GRID_PARAMS[::4]:
            for theta in (0.0, 1.0):
                for x, y in ((0.5, 0.7), (1.5, 2.0)):
                    vals = [
                        psi_knu(p, theta + x),
                        psi_knu(p, theta + r * x),
                        psi_knu(p, theta + x + y),
                        psi_knu(p, theta + r * (x + y)),
                    ]
                    if all(v > 0 for v in vals):
                        lhs = vals[2] ** r / vals[3]
                        rhs = vals[0] ** r / vals[1]
                        assert lhs <= rhs * (1 + 1e-10)
                    lhs = polygamma_knu(p, 1, theta + x) ** r / polygamma_knu(
                        p, 1, theta + r * x
                    )
                    rhs = polygamma_knu(p, 1, theta + x + y) ** r / polygamma_knu(
                        p, 1, theta + r * (x + y)
                    )
                    assert lhs <= rhs * (1 + 1e-10)
