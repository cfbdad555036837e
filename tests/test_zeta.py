"""Deformed zeta functions: reductions, the polygamma bridge, and the
small-offset limit."""

import math

import pytest

from knugamma import (
    DivergentSeries,
    Params,
    PoleHit,
    hurwitz_knu,
    polygamma_knu,
    zeta_knu,
)

PI2_6 = math.pi**2 / 6.0
GRID_PARAMS = [Params(k, nu) for k in (0.5, 1.0, 2.0, 3.0) for nu in (0.5, 1.0, 2.0, 3.0)]
GRID_X = (0.4, 1.1, 2.5, 6.0)


class TestZetaKnu:
    def test_classical_basel(self):
        assert zeta_knu(Params(1, 1), 2.0) == pytest.approx(PI2_6, rel=1e-13)

    def test_deformed_reduction(self):
        # (k nu)^-2 zeta(2) at x = 2 k nu
        assert zeta_knu(Params(2, 3), 12.0) == pytest.approx(PI2_6 / 36.0, rel=1e-13)

    def test_divergence_boundary(self):
        with pytest.raises(DivergentSeries):
            zeta_knu(Params(1, 1), 1.0)
        with pytest.raises(DivergentSeries):
            zeta_knu(Params(2, 3), 6.0)


class TestHurwitzKnu:
    def test_classical(self):
        assert hurwitz_knu(Params(1, 1), 1.0, 2.0) == pytest.approx(PI2_6, rel=1e-13)

    def test_matches_first_polygamma(self):
        got = hurwitz_knu(Params(1, 1), 1.0, 2.0)
        want = polygamma_knu(Params(1, 1), 1, 1.0) / 1.0
        assert got == pytest.approx(want, rel=1e-13)

    def test_deformed(self):
        # sum 1/(6+6n)^2 = zeta(2)/36 = pi^2/216
        assert hurwitz_knu(Params(2, 3), 6.0, 12.0) == pytest.approx(math.pi**2 / 216.0, rel=1e-13)

    @pytest.mark.parametrize(
        "q, sc",
        [
            (886.7585956677735, 9112.476549176192),
            (205.9, 1e4),
            (1e3, 1e4),
            (45615.811893860846, 18793.742439210448),
            (100.0, 250.0),
            (1e5, 5e4),  # q > 6 + s/c: all but the first term is the tail
        ],
    )
    def test_log_space_sum_at_large_s_over_c(self, q, sc):
        # x = 1 and c = 1/q: c^(-s/c) overflows, and the sum
        # S = sum (1 + n c)^(-s/c) is evaluated in log space.  With s/c
        # above 206 the direct terms stop at the cap, not at q + N =
        # 6 + s/c; a base held at 206 instead would leave the Bernoulli
        # terms at (s/c)/base >> 1 and give nan here.  Where the tail is
        # most of S (the last two cases) its log takes ln(q/(s/c - 1))
        # from the quotient: ln q - ln(s/c - 1) costs ulps of ln q.
        import mpmath

        k = math.sqrt(1.0 / q)
        p = Params(k, k)
        s = sc * p.c
        with mpmath.workdps(30):
            c, e = mpmath.mpf(p.c), -mpmath.mpf(s / p.c)
            want, n = mpmath.mpf(0), 0
            while True:
                term = (1 + n * c) ** e
                want += term
                if term < want * mpmath.mpf(10) ** -25:
                    break
                n += 1
        assert hurwitz_knu(p, 1.0, s) == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_domain(self):
        with pytest.raises(PoleHit):
            hurwitz_knu(Params(1, 1), 0.0, 2.0)
        with pytest.raises(DivergentSeries):
            hurwitz_knu(Params(2, 3), 1.0, 6.0)


class TestBridges:
    def test_polygamma_bridge(self):
        for p in GRID_PARAMS:
            for x in GRID_X:
                for m in (1, 2, 3):
                    lhs = hurwitz_knu(p, x, (m + 1) * p.c)
                    sign = 1.0 if m % 2 == 1 else -1.0
                    rhs = sign / math.factorial(m) * polygamma_knu(p, m, x)
                    assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_small_offset_limit(self):
        # Removing the divergent n=0 term by index shift, the remainder
        # approaches zeta_knu linearly in x.
        for p in (Params(1, 1), Params(2, 3), Params(0.5, 0.5)):
            s = 2.0 * p.c
            z = zeta_knu(p, s)
            gaps = []
            for x in (1e-5, 1e-6):
                gaps.append(abs(hurwitz_knu(p, x + p.c, s) - z) / z)
            assert gaps[1] <= 2.2e-6 * max(1.0, 1.0 / p.c)
            assert 8.0 <= gaps[0] / gaps[1] <= 12.0

    def test_hurwitz_recurrence(self):
        for p in GRID_PARAMS[::3]:
            for x in GRID_X:
                s = 2.5 * p.c
                got = hurwitz_knu(p, x, s) - hurwitz_knu(p, x + p.c, s)
                assert got == pytest.approx(x ** (-s / p.c), rel=1e-10)
