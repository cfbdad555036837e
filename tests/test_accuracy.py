"""Accuracy gate: a fixed-seed sample of ``accuracy.py`` against
mpmath, with one max-ulp bound per function, group and band.

A later change may lower a bound, never raise it.
"""

import pytest

import accuracy

# draws per group and band: about a second per polygamma function and
# 0.2 to 2 s per zeta, whose references take 200 digits or more
DRAWS = {"polygamma_knu": 20, "polygamma": 20, "log_gamma_knu": 2000, "log_beta_knu": 2000}
ZETA_DRAWS = 8

# the worst of both polygamma functions over 2000 draws per order and
# band (seed 1), rounded up: the rounding of z = u + j and of u/z,
# raised to the power e = m or m + 1, costs up to about e/2 ulp
_POLYGAMMA = {1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 10: 7, 30: 12, 100: 29, 150: 51}
_POLYGAMMA_BOUNDS = {(m, band): bound for m, bound in _POLYGAMMA.items() for band in accuracy.BANDS}
# function -> {(group, band): max raw ulps}.  The zeta bounds are the
# worst error of the series before its threshold shift and Horner tail
# (a fixed 25 + s/2 direct terms, the Bernoulli terms summed forward)
# over 1000 draws per group and band (seed 1), rounded up, so that the
# series is graded against the one it replaced.
ZETA_RIEMANN = {(0.01, None): 2, (20.0, None): 2, (400.0, None): 1}
ZETA_KNU = {(0.01, None): 3, (20.0, None): 3, (400.0, None): 2}
ZETA_HURWITZ = {
    (0.01, 3): 2, (0.01, 8): 2, (0.01, 15): 2,
    (20.0, 3): 8, (20.0, 8): 12, (20.0, 15): 8,
    (400.0, 3): 17, (400.0, 8): 32, (400.0, 15): 6,
}
# x/c near 1 with s/c up to 400: where c^(-s/c) or zeta(s/c, x/c)
# leaves the doubles, the log-space sum exponentiates -(s/c) ln x + ln S,
# and the rounding of (s/c) ln x, up to ~600, costs hundreds of ulp
HURWITZ_KNU = {
    (0.01, 3): 3, (0.01, 8): 4, (0.01, 15): 3,
    (20.0, 3): 10, (20.0, 8): 12, (20.0, 15): 16,
    (400.0, 3): 500, (400.0, 8): 987, (400.0, 15): 707,
}
# the worst over 2000 draws per cell at seeds 0 and 1, rounded up to two
# digits.  Raw ulps of a sum that cancels: near a zero of
# (u - 1) ln r + ln Gamma(u) for ln Gamma_{k,nu}; for ln B_{k,nu}, with
# (group, band) = (y/c, x/c) bands, where x >> y or y >> x cancels its terms
LOG_GAMMA_KNU = {(None, 3): 1800, (None, 8): 7600}
LOG_BETA_KNU = {(3, 3): 540_000, (3, 8): 1.3e10, (8, 3): 1.2e10, (8, 8): 9.3e10}
BOUNDS = {
    "log_gamma_knu": LOG_GAMMA_KNU,
    "log_beta_knu": LOG_BETA_KNU,
    "polygamma_knu": _POLYGAMMA_BOUNDS,
    "polygamma": _POLYGAMMA_BOUNDS,
    "riemann_zeta": ZETA_RIEMANN,
    "hurwitz_zeta": ZETA_HURWITZ,
    "zeta_knu": ZETA_KNU,
    "hurwitz_knu": HURWITZ_KNU,
}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_max_ulp_within_bound(name):
    over, errors = [], []
    for (group, band), t in accuracy.score(name, DRAWS.get(name, ZETA_DRAWS)).items():
        if not (t["max_ulp"] <= BOUNDS[name][group, band]):
            over.append((group, band, t["max_ulp"], t["worst"]))
        if t["errors"]:
            errors.append((group, band, t["errors"]))
    assert not over, over
    assert not errors, errors
