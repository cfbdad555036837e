"""Randomized cross-validation against 40-digit references.

Seeded sweeps over (k, nu, x) compare every fast path with an mpmath
evaluation of its closed-form reduction; the contracts under test are
the module accuracy guarantees (1e-12 relative for Gamma, 1e-11 for
Psi/zeta), with plenty of margin expected.  Each reference sets its own
precision with ``mp.workdps``, so none leaks into other test modules;
the Hurwitz ones take the digits of ``accuracy._zeta_dps``, since
mpmath's Hurwitz zeta loses about as many as q^-s has leading zeros.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from accuracy import _zeta_dps
from knugamma import (
    Params,
    beta_knu,
    hurwitz_knu,
    log_beta_knu,
    log_gamma_knu,
    polygamma_knu,
    psi_knu,
    zeta_knu,
)

DPS = 40

N_SAMPLES = 150


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(20250811)
    out = []
    for _ in range(N_SAMPLES):
        k = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        nu = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        u = float(np.exp(rng.uniform(np.log(1e-2), np.log(50.0))))
        out.append((Params(k, nu), u))
    return out


def test_log_gamma_sweep(samples):
    worst = 0.0
    for p, u in samples:
        x = u * p.c
        with mp.workdps(DPS):
            ref = float((u - 1) * mp.log(mp.mpf(p.k) / p.nu) + mp.loggamma(mp.mpf(x) / p.c))
        got = log_gamma_knu(p, x)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst < 1e-13


def test_beta_sweep(samples):
    worst = 0.0
    for (p, u), (_, u2) in zip(samples[::2], samples[1::2]):
        x, y = u * p.c, u2 * p.c
        with mp.workdps(DPS):
            ref = float(
                mp.log(mp.mpf(p.nu) / p.k)
                + mp.log(mp.beta(mp.mpf(x) / p.c, mp.mpf(y) / p.c))
            )
        got = log_beta_knu(p, x, y)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst < 1e-12


def test_psi_sweep(samples):
    worst = 0.0
    for p, u in samples:
        x = u * p.c
        with mp.workdps(DPS):
            ref = float((mp.log(mp.mpf(p.k) / p.nu) + mp.digamma(mp.mpf(x) / p.c)) / p.c)
        got = psi_knu(p, x)
        worst = max(worst, abs(got - ref) / max(1.0 / p.c, abs(ref)))
    assert worst < 1e-12


def test_polygamma_sweep(samples):
    worst = 0.0
    for i, (p, u) in enumerate(samples):
        m = 1 + i % 4
        x = u * p.c
        with mp.workdps(DPS):
            ref = float(mp.polygamma(m, mp.mpf(x) / p.c) / mp.mpf(p.c) ** (m + 1))
        got = polygamma_knu(p, m, x)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-11


def test_zeta_sweep(samples):
    worst = 0.0
    for p, u in samples:
        s = (1.0 + u) * p.c  # keep the reduced exponent above 1
        with mp.workdps(DPS):
            ref = float(mp.mpf(p.c) ** (-(s / p.c)) * mp.zeta(mp.mpf(s) / p.c))
        got = zeta_knu(p, s)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-11


def test_hurwitz_sweep(samples):
    worst = 0.0
    for (p, u), (_, u2) in zip(samples[::2], samples[1::2]):
        x = u * p.c
        s = (1.0 + u2) * p.c
        sc = s / p.c
        with mp.workdps(_zeta_dps(sc, x / p.c, -sc * math.log10(x))):
            ref = float(mp.mpf(p.c) ** (-sc) * mp.zeta(mp.mpf(sc), mp.mpf(x) / p.c))
        got = hurwitz_knu(p, x, s)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-10


def test_beta_positive_everywhere(samples):
    for (p, u), (_, u2) in zip(samples[::3], samples[1::3]):
        assert beta_knu(p, u * p.c, u2 * p.c) > 0.0


def test_reentrancy_under_threads():
    # pure functions: concurrent evaluation must match serial results
    from concurrent.futures import ThreadPoolExecutor

    p = Params(2.0, 3.0)
    xs = [0.3 + 0.37 * i for i in range(64)]
    serial = [(log_gamma_knu(p, x), psi_knu(p, x), polygamma_knu(p, 2, x)) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(
            pool.map(lambda x: (log_gamma_knu(p, x), psi_knu(p, x), polygamma_knu(p, 2, x)), xs)
        )
    assert serial == threaded
