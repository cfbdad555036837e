"""Randomized cross-validation against mpmath references.

Seeded sweeps over (k, nu, x) compare every fast path with the
``reference`` module's evaluation of its closed-form reduction, at the
exact quotients x/c and k/nu (the zeta exponents s/c as the function
rounds them); the contracts under test are the module accuracy
guarantees (1e-12 relative for Gamma, 1e-11 for Psi/zeta), with plenty
of margin expected.
"""

import numpy as np
import pytest

import reference as ref
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
        want = float(ref.log_gamma_knu(ref.exact(x, p.c), ref.exact(p.k, p.nu)))
        got = log_gamma_knu(p, x)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-13


def test_beta_sweep(samples):
    worst = 0.0
    for (p, u), (_, u2) in zip(samples[::2], samples[1::2]):
        x, y = u * p.c, u2 * p.c
        want = float(ref.log_beta_knu(ref.exact(x, p.c), ref.exact(y, p.c), ref.exact(p.k, p.nu)))
        got = log_beta_knu(p, x, y)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-12


def test_psi_sweep(samples):
    worst = 0.0
    for p, u in samples:
        x = u * p.c
        want = float(ref.psi_knu(ref.exact(x, p.c), ref.exact(p.k, p.nu), ref.mpf(p.c)))
        got = psi_knu(p, x)
        worst = max(worst, abs(got - want) / max(1.0 / p.c, abs(want)))
    assert worst < 1e-12


def test_polygamma_sweep(samples):
    worst = 0.0
    for i, (p, u) in enumerate(samples):
        m = 1 + i % 4
        x = u * p.c
        want = float(ref.polygamma_knu(m, ref.exact(x, p.c), ref.mpf(p.c)))
        got = polygamma_knu(p, m, x)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-11


def test_zeta_sweep(samples):
    worst = 0.0
    for p, u in samples:
        s = (1.0 + u) * p.c  # keep the reduced exponent above 1
        want = float(ref.zeta_knu(ref.rounded(s, p.c), ref.mpf(p.c)))
        got = zeta_knu(p, s)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-11


def test_hurwitz_sweep(samples):
    worst = 0.0
    for (p, u), (_, u2) in zip(samples[::2], samples[1::2]):
        x = u * p.c
        s = (1.0 + u2) * p.c
        want = float(ref.hurwitz_knu(ref.rounded(s, p.c), ref.exact(x, p.c), ref.mpf(p.c)))
        got = hurwitz_knu(p, x, s)
        worst = max(worst, abs(got - want) / abs(want))
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
