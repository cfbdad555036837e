"""Check-suite internals that the acceptance gate sees only through
verdicts."""

import math

import numpy as np

from knugamma import Params, beta_knu, checks


def _beta_product_truncation_direct(g):
    """The check as a direct triple loop: three fresh log1p arrays per
    ordered (x, y) cell."""
    n_factors = 100_000
    j = np.arange(1, n_factors + 1, dtype=np.float64)
    dev, n = 0.0, 0
    for p in g.params:
        inv_jc = 1.0 / (j * p.c)
        for x in g.xs:
            for y in g.xs:
                log_prod = float(
                    (
                        np.log1p((x + y) * inv_jc)
                        - np.log1p(x * inv_jc)
                        - np.log1p(y * inv_jc)
                    ).sum()
                )
                approx = (x + y) / (x * y) * p.nu**2 * math.exp(log_prod)
                envelope = max(1e-3, 2.0 * x * y / (p.c**2 * n_factors))
                dev = max(dev, checks._rel(approx, beta_knu(p, x, y)) / envelope)
                n += 1
    return checks._make("beta-product-truncation", dev, g.tol(1.0), n)


def test_beta_product_truncation_matches_direct_loop():
    # a repeated x exercises the shared (x, y)/(y, x) buffers
    g = checks._Grid([Params(0.5, 2.0), Params(3.0, 1.0)], (0.4, 2.5, 2.5, 6.0))
    got = checks.check_beta_product_truncation(g)
    assert got == _beta_product_truncation_direct(g)
    assert got.points == 32
