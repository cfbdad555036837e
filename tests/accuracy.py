"""Accuracy of the fast paths against 50-digit mpmath, in raw ulps.

Each entry of ``FUNCTIONS`` names a function, its groups (the
polygamma order m), a seeded draw of its arguments per group and
magnitude band, and an mpmath reference.  ``score`` evaluates both on
the same draws and reports, per group and band, the worst error in
ulps of the reference and the arguments where it occurs.  Draws whose
reference lies outside the normal doubles are counted apart and not
scored; typed errors where the reference is a normal double are
counted apart too.  ``test_accuracy.py`` runs a small sample of this
against fixed bounds.

    python tests/accuracy.py [--draws N] [--seed S]    # print the table

The (k, nu) draws take k and nu log-uniform over 1e±2 and x/c
log-uniform over 1e±3, 1e±8 and 1e±15.  The reference is taken at the
exact quotient of the doubles x and c, so the score measures what the
function loses, not the rounding of x/c.
"""

import argparse
import math
import os
import random
import sys

import mpmath

# PYTHONPATH, if set, comes first, so another checkout can be scored
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from knugamma import Params, ScalarDomainError, polygamma_knu, scalar  # noqa: E402

DPS = 50
BANDS = (3, 8, 15)  # x/c log-uniform over 1e±band
ORDERS = (1, 2, 3, 4, 5, 10, 30, 100, 150)


def _loguniform(rng, decades):
    return 10.0 ** rng.uniform(-decades, decades)


def _draw_polygamma_knu(rng, band, m):
    p = Params(_loguniform(rng, 2), _loguniform(rng, 2))
    return p, m, _loguniform(rng, band) * p.c


def _ref_polygamma_knu(p, m, x):
    c = mpmath.mpf(p.c)
    return mpmath.polygamma(m, mpmath.mpf(x) / c) / c ** (m + 1)


def _draw_polygamma(rng, band, m):
    return m, _loguniform(rng, band)


def _ref_polygamma(m, x):
    return mpmath.polygamma(m, mpmath.mpf(x))


# name -> (function, groups, draw(rng, band, group) -> args, reference(*args))
FUNCTIONS = {
    "polygamma_knu": (polygamma_knu, ORDERS, _draw_polygamma_knu, _ref_polygamma_knu),
    "polygamma": (scalar.polygamma, ORDERS, _draw_polygamma, _ref_polygamma),
}


def ulps(got, want):
    """|got - want| in units of the last place of ``want``, a normal double."""
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


def score(name, draws, seed=0):
    """{(group, band): tally} for ``draws`` seeded draws per group and
    band.  A tally holds ``scored``, ``max_ulp``, ``worst`` (the
    arguments of the worst error), ``errors`` (typed errors where the
    reference is a normal double) and ``out_of_range`` (references
    outside the normal doubles, not scored)."""
    fn, groups, draw, reference = FUNCTIONS[name]
    rng = random.Random(f"{name}:{seed}")
    out = {}
    with mpmath.workdps(DPS):
        for group in groups:
            for band in BANDS:
                t = out[group, band] = {"scored": 0, "max_ulp": 0.0, "worst": None,
                                        "errors": 0, "out_of_range": 0}
                for _ in range(draws):
                    args = draw(rng, band, group)
                    want = reference(*args)
                    if not (sys.float_info.min <= abs(want) <= sys.float_info.max):
                        t["out_of_range"] += 1
                        continue
                    try:
                        got = fn(*args)
                    except ScalarDomainError:
                        t["errors"] += 1
                        continue
                    err = ulps(got, want)
                    t["scored"] += 1
                    if not (err <= t["max_ulp"]):  # nan is a worst error too
                        t["max_ulp"], t["worst"] = err, args
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="accuracy of the fast paths in ulps against mpmath")
    ap.add_argument("--draws", type=int, default=200, help="draws per group and band")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print("function        group band  scored  max_ulp  errors  out_of_range  worst")
    for name in FUNCTIONS:
        for (group, band), t in score(name, args.draws, args.seed).items():
            print(f"{name:15s} {group:5d} 1e±{band:<2d} {t['scored']:6d} {t['max_ulp']:8.2f} "
                  f"{t['errors']:7d} {t['out_of_range']:13d}  {t['worst']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
