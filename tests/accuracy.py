"""Accuracy of the fast paths against mpmath, in raw ulps.

Each entry of ``FUNCTIONS`` names a function, its groups, its bands,
a seeded draw of its arguments per group and band, and an mpmath
reference.  ``score`` evaluates both on the same draws and reports,
per group and band, the median, 99th percentile and worst error in
ulps of the reference and the arguments of the worst.  Draws whose
reference lies outside the normal doubles are counted apart and not
scored; typed errors where the reference is a normal double are
counted apart too.  ``test_accuracy.py`` runs a small sample of this
against fixed bounds.

    python tests/accuracy.py [--draws N] [--seed S] [--functions A,B] [--json PATH]

prints the table and, with ``--json``, writes it to PATH as well.

The polygamma groups are the order m; the zeta groups bound s - 1
(for the (k, nu) forms s/c - 1), log-uniform over 1e-6..1e-2,
1e-2..20 and 20..400; the ``log_beta_knu`` groups are y/c
log-uniform over 1e±3 and 1e±8, and ``log_gamma_knu`` has none.  The
bands are magnitudes: x/c (q for ``hurwitz_zeta``, x for
``polygamma``) log-uniform over 1e±3, 1e±8 and 1e±15, and over 1e±3
and 1e±8 for the ln Gamma and ln B terms; the Riemann zetas have none.
The (k, nu) draws take k and nu log-uniform over 1e±2.  The reference
is taken at the exact quotient of the doubles x and c, so the score
measures what the function loses, not the rounding of x/c; except the
zetas' exponent s/c, which is taken as the function rounds it, since
near the pole zeta's condition number s/(s-1) would turn that rounding
alone into up to 1e6 ulp, and the reduced arguments x/c and y/c of
``log_gamma_knu`` and ``log_beta_knu``, taken as the function rounds
them too (with r = k/nu as ``Params`` rounds it), so their score is
what the term loses past its reduced argument: for ``log_beta_knu``
where x >> y, the rounding of x + y and the cancellation of its terms.
The references, and the digits each takes, are ``reference.py``'s.
"""

import argparse
import json
import math
import os
import random
import statistics
import sys

import reference as ref

# PYTHONPATH, if set, comes first, so another checkout can be scored
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from knugamma import (  # noqa: E402
    Params, ScalarDomainError, hurwitz_knu, log_beta_knu, log_gamma_knu, polygamma_knu, scalar, zeta_knu,
)

BANDS = (3, 8, 15)  # x/c log-uniform over 1e±band
GAMMA_BANDS = (3, 8)  # x/c (and, as the group, y/c) for the ln Gamma and ln B terms
NO_BAND = (None,)
ORDERS = (1, 2, 3, 4, 5, 10, 30, 100, 150)
# s - 1 log-uniform over (the group before, group], from 1e-6
ZETA_EXCESS = (1e-2, 20.0, 400.0)


def _loguniform(rng, decades):
    return 10.0 ** rng.uniform(-decades, decades)


def _params(rng):
    return Params(_loguniform(rng, 2), _loguniform(rng, 2))


def _draw_polygamma_knu(rng, band, m):
    p = _params(rng)
    return p, m, _loguniform(rng, band) * p.c


def _draw_polygamma(rng, band, m):
    return m, _loguniform(rng, band)


def _excess(rng, group):
    lo = ZETA_EXCESS[ZETA_EXCESS.index(group) - 1] if group != ZETA_EXCESS[0] else 1e-6
    return math.exp(rng.uniform(math.log(lo), math.log(group)))


def _draw_riemann_zeta(rng, band, group):
    return (1.0 + _excess(rng, group),)


def _draw_hurwitz_zeta(rng, band, group):
    return 1.0 + _excess(rng, group), _loguniform(rng, band)


def _draw_zeta_knu(rng, band, group):
    p = _params(rng)
    return p, (1.0 + _excess(rng, group)) * p.c


def _draw_hurwitz_knu(rng, band, group):
    p = _params(rng)
    return p, _loguniform(rng, band) * p.c, (1.0 + _excess(rng, group)) * p.c


def _draw_log_gamma_knu(rng, band, group):
    p = _params(rng)
    return p, _loguniform(rng, band) * p.c


def _draw_log_beta_knu(rng, band, group):
    p = _params(rng)
    return p, _loguniform(rng, band) * p.c, _loguniform(rng, group) * p.c


# name -> (function, groups, bands, draw(rng, band, group) -> args, reference(*args))
FUNCTIONS = {
    "polygamma_knu": (polygamma_knu, ORDERS, BANDS, _draw_polygamma_knu,
                      lambda p, m, x: ref.polygamma_knu(m, ref.exact(x, p.c), ref.mpf(p.c))),
    "polygamma": (scalar.polygamma, ORDERS, BANDS, _draw_polygamma, lambda m, x: ref.polygamma(m, ref.mpf(x))),
    "riemann_zeta": (scalar.riemann_zeta, ZETA_EXCESS, NO_BAND, _draw_riemann_zeta,
                     lambda s: ref.riemann_zeta(ref.mpf(s))),
    "hurwitz_zeta": (scalar.hurwitz_zeta, ZETA_EXCESS, BANDS, _draw_hurwitz_zeta,
                     lambda s, q: ref.hurwitz_zeta(ref.mpf(s), ref.mpf(q))),
    "zeta_knu": (zeta_knu, ZETA_EXCESS, NO_BAND, _draw_zeta_knu,
                 lambda p, x: ref.zeta_knu(ref.rounded(x, p.c), ref.mpf(p.c))),
    "hurwitz_knu": (hurwitz_knu, ZETA_EXCESS, BANDS, _draw_hurwitz_knu,
                    lambda p, x, s: ref.hurwitz_knu(ref.rounded(s, p.c), ref.exact(x, p.c), ref.mpf(p.c))),
    "log_gamma_knu": (log_gamma_knu, (None,), GAMMA_BANDS, _draw_log_gamma_knu,
                      lambda p, x: ref.log_gamma_knu(ref.rounded(x, p.c), ref.mpf(p.r))),
    "log_beta_knu": (log_beta_knu, GAMMA_BANDS, GAMMA_BANDS, _draw_log_beta_knu,
                     lambda p, x, y: ref.log_beta_knu(ref.rounded(x, p.c), ref.rounded(y, p.c), ref.mpf(p.r))),
}


def score(name, draws, seed=0):
    """{(group, band): tally} for ``draws`` seeded draws per group and
    band.  A tally holds ``scored``, ``median_ulp``, ``p99_ulp``,
    ``max_ulp``, ``worst`` (the arguments of the worst error),
    ``errors`` (typed errors where the reference is a normal double)
    and ``out_of_range`` (references outside the normal doubles, not
    scored)."""
    fn, groups, bands, draw, reference = FUNCTIONS[name]
    rng = random.Random(f"{name}:{seed}")
    out = {}
    for group in groups:
        for band in bands:
            t = out[group, band] = {"scored": 0, "max_ulp": 0.0, "worst": None,
                                    "errors": 0, "out_of_range": 0}
            errs = []
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
                err = ref.ulps(got, want)
                errs.append(err)
                if not (err <= t["max_ulp"]):  # nan is a worst error too
                    t["max_ulp"], t["worst"] = err, args
            t["scored"] = len(errs)
            errs.sort()
            t["median_ulp"] = statistics.median(errs) if errs else 0.0
            t["p99_ulp"] = errs[math.ceil(0.99 * len(errs)) - 1] if errs else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="accuracy of the fast paths in ulps against mpmath")
    ap.add_argument("--draws", type=int, default=200, help="draws per group and band")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--functions", default=",".join(FUNCTIONS),
                    help="comma-separated names from FUNCTIONS (default: all)")
    ap.add_argument("--json", metavar="PATH", help="also write the table to PATH as JSON")
    args = ap.parse_args(argv)
    names = args.functions.split(",")
    unknown = sorted(set(names) - set(FUNCTIONS))
    if unknown:
        ap.error(f"unknown function(s) {unknown}; choose from {list(FUNCTIONS)}")
    rows = []
    print("function        group  band  scored  median    p99  max_ulp  errors  out_of_range  worst")
    for name in names:
        for (group, band), t in score(name, args.draws, args.seed).items():
            rows.append(dict(function=name, group=group, band=band, **t))
            group_text = "-" if group is None else f"{group:g}"
            band_text = "-" if band is None else f"1e±{band}"
            print(f"{name:15s} {group_text:>5s} {band_text:6s} {t['scored']:6d} {t['median_ulp']:7.2f} "
                  f"{t['p99_ulp']:6.2f} {t['max_ulp']:8.2f} {t['errors']:7d} {t['out_of_range']:13d}"
                  f"  {t['worst']}")
    if args.json:
        for row in rows:
            row["worst"] = None if row["worst"] is None else [
                [a.k, a.nu] if isinstance(a, Params) else a for a in row["worst"]]
        with open(args.json, "w") as fh:
            json.dump({"draws": args.draws, "seed": args.seed, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
