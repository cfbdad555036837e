"""Acceptance gate: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

Criterion 7d (the large-y two-region pattern over the *full* desk grid
at y=20) is asserted exactly as stated and is expected to fail: the
pattern provably does not extend to small a, b near the diagonal at
y=20 (A(0.1, 0.2, 20) = 1.2168 > B = 0.9098); it does hold on the
settled region a, b >= 10, which is asserted separately and passes.
"""

import math
import time

import numpy as np
import pytest

from knugamma import (
    Params,
    beta_knu,
    gamma_knu,
    hurwitz_knu,
    log_gamma_knu,
    oracle_eval,
    pde_residuals,
    polygamma_knu,
    psi_knu,
    stirling_approx,
    zeta_knu,
)
from knugamma import checks
from knugamma.cli import _write_maps
from knugamma.signmap import desk_grid, grid_signmap

GRID_PARAMS = [Params(k, nu) for k in (0.5, 1.0, 2.0, 3.0) for nu in (0.5, 1.0, 2.0, 3.0)]
GRID_X = (0.4, 1.1, 2.5, 6.0)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# criterion 1 names -> families that must sit at <= 1e-10; the
# truncated-product identity (e) is excluded from the blanket bound
# because an O(1/N) truncation cannot reach 1e-10 (see its own check).
_CRITERION_1_FAMILIES = (
    "gamma-recurrence",
    "gamma-reflection",
    "gamma-rescale-k",
    "gamma-rescale-nu",
    "pochhammer-gamma",
    "gamma-duplication",
    "beta-symmetry",
    "beta-shift-x",
    "beta-shift-y",
    "beta-pascal",
    "beta-ratio-identity",
    "beta-secant",
    "beta-self-duplication",
    "psi-reflection",
    "psi-duplication",
    "psi-shift-sum",
)


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    results = {r.name: r for r in checks.run_suite("identities")}
    elapsed = time.perf_counter() - t0
    worst = max(results[name].max_dev for name in _CRITERION_1_FAMILIES)
    product_ok = results["beta-product-truncation"].passed
    ok = worst <= 1e-10 and product_ok and all(r.passed for r in results.values()) and elapsed < 10.0
    assert _report(
        "1 identity-suite",
        ok,
        f"max_dev={worst:.3e} (<=1e-10), product-form at O(1/N) envelope, {elapsed:.2f}s (<10s)",
    )


_C2_PARAMS = (Params(1, 1), Params(2, 3), Params(0.5, 2), Params(3, 0.5))


def _c2_cases():
    u5 = (0.25, 0.6, 1.0, 2.5, 7.0)
    pairs = ((0.3, 0.8), (1.2, 0.5), (3.0, 2.0), (0.4, 4.0), (1.0, 1.0))
    hw = ((0.5, 1.5), (1.0, 2.0), (2.0, 3.0), (0.8, 6.0), (3.0, 2.5))
    for p in _C2_PARAMS:
        for u in u5:
            yield "gamma-integral", p, [u * p.c], gamma_knu(p, u * p.c).value
        for ux, uy in pairs:
            yield "beta-unit-integral", p, [ux * p.c, uy * p.c], beta_knu(p, ux * p.c, uy * p.c)
            yield "beta-scaled-integral", p, [ux * p.c, uy * p.c], beta_knu(p, ux * p.c, uy * p.c)
        for u in u5:
            yield "psi-integral", p, [u * p.c], psi_knu(p, u * p.c)
        for m in (1, 2):
            for u in (0.4, 1.0, 2.5):
                yield "polygamma-integral", p, [m, u * p.c], polygamma_knu(p, m, u * p.c)
        # two extra polygamma points to reach 20 per target
        yield "polygamma-integral", p, [3, 0.7 * p.c], polygamma_knu(p, 3, 0.7 * p.c)
        yield "polygamma-integral", p, [1, 5.0 * p.c], polygamma_knu(p, 1, 5.0 * p.c)
        for u in (1.3, 2.0, 3.0, 6.0, 11.0):
            yield "zeta-integral", p, [u * p.c], zeta_knu(p, u * p.c)
        for ux, us in hw:
            yield "hurwitz-integral", p, [ux * p.c, us * p.c], hurwitz_knu(p, ux * p.c, us * p.c)


def test_criterion_2_oracle_equivalence():
    per_target = {}
    for target, p, args, want in _c2_cases():
        res = oracle_eval(target, p, args)
        dev = abs(res.value - want) / abs(want)
        stats = per_target.setdefault(target, [0, 0.0])
        stats[0] += 1
        stats[1] = max(stats[1], dev)
    counts_ok = all(n >= 20 for n, _ in per_target.values()) and len(per_target) == 7
    worst = max(d for _, d in per_target.values())

    # limit definition at n = 1e6: <= 1e-4 with measured O(1/n) rate
    limit_ok = True
    rates = []
    for p, u in ((Params(1, 1), 0.3), (Params(2, 3), 0.5), (Params(0.5, 2), 1.7)):
        x = u * p.c
        exact = gamma_knu(p, x).value
        errs = [
            abs(oracle_eval("gamma-limit", p, [x, n]).value - exact) / exact
            for n in (1_000_000, 2_000_000)
        ]
        rates.append(errs[0] / errs[1])
        limit_ok &= errs[0] <= 1e-4 and 1.6 <= rates[-1] <= 2.4
    ok = counts_ok and worst <= 1e-7 and limit_ok
    assert _report(
        "2 oracle-equivalence",
        ok,
        f"7 targets x >=20 pts, worst dev={worst:.3e} (<=1e-7); "
        f"limit rates={[f'{r:.2f}' for r in rates]} (in [1.6,2.4])",
    )


def test_criterion_3_pde_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
        for x in (1.0, 4.5, 7.0):
            res = pde_residuals(Params(k, nu), x, step=1e-4)
            worst = max(worst, abs(res.res_k), abs(res.res_nu))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 1.0
    assert _report(
        "3 pde-residuals", ok, f"9 triples, worst |res|={worst:.3e} (<=1e-4), {elapsed:.3f}s (<1s)"
    )


def test_criterion_4_stirling():
    p11 = Params(1, 1)
    err10 = abs(stirling_approx(p11, 10.0) - math.exp(log_gamma_knu(p11, 10.0))) / math.exp(
        log_gamma_knu(p11, 10.0)
    )
    classical_ok = 0.005 <= err10 <= 0.015
    decay_ok = True
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
        p = Params(k, nu)
        errs = []
        for mult in (10.0, 100.0):
            x = mult * p.c
            exact = math.exp(log_gamma_knu(p, x))
            errs.append(abs(stirling_approx(p, x) - exact) / exact)
        decay_ok &= errs[1] < errs[0]
    ok = classical_ok and decay_ok
    assert _report(
        "4 stirling", ok, f"classical err@10={err10:.4%} (in [0.5%,1.5%]), decay holds for all (k,nu)"
    )


def test_criterion_5_inequality_suite():
    results = checks.run_suite("inequalities")
    total_points = sum(r.points for r in results)
    violations = [r.name for r in results if not r.passed]
    ok = not violations and total_points >= 500
    assert _report(
        "5 inequality-suite",
        ok,
        f"{total_points} sampled points (>=500), violations={violations or 'none'}",
    )


def test_criterion_6_orderings():
    n_triples = 0
    ok = True
    for p in (Params(1, 1), Params(2, 3), Params(0.5, 2)):
        for x1 in GRID_X:
            for x2 in GRID_X:
                if x2 <= x1:
                    continue
                for y in GRID_X:
                    from knugamma import ratio_bounds

                    r = ratio_bounds(p, x1, x2, y)
                    ok &= r.upper_T1 < r.upper_T2
                    ok &= r.lower_T31 > r.lower_T1
                    n_triples += 1
    assert _report(
        "6 orderings", ok and n_triples >= 24, f"{n_triples} triples (>=24), both orderings strict"
    )


# ---------------------------------------------------------------------
# criterion 7: sign maps


@pytest.fixture(scope="module")
def desk_maps():
    spec = desk_grid()
    t0 = time.perf_counter()
    maps = {y: grid_signmap(spec, y) for y in (0.1, 1.0, 20.0)}
    elapsed = time.perf_counter() - t0
    return spec, maps, elapsed


def test_criterion_7a_diagonal(desk_maps):
    spec, maps, _ = desk_maps
    n = len(spec.points)
    ok = True
    for sm in maps.values():
        for i in range(n):
            ok &= sm.values[n - 1 - i, i] == 0
    assert _report("7a signmap-diagonal", ok, "exact zeros on a=b for y in {0.1, 1, 20}")


def test_criterion_7b_antisymmetry(desk_maps):
    spec, maps, _ = desk_maps
    from knugamma.signmap import sign_F

    axis = np.asarray(spec.points)
    aa, bb = np.meshgrid(axis, axis[::-1])
    ok = True
    for y, sm in maps.items():
        ok &= np.array_equal(sm.values, -sign_F(bb, aa, y))  # swapped arguments
    assert _report("7b signmap-antisymmetry", ok, "F(a,b,y) == -F(b,a,y) cellwise")


def test_criterion_7c_small_y_block(desk_maps):
    spec, maps, _ = desk_maps
    axis = np.asarray(spec.points)
    aa, bb = np.meshgrid(axis, axis[::-1])
    sm = maps[0.1]
    block = (aa <= 10.0) & (bb <= 10.0)
    viol = int(np.sum(block & (bb > aa) & (sm.values != 1)))
    viol += int(np.sum(block & (aa > bb) & (sm.values != -1)))
    assert _report(
        "7c signmap-small-y-block", viol == 0, f"y=0.1 block [0.1,10]^2: {viol} pattern violations"
    )


def test_criterion_7d_large_y_two_region_full_grid(desk_maps):
    # As stated: F = -1 wherever b > a at y=20 over the FULL desk grid.
    spec, maps, _ = desk_maps
    axis = np.asarray(spec.points)
    aa, bb = np.meshgrid(axis, axis[::-1])
    sm = maps[20.0]
    above = bb > aa
    viol = int(np.sum(above & (sm.values != -1)))
    ok = viol == 0
    _report(
        "7d signmap-large-y-full-grid",
        ok,
        f"y=20 full grid: {viol} cells with b>a where A>=B "
        "(claim does not extend to small a,b near the diagonal)",
    )
    assert ok, (
        f"two-region pattern violated at {viol} cells, e.g. a=0.1, b=0.2, y=20 "
        "has A=1.2168 > B=0.9098"
    )


def test_criterion_7d_settled_region(desk_maps):
    # The pattern is settled for a, b >= 10 (and everywhere the blocks
    # with max(a,b) > 10 meet b > a), which does hold at y=20.
    spec, maps, _ = desk_maps
    axis = np.asarray(spec.points)
    aa, bb = np.meshgrid(axis, axis[::-1])
    sm = maps[20.0]
    settled = (aa >= 10.0) & (bb >= 10.0)
    viol = int(np.sum(settled & (bb > aa) & (sm.values != -1)))
    viol += int(np.sum(settled & (aa > bb) & (sm.values != 1)))
    assert _report(
        "7d' signmap-large-y-settled-region",
        viol == 0,
        f"y=20, a,b >= 10: {viol} violations of the two-region pattern",
    )


def test_criterion_7_determinism_and_speed(desk_maps, tmp_path):
    _, _, elapsed = desk_maps
    blobs = {}
    for width in (1, 4):
        d = tmp_path / str(width)
        jobs = [(y, str(d / f"m_{y:g}.csv"), str(d / f"m_{y:g}.pgm")) for y in (0.1, 1.0, 20.0)]
        _write_maps(desk_grid(), jobs, width)
        blobs[width] = {
            name: (d / name).read_bytes()
            for name in ("m_0.1.csv", "m_1.csv", "m_20.csv", "m_0.1.pgm", "m_1.pgm", "m_20.pgm")
        }
    ok = blobs[1] == blobs[4] and elapsed < 5.0
    assert _report(
        "7 signmap-determinism",
        ok,
        f"byte-identical across pool widths; 3 desk maps in {elapsed:.2f}s (<5s)",
    )


def test_criterion_8_zeta_bridge():
    worst = 0.0
    for p in GRID_PARAMS:
        for x in GRID_X:
            for m in (1, 2, 3):
                lhs = hurwitz_knu(p, x, (m + 1) * p.c)
                sign = 1.0 if m % 2 == 1 else -1.0
                rhs = sign / math.factorial(m) * polygamma_knu(p, m, x)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    ok = worst <= 1e-10
    assert _report("8 zeta-bridge", ok, f"m in {{1,2,3}} on the grid, worst dev={worst:.3e}")


def test_criterion_9_limit_formula():
    worst = 0.0
    n = 100_000
    for k, nu in ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
        p = Params(k, nu)
        target = math.log(p.r) / p.c
        gap = abs(psi_knu(p, 1.0 + (n + 1) * p.c) - math.log(n) / p.c - target)
        worst = max(worst, gap)
    ok = worst <= 1e-3
    assert _report("9 limit-formula", ok, f"gap at n=1e5: worst={worst:.3e} (<=1e-3)")
