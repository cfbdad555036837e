"""Accuracy gate: a fixed-seed sample of ``accuracy.py`` against
50-digit mpmath, with one max-ulp bound per function and group.

A later change may lower a bound, never raise it.
"""

import pytest

import accuracy

DRAWS = 20  # per group and band: under two seconds per function

# the worst of both polygamma functions over 2000 draws per order and
# band (seed 1), rounded up: the rounding of z = u + j and of u/z,
# raised to the power e = m or m + 1, costs up to about e/2 ulp
_POLYGAMMA = {1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 10: 7, 30: 12, 100: 29, 150: 51}
# function -> {group: max raw ulps}; the groups are the polygamma order m
BOUNDS = {"polygamma_knu": _POLYGAMMA, "polygamma": _POLYGAMMA}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_max_ulp_within_bound(name):
    over, errors = [], []
    for (group, band), t in accuracy.score(name, DRAWS).items():
        if not (t["max_ulp"] <= BOUNDS[name][group]):
            over.append((group, band, t["max_ulp"], t["worst"]))
        if t["errors"]:
            errors.append((group, band, t["errors"]))
    assert not over, over
    assert not errors, errors
