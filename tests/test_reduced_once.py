"""One ln Gamma_{k,nu} term, pinned twice.

``log_gamma_knu`` is the only code that forms (u - 1) ln r + ln Gamma(u)
at u = x/c.  ``gamma_knu``, ``log_beta_knu`` and ``ratio_bounds``
compose it, and must give the same bits, and raise the same error class
with the same message, as the composition written out here: one
``log_gamma_knu`` call per term, ``_log_ratio`` for every log of a
quotient, and keyword-built records.

The term itself, and ``psi_knu``, ``stirling_approx`` and
``param_transform``, which read the same ln r and ln u, are pinned to
the expressions they were written with before ``Params`` carried ln r:
``math.log(p.r)``, ``scalar.ln_gamma(u)``, and
``scalar.ln_gamma(1 + u) - (ln x - ln c)`` where x/c is below the
normal doubles.  Only one message differs: where x/c or ln Gamma(x/c)
overflows, ``log_gamma_knu`` raises its own ``Overflow`` message, not
``scalar.ln_gamma``'s."""

import math
import random
import sys

import pytest

from knugamma import (
    Params, gamma_knu, log_beta_knu, param_transform, psi_knu, ratio_bounds, scalar, stirling_approx,
)
from knugamma.bounds import BoundReport
from knugamma.errors import DomainWindow, NonPositiveArgument, Overflow, ParameterRange, PoleHit
from knugamma.gamma import GammaValue, _exp_sat, log_gamma_knu
from knugamma.params import _log_ratio

DRAWS = 20_000
# 2.6e305: ln Gamma of it overflows
SPECIAL = (0.0, 5e-324, 1e-310, sys.float_info.min, 1.0, 2.6e305, sys.float_info.max, math.inf, math.nan, -1.0)
MIN_NORMAL, MAX = sys.float_info.min, sys.float_info.max


def _log_beta_composed(p, x, y):
    value = log_gamma_knu(p, x) + log_gamma_knu(p, y) - log_gamma_knu(p, x + y)
    if not math.isfinite(value):
        raise Overflow(f"log_beta_knu({x}, {y}) exceeds double range")
    return value


def _gamma_composed(p, x):
    log_value = log_gamma_knu(p, x)
    return GammaValue(log_value=log_value, value=_exp_sat(log_value))


def _ratio_bounds_composed(p, x1, x2, y):
    if not (x1 > 0.0):
        raise PoleHit(f"ratio_bounds requires x1 > 0, got {x1}")
    if not (x2 > x1):
        raise DomainWindow(f"ratio_bounds requires x1 < x2, got ({x1}, {x2})")
    if not (y > 0.0):
        raise PoleHit(f"ratio_bounds requires y > 0, got {y}")
    c = p.c
    b = y / c
    log_front = _log_ratio(x2 + y, x1 + y)
    log_x_ratio = _log_ratio(x1, x2)
    log_lower_t1 = log_front + (b + 1.0) * log_x_ratio
    log_upper_t1 = log_front + log_x_ratio + b * _log_ratio(x1 + y + c, x2 + y + c)
    log_upper_t2 = b * _log_ratio(x1 + y, x2 + y)
    a1, a2 = x1 / c, x2 / c
    s1, s2 = (x1 + y) / c, (x2 + y) / c
    ln_a1, ln_a2 = _log_ratio(x1, c), _log_ratio(x2, c)
    ln_s1, ln_s2 = _log_ratio(x1 + y, c), _log_ratio(x2 + y, c)
    log_lower_t31 = (a2 - 1.0) * ln_a2 + (1.0 - a1) * ln_a1 + (1.0 - s2) * ln_s2 + (s1 - 1.0) * ln_s1
    log_upper_t32 = a2 * ln_a2 - a1 * ln_a1 - s2 * ln_s2 + s1 * ln_s1
    log_actual = _log_beta_composed(p, x2, y) - _log_beta_composed(p, x1, y)
    return BoundReport(
        lower_T1=_exp_sat(log_lower_t1),
        upper_T1=_exp_sat(log_upper_t1),
        upper_T2=_exp_sat(log_upper_t2),
        lower_T31=_exp_sat(log_lower_t31),
        upper_T32=_exp_sat(log_upper_t32),
        actual_ratio=_exp_sat(log_actual),
    )


def _log_gamma_parent(p, x):
    if not (x > 0.0):
        raise PoleHit(f"Gamma_{{k,nu}} pole set is x <= 0; got x={x}")
    u = x / p.c
    if u < MIN_NORMAL:
        value = (u - 1.0) * math.log(p.r) + scalar.ln_gamma(1.0 + u) - (math.log(x) - math.log(p.c))
    else:
        value = (u - 1.0) * math.log(p.r) + scalar.ln_gamma(u)
    if not (abs(value) <= MAX):
        raise Overflow(f"log_gamma_knu({p.k}, {p.nu}, {x}) exceeds double range")
    return value


def _gamma_parent(p, x):
    log_value = _log_gamma_parent(p, x)
    return GammaValue(log_value=log_value, value=_exp_sat(log_value))


def _psi_parent(p, x):
    if not (x > 0.0):
        raise PoleHit(f"psi_knu requires x > 0, got x={x}")
    u = x / p.c
    try:
        value = (math.log(p.r) + scalar.digamma(u)) / p.c
    except (NonPositiveArgument, Overflow):
        value = (math.log(p.r) + scalar.digamma(1.0 + u)) / p.c - 1.0 / x
    if math.isinf(value):
        raise Overflow(f"psi_knu({p.k}, {p.nu}, {x}) exceeds double range")
    return value


def _stirling_parent(p, x):
    if not (x > 0.0):
        raise PoleHit(f"stirling_approx requires x > 0, got x={x}")
    u = x / p.c
    if u > MAX:
        raise Overflow(f"stirling_approx({p.k}, {p.nu}, {x}): x/c exceeds double range")
    log_u = math.log(u) if u >= MIN_NORMAL else math.log(x) - math.log(p.c)
    log_r = math.log(p.r)
    log_value = 0.5 * math.log(2.0 * math.pi) + (u - 1.0) * log_r + (u - 0.5) * log_u - u
    if math.isnan(log_value):
        log_value = u * (log_r + log_u - 1.0) + 0.5 * math.log(2.0 * math.pi) - log_r - 0.5 * log_u
    value = _exp_sat(log_value)
    if math.isinf(value):
        raise Overflow(f"stirling_approx({p.k}, {p.nu}, {x}) exceeds double range")
    return value


def _param_transform_parent(from_p, to_p, x):
    if not (x > 0.0):
        raise PoleHit(f"param_transform requires x > 0, got x={x}")
    factor = (to_p.k * from_p.nu) / (from_p.k * to_p.nu)
    log_factor = math.log(factor) if MIN_NORMAL <= factor <= MAX else math.log(to_p.r) - math.log(from_p.r)
    exponent = x / to_p.c - 1.0
    return _exp_sat(exponent * log_factor + _log_gamma_parent(from_p, from_p.c * x / to_p.c))


def _renamed(outcome, p, x):
    """The one named message change: where ln Gamma(x/c) overflows,
    ``log_gamma_knu(p, x)`` raises its own message, not ln_gamma's."""
    if outcome[0] is Overflow and outcome[1].startswith("Overflow: ln_gamma("):
        return Overflow, str(Overflow(f"log_gamma_knu({p.k}, {p.nu}, {x}) exceeds double range"))
    return outcome


def _outcome(fn, *args):
    """The bits of every float the call returns, or its error class
    and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, class and message
        return type(exc), str(exc)
    values = vars(result).values() if isinstance(result, (GammaValue, BoundReport)) else (result,)
    return type(result), tuple(float.hex(v) for v in values)


def _draw_float(rng, c):
    """A special value; or x log-uniform over 1e-330..1e308, whatever c
    is (so that x/c can be subnormal, 0 or overflow, and ln Gamma(x/c)
    too); or x = u c with u log-uniform over 1e±6.  Now and then
    negative."""
    if rng.random() < 0.1:
        return rng.choice(SPECIAL)
    if rng.random() < 0.5:
        x = 10.0 ** rng.uniform(-330.0, 308.0)
    else:
        x = 10.0 ** rng.uniform(-6.0, 6.0) * c
    return -x if rng.random() < 0.02 else x


def _draw_params(rng):
    while True:
        decades = rng.choice((2.0, 50.0, 150.0))
        try:
            return Params(10.0 ** rng.uniform(-decades, decades), 10.0 ** rng.uniform(-decades, decades))
        except ParameterRange:  # c or r outside the normal doubles
            continue


def _draws(seed):
    rng = random.Random(seed)
    for _ in range(DRAWS):
        p = _draw_params(rng)
        yield p, [_draw_float(rng, p.c) for _ in range(3)]


def test_log_beta_knu_same_as_composition():
    for p, (x, y, _) in _draws(1):
        assert _outcome(log_beta_knu, p, x, y) == _outcome(_log_beta_composed, p, x, y), (p, x, y)


def test_gamma_knu_same_as_composition():
    for p, (x, _, _) in _draws(2):
        assert _outcome(gamma_knu, p, x) == _outcome(_gamma_composed, p, x), (p, x)


def test_ratio_bounds_same_as_composition():
    for p, (x1, x2, y) in _draws(3):
        if x1 > x2:
            x1, x2 = x2, x1
        want = _outcome(_ratio_bounds_composed, p, x1, x2, y)
        assert _outcome(ratio_bounds, p, x1, x2, y) == want, (p, x1, x2, y)


def _same_as_parent(fn, parent, seed):
    """Every draw gives the parent's outcome, up to the named message;
    returns how many draws took that message."""
    renamed = 0
    for p, (x, _, _) in _draws(seed):
        was = _outcome(parent, p, x)
        want = _renamed(was, p, x)
        renamed += want != was
        assert _outcome(fn, p, x) == want, (p, x)
    return renamed


def test_log_gamma_knu_same_as_parent():
    assert _same_as_parent(log_gamma_knu, _log_gamma_parent, 4) > 0


def test_gamma_knu_same_as_parent():
    assert _same_as_parent(gamma_knu, _gamma_parent, 5) > 0


def test_psi_knu_same_as_parent():
    assert _same_as_parent(psi_knu, _psi_parent, 6) == 0


def test_stirling_approx_same_as_parent():
    assert _same_as_parent(stirling_approx, _stirling_parent, 7) == 0


def test_param_transform_same_as_parent():
    for (from_p, _), (to_p, (x, _, _)) in zip(_draws(8), _draws(9)):
        want = _renamed(_outcome(_param_transform_parent, from_p, to_p, x), from_p, from_p.c * x / to_p.c)
        assert _outcome(param_transform, from_p, to_p, x) == want, (from_p, to_p, x)


@pytest.mark.parametrize(
    "k, nu, x1, x2, y",
    [
        (1.0, 1.0, 1.0, 2.0, 1.0),
        (1.0, 1.0, 1e-300, 1e300, 1e-300),  # x1/c and y/c normal, x2 + y huge
        (1e100, 1e100, 1e-300, 1.0, 1.0),  # x1/c below the normal doubles
        (1e-5, 1e-5, 1.0, 2.0, 1e300),  # y/c overflows
        (1.0, 1.0, 1.0, math.inf, 1.0),
        (1.0, 1.0, 1.0, 3e305, 1.0),  # ln Gamma(x2/c) overflows
        (1e-150, 1e150, 1.0, 2.0, 3.0),  # r below 1e-299: (u - 1) ln r is huge
    ],
)
def test_ratio_bounds_edge_cases(k, nu, x1, x2, y):
    p = Params(k, nu)
    assert _outcome(ratio_bounds, p, x1, x2, y) == _outcome(_ratio_bounds_composed, p, x1, x2, y)
    assert _outcome(log_beta_knu, p, x2, y) == _outcome(_log_beta_composed, p, x2, y)
