"""The contract of the scalar engine, Params and the (k, nu) zeta,
polygamma and bound functions tested here, over every
float64 argument, inf, nan and subnormals included: a finite double or
a typed ScalarDomainError, never nan, inf, a bare OverflowError or a
warning."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knugamma import (
    Params,
    chebyshev_beta_bound,
    hurwitz_knu,
    polygamma_knu,
    ratio_bounds,
    scalar,
    zeta_knu,
)
from knugamma.errors import (
    DomainWindow,
    NonPositiveArgument,
    Overflow,
    ParameterRange,
    PoleHit,
    ScalarDomainError,
)

pytestmark = pytest.mark.filterwarnings("error")

ANY_FLOAT = st.floats()
CONTRACT = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def _finite_or_typed(fn, *args):
    try:
        value = fn(*args)
    except ScalarDomainError:
        return
    assert isinstance(value, float) and math.isfinite(value), (fn.__name__, args, value)


@CONTRACT
@given(ANY_FLOAT)
@example(math.inf)
@example(1e308)
@example(5e-324)
def test_ln_gamma(x):
    _finite_or_typed(scalar.ln_gamma, x)


@CONTRACT
@given(ANY_FLOAT)
@example(math.inf)
@example(1e-320)
def test_digamma(x):
    _finite_or_typed(scalar.digamma, x)


@CONTRACT
@given(st.integers(1, 200), ANY_FLOAT)
@example(171, 1.0)
@example(1, 1e-200)
@example(150, 1.0)
def test_polygamma(m, x):
    _finite_or_typed(scalar.polygamma, m, x)


@CONTRACT
@given(ANY_FLOAT)
@example(math.inf)
@example(1e300)
def test_riemann_zeta(s):
    _finite_or_typed(scalar.riemann_zeta, s)


@CONTRACT
@given(ANY_FLOAT, ANY_FLOAT)
@example(math.inf, 2.0)
@example(math.inf, 0.5)
@example(1.0000000000000002, 5e-324)
def test_hurwitz_zeta(s, q):
    _finite_or_typed(scalar.hurwitz_zeta, s, q)


@pytest.mark.parametrize(
    "fn,args,want",
    [
        (scalar.riemann_zeta, (math.inf,), 1.0),
        (scalar.hurwitz_zeta, (math.inf, 1.0), 1.0),
        (scalar.hurwitz_zeta, (math.inf, 2.0), 0.0),
        (scalar.polygamma, (3, math.inf), 0.0),
    ],
)
def test_infinite_argument_limits(fn, args, want):
    assert fn(*args) == want


# The (k, nu) zeta layer above the engine, and Params itself: the
# deformation pair is drawn from all float64 values too.


@st.composite
def params_or_error(draw):
    k, nu = draw(ANY_FLOAT), draw(ANY_FLOAT)
    try:
        return Params(k, nu)
    except ScalarDomainError:
        return None


@CONTRACT
@given(params_or_error(), ANY_FLOAT)
@example(Params(0.5, 1), math.inf)
@example(Params(0.5, 1), 1e5)
@example(Params(1e-150, 1e-150), 1.0)
def test_zeta_knu(p, x):
    if p is not None:
        _finite_or_typed(zeta_knu, p, x)


@CONTRACT
@given(params_or_error(), ANY_FLOAT, ANY_FLOAT)
@example(Params(0.5, 1), 1.0, math.inf)
@example(Params(0.5, 1), 0.5, math.inf)
@example(Params(2.0, 1), 5e-324, 3.0)
@example(Params(1.0, 0.25), 5e-324, 6.037064643170386e304)
@example(Params(1e300, 1), 1.0, 2e300)
@example(Params(1e-150, 1e-150), 1.0, 1e-300)
@example(Params(1e-150, 1e-150), 1e300, 1e-299)
def test_hurwitz_knu(p, x, s):
    if p is not None:
        _finite_or_typed(hurwitz_knu, p, x, s)


@pytest.mark.parametrize(
    "k,nu", [(math.inf, 1.0), (1.0, math.inf), (1e-300, 1e-300), (1e200, 1e200), (1e-200, 1e200),
             (1e-160, 1e-160)],
)
def test_params_outside_double_range(k, nu):
    with pytest.raises(ParameterRange):
        Params(k, nu)


@pytest.mark.parametrize("k,nu", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)])
def test_params_non_positive(k, nu):
    with pytest.raises(NonPositiveArgument):
        Params(k, nu)


@pytest.mark.parametrize(
    "fn,args,want",
    [
        (zeta_knu, (Params(2.0, 1), math.inf), 0.0),
        (zeta_knu, (Params(1.0, 1), math.inf), 1.0),
        (hurwitz_knu, (Params(0.5, 1), 1.0, math.inf), 1.0),
        (hurwitz_knu, (Params(0.5, 1), 2.0, math.inf), 0.0),
        (hurwitz_knu, (Params(0.5, 1), math.inf, 3.0), 0.0),
    ],
)
def test_knu_infinite_argument_limits(fn, args, want):
    assert fn(*args) == want


@pytest.mark.parametrize(
    "fn,args",
    [
        (zeta_knu, (Params(0.5, 1), math.inf)),
        (zeta_knu, (Params(0.5, 1), 1e5)),
        (hurwitz_knu, (Params(0.5, 1), 0.5, math.inf)),
    ],
)
def test_knu_overflow(fn, args):
    with pytest.raises(Overflow):
        fn(*args)


@pytest.mark.parametrize(
    "x1,x2,y,error",
    [
        (0.0, 1.0, 1.0, PoleHit),
        (-1.0, 1.0, 1.0, PoleHit),
        (math.nan, 1.0, 1.0, PoleHit),
        (1.0, 2.0, 0.0, PoleHit),
        (1.0, 2.0, math.nan, PoleHit),
        (2.0, 1.0, 1.0, DomainWindow),
        (1.0, 1.0, 1.0, DomainWindow),
        (1.0, math.nan, 1.0, DomainWindow),
    ],
)
def test_ratio_bounds_typed_errors(x1, x2, y, error):
    with pytest.raises(error):
        ratio_bounds(Params(1, 1), x1, x2, y)


@pytest.mark.parametrize(
    "p,x,s",
    [
        (Params(0.5, 1), 1.0, 1e4),  # c^(-s/c) overflows, zeta(s/c, x/c) underflows
        (Params(0.5, 1), 1.5, 334.5),  # zeta(s/c, x/c) = 3^-669 is subnormal: 4 digits
        (Params(1e-5, 1e-5), 1.0, 8e-9),  # c^(-s/c) overflows, the sum is ~1.3e8
        (Params(1e-150, 1e-150), 1.0, 3e-300),  # zeta(3, 1e300) underflows, the sum is ~5e299
        (Params(1e30, 1), 1e-300, 1.0000001e30),  # x/c underflows to 0
    ],
)
def test_hurwitz_knu_beyond_the_product(p, x, s):
    """Where c^(-s/c) zeta(s/c, x/c) cannot be formed from two normal
    doubles, the log-space sum still agrees with a 40-digit reference."""
    import mpmath

    with mpmath.workdps(40):
        sc = mpmath.mpf(s) / mpmath.mpf(p.c)
        want = mpmath.power(mpmath.mpf(p.c), -sc) * mpmath.zeta(sc, mpmath.mpf(x) / mpmath.mpf(p.c))
        assert hurwitz_knu(p, x, s) == pytest.approx(float(want), rel=1e-13, abs=0.0)


@CONTRACT
@given(params_or_error(), ANY_FLOAT, ANY_FLOAT)
@example(Params(1e-100, 1e-100), 1.3e-200, 1.7e-200)
@example(Params(1e154, 1e154), 1.0, 1.0)
@example(Params(1.0, 1.0), 5e-324, 5e-324)
def test_chebyshev_beta_bound(p, x, y):
    if p is not None:
        _finite_or_typed(lambda *args: chebyshev_beta_bound(*args)[0], p, x, y)


@pytest.mark.parametrize(
    "p,x,y,direction",
    [
        (Params(1e-100, 1e-100), 1.3e-200, 1.7e-200, "upper"),  # x y underflows to 0
        (Params(1e-100, 1e-100), 1e-160, 3e-170, "upper"),  # x y is subnormal
        (Params(1e50, 1e50), 1e300, 1e10, "lower"),  # x y overflows
        (Params(1e154, 1e154), 1e300, 1e300, "upper"),  # nu^3 overflows
    ],
)
def test_chebyshev_beta_bound_beyond_the_product(p, x, y, direction):
    """Where k nu^3 or x y is not a normal double, the log-space bound
    agrees with a 40-digit reference."""
    import mpmath

    with mpmath.workdps(40):
        want = mpmath.mpf(p.k) * mpmath.mpf(p.nu) ** 3 / (mpmath.mpf(x) * mpmath.mpf(y))
    bound, got_direction = chebyshev_beta_bound(p, x, y)
    assert bound == pytest.approx(float(want), rel=1e-13, abs=0.0)
    assert got_direction == direction


def test_chebyshev_beta_bound_overflow():
    with pytest.raises(Overflow):
        chebyshev_beta_bound(Params(1e154, 1e154), 1e-300, 1e-300)


@CONTRACT
@given(params_or_error(), st.integers(1, 200), ANY_FLOAT)
@example(Params(1e-100, 1e-100), 1, 1e-200)
@example(Params(2.385e-145, 3.933e-85), 5, math.inf)
@example(Params(1e100, 1e100), 3, 1e200)
@example(Params(1e-100, 1e-100), 2, 1.0)
@example(Params(1e50, 1e50), 1, 1e-100)
def test_polygamma_knu(p, m, x):
    if p is not None:
        _finite_or_typed(polygamma_knu, p, m, x)


def _polygamma_knu_reference(p, m, x):
    import mpmath

    with mpmath.workdps(40):
        c = mpmath.mpf(p.c)
        return mpmath.polygamma(m, mpmath.mpf(x) / c) / c ** (m + 1)


def _assert_polygamma_knu_matches(p, m, x):
    """A normal result agrees with the 40-digit reference to 1e-13, a
    subnormal or zero one to 4 units of the smallest subnormal, and one
    beyond the double range raises Overflow."""
    want = _polygamma_knu_reference(p, m, x)
    if abs(want) > sys.float_info.max * (1 + 1e-12):
        with pytest.raises(Overflow):
            polygamma_knu(p, m, x)
    elif abs(want) < sys.float_info.max * (1 - 1e-12):
        tiny = 4 * math.ulp(0.0)
        assert polygamma_knu(p, m, x) == pytest.approx(float(want), rel=1e-13, abs=tiny)


@pytest.mark.parametrize(
    "p,m,x",
    [
        (Params(1e-100, 1e-100), 1, 1e-100),  # c^2 underflows to 0
        (Params(1e-80, 1e-80), 1, 1e-140),  # c^2 is subnormal
        (Params(1e100, 1e100), 1, 1e50),  # c^2 overflows
        (Params(1e100, 1e100), 2, 1e100),  # c^3 overflows; a negative result
        (Params(1e-50, 1e-50), 3, 1e-60),  # c^4 underflows to 0
        (Params(1e-100, 1e-100), 2, 1.0),  # psi^(2)(1e200) = -1e-400 underflows
        (Params(1e-80, 1e-80), 3, 1.0),  # psi^(3)(1e160) underflows
        (Params(1e-80, 1e-80), 2, 1.0),  # psi^(2)(1e160) = -1e-320 is subnormal
        (Params(1e-100, 1e-100), 1, 1e300),  # x/c overflows to inf
        (Params(1e50, 1e50), 1, 1e-100),  # psi^(1)(1e-200) = 1e400 overflows
        (Params(1e125, 1e125), 1, 1e-100),  # x/c underflows to 0
        (Params(1.0, 1.0), 100, 2000.0),  # 2000^-100 is subnormal in the engine
    ],
)
def test_polygamma_knu_beyond_the_power(p, m, x):
    """Where c^(m+1), psi^(m)(x/c) or their quotient is not a normal
    double, a result in the double range still agrees with a 40-digit
    reference."""
    assert abs(_polygamma_knu_reference(p, m, x)) < sys.float_info.max
    _assert_polygamma_knu_matches(p, m, x)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.floats(-150.0, 150.0),
    st.floats(-150.0, 150.0),
    st.integers(1, 150),
    st.floats(-307.0, 308.0),
)
def test_polygamma_knu_matches_reference(log_k, log_nu, m, log_x):
    """(k, nu) over 1e-150..1e150, every order and x over the normal
    doubles."""
    _assert_polygamma_knu_matches(Params(10.0**log_k, 10.0**log_nu), m, 10.0**log_x)


@pytest.mark.parametrize("m,x", [(100, 2000.0), (150, 3000.0), (30, 1e11), (150, 5.0)])
def test_polygamma_where_the_series_power_underflows(m, x):
    """z^-m in the engine's series is subnormal or 0, the result is not."""
    import mpmath

    with mpmath.workdps(40):
        want = mpmath.polygamma(m, x)
    assert scalar.polygamma(m, x) == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "p,m,x",
    [
        (Params(2.385e-145, 3.933e-85), 5, math.inf),  # the x -> inf limit
        (Params(1e100, 1e100), 3, 1e200),  # 6.5e-800 underflows
    ],
)
def test_polygamma_knu_zero(p, m, x):
    assert polygamma_knu(p, m, x) == 0.0


@pytest.mark.parametrize(
    "p,m,x",
    [
        (Params(1e-100, 1e-100), 1, 1e-200),  # 1.6e400
        (Params(1e-80, 1e-80), 2, 1e-140),  # -1e440
    ],
)
def test_polygamma_knu_overflow(p, m, x):
    with pytest.raises(Overflow):
        polygamma_knu(p, m, x)
