"""The contract of the scalar engine, Params and the (k, nu) zeta,
polygamma, psi, Stirling and bound functions tested here, over every
float64 argument, inf, nan and subnormals included: a finite double or
a typed ScalarDomainError, never nan, inf, a bare OverflowError or a
warning (the ratio bounds saturate to inf by design, so there only nan
is ruled out).  Referenced cases pin the psi, beta, Stirling and
ratio-bound points where a term leaves the double range."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knugamma import (
    Params,
    beta_knu,
    chebyshev_beta_bound,
    hurwitz_knu,
    log_beta_knu,
    polygamma_knu,
    psi_knu,
    ratio_bounds,
    scalar,
    stirling_approx,
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

pytestmark = [
    pytest.mark.filterwarnings("error"),
    # raised by the hypothesis plugin while it reports a failing example;
    # as an error it turns the report into a pytest INTERNALERROR.  The
    # later mark takes precedence.
    pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
]

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
        (psi_knu, (Params(1.757e-118, 6.154e76), 5e-324)),  # about -2e323
        # ln Gamma(y) and ln Gamma(x + y) both overflow: inf - inf
        (log_beta_knu, (Params(6.566e70, 6.916e-69), 1.255e101, 1e308)),
        (beta_knu, (Params(6.566e70, 6.916e-69), 1.255e101, 1e308)),
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


@CONTRACT
@given(params_or_error(), ANY_FLOAT)
@example(Params(1.757e-118, 6.154e76), 5e-324)
@example(Params(1e15, 1e15), 1e-300)
@example(Params(1e-150, 1e-150), math.inf)
def test_psi_knu(p, x):
    if p is not None:
        _finite_or_typed(psi_knu, p, x)


@CONTRACT
@given(params_or_error(), ANY_FLOAT)
@example(Params(1, 1), math.inf)
@example(Params(3.53e-141, 1.47e72), 8.24e253)
@example(Params(3.38e139, 9.27e-36), 1e-310)
@example(Params(1e-160, 1e147), 1e293)
def test_stirling_approx(p, x):
    if p is not None:
        _finite_or_typed(stirling_approx, p, x)


@CONTRACT
@given(params_or_error(), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
@example(Params(1e100, 1e100), 1e-300, 1.0, 1.0)
@example(Params(1e100, 1e100), 1e-122, 1.0, 1.0)
@example(Params(1, 1), 1e-300, 1e300, 1e-300)
@example(Params(1e-5, 1e-5), 1.0, 2.0, 1e300)
def test_ratio_bounds(p, x1, x2, y):
    if p is None:
        return
    try:
        report = ratio_bounds(p, x1, x2, y)
    except ScalarDomainError:
        return
    assert not any(math.isnan(v) for v in vars(report).values()), (p, x1, x2, y, report)


@pytest.mark.parametrize(
    "p,x",
    [
        (Params(1e15, 1e15), 1e-300),  # x/c underflows to 0
        (Params(1e15, 1e15), 1e-280),  # x/c is subnormal: psi(x/c) overflows
        (Params(1e10, 1e-9), 1e-308),  # psi(x/c) overflows, x is subnormal
    ],
)
def test_psi_knu_where_x_over_c_underflows(p, x):
    """psi(u) = psi(1 + u) - 1/u carries the result where psi(x/c)
    cannot be formed; it agrees with a 40-digit reference."""
    import mpmath

    with mpmath.workdps(40):
        c = mpmath.mpf(p.c)
        want = (mpmath.log(mpmath.mpf(p.r)) + mpmath.digamma(mpmath.mpf(x) / c)) / c
    assert psi_knu(p, x) == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "p,x1,x2,y",
    [
        # x1/x2 and (x1+y)/(x2+y) underflow, (x2+y)/(x1+y) overflows
        (Params(1, 1), 1e-300, 1e300, 1e-300),
        (Params(1, 1), 1e-200, 1e200, 1e-250),
        (Params(0.5, 2), 1e-160, 1e160, 1e-170),
    ],
)
def test_ratio_bounds_beyond_the_quotients(p, x1, x2, y):
    """Where a quotient of the T1/T2 bounds is not a normal double, the
    difference of the two logs keeps each bound at its 40-digit
    reference; 1e-12 covers the cancellation of log terms near 1.4e3."""
    import mpmath

    got = ratio_bounds(p, x1, x2, y)
    with mpmath.workdps(40):
        x1, x2, y, c = (mpmath.mpf(v) for v in (x1, x2, y, p.c))
        ln = mpmath.log
        b, a1, a2, s1, s2 = y / c, x1 / c, x2 / c, (x1 + y) / c, (x2 + y) / c
        front, x_ratio = ln((x2 + y) / (x1 + y)), ln(x1 / x2)
        logs = {
            "lower_T1": front + (b + 1) * x_ratio,
            "upper_T1": front + x_ratio + b * ln((x1 + y + c) / (x2 + y + c)),
            "upper_T2": b * ln((x1 + y) / (x2 + y)),
            "lower_T31": (a2 - 1) * ln(a2) + (1 - a1) * ln(a1) + (1 - s2) * ln(s2) + (s1 - 1) * ln(s1),
            "upper_T32": a2 * ln(a2) - a1 * ln(a1) - s2 * ln(s2) + s1 * ln(s1),
        }
        want = {name: float(mpmath.exp(v)) for name, v in logs.items()}
    assert {name: getattr(got, name) for name in want} == pytest.approx(want, rel=1e-12, abs=0.0)


def test_ratio_bounds_where_x1_over_c_underflows():
    # ln(x1/c) is taken as ln x1 - ln c; B(x1/c, y/c) has a pole there
    with pytest.raises(ScalarDomainError):
        ratio_bounds(Params(1e100, 1e100), 1e-300, 1.0, 1.0)


def test_ratio_bounds_where_x1_over_c_is_subnormal():
    """x1/c = 1e-322 keeps 7 bits; ln x1 - ln c keeps T31 and T32 at
    their 40-digit references."""
    import mpmath

    p, x1, x2, y = Params(1e100, 1e100), 1e-122, 1.0, 1.0
    got = ratio_bounds(p, x1, x2, y)
    with mpmath.workdps(40):
        x1, x2, y, c = (mpmath.mpf(v) for v in (x1, x2, y, p.c))
        a1, a2, s1, s2 = x1 / c, x2 / c, (x1 + y) / c, (x2 + y) / c
        ln = mpmath.log
        t31 = (a2 - 1) * ln(a2) + (1 - a1) * ln(a1) + (1 - s2) * ln(s2) + (s1 - 1) * ln(s1)
        t32 = a2 * ln(a2) - a1 * ln(a1) - s2 * ln(s2) + s1 * ln(s1)
        want = (float(mpmath.exp(t31)), float(mpmath.exp(t32)))
    assert (got.lower_T31, got.upper_T32) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "p,x",
    [
        (Params(3.38e139, 9.27e-36), 1e-310),  # x/c underflows to 0
        (Params(1e100, 1e100), 1e-122),  # x/c = 1e-322 is subnormal
        (Params(1e-160, 1e147), 1e293),  # (u - 1) ln r and (u - 1/2) ln u overflow: 0
        (Params(2.0, 3.0), 700.0),
    ],
)
def test_stirling_approx_matches_reference(p, x):
    """The log-space terms agree with a 40-digit reference wherever x/c
    is below the normal doubles or the terms overflow with opposite
    signs; 1e-12 covers log terms near 7e2."""
    import mpmath

    with mpmath.workdps(40):
        u = mpmath.mpf(x) / mpmath.mpf(p.c)
        want = mpmath.sqrt(2 * mpmath.pi) * mpmath.mpf(p.r) ** (u - 1) * u ** (u - 0.5) * mpmath.exp(-u)
    assert stirling_approx(p, x) == pytest.approx(float(want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "p,x",
    [(Params(1, 1), math.inf), (Params(3.53e-141, 1.47e72), 8.24e253), (Params(1, 1), 1e306)],
)
def test_stirling_approx_overflow(p, x):
    with pytest.raises(Overflow):
        stirling_approx(p, x)


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
