"""The scalar engine's and the (k, nu) zeta layer's contract over every
float64 argument, inf, nan and subnormals included: a finite double or
a typed ScalarDomainError, never nan, inf, a bare OverflowError or a
warning."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knugamma import Params, hurwitz_knu, scalar, zeta_knu
from knugamma.errors import NonPositiveArgument, Overflow, ParameterRange, ScalarDomainError

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
        assert hurwitz_knu(p, x, s) == pytest.approx(float(want), rel=1e-13)
