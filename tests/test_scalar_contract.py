"""The scalar engine's contract over every float64 argument, inf, nan
and subnormals included: a finite double or a typed ScalarDomainError,
never nan, inf, a bare OverflowError or a warning."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knugamma import scalar
from knugamma.errors import ScalarDomainError

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
