"""The ``reference`` module: it alone takes mpmath, and each of its
references rounds to the same double at its precision rule as at 20
more digits."""

import ast
import math
import pathlib

import pytest

import reference as ref
from knugamma import Params

TESTS = pathlib.Path(__file__).parent
_PRECISION_CALLS = {"workdps", "workprec", "extradps"}


def _mpmath_uses(tree):
    """Each line that imports mpmath, calls one of its precision
    managers or assigns a ``dps`` or ``prec`` attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "mpmath" for name in names):
            yield node.lineno, "imports mpmath"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _PRECISION_CALLS:
                yield node.lineno, f"calls {name}"
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in ("dps", "prec"):
                    yield node.lineno, f"assigns .{sub.attr}"


def test_only_the_reference_module_takes_mpmath():
    found = {
        path.name: uses
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "reference.py" and (uses := list(_mpmath_uses(ast.parse(path.read_text()))))
    }
    assert not found, found
    assert list(_mpmath_uses(ast.parse((TESTS / "reference.py").read_text())))


def test_the_guard_sees_each_use():
    source = ("import mpmath.libmp\nfrom mpmath import mp\nmp.dps = 40\nmp.prec += 1\n"
              "with mp.workdps(9): pass\nextradps(3)\n")
    assert sorted(line for line, _ in _mpmath_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


def _knu(p, x):
    """u = x/c and r = k/nu, exact, and c."""
    return ref.exact(x, p.c), ref.exact(p.k, p.nu), ref.mpf(p.c)


# (reference, zero-argument function giving its arguments), two or three
# points each; the arguments are formed again at the higher digits
CASES = [
    ("polygamma", lambda: (150, ref.mpf(127.76519461013514))),  # 50.7 ulp off in the engine
    ("polygamma", lambda: (3, ref.mpf(1e-8))),
    ("polygamma", lambda: (100, ref.mpf(2000.0))),
    ("riemann_zeta", lambda: (ref.mpf(1 + 1e-6),)),
    ("riemann_zeta", lambda: (ref.mpf(20.5),)),
    ("hurwitz_zeta", lambda: (ref.mpf(30.216224879818817), ref.mpf(31.06075185507213))),  # a searched worst
    ("hurwitz_zeta", lambda: (ref.mpf(146.52516598414542), ref.mpf(63.07176648319696))),  # a direct sum
    ("hurwitz_zeta", lambda: (ref.mpf(15.502375051604048), ref.mpf(518.8296337479167))),  # 40 digits fail
    ("log_gamma_knu", lambda: _knu(Params(3.38e139, 9.27e-36), 1e-310)[:2]),  # u ~ 3e-415, ln r ~ 402
    ("log_gamma_knu", lambda: _knu(Params(2.0, 3.0), 700.0)[:2]),
    ("log_beta_knu", lambda: (ref.exact(1.72e7, Params(151.8, 0.002686).c),
                              *_knu(Params(151.8, 0.002686), 7.06e-6)[:2])),
    ("log_beta_knu", lambda: (ref.mpf(1e300), ref.mpf(1e-300), ref.mpf(1))),
    ("psi_knu", lambda: _knu(Params(1e15, 1e15), 1e-280)),
    ("psi_knu", lambda: _knu(Params(2.0, 3.0), 0.7)),
    ("polygamma_knu", lambda: (2, *_knu(Params(1e100, 1e100), 1e100)[::2])),
    ("polygamma_knu", lambda: (150, *_knu(Params(0.5, 3.0), 127.76519461013514 * 1.5)[::2])),
    ("zeta_knu", lambda: (ref.rounded(6.00006, 6.0), ref.mpf(6.0))),
    ("zeta_knu", lambda: (ref.rounded(6.15, 0.3), ref.mpf(0.3))),
    ("hurwitz_knu", lambda: (ref.exact(1e4, 0.5), ref.exact(1.0, 0.5), ref.mpf(0.5))),  # the direct sum
    ("hurwitz_knu", lambda: (ref.exact(12.0, 6.0), ref.exact(6.0, 6.0), ref.mpf(6.0))),
    ("stirling_approx", lambda: _knu(Params(2.0, 3.0), 700.0)[:2]),
    ("stirling_approx", lambda: _knu(Params(3.38e139, 9.27e-36), 1e-310)[:2]),
    ("ratio_bounds", lambda: (ref.mpf(1e-300), ref.mpf(1e300), ref.mpf(1e-300))),
    ("ratio_bounds", lambda: tuple(ref.exact(x, 1e200) for x in (1e-122, 1.0, 1.0))),
    ("chebyshev_beta_bound", lambda: tuple(map(ref.mpf, (1e-100, 1e-100, 1.3e-200, 1.7e-200)))),
    ("chebyshev_beta_bound", lambda: tuple(map(ref.mpf, (1e154, 1e154, 1e300, 1e300)))),
    ("log_truncated_product",  # the PRODUCT_DPS rule
     lambda: (ref.exact(6.0, 1e-200), ref.exact(0.4, 1e-200), 100_000, ref.mpf(1e-200))),
    ("log_truncated_product", lambda: (ref.mpf(2.5), ref.mpf(1.1), 1000, ref.mpf(1.0))),
    ("log_gamma_limit", lambda: (*_knu(Params(1e200, 1e-100), 1e-250)[:2], 3000)),
    ("log_gamma_limit", lambda: (*_knu(Params(1.0, 1.0), 1.5)[:2], 1000)),
    ("log_recip_product", lambda: (*_knu(Params(1e200, 1e-100), 1e-250)[:2], 3000)),
    ("log_recip_product", lambda: (*_knu(Params(0.5, 2.0), 1.7)[:2], 100_000)),
]


def _doubles(name, args):
    value = getattr(ref, name)(*args())
    return {key: float(v) for key, v in value.items()} if isinstance(value, dict) else float(value)


def test_every_reference_has_cases():
    references = {name for name, fn in vars(ref).items() if hasattr(fn, "__wrapped__")}
    assert {name for name, _ in CASES} == references


@pytest.mark.parametrize("name,args", CASES, ids=[f"{name}-{i}" for i, (name, _) in enumerate(CASES)])
def test_reference_holds_at_20_more_digits(monkeypatch, name, args):
    at_rule = _doubles(name, args)
    monkeypatch.setattr(ref, "EXTRA_DPS", 20)
    beyond = _doubles(name, args)
    assert at_rule == beyond
    values = at_rule.values() if isinstance(at_rule, dict) else [at_rule]
    assert all(math.isfinite(v) and v != 0.0 for v in values), at_rule


@pytest.mark.parametrize("s,q", [(146.52516598414542, 63.07176648319696), (300.0, 3.0)])
def test_direct_sum_is_mpmath_zeta(s, q):
    # where both rules apply, the direct sum that hurwitz_zeta takes and
    # mpmath's zeta at the digits of its rule round to the same double
    s, q = ref.mpf(s), ref.mpf(q)
    assert float(ref.hurwitz_zeta(s, q)) == float(ref._mpmath_zeta(s, q, q))


def test_references_take_no_float():
    with pytest.raises(TypeError, match="floats"):
        ref.log_gamma_knu(ref.mpf(2.5) + 1, 0.5)
