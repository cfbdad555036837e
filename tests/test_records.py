"""Every record type of the package, on the one frozen-record base:
construction by position and keyword, defaults and validation,
equality, hash and repr, refused assignment, ``vars()`` in declared
field order, pickling, and a ``Params.__post_init__`` replaced on the
class (as perfbench's tracer does) being the one called."""

import math
import pickle

import numpy as np
import pytest

from knugamma.bounds import BoundReport
from knugamma.checks import CheckResult, _Grid
from knugamma.errors import NonPositiveArgument
from knugamma.gamma import GammaValue
from knugamma.oracle import OracleResult
from knugamma.params import Params, Record
from knugamma.psi import PdeResiduals
from knugamma.signmap import GridSpec, SignMap

SPEC = GridSpec((0.5, 2.0))
# (record type, positional arguments, every field in declared order)
RECORDS = [
    (Params, (0.5, 2.0), {"k": 0.5, "nu": 2.0, "c": 1.0, "r": 0.25, "log_r": math.log(0.25)}),
    (GammaValue, (0.0, 1.0), {"log_value": 0.0, "value": 1.0}),
    (
        BoundReport,
        (0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
        {"lower_T1": 0.1, "upper_T1": 0.2, "upper_T2": 0.3, "lower_T31": 0.4, "upper_T32": 0.5,
         "actual_ratio": 0.6},
    ),
    (PdeResiduals, (1e-9, -2e-9, 1e-4), {"res_k": 1e-9, "res_nu": -2e-9, "step": 1e-4}),
    (
        OracleResult,
        (1.0, 1e-12, 15, True),
        {"value": 1.0, "err_estimate": 1e-12, "effort": 15, "converged": True},
    ),
    (
        CheckResult,
        ("gamma-recurrence", False, math.inf, 1e-12, 3, 1, "raised Overflow"),
        {"name": "gamma-recurrence", "passed": False, "max_dev": math.inf, "tol": 1e-12,
         "points": 3, "skipped": 1, "note": "raised Overflow"},
    ),
    (
        _Grid,
        ((Params(1.0, 1.0),), (0.4, 1.1), 1e-3),
        {"params": (Params(1.0, 1.0),), "xs": (0.4, 1.1), "tol_override": 1e-3},
    ),
    (GridSpec, ((0.5, 2.0),), {"points": (0.5, 2.0)}),
    (SignMap, (SPEC, 1.0, np.zeros((2, 2), np.int8)), {"grid": SPEC, "y": 1.0, "values": None}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _make(cls, args, fields):
    """The record, and its fields with SignMap's array filled in."""
    record = cls(*args)
    if cls is SignMap:
        fields = dict(fields, values=args[2])
    return record, fields


@pytest.mark.parametrize("cls,args,fields", RECORDS, ids=IDS)
def test_fields_in_declared_order(cls, args, fields):
    record, fields = _make(cls, args, fields)
    assert issubclass(cls, Record) and cls._fields == tuple(fields)
    assert list(vars(record)) == list(fields)
    assert all(vars(record)[name] is value or vars(record)[name] == value
               for name, value in fields.items())


@pytest.mark.parametrize("cls,args,fields", RECORDS, ids=IDS)
def test_keywords_in_any_order(cls, args, fields):
    record, fields = _make(cls, args, fields)
    keywords = dict(reversed(list(zip(fields, args))))
    again = cls(**keywords)
    assert list(vars(again)) == list(fields)
    assert again == record


@pytest.mark.parametrize("cls,args,fields", RECORDS, ids=IDS)
def test_signature_errors(cls, args, fields):
    with pytest.raises(TypeError):
        cls(*args, 0.0)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=0.0)
    with pytest.raises(TypeError):
        cls(*args, **{next(iter(fields)): args[0]})


@pytest.mark.parametrize("cls,args,fields", RECORDS, ids=IDS)
def test_eq_hash_repr(cls, args, fields):
    record, fields = _make(cls, args, fields)
    same = cls(*args)
    assert record == same and not record != same
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    if cls is not SignMap:  # an ndarray field is unhashable
        assert hash(record) == hash(same)
    text = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__qualname__}({text})"


def test_unequal_fields_and_types():
    assert Params(1.0, 2.0) != Params(2.0, 1.0)
    assert GammaValue(0.0, 1.0) != PdeResiduals(0.0, 1.0, 0.1)
    assert CheckResult("a", True, 0.0, 1.0, 1) != CheckResult("a", True, 0.0, 1.0, 1, note="x")
    with pytest.raises(TypeError):
        hash(SignMap(SPEC, 1.0, np.zeros((2, 2), np.int8)))


@pytest.mark.parametrize("cls,args,fields", RECORDS, ids=IDS)
def test_assignment_raises(cls, args, fields):
    record, fields = _make(cls, args, fields)
    for name in list(fields) + ["no_such_field"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    assert list(vars(record)) == list(fields)


@pytest.mark.parametrize("cls,args,fields", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, args, fields):
    record, fields = _make(cls, args, fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and list(vars(back)) == list(fields)
        if cls is SignMap:
            assert (back.grid, back.y) == (record.grid, record.y)
            assert np.array_equal(back.values, record.values) and back.values.dtype == np.int8
        else:
            assert back == record


def test_defaults():
    assert vars(CheckResult("a", True, 0.0, 1.0, 4)) == {
        "name": "a", "passed": True, "max_dev": 0.0, "tol": 1.0, "points": 4, "skipped": 0,
        "note": "",
    }
    assert _Grid((), (1.0,)).tol_override is None
    assert _Grid((), (1.0,), tol_override=0.5).tol(1e-12) == 0.5


@pytest.mark.parametrize(
    "make,error",
    [
        (lambda: Params(0.0, 1.0), NonPositiveArgument),
        (lambda: Params(1.0, 1.0, 1.0), TypeError),  # c is derived, no parameter
        (lambda: Params(1.0, 1.0, c=1.0), TypeError),
        (lambda: GridSpec((1.0,)), ValueError),  # fewer than two points
        (lambda: GridSpec(((0.5, 1.0),)), ValueError),  # not one axis
        (lambda: GridSpec((1.0, 0.5)), ValueError),
        (lambda: GridSpec((-1.0, 0.5)), ValueError),
    ],
)
def test_validation(make, error):
    with pytest.raises(error):
        make()


def test_derived_fields_are_not_class_attributes():
    assert not hasattr(Params, "c") and not hasattr(Params, "r")
    assert CheckResult.note == ""  # a default stays on the class


def test_post_init_replaced_on_the_class_is_called(monkeypatch):
    calls = []
    original = Params.__post_init__

    def traced(self):
        calls.append((self.k, self.nu))
        return original(self)

    monkeypatch.setattr(Params, "__post_init__", traced)
    p = Params(2.0, 4.0)
    assert calls == [(2.0, 4.0)] and (p.c, p.r) == (8.0, 0.5)
    with pytest.raises(NonPositiveArgument):
        Params(-1.0, 1.0)
    assert calls == [(2.0, 4.0), (-1.0, 1.0)]
