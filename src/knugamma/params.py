"""The deformation parameter pair (k, nu) and its derived composites,
and ``Record``, the frozen-record base of every record type in the
package."""

import math
import operator

from .constants import _MAX, _MIN_NORMAL
from .errors import NonPositiveArgument, ParameterRange

# The class-level value of a record field that ``__post_init__`` sets:
# it is no ``__init__`` parameter.
DERIVED = object()


class Record:
    """Base of a frozen record.  Its fields are its class annotations, in
    order; a class-level value is that field's default.  ``__init__``
    takes the fields by position or keyword, stores them in declared
    order (so ``vars()`` lists them so) and then calls the class's
    ``__post_init__``, if it has one, looked up at every construction.
    Records compare, hash and repr by their fields, refuse assignment,
    and pickle as plain objects.

    Importing it loads nothing new; the standard library's record
    decorator imports inspect, ast, dis and tokenize.  ``__init__`` is
    generated for each class with its parameters named, as that
    decorator's is: a generic ``*args, **kwargs`` one constructs 35-50%
    slower.  It writes the fields into the instance ``__dict__``, which
    costs a third of a call to ``object.__setattr__`` per field.
    Equality and hash read the fields with one attrgetter.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        params, body, defaults = [], [], []
        for name in cls._fields:
            if name not in cls.__dict__:
                params.append(name)
            elif cls.__dict__[name] is DERIVED:
                delattr(cls, name)
                continue
            else:
                params.append(f"{name}=_defaults[{len(defaults)}]")
                defaults.append(cls.__dict__[name])
            body.append(f" _dict[{name!r}] = {name}")
        if hasattr(cls, "__post_init__"):
            body.append(" self.__post_init__()")
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self, {', '.join(params)}):\n _dict = self.__dict__\n"
             + "\n".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Params(Record):
    """Deformation pair.  ``c = k*nu`` is the step of every recurrence
    and series in the family; ``r = k/nu`` is the base of the rescaling
    prefactors, and ``log_r = ln r`` their exponent's factor.  All three
    are stored at construction so all call sites use the exact same
    doubles.  k and nu must be finite and > 0, and c and r normal
    doubles (``ParameterRange`` otherwise).
    """

    k: float
    nu: float
    c: float = DERIVED
    r: float = DERIVED
    log_r: float = DERIVED

    def __post_init__(self):
        if not (self.k > 0.0):
            raise NonPositiveArgument(f"k must be > 0, got {self.k}")
        if not (self.nu > 0.0):
            raise NonPositiveArgument(f"nu must be > 0, got {self.nu}")
        # c and r are divided by and raised to powers everywhere; a
        # subnormal one has lost precision, a zero one or an infinite
        # one means nothing.
        c, r = self.k * self.nu, self.k / self.nu
        if not (_MIN_NORMAL <= c <= _MAX and _MIN_NORMAL <= r <= _MAX):
            raise ParameterRange(
                f"k={self.k}, nu={self.nu}: c = k*nu = {c} and r = k/nu = {r} "
                "must be finite normal doubles"
            )
        fields = self.__dict__
        fields["c"] = c
        fields["r"] = r
        fields["log_r"] = math.log(r)


def _log_ratio(num: float, den: float) -> float:
    """ln(num/den) for num, den > 0: the log of the quotient where that
    is a normal double, else the difference of the two logs, so a
    quotient that underflows or overflows costs no accuracy.  With
    den = c it is ln u of the reduced argument u = x/c."""
    quotient = num / den
    if _MIN_NORMAL <= quotient <= _MAX:
        return math.log(quotient)
    return math.log(num) - math.log(den)
