"""Ternary sign maps comparing the two closed-form upper ratio bounds.

With a = x1/c, b = x2/c, y the shared second Beta argument, the two
bounds differ by the factor A/B where

    ln A = (b+1) ln b - (a+1) ln a + (a+y+1) ln(a+y) - (b+y+1) ln(b+y)
    ln B = y (ln(a+y+1) - ln(b+y+1))

so F(a, b, y) = sign(ln A - ln B) records which bound is tighter at
each grid cell.  Everything is evaluated in log space: the direct
A and B overflow for axis values in the hundreds, the logs never do.
"""

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "SignMap",
    "PAPER_Y_VALUES",
    "paper_grid",
    "desk_grid",
    "sign_F",
    "log_bound_terms",
    "grid_signmap",
    "iter_signmap_csv",
    "iter_signmap_pgm",
    "signmap_csv_text",
    "signmap_pgm_text",
    "write_atomic",
]

# Equality tolerance on ln A - ln B: floating-point residue on the
# analytically-equal diagonal classifies as 0, everything else keeps
# its sign.
SIGN_ZERO_RTOL = 1e-12

# The reference y sweep: 0.1..0.9 step 0.1, then 1, 2.5, 4, 5, 10, 15, 20.
PAPER_Y_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 10)) + (
    1.0,
    2.5,
    4.0,
    5.0,
    10.0,
    15.0,
    20.0,
)

DESK_GRID_POINTS = 280
AXIS_LO, AXIS_HI = 0.1, 1001.0


@dataclass(frozen=True)
class GridSpec:
    """Axis partition for a sign-map run.  ``a_points``/``b_points``
    are strictly increasing; the rendered matrix flips b so it
    increases upward."""

    a_points: tuple
    b_points: tuple
    y_values: tuple
    mode: str  # "paper" or "desk"

    def __post_init__(self):
        for name, pts in (("a_points", self.a_points), ("b_points", self.b_points)):
            arr = np.asarray(pts)
            if arr.ndim != 1 or len(arr) < 2 or not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} must be strictly increasing")
            if arr[0] <= 0:
                raise ValueError(f"{name} must be positive")


def paper_grid(y_values: Sequence[float] = PAPER_Y_VALUES) -> GridSpec:
    """The full reference partition: [0.1, 10] step 0.01, then (10, 100]
    step 0.1, then (100, 1001] step 1 -- 991 + 900 + 901 = 2792 points
    per axis."""
    small = np.arange(0.1, 10.01, 0.01)
    mid = np.linspace(10.0, 100.0, 901)[1:]
    large = np.linspace(100.0, 1001.0, 902)[1:]
    axis = tuple(np.hstack([small, mid, large]).tolist())
    return GridSpec(a_points=axis, b_points=axis, y_values=tuple(y_values), mode="paper")


def desk_grid(y_values: Sequence[float] = PAPER_Y_VALUES, n_points: int = DESK_GRID_POINTS) -> GridSpec:
    """Log-spaced desk-scale grid over the same [0.1, 1001] range."""
    axis = tuple(np.geomspace(AXIS_LO, AXIS_HI, n_points).tolist())
    return GridSpec(a_points=axis, b_points=axis, y_values=tuple(y_values), mode="desk")


def log_bound_terms(a, b, y):
    """(ln A, ln B); accepts scalars or numpy arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ln_a = (
        (b + 1.0) * np.log(b)
        - (a + 1.0) * np.log(a)
        + (a + y + 1.0) * np.log(a + y)
        - (b + y + 1.0) * np.log(b + y)
    )
    ln_b = y * (np.log(a + y + 1.0) - np.log(b + y + 1.0))
    return ln_a, ln_b


def _ternary(ln_a, ln_b):
    diff = ln_a - ln_b
    scale = np.maximum(1.0, np.maximum(np.abs(ln_a), np.abs(ln_b)))
    out = np.sign(diff).astype(np.int8)
    out[np.abs(diff) <= SIGN_ZERO_RTOL * scale] = 0
    return out


def sign_F(a: float, b: float, y: float) -> int:
    """Ternary comparison of the two upper bounds at one cell: the
    formulas of ``log_bound_terms`` and the rule of ``_ternary`` on
    plain floats."""
    if not all(v > 0.0 and math.isfinite(v) for v in (a, b, y)):
        raise ValueError(f"sign_F requires finite a, b, y > 0, got ({a}, {b}, {y})")
    log = math.log
    ln_a = (
        (b + 1.0) * log(b)
        - (a + 1.0) * log(a)
        + (a + y + 1.0) * log(a + y)
        - (b + y + 1.0) * log(b + y)
    )
    ln_b = y * (log(a + y + 1.0) - log(b + y + 1.0))
    if not (math.isfinite(ln_a) and math.isfinite(ln_b)):
        raise ValueError(f"sign_F log terms overflow at ({a}, {b}, {y})")
    diff = ln_a - ln_b
    if abs(diff) <= SIGN_ZERO_RTOL * max(1.0, abs(ln_a), abs(ln_b)):
        return 0
    return 1 if diff > 0.0 else -1


@dataclass(frozen=True)
class SignMap:
    """F over a grid at one y: ``values[i, j]`` holds
    F(a_points[j], b_points[n-1-i], y), i.e. b decreases top-down so
    plots read with b increasing upward.  Cells with a == b are 0."""

    grid: GridSpec
    y: float
    values: np.ndarray  # int8, shape (len(b_points), len(a_points))
    ln_a: np.ndarray
    ln_b: np.ndarray


def grid_signmap(spec: GridSpec, y: float) -> SignMap:
    """Fill the ternary matrix for one y value.  Pure and vectorized:
    the result is identical no matter how callers schedule cells.
    Raises ValueError, as ``sign_F`` does, if any log term is not
    finite (y = nan or inf, or a y so large that the terms overflow)."""
    if y not in spec.y_values:
        raise ValueError(f"y={y} is not one of the grid's y_values")
    a_row = np.asarray(spec.a_points, dtype=np.float64)
    b_col = np.asarray(spec.b_points, dtype=np.float64)[::-1]  # descending
    aa, bb = np.meshgrid(a_row, b_col)
    with np.errstate(over="ignore", invalid="ignore"):
        ln_a, ln_b = log_bound_terms(aa, bb, y)
    if not (np.isfinite(ln_a).all() and np.isfinite(ln_b).all()):
        raise ValueError(f"sign-map log terms are not finite at y={y}")
    return SignMap(grid=spec, y=y, values=_ternary(ln_a, ln_b), ln_a=ln_a, ln_b=ln_b)


# ----------------------------------------------------------------------
# serialization: bit-exact text formats, no image library


def _repr_row(row: np.ndarray) -> list:
    """``[repr(v) for v in row]`` for a 1-D float64 array, without a
    Python ``repr`` per value: orjson writes the same shortest
    round-trip digits (Ryu) in one call.  Its notation differs from
    ``repr`` only for nonzero |v| < 1e-4 (``0.00001`` for ``1e-05``),
    |v| >= 1e16 (``1e16`` for ``1e+16``) and nan/inf (``null``); those
    few tokens are redone with ``repr``."""
    import orjson  # only the CSV writer needs it

    row = np.ascontiguousarray(row, dtype=np.float64)
    tokens = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii").split(",")
    mag = np.abs(row)
    for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (row != 0.0)).tolist():
        tokens[i] = repr(float(row[i]))
    return tokens


def iter_signmap_csv(sm: SignMap) -> Iterator[str]:
    """CSV chunks: header a,b,y,lnA,lnB,F, one row per cell, b
    descending then a ascending (same order as the matrix).  Yields one
    chunk per matrix row so paper-scale maps stream in bounded memory.
    Floats are written exactly as ``repr`` writes them; the a column,
    the per-row ``b,y`` text and the F text are formatted once, not
    per cell."""
    a_txt = [repr(a) for a in np.asarray(sm.grid.a_points, dtype=np.float64).tolist()]
    b_col = np.asarray(sm.grid.b_points, dtype=np.float64)[::-1].tolist()
    y_txt = repr(float(sm.y))
    f_txt = (",-1\n", ",0\n", ",1\n")
    n = len(a_txt)
    # one row's text as a flat token list, six tokens per cell:
    # a  ,b,y,  lnA  ,  lnB  ,F\n
    tokens = [","] * (6 * n)
    tokens[0::6] = a_txt
    yield "a,b,y,lnA,lnB,F\n"
    for b, row_a, row_b, row_f in zip(b_col, sm.ln_a, sm.ln_b, sm.values + 1):
        tokens[1::6] = [f",{b!r},{y_txt},"] * n
        tokens[2::6] = _repr_row(row_a)
        tokens[4::6] = _repr_row(row_b)
        tokens[5::6] = [f_txt[f] for f in row_f.tolist()]
        yield "".join(tokens)


def signmap_csv_text(sm: SignMap) -> str:
    return "".join(iter_signmap_csv(sm))


_PGM_TOKENS_PER_LINE = 35  # 35 single-digit tokens = 69 chars <= the plain-format 70 cap
_PGM_LINES_PER_CHUNK = 2000
_PGM_DIGITS = np.frombuffer(b"012", dtype=np.uint8)


def _pgm_lines(digits: np.ndarray) -> str:
    """Single-digit tokens, ``_PGM_TOKENS_PER_LINE`` per line: each
    token is followed by a space, or by a newline at the end of a line
    and after the last token."""
    step = 2 * _PGM_TOKENS_PER_LINE
    out = np.full(2 * len(digits), ord(" "), dtype=np.uint8)
    out[0::2] = digits
    out[step - 1 :: step] = ord("\n")
    out[-1] = ord("\n")
    return out.tobytes().decode("ascii")


def iter_signmap_pgm(sm: SignMap) -> Iterator[str]:
    """Plain PGM (P2) chunks, maxval 2, pixel = F + 1: 0 (black) where
    the second bound is smaller, 2 (white) where the first is, 1 on
    ties."""
    h, w = sm.values.shape
    yield f"P2\n{w} {h}\n2\n"
    digits = _PGM_DIGITS[(sm.values + 1).ravel()]
    block = _PGM_TOKENS_PER_LINE * _PGM_LINES_PER_CHUNK
    for start in range(0, len(digits), block):
        yield _pgm_lines(digits[start : start + block])


def signmap_pgm_text(sm: SignMap) -> str:
    return "".join(iter_signmap_pgm(sm))


def _umask() -> int:
    # the umask can only be read by setting it
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path: str, chunks: Iterable[str]) -> int:
    """Write via a temp file in the destination directory + rename; the
    file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not mkstemp's 0o600.  Returns the number of characters
    written (bytes, for the ASCII sign-map formats)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fd, 0o666 & ~_umask())
            if isinstance(chunks, str):
                chunks = (chunks,)
            written = sum(fh.write(chunk) for chunk in chunks)
        os.replace(tmp, path)
        return written
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
