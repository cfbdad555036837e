"""Ternary sign maps comparing the two closed-form upper ratio bounds.

With a = x1/c, b = x2/c, y the shared second Beta argument, the two
bounds differ by the factor A/B where

    ln A = (b+1) ln b - (a+1) ln a + (a+y+1) ln(a+y) - (b+y+1) ln(b+y)
    ln B = y (ln(a+y+1) - ln(b+y+1))

so F(a, b, y) = sign(ln A - ln B) records which bound is tighter at
each grid cell.  ``log_bound_terms`` is the one place these terms are
written and ``sign_F`` the one place the tie rule is; both broadcast,
so a grid block (a row of a against a column of b) takes one log per
axis value.  A grid has one axis, used for both a and b.  Everything is
evaluated in log space: the direct A and B overflow for axis values in
the hundreds, the logs never do.
"""

import os
from typing import Iterable, Iterator

import numpy as np

from .params import Record

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


class GridSpec(Record):
    """The axis of a sign-map run, used for both a and b: strictly
    increasing and positive.  The rendered matrix flips b so it
    increases upward."""

    points: tuple

    def __post_init__(self):
        arr = np.asarray(self.points)
        if arr.ndim != 1 or len(arr) < 2 or not np.all(np.diff(arr) > 0):
            raise ValueError("points must be strictly increasing")
        if arr[0] <= 0:
            raise ValueError("points must be positive")


def paper_grid() -> GridSpec:
    """The full reference partition: [0.1, 10] step 0.01, then (10, 100]
    step 0.1, then (100, 1001] step 1 -- 991 + 900 + 901 = 2792 points
    per axis."""
    small = np.arange(0.1, 10.01, 0.01)
    mid = np.linspace(10.0, 100.0, 901)[1:]
    large = np.linspace(100.0, 1001.0, 902)[1:]
    return GridSpec(points=tuple(np.hstack([small, mid, large]).tolist()))


def desk_grid(n_points: int = DESK_GRID_POINTS) -> GridSpec:
    """Log-spaced desk-scale grid over the same [0.1, 1001] range."""
    return GridSpec(points=tuple(np.geomspace(AXIS_LO, AXIS_HI, n_points).tolist()))


def log_bound_terms(a, b, y):
    """(ln A, ln B), broadcast over a, b and y.  Each log takes a or b
    alone, so a row of a against a column of b takes one log per axis
    value, and a cell's bits do not depend on the shapes.  ValueError
    if a term is not finite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        ln_a = (
            (b + 1.0) * np.log(b)
            - (a + 1.0) * np.log(a)
            + (a + y + 1.0) * np.log(a + y)
            - (b + y + 1.0) * np.log(b + y)
        )
        ln_b = y * (np.log(a + y + 1.0) - np.log(b + y + 1.0))
    if not (np.isfinite(ln_a).all() and np.isfinite(ln_b).all()):
        raise ValueError(f"ln A or ln B is not finite at y={y}")
    return ln_a, ln_b


def sign_F(a, b, y):
    """F(a, b, y), broadcast over a, b and y: an int for scalar
    arguments, an int8 array otherwise.  A difference within
    ``SIGN_ZERO_RTOL`` of max(1, |ln A|, |ln B|) is a tie, 0.
    ValueError unless every a, b and y is finite and > 0, or if a log
    term overflows."""
    a, b, y = (np.asarray(v, dtype=np.float64) for v in (a, b, y))
    if not all(((v > 0.0) & (v < np.inf)).all() for v in (a, b, y)):
        raise ValueError("sign_F requires finite a, b, y > 0")
    ln_a, ln_b = log_bound_terms(a, b, y)
    diff = ln_a - ln_b
    scale = np.maximum(1.0, np.maximum(np.abs(ln_a), np.abs(ln_b)))
    out = np.where(np.abs(diff) <= SIGN_ZERO_RTOL * scale, 0, np.sign(diff)).astype(np.int8)
    return int(out) if out.ndim == 0 else out


class SignMap(Record):
    """F over a grid at one y: ``values[i, j]`` holds
    F(points[j], points[n-1-i], y), i.e. b decreases top-down so plots
    read with b increasing upward.  Cells with a == b are 0."""

    grid: GridSpec
    y: float
    values: np.ndarray  # int8, shape (n, n)


_BLOCK_ROWS = 64  # b rows per block: cache-sized float temporaries, never the whole matrix


def _blocks(spec: GridSpec) -> Iterator[tuple]:
    """(a row, b column): the matrix's b rows, descending, ``_BLOCK_ROWS``
    at a time, against the whole a axis."""
    axis = np.asarray(spec.points, dtype=np.float64)
    b_desc = axis[::-1, None]
    for start in range(0, len(axis), _BLOCK_ROWS):
        yield axis, b_desc[start : start + _BLOCK_ROWS]


def grid_signmap(spec: GridSpec, y: float) -> SignMap:
    """Fill the ternary matrix for one y value, ``sign_F`` a block at a
    time.  Pure and vectorized: the result is identical no matter how
    callers schedule cells.  Raises ValueError, as ``sign_F`` does, for
    a y that is not finite and > 0 or so large that the terms overflow."""
    values = np.concatenate([sign_F(a, b, y) for a, b in _blocks(spec)])
    return SignMap(grid=spec, y=y, values=values)


# ----------------------------------------------------------------------
# serialization: bit-exact text formats, no image library


def _repr_rows(block: np.ndarray) -> Iterator[list]:
    """``[repr(v) for v in row]`` for each row of a 2-D float64 block,
    without a Python ``repr`` per value: orjson writes the same shortest
    round-trip digits (Ryu), one call per row.  Its notation differs
    from ``repr`` only for nonzero |v| < 1e-4 (``0.00001`` for
    ``1e-05``), |v| >= 1e16 (``1e16`` for ``1e+16``) and nan/inf
    (``null``).  Those cells are found once per block, and only rows
    holding one (few do) have those tokens redone with ``repr``."""
    import orjson  # only the CSV writer needs it

    block = np.ascontiguousarray(block, dtype=np.float64)
    mag = np.abs(block)
    redo = ~((mag >= 1e-4) & (mag < 1e16)) & (block != 0.0)
    for row, row_redo, any_redo in zip(block, redo, redo.any(axis=1).tolist()):
        tokens = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii").split(",")
        if any_redo:
            for i in np.flatnonzero(row_redo).tolist():
                tokens[i] = repr(float(row[i]))
        yield tokens


def iter_signmap_csv(sm: SignMap) -> Iterator[str]:
    """CSV chunks: header a,b,y,lnA,lnB,F, one row per cell, b
    descending then a ascending (same order as the matrix).  Yields one
    chunk per matrix row, recomputing lnA/lnB a block of rows at a time,
    so paper-scale maps stream in bounded memory.  Floats are written
    exactly as ``repr`` writes them (``_repr_rows``, fixed up per block);
    the a column, the per-row ``b,y`` text and the per-block F text are
    formatted once, not per cell."""
    a_txt = [repr(float(a)) for a in sm.grid.points]
    y_txt = repr(float(sm.y))
    f_txt = np.array([",-1\n", ",0\n", ",1\n"], dtype=object)  # indexed by F + 1
    n = len(a_txt)
    # one row's text as a flat token list, six tokens per cell:
    # a  ,b,y,  lnA  ,  lnB  ,F\n
    tokens = [","] * (6 * n)
    tokens[0::6] = a_txt
    yield "a,b,y,lnA,lnB,F\n"
    for i, (a, b) in enumerate(_blocks(sm.grid)):
        ln_a, ln_b = log_bound_terms(a, b, sm.y)
        f_rows = f_txt[sm.values[i * _BLOCK_ROWS : (i + 1) * _BLOCK_ROWS] + 1]
        for b_val, row_a, row_b, row_f in zip(b[:, 0].tolist(), _repr_rows(ln_a), _repr_rows(ln_b), f_rows):
            tokens[1::6] = [f",{b_val!r},{y_txt},"] * n
            tokens[2::6] = row_a
            tokens[4::6] = row_b
            tokens[5::6] = row_f.tolist()
            yield "".join(tokens)


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


def write_atomic(path: str, chunks: Iterable[str]) -> int:
    """Write via a temp file next to ``path`` + rename.  The temp file,
    ``.{16 random hex digits}.tmp`` in the same directory, has a fixed
    length, so any name the directory takes can be the target.  It is
    created exclusively with mode 0o666, so the kernel takes the umask
    off and the file gets the mode a plain ``open`` would give it.
    Returns the number of characters written (bytes, for the ASCII
    sign-map formats)."""
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            written = sum(fh.write(chunk) for chunk in chunks)
        os.replace(tmp, path)
        return written
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
