"""Sign maps: cellwise values, grid construction, matrix layout, and
the text serializations."""

import hashlib
import itertools
import json
import math
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knugamma.signmap import (
    PAPER_Y_VALUES,
    _BLOCK_ROWS,
    GridSpec,
    _blocks,
    _repr_rows,
    desk_grid,
    grid_signmap,
    iter_signmap_csv,
    iter_signmap_pgm,
    log_bound_terms,
    paper_grid,
    sign_F,
    write_atomic,
)


class TestSignF:
    def test_diagonal_zero(self):
        for v in (0.1, 1.0, 5.0, 437.0, 1001.0):
            assert sign_F(v, v, 1.0) == 0

    def test_int_for_scalars_int8_for_arrays(self):
        assert type(sign_F(1.0, 2.0, 1.0)) is int
        out = sign_F(np.array([1.0, 2.0]), np.array([[2.0], [1.0]]), 1.0)
        assert out.dtype == np.int8
        assert out.tolist() == [[1, 0], [0, -1]]

    def test_small_example_positive(self):
        # A = 64/81 vs B = 3/4
        assert sign_F(1.0, 2.0, 1.0) == 1

    def test_small_example_negative(self):
        # A = 81/64 vs B = 4/3
        assert sign_F(2.0, 1.0, 1.0) == -1

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(1001.0), size=2))
            y = float(rng.uniform(0.1, 20.0))
            assert sign_F(float(a), float(b), y) == -sign_F(float(b), float(a), y)

    def test_log_terms_match_direct_arithmetic(self):
        ln_a, ln_b = log_bound_terms(1.0, 2.0, 1.0)
        assert float(ln_a) == pytest.approx(np.log(64.0 / 81.0), rel=1e-14)
        assert float(ln_b) == pytest.approx(np.log(3.0 / 4.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sign_F(0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "a, b, y",
        [
            (1.0, 2.0, math.inf),
            (math.inf, 2.0, 1.0),
            (1.0, math.inf, 1.0),
            (math.nan, 2.0, 1.0),
            (1.0, 2.0, math.nan),
            (1e308, 1.5e308, 1.0),  # finite inputs, overflowing log terms
            (np.array([1.0, math.nan]), 2.0, 1.0),  # one bad element of an array
            (np.array([1.0, 0.0]), 2.0, 1.0),
            (1.0, np.array([[2.0], [0.0]]), 1.0),
            (1.0, 2.0, np.array([1.0, math.nan])),
            (np.array([1.0, 1e308]), np.array([2.0, 1.5e308]), 1.0),
        ],
    )
    def test_rejects_non_finite(self, a, b, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                sign_F(a, b, y)


class TestGrids:
    def test_paper_axis_counts(self):
        spec = paper_grid()
        assert len(spec.points) == 2792  # 991 + 900 + 901
        assert spec.points[0] == pytest.approx(0.1)
        assert spec.points[990] == pytest.approx(10.0)
        assert spec.points[-1] == pytest.approx(1001.0)

    def test_desk_axis(self):
        spec = desk_grid()
        assert len(spec.points) == 280
        assert spec.points[0] == pytest.approx(0.1)
        assert spec.points[-1] == pytest.approx(1001.0)
        diffs = np.diff(spec.points)
        assert np.all(diffs > 0)

    def test_default_y_sweep(self):
        assert len(PAPER_Y_VALUES) == 16
        assert PAPER_Y_VALUES[0] == pytest.approx(0.1)
        assert PAPER_Y_VALUES[-1] == 20.0

    def test_rejects_unsorted(self):
        from knugamma.signmap import GridSpec

        with pytest.raises(ValueError):
            GridSpec(points=(1.0, 0.5))


class TestGridSignmap:
    @pytest.mark.parametrize("y", [math.nan, math.inf, 1e308])
    def test_rejects_non_finite_log_terms(self, y):
        spec = GridSpec(points=(0.5, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                grid_signmap(spec, y)

    def test_matrix_layout_b_descending(self):
        spec = desk_grid(n_points=50)
        sm = grid_signmap(spec, 1.0)
        n = len(spec.points)
        assert sm.values.shape == (n, n)
        # cells with a == b sit on the anti-diagonal and are exactly 0
        for i in range(n):
            assert sm.values[n - 1 - i, i] == 0

    def test_matches_cellwise_sign_F(self):
        spec = desk_grid()
        axis = np.asarray(spec.points)
        aa, bb = np.meshgrid(axis, axis[::-1])
        for y in PAPER_Y_VALUES:
            assert np.array_equal(grid_signmap(spec, y).values, sign_F(aa, bb, y)), y

    def test_antisymmetry_under_swap(self):
        spec = desk_grid(n_points=64)
        sm = grid_signmap(spec, 20.0)
        a = np.asarray(spec.points)
        aa, bb = np.meshgrid(a, a[::-1])
        assert np.array_equal(sm.values, -sign_F(bb, aa, 20.0))

    def test_small_y_small_block_pattern(self):
        # inside [0.1, 10]^2 at y = 0.1: +1 strictly above the a = b
        # line, -1 strictly below
        spec = desk_grid()
        sm = grid_signmap(spec, 0.1)
        a = np.asarray(spec.points)
        aa, bb = np.meshgrid(a, a[::-1])
        block = (aa <= 10.0) & (bb <= 10.0)
        above = block & (bb > aa)
        below = block & (aa > bb)
        assert np.all(sm.values[above] == 1)
        assert np.all(sm.values[below] == -1)


class TestSerialization:
    def _small_map(self):
        spec = desk_grid(n_points=8)
        return grid_signmap(spec, 1.0)

    def test_csv_header_and_shape(self):
        sm = self._small_map()
        text = "".join(iter_signmap_csv(sm))
        lines = text.splitlines()
        assert lines[0] == "a,b,y,lnA,lnB,F"
        assert len(lines) == 1 + 64
        first = lines[1].split(",")
        # first row: largest b, smallest a
        assert float(first[0]) == pytest.approx(0.1)
        assert float(first[1]) == pytest.approx(1001.0)
        assert first[5] in {"-1", "0", "1"}

    def test_csv_round_trips_floats(self):
        sm = self._small_map()
        for line in "".join(iter_signmap_csv(sm)).splitlines()[1:3]:
            a, b, y, ln_a, ln_b, f = line.split(",")
            assert repr(float(a)) == a
            assert repr(float(ln_a)) == ln_a

    def test_pgm_structure(self):
        sm = self._small_map()
        text = "".join(iter_signmap_pgm(sm))
        lines = text.splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "8 8"
        assert lines[2] == "2"
        pixels = " ".join(lines[3:]).split()
        assert len(pixels) == 64
        assert set(pixels) <= {"0", "1", "2"}
        assert all(len(line) <= 70 for line in lines)

    def test_pgm_diagonal_value_one(self):
        sm = self._small_map()
        lines = "".join(iter_signmap_pgm(sm)).splitlines()
        pixels = np.array(" ".join(lines[3:]).split(), dtype=int).reshape(8, 8)
        for i in range(8):
            assert pixels[7 - i, i] == 1

    def test_write_atomic_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_atomic(str(tmp_path / "a.txt"), "x\n")
            os.umask(0o077)
            write_atomic(str(tmp_path / "b.txt"), ["x", "\n"])
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "a.txt").st_mode) == 0o644
        assert stat.S_IMODE(os.stat(tmp_path / "b.txt").st_mode) == 0o600
        assert (tmp_path / "b.txt").read_text() == "x\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_write_atomic_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # setting the umask, even to put it back, changes it for every
        # thread of the process in between
        def umask(mask):
            raise AssertionError(f"write_atomic set the umask to {mask:#o}")

        monkeypatch.setattr(os, "umask", umask)
        assert write_atomic(str(tmp_path / "a.txt"), ["x", "\n"]) == 2
        assert (tmp_path / "a.txt").read_text() == "x\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_write_atomic_to_a_255_character_name(self, tmp_path):
        # the temp name must not be longer than the longest target name
        name = "m" * 251 + ".csv"
        assert write_atomic(str(tmp_path / name), ["x", "\n"]) == 2
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_pgm_line_breaks_for_any_width(self):
        # widths around the 35-token line: every pixel kept in order,
        # every line <= 70 characters and newline-terminated
        for n in (2, 34, 35, 36, 71):
            sm = grid_signmap(desk_grid(n_points=n), 1.0)
            text = "".join(iter_signmap_pgm(sm))
            assert text.endswith("\n")
            lines = text.splitlines()[3:]
            assert all(len(line) <= 70 for line in lines)
            pixels = np.array(" ".join(lines).split(), dtype=int)
            assert np.array_equal(pixels, (sm.values + 1).ravel())

    def test_csv_fixes_some_tokens_of_a_row(self):
        # points a hair apart make |lnA| < 1e-4, and y = 1e-05 makes
        # every nonzero lnB so small: those tokens take repr's exponent
        # form; a = 1e-3 against b = 1e3 keeps lnA ~ 0.01 in orjson's text
        spec = GridSpec(points=(1e-3, 0.5, 0.5 + 1e-9, 3.0, 1e3))
        y = 1e-05
        sm = grid_signmap(spec, y)
        axis = np.asarray(spec.points)
        aa, bb = np.meshgrid(axis, axis[::-1])
        ln_a, ln_b = log_bound_terms(aa, bb, y)
        tiny = (np.abs(ln_a) < 1e-4) & (ln_a != 0.0)
        assert tiny[0].any() and (np.abs(ln_a[0]) >= 1e-4).any()  # both kinds in the first row
        want = ["a,b,y,lnA,lnB,F\n"] + [
            f"{a!r},{b!r},{y!r},{la!r},{lb!r},{f}\n"
            for a, b, la, lb, f in zip(*(m.ravel().tolist() for m in (aa, bb, ln_a, ln_b, sm.values)))
        ]
        assert "".join(iter_signmap_csv(sm)) == "".join(want)

    def test_deterministic_bytes(self):
        spec = desk_grid(n_points=40)
        a = "".join(iter_signmap_csv(grid_signmap(spec, 2.5)))
        b = "".join(iter_signmap_csv(grid_signmap(spec, 2.5)))
        assert a == b
        pa = "".join(iter_signmap_pgm(grid_signmap(spec, 2.5)))
        pb = "".join(iter_signmap_pgm(grid_signmap(spec, 2.5)))
        assert pa == pb


_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 9.999999999999999e-05,
    1e-4, 1.0000000000000002e-4, 9999999999999998.0, 1e16, 1.0000000000000002e16,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
)


class TestReprRow:
    """The CSV row formatter writes every float64 of a block exactly as
    ``repr``, in the rows that need a fix-up and in those that do not."""

    @staticmethod
    def _want(block):
        return [[repr(v) for v in row] for row in block.tolist()]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example(list(_EDGE_FLOATS))
    def test_matches_repr(self, values):
        row = np.array(values, dtype=np.float64)
        # a row of ordinary values between the drawn rows: no fix-up there
        block = np.stack([row, np.linspace(0.5, 7.5, len(row)), row[::-1]])
        want = self._want(block)
        assert list(_repr_rows(block)) == want
        # a strided (non-contiguous) view of the same values
        wide = np.empty((3, 2 * len(row)))
        wide[:, ::2] = block
        assert list(_repr_rows(wide[:, ::2])) == want
        # a Fortran-ordered block, and a column slice of a C-ordered array
        assert list(_repr_rows(np.asfortranarray(block))) == want
        assert list(_repr_rows(np.tile(block[:, :, None], (1, 1, 2))[:, :, 1])) == want

    def test_random_bit_patterns(self):
        # uniform over the 2^64 bit patterns: every exponent, sign,
        # subnormals and nan payloads
        bits = np.random.default_rng(11).integers(0, 2**64, 20000, dtype=np.uint64)
        block = bits.view(np.float64).reshape(100, 200)
        assert list(_repr_rows(block)) == self._want(block)


class TestGoldenSnapshot:
    # frozen bytes for a hand-checkable 4x4 grid: guards the CSV/PGM
    # format against accidental drift
    GOLDEN_CSV = (
        "a,b,y,lnA,lnB,F\n"
        "0.5,4.0,1.0,-0.671772127894819,-0.8754687373538999,1\n"
        "1.0,4.0,1.0,-0.6457141273253129,-0.6931471805599452,1\n"
        "2.0,4.0,1.0,-0.4101480560125452,-0.4054651081081644,-1\n"
        "4.0,4.0,1.0,0.0,0.0,0\n"
        "0.5,2.0,1.0,-0.26162407188227466,-0.47000362924573547,1\n"
        "1.0,2.0,1.0,-0.23556607131276763,-0.2876820724517808,1\n"
        "2.0,2.0,1.0,0.0,0.0,0\n"
        "4.0,2.0,1.0,0.41014805601254434,0.4054651081081644,1\n"
        "0.5,1.0,1.0,-0.02605800056950658,-0.18232155679395468,1\n"
        "1.0,1.0,1.0,0.0,0.0,0\n"
        "2.0,1.0,1.0,0.23556607131276763,0.2876820724517808,-1\n"
        "4.0,1.0,1.0,0.6457141273253124,0.6931471805599452,-1\n"
        "0.5,0.5,1.0,0.0,0.0,0\n"
        "1.0,0.5,1.0,0.0260580005695068,0.18232155679395468,-1\n"
        "2.0,0.5,1.0,0.26162407188227466,0.47000362924573547,-1\n"
        "4.0,0.5,1.0,0.671772127894819,0.8754687373538999,-1\n"
    )
    GOLDEN_PGM = "P2\n4 4\n2\n2 2 0 1 2 2 1 2 2 1 0 0 1 0 0 0\n"

    def _map(self):
        from knugamma.signmap import GridSpec

        spec = GridSpec(points=(0.5, 1.0, 2.0, 4.0))
        return grid_signmap(spec, 1.0)

    def test_csv_golden(self):
        assert "".join(iter_signmap_csv(self._map())) == self.GOLDEN_CSV

    def test_pgm_golden(self):
        assert "".join(iter_signmap_pgm(self._map())) == self.GOLDEN_PGM


class TestBoundBridge:
    def test_sign_matches_ratio_bound_comparison(self):
        # F(a, b, y) is exactly the comparison of the two closed-form
        # upper bounds in the classical reduction (k = nu = 1,
        # x1 = a, x2 = b): an independent route through ratio_bounds
        # must agree wherever the gap is clearly nonzero.
        from knugamma import Params, ratio_bounds

        p = Params(1.0, 1.0)
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(200):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(300.0), size=2)))
            if b - a < 1e-9:
                continue
            y = float(rng.uniform(0.1, 20.0))
            r = ratio_bounds(p, float(a), float(b), y)
            if not (np.isfinite(r.upper_T32) and np.isfinite(r.upper_T1)):
                continue
            gap = abs(r.upper_T32 - r.upper_T1) / max(r.upper_T32, r.upper_T1)
            if gap < 1e-9:
                continue
            want = 1 if r.upper_T32 > r.upper_T1 else -1
            assert sign_F(float(a), float(b), y) == want
            checked += 1
        assert checked > 100


class TestPaperMode:
    def test_full_partition_map(self):
        # one full reference-partition map: 2792 x 2792 cells
        spec = paper_grid()
        sm = grid_signmap(spec, 1.0)
        n = 2792
        assert sm.values.shape == (n, n)
        # a = b cells are exact zeros
        idx = np.arange(n)
        assert np.all(sm.values[n - 1 - idx, idx] == 0)
        # spot-check the worked cells
        assert sm.values[n - 1 - 90, 190] == sign_F(spec.points[190], spec.points[90], 1.0)

    def test_paper_map_20_digests(self):
        # the full-partition y = 20 CSV and PGM, hashed as they stream,
        # against the digests the benchmark checks its files with
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        want = json.loads(golden.read_text())["paper"]
        sm = grid_signmap(paper_grid(), 20.0)
        for name, chunks in (("map_20.csv", iter_signmap_csv(sm)), ("map_20.pgm", iter_signmap_pgm(sm))):
            digest = hashlib.sha256()
            for chunk in chunks:
                digest.update(chunk.encode("ascii"))
            assert digest.hexdigest() == want[name], name


class TestLogBlocks:
    """``log_bound_terms`` on the blocks the grid and the CSV writer
    iterate (a row of a against a column of b) is ``log_bound_terms``
    on the meshgrid, byte for byte."""

    @staticmethod
    def _assert_bit_identical(spec, y, n_blocks=None):
        blocks = [log_bound_terms(a, b, y) for a, b in itertools.islice(_blocks(spec), n_blocks)]
        ln_a = np.concatenate([blk[0] for blk in blocks])
        ln_b = np.concatenate([blk[1] for blk in blocks])
        b_desc = np.asarray(spec.points)[::-1][: len(ln_a)]
        aa, bb = np.meshgrid(np.asarray(spec.points), b_desc)
        want_a, want_b = log_bound_terms(aa, bb, y)
        assert ln_a.tobytes() == want_a.tobytes()
        assert ln_b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("y", PAPER_Y_VALUES)
    def test_desk_grid(self, y):
        self._assert_bit_identical(desk_grid(), y)

    @pytest.mark.parametrize("y", [20.0, 0.1])
    def test_paper_slice(self, y):
        # the first blocks covering at least 300 b rows of the partition
        self._assert_bit_identical(paper_grid(), y, n_blocks=-(-300 // _BLOCK_ROWS))
