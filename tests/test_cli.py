"""CLI contract: output shapes, exit codes, JSON round-trips, file
generation and determinism."""

import contextlib
import functools
import io
import json
import math
import os
import select
import subprocess
import sys
import threading
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knugamma
from knugamma import Params, _fork, errors, oracle_eval
from knugamma._fork import fork_map
from knugamma.cli import _FNS, _write_maps, build_parser, main
from knugamma.oracle import ORACLE_TARGETS
from knugamma.signmap import desk_grid


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def loads(text):
    """``json.loads`` that refuses the NaN, Infinity and -Infinity
    tokens Python's json module writes and reads by default."""
    return json.loads(text, parse_constant=_not_json)


class TestEval:
    def test_gamma_unit(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--fn", "gamma", "--k", "1", "--nu", "1", "--x", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1"
        assert lines[1].startswith("log ")
        assert float(lines[1].split()[1]) == pytest.approx(0.0, abs=1e-14)

    def test_beta_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--fn", "beta", "--k", "2", "--nu", "3", "--x", "6", "--y", "6"]
        )
        assert code == 0
        assert out.splitlines()[0] == "1.5"

    def test_zeta_divergent_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["eval", "--fn", "zeta", "--k", "1", "--nu", "1", "--x", "1"])
        assert code == 2
        assert "DivergentSeries" in err

    def test_gamma_pole_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--fn", "gamma", "--x", "-3"])
        assert code == 2
        assert "PoleHit" in err

    def test_psi_value(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--fn", "psi", "--k", "2", "--nu", "3", "--x", "6"]
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(
            (math.log(2.0 / 3.0) - 0.5772156649015329) / 6.0, rel=1e-11
        )

    def test_oracle_mode_reports_effort(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--fn", "gamma", "--x", "1.3", "--oracle"]
        )
        assert code == 0
        keys = [line.split()[0] for line in out.splitlines()[1:]]
        assert keys == ["err_estimate", "effort", "converged"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--fn", "hurwitz", "--x", "1", "--s", "2", "--format", "json"]
        )
        assert code == 0
        obj = loads(out)
        assert obj["value"] == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    @pytest.mark.parametrize(
        "argv,nulls",
        [
            (["--fn", "gamma", "--x", "1000"], {"value"}),
            (["--fn", "zeta", "--x", "1.01", "--oracle"], {"value", "err_estimate"}),
        ],
    )
    def test_json_non_finite_is_null(self, capsys, argv, nulls):
        code, out, _ = run_cli(capsys, ["eval"] + argv + ["--format", "json"])
        assert code == 0
        obj = loads(out)
        assert {name for name, value in obj.items() if value is None} == nulls

    @pytest.mark.parametrize("x", [["--x", "-1e-05"], ["--x=-1e-05"], ["--x", "-inf"], ["--x", "-.5"]])
    def test_negative_float_value_exit_2(self, capsys, x):
        assert run_cli(capsys, ["eval", "--fn", "gamma"] + x) == (2, "", "PoleHit\n")

    def test_missing_companion_flag(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--fn", "beta", "--x", "1"])
        assert code == 2
        assert "--y" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_log_gamma_overflow_exit_2(self, capsys, fmt):
        # (x/c - 1) ln r = 2e305 * ln 1e300 is beyond the double range
        argv = ["eval", "--fn", "gamma", "--k", "1", "--nu", "1e-300", "--x", "2e5", "--format", fmt]
        assert run_cli(capsys, argv) == (2, "", "Overflow\n")

    def test_oracle_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["eval", "--fn", "gamma", "--x", "170", "--oracle"])
        assert (code, out, err) == (2, "", "Overflow\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_gamma_limit_first_term_overflow(self, capsys, fmt):
        # the first term c/x = 1e6/5e-324 overflows; its log does not, and
        # Gamma_{k,nu}(x) ~ c/x leaves the double range
        argv = ["eval", "--fn", "gamma", "--oracle", "--target", "gamma-limit", "--k", "1e3",
                "--nu", "1e3", "--x", "5e-324", "--n", "500", "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, argv) == (2, "", "Overflow\n")

    def test_gamma_limit_first_term_in_logs(self, capsys):
        # c/x = 1e350 overflows, Gamma_{k,nu}(x) = 1e50 does not
        flags = ["--fn", "gamma", "--k", "1e200", "--nu", "1e-100", "--x", "1e-250"]
        limit = ["--oracle", "--target", "gamma-limit", "--n", "500"]
        code, out, err = run_cli(capsys, ["eval"] + flags + limit)
        assert (code, out.splitlines()[0], err) == (0, "1e+50", "")
        assert run_cli(capsys, ["eval"] + flags)[1].splitlines() == ["1e+50", "log 115.12925465"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_recip_product_where_x_over_nu_underflows(self, capsys, fmt):
        # x/nu = 5e-327 underflows to 0; ln x - ln nu does not, and
        # 1/Gamma_{k,nu}(x) ~ x/c underflows to 0
        argv = ["eval", "--fn", "gamma", "--oracle", "--target", "recip-product", "--k", "1e3",
                "--nu", "1e3", "--x", "5e-324", "--n", "500", "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        value = loads(out)["value"] if fmt == "json" else out.splitlines()[0]
        assert (code, value, err) == (0, 0.0 if fmt == "json" else "0", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_gamma_limit_where_j_c_overflows(self, capsys, fmt):
        # c = 1e308: j c overflows from j = 2, the ratio j/(x/c + j - 1)
        # does not; the fast path gives 1e+308 at the same point
        argv = ["eval", "--fn", "gamma", "--oracle", "--target", "gamma-limit", "--k", "1e154",
                "--nu", "1e154", "--x", "1", "--n", "500", "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        if fmt == "json":
            got = loads(out)
            assert (got["value"], got["converged"]) == (1.0000000000000136e308, True)
        else:
            assert out.splitlines()[0] == "1e+308" and "converged true" in out.splitlines()
        assert (code, err) == (0, "")

    def test_gamma_limit_where_x_plus_j_c_overflows(self, capsys):
        # x + c overflows at j = 2, where j c does not; Gamma_{k,nu}(x)
        # is beyond the double range (ln of it is 3.2e9), not 0
        argv = ["eval", "--fn", "gamma", "--oracle", "--target", "gamma-limit", "--k", "1e150",
                "--nu", "1e150", "--x", "1.7976931348623157e308", "--n", "500"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, argv) == (2, "", "Overflow\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fn", "polygamma", "--x", "1", "--m", "0"],
            ["--fn", "polygamma", "--x", "1", "--m", "0", "--oracle"],
            ["--fn", "gamma", "--x", "1", "--oracle", "--target", "gamma-limit", "--n", "1"],
            ["--fn", "gamma", "--x", "1", "--oracle", "--target", "recip-product", "--n", "0"],
        ],
    )
    def test_order_or_length_below_minimum_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, ["eval"] + argv)
        assert (code, out, err) == (2, "", "DomainWindow\n")


# one value per flag an oracle target can name, inside every target's
# domain at (k, nu) = (0.5, 1)
ORACLE_FLAGS = {"x": "0.6", "y": "1.3", "m": "2", "s": "1.5", "n": "4096"}


class TestOracleTargets:
    @pytest.mark.parametrize("target", sorted(ORACLE_TARGETS))
    def test_json_equals_oracle_eval(self, capsys, target):
        names = ORACLE_TARGETS[target][1]
        argv = ["eval", "--fn", "gamma", "--k", "0.5", "--oracle", "--target", target, "--format", "json"]
        for name, value in ORACLE_FLAGS.items():
            argv += ["--" + name, value]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        values = [(int if name in ("m", "n") else float)(ORACLE_FLAGS[name]) for name in names]
        want = dict(vars(oracle_eval(target, Params(0.5, 1), values)), target=target)
        assert loads(out) == want

    @pytest.mark.parametrize(
        "target,flag",
        [(t, name) for t in sorted(ORACLE_TARGETS) for name in ORACLE_TARGETS[t][1] if name in ("y", "m", "s")],
    )
    def test_missing_flag_exit_2(self, capsys, target, flag):
        argv = ["eval", "--fn", "gamma", "--k", "0.5", "--oracle", "--target", target]
        for name, value in ORACLE_FLAGS.items():
            if name != flag:
                argv += ["--" + name, value]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"oracle target {target} requires --{flag}\n"

    def test_table_names_are_eval_flags(self):
        dests = set(vars(build_parser().parse_args(["eval", "--fn", "gamma", "--x", "1"])))
        for _, names in ORACLE_TARGETS.values():
            assert set(names) <= dests
        for target, names, _ in _FNS.values():
            assert target in ORACLE_TARGETS
            assert set(names) <= dests


class TestCheck:
    def test_pde_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "pde"])
        assert code == 0
        assert "PASS pde-residuals" in out

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "identities", "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in out

    def test_grid_override(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "pde", "--grid", "1,2"])
        assert code == 0

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["check", "--suite", "pde", "--grid", "1,zebra"])
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "pde", "--format", "json"])
        assert code == 0
        rows = loads(out)
        assert rows[0]["name"] == "pde-residuals"
        assert rows[0]["passed"] is True

    def test_identities_suite_green(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "identities"])
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 20
        assert all(l.startswith("PASS") for l in lines)

    def test_oracle_suite_green(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "oracle"])
        assert code == 0

    @pytest.mark.parametrize("grid", ["1e100", "1e-100"])
    def test_raising_checks_fail_and_the_suite_goes_on(self, grid):
        # at these grids some checks overflow or divide by zero; each
        # such check is one FAIL line naming the error, the others run
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(knugamma.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "knugamma.cli", "check", "--suite", "all", "--grid", grid],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = [l for l in proc.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 58
        raised = [l for l in lines if "(raised " in l]
        assert raised and all(l.startswith("FAIL") and "max_dev=inf" in l for l in raised)

    def test_json_raised_check_max_dev_is_null(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "identities", "--grid", "1e100",
                                        "--format", "json"])
        assert code == 1
        raised = [r for r in loads(out) if r["note"].startswith("raised ")]
        assert raised and all(r["max_dev"] is None and not r["passed"] for r in raised)


class TestBounds:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--k", "1", "--nu", "1", "--x1", "1", "--x2", "2", "--y", "1"]
        )
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert float(values["lower_T1"]) == pytest.approx(0.375)
        assert float(values["actual_ratio"]) == pytest.approx(0.5)
        assert float(values["upper_T1"]) == pytest.approx(0.5625)
        assert float(values["upper_T2"]) == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert values["tightest_upper"] == "upper_T1"
        assert values["tightest_lower"] == "lower_T31"

    def test_x1_over_c_underflows(self, capsys):
        # x1/c = 1e-500 is 0 in doubles; ln Gamma(x1/c) is still finite
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--k", "1e100", "--nu", "1e100", "--x1", "1e-300", "--x2", "1", "--y", "1",
             "--format", "json"],
        )
        assert code == 0
        obj = loads(out)
        assert len(obj) == 6 and all(math.isfinite(v) for v in obj.values())

    def test_bad_order_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--x1", "2", "--x2", "1", "--y", "1"])
        assert (code, err) == (2, "DomainWindow\n")

    @pytest.mark.parametrize("x1", [["--x1", "-inf"], ["--x1=-inf"], ["--x1", "-1e-05"], ["--x1", "0"]])
    def test_x1_not_positive_exit_2(self, capsys, x1):
        argv = ["bounds"] + x1 + ["--x2", "1", "--y", "1"]
        assert run_cli(capsys, argv) == (2, "", "PoleHit\n")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--k", "2", "--nu", "3", "--x1", "3", "--x2", "9", "--y", "6",
             "--format", "json"],
        )
        assert code == 0
        obj = loads(out)
        assert set(obj) == {
            "lower_T1", "upper_T1", "upper_T2", "lower_T31", "upper_T32", "actual_ratio",
        }
        rendered = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert rendered == out


class TestSignmapCommand:
    def test_generates_files(self, capsys, tmp_path):
        csv_t = str(tmp_path / "map_{y}.csv")
        pgm_t = str(tmp_path / "map_{y}.pgm")
        code, out, _ = run_cli(
            capsys, ["signmap", "--mode", "desk", "--y", "1", "--out-csv", csv_t, "--out-pgm", pgm_t]
        )
        assert code == 0
        csv_path = tmp_path / "map_1.csv"
        pgm_path = tmp_path / "map_1.pgm"
        assert csv_path.exists() and pgm_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "a,b,y,lnA,lnB,F"
        pgm_lines = pgm_path.read_text().splitlines()
        assert pgm_lines[0] == "P2"
        assert pgm_lines[1] == "280 280"
        assert pgm_lines[2] == "2"

    def test_template_placeholder_required(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["signmap", "--y", "1", "--out-csv", str(tmp_path / "a.csv"),
             "--out-pgm", str(tmp_path / "a.pgm")],
        )
        assert code == 2

    def test_unwritable_path_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["signmap", "--y", "1", "--out-csv", "/proc/nope/map_{y}.csv",
             "--out-pgm", "/proc/nope/map_{y}.pgm"],
        )
        assert code == 2

    def test_pool_write_error_exit_2(self, tmp_path):
        # several y jobs on a two-process pool, whatever the CPU count;
        # one job's target is a directory, so its worker raises OSError
        # after writing the temp file
        (tmp_path / "m_1.csv").mkdir()
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(knugamma.__file__)))
        two_wide = (
            "import sys\nfrom knugamma import cli\nwrite = cli._write_maps\n"
            "cli._write_maps = lambda spec, jobs: write(spec, jobs, 2)\nsys.exit(cli.main(sys.argv[1:]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", two_wide, "signmap", "--mode", "desk",
             "--y", "0.1,1,20,5", "--out-csv", str(tmp_path / "m_{y}.csv"),
             "--out-pgm", str(tmp_path / "m_{y}.pgm")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "cannot write output" in proc.stderr
        assert proc.stdout == ""
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stats_one_object_per_y(self, capsys, tmp_path):
        argv = ["signmap", "--mode", "desk", "--y", "0.5,2",
                "--out-csv", str(tmp_path / "m_{y}.csv"), "--out-pgm", str(tmp_path / "m_{y}.pgm")]
        code, plain_out, plain_err = run_cli(capsys, argv)
        assert code == 0 and plain_err == ""
        code, out, err = run_cli(capsys, argv + ["--stats"])
        assert code == 0 and out == plain_out
        records = [loads(line) for line in err.splitlines()]
        assert [r["y"] for r in records] == [0.5, 2.0]
        for r, y in zip(records, ("0.5", "2")):
            assert set(r) == {"y", "cells", "csv_bytes", "pgm_bytes",
                              "compute_s", "csv_s", "pgm_s", "write_s"}
            assert r["cells"] == 280 * 280
            assert r["csv_bytes"] == (tmp_path / f"m_{y}.csv").stat().st_size
            assert r["pgm_bytes"] == (tmp_path / f"m_{y}.pgm").stat().st_size
            assert all(r[k] >= 0.0 for k in ("compute_s", "csv_s", "pgm_s", "write_s"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("y", ["nan", "inf", "1e308", "1,1e308", "0", "-1e-05"])
    def test_non_finite_or_overflowing_y_exit_2(self, capsys, tmp_path, y):
        code, out, err = run_cli(
            capsys,
            ["signmap", "--mode", "desk", "--y", y,
             "--out-csv", str(tmp_path / "m_{y}.csv"), "--out-pgm", str(tmp_path / "m_{y}.pgm")],
        )
        assert code == 2
        assert out == ""
        assert "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_across_runs_and_threads(self, capsys, tmp_path, monkeypatch):
        # the CLI at its default width, then one, two and four processes
        # forced through _write_maps, which must fork width - 1 children
        # for the two wider runs whatever the CPU count
        forks = _count_forks(monkeypatch)
        names = ("m_0.1.csv", "m_1.csv", "m_20.csv", "m_0.1.pgm", "m_1.pgm", "m_20.pgm")
        code, _, _ = run_cli(
            capsys,
            ["signmap", "--mode", "desk", "--y", "0.1,1,20",
             "--out-csv", str(tmp_path / "cli" / "m_{y}.csv"),
             "--out-pgm", str(tmp_path / "cli" / "m_{y}.pgm")],
        )
        assert code == 0
        blobs = {"cli": {name: (tmp_path / "cli" / name).read_bytes() for name in names}}
        counts = []
        for width in (1, 2, 4):
            del forks[:]
            d = tmp_path / str(width)
            jobs = [(y, str(d / f"m_{y:g}.csv"), str(d / f"m_{y:g}.pgm")) for y in (0.1, 1.0, 20.0)]
            _write_maps(desk_grid(), jobs, width)
            counts.append(len(forks))
            blobs[width] = {name: (d / name).read_bytes() for name in names}
        assert counts == [0, 1, 3]
        assert blobs["cli"] == blobs[1] == blobs[2] == blobs[4]


def _count_forks(monkeypatch):
    """A list that gains one entry at each os.fork in this process."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _logged(log, index):
    """Append "index pid" to the file ``log``; one write per line, so
    lines from several processes do not interleave."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{index} {os.getpid()}\n".encode())
    finally:
        os.close(fd)


def _runs(log):
    """{index: [pid, ...]} of every run ``_logged`` recorded."""
    runs = {}
    for line in log.read_text().splitlines():
        index, pid = map(int, line.split())
        runs.setdefault(index, []).append(pid)
    return runs


@contextlib.contextmanager
def _caller_waits_for(j, fn):
    """``fn`` whose item 0, which the caller runs, waits until item ``j``
    has started, so the children claim items 1 to ``j`` between them."""
    gate, gate_end = os.pipe()

    def wrapped(i):
        if i == j:
            os.write(gate_end, b"x")
        elif i == 0:
            assert select.select([gate], [], [], 60)[0], f"item {j} never started"
        return fn(i)

    try:
        yield wrapped
    finally:
        os.close(gate)
        os.close(gate_end)


class TestForkMap:
    @pytest.mark.parametrize("grid", [(), ("--grid", "1e-100")], ids=["default", "1e-100"])
    @pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["text", "json"])
    def test_check_bytes_identical_at_every_width(self, capsys, monkeypatch, grid, fmt):
        forks = _count_forks(monkeypatch)
        argv = ["check", "--suite", "all", *grid, *fmt]
        outputs, counts = [], []
        for width in (1, 2, 4):
            del forks[:]
            monkeypatch.setattr(_fork, "fork_map", functools.partial(fork_map, width=width))
            outputs.append(run_cli(capsys, argv))
            counts.append(len(forks))
        assert counts == [0, 1, 3]
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][2] == ""
        _no_child_left()

    def test_item_zero_runs_in_the_caller(self):
        assert fork_map(lambda i: (i, os.getpid()), range(6), 4)[0] == (0, os.getpid())
        _no_child_left()

    def test_results_in_item_order_each_item_once(self, tmp_path):
        # more processes than cores, contending for the shared queue, and
        # more items than its records, so each record claims several:
        # an index claimed twice or never shows in the log
        log = tmp_path / "runs"

        def square(i):
            _logged(log, i)
            return i * i

        assert fork_map(square, range(1500), 8) == [i * i for i in range(1500)]
        runs = _runs(log)
        assert sorted(runs) == list(range(1500))
        assert all(len(pids) == 1 for pids in runs.values())
        assert runs[0] == [os.getpid()]
        _no_child_left()

    def test_lowest_failing_index_raised_after_every_item(self, tmp_path):
        log = tmp_path / "runs"

        def item(i):
            _logged(log, i)
            if i in (3, 5):
                raise errors.Overflow(f"item {i}")
            return i

        with _caller_waits_for(3, item) as gated, pytest.raises(errors.Overflow) as raised:
            fork_map(gated, range(8), 3)
        assert str(raised.value) == "Overflow: item 3"
        runs = _runs(log)
        assert sorted(runs) == list(range(8))
        assert runs[3] != [os.getpid()]  # raised in a child
        _no_child_left()

    def test_child_warnings_reach_the_caller(self, tmp_path):
        log = tmp_path / "runs"

        def item(i):
            _logged(log, i)
            warnings.warn(f"item {i}", UserWarning)
            return i

        with _caller_waits_for(1, item) as gated, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fork_map(gated, range(4), 2) == [0, 1, 2, 3]
        assert sorted(str(w.message) for w in caught) == [f"item {i}" for i in range(4)]
        assert all(w.category is UserWarning for w in caught)
        assert set(_runs(log)[1]) != {os.getpid()}  # warned in a child
        _no_child_left()

    def test_child_that_dies_loses_its_items(self):
        # the child runs item 1, then claims item 2 and ends: both are
        # lost, since a child sends its results only at its end
        caller = os.getpid()

        def item(i):
            if i == 2 and os.getpid() != caller:
                os._exit(3)
            return i

        with _caller_waits_for(2, item) as gated, pytest.raises(RuntimeError, match=r"items \[1, 2\]"):
            fork_map(gated, range(4), 2)
        _no_child_left()

    def test_failed_fork_leaves_the_items_to_those_started(self, monkeypatch):
        forks, fork = [], os.fork

        def fork_once():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        assert fork_map(lambda i: i * i, range(20), 4) == [i * i for i in range(20)]
        assert forks == [1]
        _no_child_left()

    def test_serial_where_one_wide_or_other_threads_run(self, monkeypatch):
        forks = _count_forks(monkeypatch)
        here = [(i, os.getpid()) for i in range(5)]
        assert fork_map(lambda i: (i, os.getpid()), range(5), 1) == here
        assert fork_map(lambda i: (i, os.getpid()), range(1), 4) == here[:1]
        assert fork_map(lambda i: (i, os.getpid()), range(0), 4) == []
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        thread.start()
        try:
            assert fork_map(lambda i: (i, os.getpid()), range(5), 4) == here
        finally:
            stop.set()
            thread.join(10)
        assert not forks and not thread.is_alive()


# knu eval's six fast paths and knu bounds, fed any float64 in every
# flag they read (any int for --m).  Each value goes both as
# --flag=value and as --flag value, and the two runs must agree:
# argparse must not take a value such as -1e-05 or -inf for an option.
KINDS = {
    cls.kind for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ScalarDomainError)
}
CLI_PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)
FLAG_VALUES = st.fixed_dictionaries(
    {"k": st.floats(), "nu": st.floats(), "x": st.floats(), "y": st.floats(), "s": st.floats(),
     "m": st.integers()}
)
BOUNDS_VALUES = st.fixed_dictionaries({name: st.floats() for name in ("k", "nu", "x1", "x2", "y")})


def _run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; an exception out
    of it fails the test as the traceback it would print."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_value_or_one_error_line(argv, values, fmt):
    """Exit 0 with no nan and a finite log value, or exit 2 with an
    error kind as the one stderr line; the same with each value joined
    to its flag and as a word of its own."""
    joined = [f"--{name}={value!r}" for name, value in values.items()]
    separate = [word for name, value in values.items() for word in (f"--{name}", repr(value))]
    code, out, err = _run_main(argv + joined + ["--format", fmt])
    assert _run_main(argv + separate + ["--format", fmt]) == (code, out, err), (argv, values)
    argv = argv + joined
    if code == 0:
        assert err == "" and "nan" not in out.lower(), (argv, out)
        if fmt == "json":
            logs = [loads(out).get("log_value", 0.0)]
        else:
            logs = [float(line[4:]) for line in out.splitlines() if line.startswith("log ")]
        assert all(map(math.isfinite, logs)), (argv, out)
    else:
        assert (code, out) == (2, "") and err.endswith("\n") and err[:-1] in KINDS, (argv, code, out, err)


@CLI_PROPERTY
@given(st.sampled_from(sorted(_FNS)), FLAG_VALUES, st.sampled_from(["text", "json"]))
@example("gamma", {"k": 1.0, "nu": 1e-300, "x": 2e5, "y": 1.0, "s": 1.0, "m": 1}, "text")
@example("gamma", {"k": 1.0, "nu": 1e-300, "x": 2e5, "y": 1.0, "s": 1.0, "m": 1}, "json")
@example("beta", {"k": 1e100, "nu": 1e100, "x": 1e-300, "y": 1.0, "s": 1.0, "m": 1}, "text")
@example("polygamma", {"k": 1.0, "nu": 1.0, "x": 1.0, "y": 1.0, "s": 1.0, "m": 0}, "text")
def test_eval_fast_paths_any_float(fn, values, fmt):
    read = ("k", "nu") + _FNS[fn][1]
    _assert_value_or_one_error_line(["eval", "--fn", fn], {n: values[n] for n in read}, fmt)


@CLI_PROPERTY
@given(BOUNDS_VALUES, st.sampled_from(["text", "json"]))
@example({"k": 1e100, "nu": 1e100, "x1": 1e-300, "x2": 1.0, "y": 1.0}, "text")
@example({"k": 1.0, "nu": 1.0, "x1": 1e-300, "x2": 1e300, "y": 1e-300}, "json")
@example({"k": 1.0, "nu": 1.0, "x1": math.nan, "x2": 1.0, "y": 1.0}, "text")
def test_bounds_any_float(values, fmt):
    _assert_value_or_one_error_line(["bounds"], values, fmt)
