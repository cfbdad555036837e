"""CLI contract: output shapes, exit codes, JSON round-trips, file
generation and determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import knugamma
from knugamma import Params, oracle_eval
from knugamma.cli import _FNS, build_parser, main
from knugamma.oracle import ORACLE_TARGETS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_missing_companion_flag(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--fn", "beta", "--x", "1"])
        assert code == 2
        assert "--y" in err

    def test_oracle_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["eval", "--fn", "gamma", "--x", "170", "--oracle"])
        assert (code, out, err) == (2, "", "Overflow\n")


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
        assert json.loads(out) == want

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
        rows = json.loads(out)
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

    def test_bad_order_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--x1", "2", "--x2", "1", "--y", "1"])
        assert code == 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--k", "2", "--nu", "3", "--x1", "3", "--x2", "9", "--y", "6",
             "--format", "json"],
        )
        assert code == 0
        obj = json.loads(out)
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
        # several y jobs on a two-process pool; one job's target is a
        # directory, so its worker raises OSError after writing the
        # temp file
        (tmp_path / "m_1.csv").mkdir()
        env = dict(os.environ, KNU_THREADS="2",
                   PYTHONPATH=os.path.dirname(os.path.dirname(knugamma.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "knugamma.cli", "signmap", "--mode", "desk",
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
        records = [json.loads(line) for line in err.splitlines()]
        assert [r["y"] for r in records] == [0.5, 2.0]
        for r, y in zip(records, ("0.5", "2")):
            assert set(r) == {"y", "cells", "csv_bytes", "pgm_bytes",
                              "compute_s", "csv_s", "pgm_s", "write_s"}
            assert r["cells"] == 280 * 280
            assert r["csv_bytes"] == (tmp_path / f"m_{y}.csv").stat().st_size
            assert r["pgm_bytes"] == (tmp_path / f"m_{y}.pgm").stat().st_size
            assert all(r[k] >= 0.0 for k in ("compute_s", "csv_s", "pgm_s", "write_s"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("y", ["nan", "inf", "1e308", "1,1e308"])
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

    def test_byte_identical_across_runs_and_threads(self, capsys, tmp_path):
        blobs = {}
        for tag, threads in (("one", "1"), ("two", "2"), ("four", "4")):
            d = tmp_path / tag
            os.environ["KNU_THREADS"] = threads
            try:
                code, _, _ = run_cli(
                    capsys,
                    ["signmap", "--mode", "desk", "--y", "0.1,1,20",
                     "--out-csv", str(d / "m_{y}.csv"), "--out-pgm", str(d / "m_{y}.pgm")],
                )
            finally:
                os.environ.pop("KNU_THREADS", None)
            assert code == 0
            blobs[tag] = {
                name: (d / name).read_bytes()
                for name in ("m_0.1.csv", "m_1.csv", "m_20.csv", "m_0.1.pgm", "m_1.pgm", "m_20.pgm")
            }
        assert blobs["one"] == blobs["two"] == blobs["four"]
