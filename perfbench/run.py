"""knugamma benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (the package is imported from
its ``src/``; nothing is installed).  Workloads, each run in a fresh
child process (``workloads.py``):

  eval-mix       seeded public calls, 20k per pass: scalar engine and
                 the thin (k, nu) fast paths, 2% out-of-domain calls
  verify         ``knu check --suite all --format json`` in-process
  signmap-desk   ``knu signmap --mode desk`` over the 16 default y
  signmap-paper  ``knu signmap --paper-grid --y 20``: one 2792^2 map;
                 run by hand, not listed in ``BENCHMARK.json`` (one
                 ~27 s pass leaves no room for repeats)

``--seed`` draws the eval-mix stream; the other workloads run fixed
CLI invocations whose outputs are pinned by ``golden.json`` (sha256 of
every CSV/PGM the seed code writes).

``--trace 0`` reports the end-to-end figures: ``setup_s`` (fresh
interpreter to ``import knugamma.cli`` done, median of several), and
from the child ``wall_s``, ``ops_per_s``, ``op_p50_us`` and
``op_p99_us``, each the lower quartile of its per-pass values (an op is
a call, a check, or a y map), and ``peak_rss_mb``.  The two per-op
percentiles are printed and recorded but left out of the final JSON
and ``BENCHMARK.json``.  ``--trace 1`` makes a separate run with every
public function wrapped and reports per-layer figures; its timings are
not end-to-end figures.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run record with
the host details goes to ``.perfbench/``.

``--smoke`` runs every workload once at tiny sizes, traced and
untraced, and exits non-zero unless each is correct.  Every run fails
unless it computes exactly the metrics ``BENCHMARK.json`` names (plus
the two printed percentiles).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("eval-mix", "verify", "signmap-desk", "signmap-paper")
SETUP_PROBES = 7
DEADLINE_S = 175.0
# Printed and recorded, not in BENCHMARK.json: per-op percentiles swing
# with the shared host's speed far more than whole-pass times do.
UNGATED_UNITS = {"op_p50_us": "us", "op_p99_us": "us"}


def load_spec():
    """Metric names and units, in order, from BENCHMARK.json:
    (end-to-end, per-layer)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # the per-y pool runs at its default width
    env.pop("KNU_THREADS", None)
    return env


def _run(cmd, timeout):
    """Run a child to completion; kill it if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise SystemExit(f"child failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def measure_setup(probes):
    """Fresh interpreter to ``import knugamma.cli`` done, as seen from
    this process's clock (CLOCK_MONOTONIC is shared across processes).
    One unmeasured probe first compiles the bytecode cache."""
    code = "import time, knugamma.cli; print(time.perf_counter())"
    samples = []
    for i in range(probes + 1):
        t0 = time.perf_counter()
        done = float(_run([sys.executable, "-c", code], 60).split()[-1])
        if i:
            samples.append(done - t0)
    return samples


def calibrate():
    """A fixed pure-Python loop; its time shows a slowed host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run_record():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "KNU_THREADS": os.environ.get("KNU_THREADS"),
        "calibration_s": calibrate(),
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    began = time.perf_counter()
    record = run_record()
    setup = measure_setup(1 if smoke else SETUP_PROBES)
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    out = _run(cmd, DEADLINE_S - (time.perf_counter() - began))
    child = json.loads(out.strip().splitlines()[-1])
    values = child["metrics"]
    units = load_spec()[trace]
    if not trace:
        values.update(setup_s=statistics.median(setup), peak_rss_mb=child["peak_rss_mb"])
        units = dict(units, **UNGATED_UNITS)
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    attempted, failed = child["attempted"], child["failed"]
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace, smoke=smoke,
                  setup_samples=setup, child=child, result=result)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"run-{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return result, child, setup, record


def report(workload, result, child, setup, record):
    """Human-readable lines: every metric with its unit and sample count."""
    s = child["samples"]
    print(f"# {workload} seed={child['seed']} nproc={record['nproc']} "
          f"cpu_count={record['cpu_count']} python={record['python']} numpy={record['numpy']} "
          f"commit={record['git_commit']} KNU_THREADS={record['KNU_THREADS']} "
          f"calibration_s={record['calibration_s']:.4f}")
    m = result["metrics"]
    if "wall_s" in m:
        unit = child["op_unit"]
        quartile = f"lower quartile of {s['passes']} passes of {s['ops']} {unit}"
        counts = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": quartile,
            "ops_per_s": f"{unit}/s, {quartile}",
            "op_p50_us": f"per-pass median, {quartile}",
            "op_p99_us": f"per-pass 99th percentile, {quartile}",
            "peak_rss_mb": "max RSS of the workload's child process",
        }
    else:
        counts = {}
        print(f"# traced: median of {s['passes']} traced passes; overhead ratio is fastest "
              f"traced over fastest of {s['untraced_passes']} untraced passes")
    for name, v in m.items():
        print(f"{workload} {name} {v['value']:.6g} {v['unit']}"
              + (f" ({counts[name]})" if name in counts else ""))
    ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{workload} failed_ratio {ratio:.6g} 1 ({result['failed']}/{result['attempted']} "
          f"{child['op_unit']} failed the correctness gate)")


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, child, setup, record = run_workload(workload, 1, 0.0, trace, smoke=True)
            report(workload, result, child, setup, record)
            if not result["correct"]:
                print(f"SMOKE FAIL {workload} trace={trace}: outputs incorrect")
                ok = False
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="knugamma benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "knugamma", "cli.py")):
        sys.stderr.write(f"no knugamma sources under {SRC}; run from a source checkout\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, child, setup, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, result, child, setup, record)
    gated = load_spec()[args.trace]
    print(json.dumps(dict(result, metrics={k: result["metrics"][k] for k in gated})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
