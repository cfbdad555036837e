"""Command-line front end: point evaluation, verification suites,
bound reports, and sign-map file generation.

Exit codes: 0 success, 1 check-suite failure, 2 domain or
configuration error (the typed error name goes to stderr).  All
commands are deterministic for fixed flags.  Sign maps are computed in
the calling process and their files written by a pool of forked worker
processes, one y per job (KNU_THREADS caps the number of processes,
0 = auto); output is byte-identical whatever the process count.  A
single y, a platform without the fork start method, or a caller with
other threads running, runs serially in-process.
"""

import argparse
import json
import math
import os
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import checks
from .beta import beta_knu, log_beta_knu
from .bounds import ratio_bounds
from .errors import ScalarDomainError
from .gamma import gamma_knu
from .oracle import EvalControl, oracle_eval
from .params import Params
from .psi import polygamma_knu, psi_knu
from .signmap import (
    PAPER_Y_VALUES,
    GridSpec,
    SignMap,
    desk_grid,
    grid_signmap,
    iter_signmap_csv,
    iter_signmap_pgm,
    paper_grid,
    write_atomic,
)
from .zeta import hurwitz_knu, zeta_knu


def _num(v: float) -> str:
    return f"{v:.12g}"


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


# default oracle target per function
_ORACLE_FOR_FN = {
    "gamma": "gamma-integral",
    "beta": "beta-unit-integral",
    "psi": "psi-integral",
    "polygamma": "polygamma-integral",
    "zeta": "zeta-integral",
    "hurwitz": "hurwitz-integral",
}


def _cmd_eval(args: argparse.Namespace) -> int:
    p = Params(args.k, args.nu)
    fn = args.fn
    out = {}
    if args.oracle:
        target = args.target or _ORACLE_FOR_FN[fn]
        oracle_args = {
            "gamma-integral": [args.x],
            "gamma-limit": [args.x, args.n],
            "recip-product": [args.x, args.n],
            "beta-unit-integral": [args.x, args.y],
            "beta-scaled-integral": [args.x, args.y],
            "psi-integral": [args.x],
            "psi-log-integral": [args.x],
            "polygamma-integral": [args.m, args.x],
            "zeta-integral": [args.x],
            "hurwitz-integral": [args.x, args.s],
            "sine-integral": [args.x],
        }.get(target)
        if oracle_args is None or any(v is None for v in oracle_args):
            sys.stderr.write(f"missing arguments for oracle target {target}\n")
            return 2
        res = oracle_eval(target, p, oracle_args, EvalControl())
        out = {
            "value": res.value,
            "err_estimate": res.err_estimate,
            "effort": res.effort,
            "converged": res.converged,
            "target": target,
        }
    elif fn == "gamma":
        gv = gamma_knu(p, args.x)
        out = {"value": gv.value, "log_value": gv.log_value}
    elif fn == "beta":
        if args.y is None:
            sys.stderr.write("--fn beta requires --y\n")
            return 2
        out = {"value": beta_knu(p, args.x, args.y), "log_value": log_beta_knu(p, args.x, args.y)}
    elif fn == "psi":
        out = {"value": psi_knu(p, args.x)}
    elif fn == "polygamma":
        if args.m is None:
            sys.stderr.write("--fn polygamma requires --m\n")
            return 2
        out = {"value": polygamma_knu(p, args.m, args.x)}
    elif fn == "zeta":
        out = {"value": zeta_knu(p, args.x)}
    else:  # hurwitz
        if args.s is None:
            sys.stderr.write("--fn hurwitz requires --s\n")
            return 2
        out = {"value": hurwitz_knu(p, args.x, args.s)}

    if args.format == "json":
        _emit_json(out)
    else:
        print(_num(out["value"]))
        if "log_value" in out:
            print(f"log {_num(out['log_value'])}")
        if args.oracle:
            print(f"err_estimate {_num(out['err_estimate'])}")
            print(f"effort {out['effort']}")
            print(f"converged {str(out['converged']).lower()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    knu_values = checks.GRID_KNU
    if args.grid:
        try:
            knu_values = tuple(float(v) for v in args.grid.split(","))
        except ValueError:
            sys.stderr.write(f"bad --grid value {args.grid!r}\n")
            return 2
        if not knu_values or any(v <= 0 for v in knu_values):
            sys.stderr.write("--grid values must be positive\n")
            return 2
    results = checks.run_suite(args.suite, tol=args.tol, knu_values=knu_values)
    if args.format == "json":
        _emit_json(
            [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "max_dev": r.max_dev,
                    "tol": r.tol,
                    "points": r.points,
                    "skipped": r.skipped,
                    "note": r.note,
                }
                for r in results
            ]
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.name} max_dev={r.max_dev:.3e} tol={r.tol:.3e} points={r.points}"
            if r.skipped:
                line += f" skipped={r.skipped}"
            if r.note:
                line += f" ({r.note})"
            print(line)
        n_fail = sum(1 for r in results if not r.passed)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    if not (0 < args.x1 < args.x2):
        sys.stderr.write("bounds requires 0 < x1 < x2\n")
        return 2
    p = Params(args.k, args.nu)
    r = ratio_bounds(p, args.x1, args.x2, args.y)
    fields = {
        "lower_T1": r.lower_T1,
        "upper_T1": r.upper_T1,
        "upper_T2": r.upper_T2,
        "lower_T31": r.lower_T31,
        "upper_T32": r.upper_T32,
        "actual_ratio": r.actual_ratio,
    }
    if args.format == "json":
        _emit_json(fields)
        return 0
    for name, value in fields.items():
        print(f"{name} {_num(value)}")
    best_lower = max(("lower_T1", r.lower_T1), ("lower_T31", r.lower_T31), key=lambda t: t[1])
    best_upper = min(
        ("upper_T1", r.upper_T1), ("upper_T2", r.upper_T2), ("upper_T32", r.upper_T32),
        key=lambda t: t[1],
    )
    print(f"tightest_lower {best_lower[0]}")
    print(f"tightest_upper {best_upper[0]}")
    return 0


def _fmt_y(y: float) -> str:
    return f"{y:g}"


def _worker_count(n_jobs: int, memory_heavy: bool = False) -> int:
    env = os.environ.get("KNU_THREADS", "0")
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
        if memory_heavy:
            # a full-partition map holds ~190 MB of grids per worker
            cap = min(cap, 2)
    return max(1, min(cap, n_jobs))


def _timed(chunks: Iterable[str], stage: str, seconds: Dict[str, float]) -> Iterator[str]:
    """Pass ``chunks`` through, adding the thread-CPU time spent
    producing them to ``seconds[stage]``."""
    it = iter(chunks)
    while True:
        t0 = time.thread_time()
        chunk = next(it, None)
        seconds[stage] += time.thread_time() - t0
        if chunk is None:
            return
        yield chunk


def _write_map(sm: SignMap, csv_path: str, pgm_path: str) -> Tuple[List[str], dict]:
    """Write one y's CSV and PGM; runs in a pool worker or inline.
    Returns the two paths and the job's stats: thread-CPU seconds of
    CSV formatting, PGM formatting and the rest of the writing, the
    cell count and the file sizes."""
    seconds = {"csv_s": 0.0, "pgm_s": 0.0}
    t0 = time.thread_time()
    csv_bytes = write_atomic(csv_path, _timed(iter_signmap_csv(sm), "csv_s", seconds))
    pgm_bytes = write_atomic(pgm_path, _timed(iter_signmap_pgm(sm), "pgm_s", seconds))
    seconds["write_s"] = time.thread_time() - t0 - seconds["csv_s"] - seconds["pgm_s"]
    stats = dict(seconds, cells=int(sm.values.size), csv_bytes=csv_bytes, pgm_bytes=pgm_bytes)
    return [csv_path, pgm_path], stats


def _write_maps(spec: GridSpec, jobs: List[Tuple[float, str, str]], workers: int) -> List[tuple]:
    """(paths, stats) for each (y, csv_path, pgm_path) job, in job
    order.  Maps are computed here; with more than one worker, the fork
    start method available and no other thread running, their files are
    written by a process pool.  At most ``workers + 1`` maps are in
    flight, so memory does not grow with the number of jobs: one map
    waits in the pool's queue while each worker writes another, and a
    worker that finishes starts the next map at once instead of idling
    until this process has computed and sent it."""

    def compute(y: float):
        t0 = time.thread_time()
        sm = grid_signmap(spec, y)
        return sm, {"y": y, "compute_s": time.thread_time() - t0}

    results = []
    if workers > 1:
        import multiprocessing
        import threading

        # fork copies only the calling thread: a lock held by another
        # thread would stay locked in the workers
        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            workers = 1
    if workers == 1:
        for y, csv_path, pgm_path in jobs:
            sm, stats = compute(y)
            paths, job_stats = _write_map(sm, csv_path, pgm_path)
            results.append((paths, dict(stats, **job_stats)))
        return results

    import collections
    import concurrent.futures

    def collect(pending):
        future, stats = pending.popleft()
        paths, job_stats = future.result()
        results.append((paths, dict(stats, **job_stats)))

    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
        pending = collections.deque()
        for y, csv_path, pgm_path in jobs:
            if len(pending) > workers:
                collect(pending)
            sm, stats = compute(y)
            pending.append((pool.submit(_write_map, sm, csv_path, pgm_path), stats))
            del sm  # the pool holds it until its job is done
        while pending:
            collect(pending)
    return results


def _cmd_signmap(args: argparse.Namespace) -> int:
    if "{y}" not in args.out_csv or "{y}" not in args.out_pgm:
        sys.stderr.write("--out-csv and --out-pgm must contain the placeholder {y}\n")
        return 2
    if args.y:
        try:
            y_values = tuple(float(v) for v in args.y.split(","))
        except ValueError:
            sys.stderr.write(f"bad --y value {args.y!r}\n")
            return 2
        if not all(v > 0 and math.isfinite(v) for v in y_values):
            sys.stderr.write("--y values must be positive and finite\n")
            return 2
    else:
        y_values = PAPER_Y_VALUES
    mode = "paper" if args.paper_grid else args.mode
    spec = paper_grid(y_values) if mode == "paper" else desk_grid(y_values)
    jobs = [
        (y, args.out_csv.replace("{y}", _fmt_y(y)), args.out_pgm.replace("{y}", _fmt_y(y)))
        for y in y_values
    ]
    workers = _worker_count(len(jobs), memory_heavy=(mode == "paper"))
    try:
        results = _write_maps(spec, jobs, workers)
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 2
    except ValueError as exc:  # a y whose map overflows; its files are not written
        sys.stderr.write(f"cannot compute sign map: {exc}\n")
        return 2
    for paths, stats in results:
        if args.stats:
            sys.stderr.write(json.dumps(stats, sort_keys=True, separators=(",", ":")) + "\n")
        for path in paths:
            print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knu",
        description="Two-parameter deformed Gamma/Beta/Psi/Zeta toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at a point")
    pe.add_argument("--fn", required=True, choices=sorted(_ORACLE_FOR_FN))
    pe.add_argument("--k", type=float, default=1.0)
    pe.add_argument("--nu", type=float, default=1.0)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--y", type=float, help="second Beta argument")
    pe.add_argument("--m", type=int, help="polygamma order (>= 1)")
    pe.add_argument("--s", type=float, help="Hurwitz exponent argument")
    pe.add_argument("--oracle", action="store_true",
                    help="route through the slow independent evaluator")
    pe.add_argument("--target", choices=[
        "gamma-integral", "gamma-limit", "recip-product", "beta-unit-integral",
        "beta-scaled-integral", "psi-integral", "psi-log-integral",
        "polygamma-integral", "zeta-integral", "hurwitz-integral", "sine-integral",
    ], help="override the oracle representation")
    pe.add_argument("--n", type=int, default=1_000_000,
                    help="truncation length for limit/product targets")
    pe.add_argument("--format", choices=["text", "json"], default="text")
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("check", help="run a verification suite")
    pc.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    pc.add_argument("--tol", type=float, help="override every check tolerance")
    pc.add_argument("--grid", help="comma list of k/nu grid values (default 0.5,1,2,3)")
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=_cmd_check)

    pb = sub.add_parser("bounds", help="Beta-ratio bound report at one point")
    pb.add_argument("--k", type=float, default=1.0)
    pb.add_argument("--nu", type=float, default=1.0)
    pb.add_argument("--x1", type=float, required=True)
    pb.add_argument("--x2", type=float, required=True)
    pb.add_argument("--y", type=float, required=True)
    pb.add_argument("--format", choices=["text", "json"], default="text")
    pb.set_defaults(func=_cmd_bounds)

    ps = sub.add_parser("signmap", help="generate bound-comparison sign maps")
    ps.add_argument("--mode", choices=["desk", "paper"], default="desk")
    ps.add_argument("--paper-grid", action="store_true",
                    help="alias for --mode paper (full reference partition; takes minutes)")
    ps.add_argument("--y", help="comma list of y values (default: the reference 16)")
    ps.add_argument("--out-csv", required=True, help="CSV path template containing {y}")
    ps.add_argument("--out-pgm", required=True, help="PGM path template containing {y}")
    ps.add_argument("--stats", action="store_true",
                    help="write one JSON object per y to stderr: CPU seconds per stage, "
                         "cell count, file sizes")
    ps.set_defaults(func=_cmd_signmap)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScalarDomainError as exc:
        sys.stderr.write(exc.kind + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
