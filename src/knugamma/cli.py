"""Command-line front end: point evaluation, verification suites,
bound reports, and sign-map file generation.

Exit codes: 0 success, 1 check-suite failure, 2 domain or
configuration error (the typed error name goes to stderr).  All
commands are deterministic for fixed flags.  Every y's sign map is
computed in the calling process before any file is written; the files
are then written by a pool of forked worker processes, one y per job,
which recompute the log terms as they stream.  The pool has one process
per CPU this process may run on, at most one per y.  Output is
byte-identical whatever the process count.  A single y, a single CPU, a
platform without the fork start method, or a caller with other threads
running, runs serially in-process.

numpy, the sign-map module, the check suites, the oracle and json are
imported by the commands that use them (``signmap``, ``check``,
``eval --oracle``, the ``gamma-limit``/``recip-product`` oracle targets
and ``--format json``), not at start-up, so ``eval`` and ``bounds``
start without them.  The ``--suite`` and ``--target`` names are read
from their modules when argparse first consults them.
"""

import argparse
import importlib
import math
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from .beta import beta_knu, log_beta_knu
from .bounds import ratio_bounds
from .errors import ScalarDomainError
from .gamma import gamma_knu
from .params import Params
from .psi import polygamma_knu, psi_knu
from .zeta import hurwitz_knu, zeta_knu

if TYPE_CHECKING:
    from .signmap import GridSpec, SignMap


def _num(v: float) -> str:
    return f"{v:.12g}"


def _json(obj) -> str:
    """Canonical JSON of a flat dict or a list of them, with null for
    each float that is not finite: JSON has no inf or nan."""
    import json

    def row(d: dict) -> dict:
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in d.items()}

    obj = [row(d) for d in obj] if isinstance(obj, list) else row(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _emit_json(obj) -> None:
    sys.stdout.write(_json(obj) + "\n")


class _LazyNames:
    """argparse ``choices`` that are the keys of ``table`` in the
    knugamma submodule ``module``, which is imported only when argparse
    consults them (a value to check, help or an error), not when the
    parser is built.  Give the argument a ``metavar``: argparse
    formats the choices of an argument without one as it adds it."""

    def __init__(self, module: str, table: str):
        self.module, self.table = module, table

    def _names(self) -> List[str]:
        return sorted(getattr(importlib.import_module("." + self.module, __package__), self.table))

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())


def _flags(args: argparse.Namespace, names: Tuple[str, ...], who: str) -> Optional[list]:
    """The values of the ``knu eval`` flags ``names``, or None after
    writing the first one missing to stderr as a flag ``who`` requires."""
    values = [getattr(args, name) for name in names]
    if None in values:
        sys.stderr.write(f"{who} requires --{names[values.index(None)]}\n")
        return None
    return values


# --fn name -> (default oracle target, the flags its fast path reads,
# the fast path); the fast paths look their functions up in this module
# when called, so a wrapper bound there (perfbench's tracer) is the one run
_FNS = {
    "gamma": ("gamma-integral", ("x",), lambda p, x: vars(gamma_knu(p, x))),
    "beta": ("beta-unit-integral", ("x", "y"),
             lambda p, x, y: {"value": beta_knu(p, x, y), "log_value": log_beta_knu(p, x, y)}),
    "psi": ("psi-integral", ("x",), lambda p, x: {"value": psi_knu(p, x)}),
    "polygamma": ("polygamma-integral", ("m", "x"), lambda p, m, x: {"value": polygamma_knu(p, m, x)}),
    "zeta": ("zeta-integral", ("x",), lambda p, x: {"value": zeta_knu(p, x)}),
    "hurwitz": ("hurwitz-integral", ("x", "s"), lambda p, x, s: {"value": hurwitz_knu(p, x, s)}),
}


def _cmd_eval(args: argparse.Namespace) -> int:
    p = Params(args.k, args.nu)
    target, names, fast_path = _FNS[args.fn]
    if args.oracle:
        from .oracle import ORACLE_TARGETS, oracle_eval

        target = args.target or target
        values = _flags(args, ORACLE_TARGETS[target][1], f"oracle target {target}")
        if values is None:
            return 2
        out = dict(vars(oracle_eval(target, p, values)), target=target)
    else:
        values = _flags(args, names, f"--fn {args.fn}")
        if values is None:
            return 2
        out = fast_path(p, *values)

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
    from . import checks

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
        _emit_json([vars(r) for r in results])
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
    p = Params(args.k, args.nu)
    fields = vars(ratio_bounds(p, args.x1, args.x2, args.y))
    if args.format == "json":
        _emit_json(fields)
        return 0
    for name, value in fields.items():
        print(f"{name} {_num(value)}")
    print(f"tightest_lower {max(('lower_T1', 'lower_T31'), key=fields.get)}")
    print(f"tightest_upper {min(('upper_T1', 'upper_T2', 'upper_T32'), key=fields.get)}")
    return 0


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


def _write_map(sm: "SignMap", csv_path: str, pgm_path: str) -> dict:
    """Write one y's CSV and PGM; runs in a pool worker or inline.
    Returns the job's stats: thread-CPU seconds of CSV formatting, PGM
    formatting and the rest of the writing, the cell count and the file
    sizes."""
    from .signmap import iter_signmap_csv, iter_signmap_pgm, write_atomic

    seconds = {"csv_s": 0.0, "pgm_s": 0.0}
    t0 = time.thread_time()
    csv_bytes = write_atomic(csv_path, _timed(iter_signmap_csv(sm), "csv_s", seconds))
    pgm_bytes = write_atomic(pgm_path, _timed(iter_signmap_pgm(sm), "pgm_s", seconds))
    seconds["write_s"] = time.thread_time() - t0 - seconds["csv_s"] - seconds["pgm_s"]
    return dict(seconds, cells=int(sm.values.size), csv_bytes=csv_bytes, pgm_bytes=pgm_bytes)


def _write_maps(
    spec: "GridSpec", jobs: List[Tuple[float, str, str]], width: Optional[int] = None
) -> List[dict]:
    """The stats of each (y, csv_path, pgm_path) job, in job order.
    Every y's map is computed here before any file is written, so a y
    whose log terms overflow leaves no file behind.  Then, with a
    ``width`` above one, the fork start method available and no other
    thread running, a pool of ``width`` processes writes the files, one
    y per job; otherwise they are written here.  The default width is
    the number of CPUs this process may run on, at most one per job."""
    from .signmap import grid_signmap

    if width is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        width = min(cpus, len(jobs))

    ys, csv_paths, pgm_paths = zip(*jobs)
    maps, computed = [], []
    for y in ys:
        t0 = time.thread_time()
        maps.append(grid_signmap(spec, y))
        computed.append({"y": y, "compute_s": time.thread_time() - t0})
    import multiprocessing
    import threading

    # fork copies only the calling thread: a lock held by another
    # thread would stay locked in the workers
    if width == 1 or "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        written = list(map(_write_map, maps, csv_paths, pgm_paths))
    else:
        import concurrent.futures

        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(width, mp_context=context) as pool:
            written = list(pool.map(_write_map, maps, csv_paths, pgm_paths))
    return [dict(stats, **job_stats) for stats, job_stats in zip(computed, written)]


def _cmd_signmap(args: argparse.Namespace) -> int:
    from .signmap import PAPER_Y_VALUES, desk_grid, paper_grid

    if "{y}" not in args.out_csv or "{y}" not in args.out_pgm:
        sys.stderr.write("--out-csv and --out-pgm must contain the placeholder {y}\n")
        return 2
    if args.y:
        try:
            y_values = tuple(float(v) for v in args.y.split(","))
        except ValueError:
            sys.stderr.write(f"bad --y value {args.y!r}\n")
            return 2
    else:
        y_values = PAPER_Y_VALUES
    spec = paper_grid() if args.paper_grid or args.mode == "paper" else desk_grid()
    jobs = [(y, args.out_csv.replace("{y}", f"{y:g}"), args.out_pgm.replace("{y}", f"{y:g}"))
            for y in y_values]
    try:
        results = _write_maps(spec, jobs)
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 2
    except ValueError as exc:  # a y not finite and > 0, or whose map overflows; no file is written
        sys.stderr.write(f"cannot compute sign map: {exc}\n")
        return 2
    for (_, csv_path, pgm_path), stats in zip(jobs, results):
        if args.stats:
            sys.stderr.write(_json(stats) + "\n")
        print(csv_path)
        print(pgm_path)
    return 0


# Every float literal with a leading minus ("-1e-05", "-inf"), not just
# argparse's "-1" and "-.5", is read as a value, never as an option; no
# knu option name looks like a number, so none is shadowed.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """A parser, and so each of its subparsers, with that matcher."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="knu",
        description="Two-parameter deformed Gamma/Beta/Psi/Zeta toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at a point")
    pe.add_argument("--fn", required=True, choices=sorted(_FNS))
    pe.add_argument("--k", type=float, default=1.0)
    pe.add_argument("--nu", type=float, default=1.0)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--y", type=float, help="second Beta argument")
    pe.add_argument("--m", type=int, help="polygamma order (>= 1)")
    pe.add_argument("--s", type=float, help="Hurwitz exponent argument")
    pe.add_argument("--oracle", action="store_true",
                    help="route through the slow independent evaluator")
    pe.add_argument("--target", choices=_LazyNames("oracle", "ORACLE_TARGETS"), metavar="TARGET",
                    help="override the oracle representation: %(choices)s")
    pe.add_argument("--n", type=int, default=1_000_000,
                    help="truncation length for limit/product targets")
    pe.add_argument("--format", choices=["text", "json"], default="text")
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("check", help="run a verification suite")
    pc.add_argument("--suite", required=True, choices=_LazyNames("checks", "SUITES"),
                    metavar="SUITE", help="suite to run: %(choices)s")
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
                    help="alias for --mode paper (full reference partition; the 16 default "
                         "y take about 40 s on 2 cores and write 8.7 GB)")
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
