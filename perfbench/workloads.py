"""One benchmark workload, run in a fresh child process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Prints one JSON object as its last stdout line: the timed figures (or,
with ``--trace 1``, the per-layer figures), the op counts and the
correctness verdict.  The package is imported from ``src/`` of the
checkout this file sits in.

Each workload is a closed loop with one caller.  A pass is the
workload's fixed unit of work; a warm-up pass runs first and is not
timed, then passes repeat until ``--seconds`` of measuring have gone by
(at least one).  Every output of every timed pass is checked, outside
the timed region, and every failure is counted.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import knugamma  # noqa: E402
from knugamma import checks, cli  # noqa: E402
from knugamma.errors import ScalarDomainError  # noqa: E402

sys.path.insert(0, HERE)
from tracer import LAYERS, Tracer, public_functions  # noqa: E402

# eval-mix: the nine public calls in equal shares, (k, nu) from a pool of
# log-uniform pairs, reduced arguments log-uniform on the README's
# accuracy range, and a small share of out-of-domain calls.
EVAL_FUNCS = (
    "ln_gamma", "digamma", "gamma_knu", "log_beta_knu", "psi_knu",
    "polygamma_knu", "zeta_knu", "hurwitz_knu", "ratio_bounds",
)
EXPECTED_ERROR = {
    "ln_gamma": "NonPositiveArgument",
    "digamma": "NonPositiveArgument",
    "gamma_knu": "PoleHit",
    "log_beta_knu": "PoleHit",
    "psi_knu": "PoleHit",
    "polygamma_knu": "PoleHit",
    "zeta_knu": "DivergentSeries",
    "hurwitz_knu": "DivergentSeries",
    "ratio_bounds": "PoleHit",
}
# A pass is short, so each run holds many and its fastest one can be
# taken from a moment the shared host was not slowed; every pass draws
# fresh arguments, so a run still never repeats one.
EVAL_CALLS = 20_000
SMOKE_CALLS = 900
PARAM_POOL = 64
KNU_RANGE = (0.25, 4.0)
U_RANGE = (1e-3, 1e3)
ZETA_EXCESS = (1e-3, 20.0)  # s/c - 1 for both zetas: s/c on (1, 21]
OOD_SHARE = 0.02
# Far above the engine's ~1e-15 accuracy, so an engine swap of the same
# accuracy class passes; deviations are normalized by the magnitude of
# the terms the closed-form reduction adds up (at least 1).
REL_TOL = 1e-12

SCALAR_FUNCS = ("ln_gamma", "digamma", "polygamma", "riemann_zeta", "hurwitz_zeta")
SUITE_NAMES = ("identities", "inequalities", "oracle", "pde")
CHECK_SUITE = {
    "checks." + fn.__name__: suite for suite in SUITE_NAMES for fn in checks.SUITES[suite]
}


def _loguniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EvalMix:
    """A seeded stream of public calls in passes of ``EVAL_CALLS``."""

    op_unit = "calls"

    def __init__(self, seed, smoke, spill):
        self.seed = seed
        self.spill = spill
        self.n_calls = SMOKE_CALLS if smoke else EVAL_CALLS
        rng = np.random.default_rng([seed, 0])
        k = _loguniform(rng, *KNU_RANGE, PARAM_POOL)
        nu = _loguniform(rng, *KNU_RANGE, PARAM_POOL)
        self.params = [knugamma.Params(float(a), float(b)) for a, b in zip(k, nu)]
        self.c = np.array([p.c for p in self.params])
        self.r = np.array([p.r for p in self.params])
        self.records = []
        self.stream_no = 1

    def _draw(self, n):
        rng = np.random.default_rng([self.seed, self.stream_no])
        self.stream_no += 1
        fn = np.arange(n) % len(EVAL_FUNCS)
        rng.shuffle(fn)
        s = {
            "fn": fn,
            "p": rng.integers(0, PARAM_POOL, n),
            "ood": rng.random(n) < OOD_SHARE,
            "u1": _loguniform(rng, *U_RANGE, n),
            "u2": _loguniform(rng, *U_RANGE, n),
            "u3": _loguniform(rng, *U_RANGE, n),
            "e": _loguniform(rng, *ZETA_EXCESS, n),
            "low": 1.0 - rng.random(n),  # (0, 1]: a divergent s/c or x/c
            "m": rng.integers(1, 8, n),
        }
        s["u2"] = np.where(s["u2"] == s["u1"], 2.0 * s["u1"], s["u2"])
        return s

    def _calls(self, s):
        """The stream as (function, args) pairs of plain Python values.
        Functions are looked up on the package, so a traced run calls
        the wrappers."""
        fns = [getattr(knugamma, name) for name in EVAL_FUNCS]
        cols = {key: s[key].tolist() for key in s}
        calls = []
        for j in range(len(cols["fn"])):
            f, p, ood = cols["fn"][j], self.params[cols["p"][j]], cols["ood"][j]
            c = p.c
            u1, u2, u3 = cols["u1"][j], cols["u2"][j], cols["u3"][j]
            sign = -1.0 if ood else 1.0
            if f == 0 or f == 1:
                args = (sign * u1,)
            elif f in (2, 4):
                args = (p, sign * u1 * c)
            elif f == 3:
                args = (p, sign * u1 * c, u2 * c)
            elif f == 5:
                args = (p, cols["m"][j], sign * u1 * c)
            elif f == 6:
                args = (p, (cols["low"][j] if ood else 1.0 + cols["e"][j]) * c)
            elif f == 7:
                args = (p, u1 * c, (cols["low"][j] if ood else 1.0 + cols["e"][j]) * c)
            else:
                args = (p, min(u1, u2) * c, max(u1, u2) * c, sign * u3 * c)
            calls.append((fns[f], args))
        return calls

    def warm_up(self):
        self.run_pass(record=False)

    def run_pass(self, record=True):
        s = self._draw(self.n_calls)
        calls = self._calls(s)
        n = len(calls)
        out = [None] * n
        lat = [0] * n
        clock = time.perf_counter_ns
        t_start = clock()
        for j, (f, args) in enumerate(calls):
            t0 = clock()
            try:
                r = f(*args)
            except Exception as exc:  # judged by the correctness gate
                r = exc
            lat[j] = clock() - t0
            out[j] = r
        wall = (clock() - t_start) / 1e9
        if record:
            self._keep(s, out)
        return wall, n, np.array(lat, dtype=np.int64)

    def _keep(self, s, out):
        """Reduce a pass's results to float columns and spill them to
        disk, so memory does not grow with the number of passes.
        BoundReport orderings are checked here, the values against
        scipy at the end (scipy is not loaded while memory is
        measured)."""
        n = len(out)
        s["got"] = np.full(n, np.nan)
        s["got_lin"] = np.full(n, np.nan)
        s["unordered"] = np.zeros(n, dtype=bool)
        err = [""] * n
        for j, r in enumerate(out):
            if isinstance(r, Exception):
                err[j] = type(r).__name__
            elif isinstance(r, knugamma.GammaValue):
                s["got"][j], s["got_lin"][j] = r.log_value, r.value
            elif isinstance(r, knugamma.BoundReport):
                s["got_lin"][j] = r.actual_ratio
                s["unordered"][j] = not _ordered(r)
            else:
                s["got"][j] = r
        s["err"] = np.array(err)
        path = os.path.join(self.spill, f"results-{len(self.records)}.npz")
        np.savez(path, **s)
        self.records.append(path)

    def check(self):
        attempted = failed = 0
        for path in self.records:
            with np.load(path) as data:
                s = dict(data)
            attempted += len(s["fn"])
            failed += int(np.count_nonzero(_eval_failures(s, self.c, self.r)))
        return attempted, failed

    def extra(self):
        return {}


def _ordered(r):
    """The ordering BoundReport's docstring promises.  Where both sides
    of a strict comparison underflowed to 0.0 (the ratio is below the
    double range; the scipy comparison checks that it really is), only
    the non-strict form can hold."""

    def lt(a, b):
        return a < b or a == b == 0.0

    a = r.actual_ratio
    return (
        lt(r.lower_T1, a) and lt(a, r.upper_T1) and lt(a, r.upper_T2)
        and r.lower_T31 <= a <= r.upper_T32
    )


def _eval_failures(s, c_pool, r_pool):
    """Boolean mask of the calls whose result is wrong: compared with an
    independent scipy reference through the closed-form reductions, and
    out-of-domain calls must raise the documented error class."""
    from scipy import special as sp

    fn, ood, err = s["fn"], s["ood"], s["err"]
    c, lr = c_pool[s["p"]], np.log(r_pool[s["p"]])
    u1, u2, u3, m = s["u1"], s["u2"], s["u3"], s["m"]
    zs = 1.0 + s["e"]
    bad = s["unordered"].copy()
    for f, name in enumerate(EVAL_FUNCS):
        sel_ood = (fn == f) & ood
        bad[sel_ood] = err[sel_ood] != EXPECTED_ERROR[name]
    ok = ~ood & (err == "")
    bad[~ood & ~ok] = True

    def lg_terms(w):
        """|terms| of ln G_{k,nu}(w c) = (w - 1) ln r + ln Gamma(w)."""
        return np.abs((w - 1.0) * lr) + np.abs(sp.gammaln(w))

    with np.errstate(all="ignore"):
        # the arguments as the calls received them, reduced as the
        # program reduces them
        x, y = u1 * c, u2 * c
        ux, uy, uxy = x / c, y / c, (x + y) / c
        sc = (zs * c) / c
        # name: (reference, magnitude of the terms summed; None = |ref|)
        refs = {
            "ln_gamma": (sp.gammaln(u1), None),
            "digamma": (sp.psi(u1), None),
            "gamma_knu": ((ux - 1.0) * lr + sp.gammaln(ux), lg_terms(ux)),
            "log_beta_knu": (-lr + sp.betaln(ux, uy),
                             lg_terms(ux) + lg_terms(uy) + lg_terms(uxy)),
            "psi_knu": ((lr + sp.psi(ux)) / c, (np.abs(lr) + np.abs(sp.psi(ux))) / c),
            "polygamma_knu": (sp.polygamma(m, ux) / c ** (m + 1.0), None),
            "zeta_knu": (c ** -sc * sp.zeta(sc), None),
            "hurwitz_knu": (c ** -sc * sp.zeta(sc, ux), None),
        }
        for name, (ref, terms) in refs.items():
            sel = ok & (fn == EVAL_FUNCS.index(name))
            scale = np.maximum(1.0, np.abs(ref[sel]) if terms is None else terms[sel])
            dev = np.abs(s["got"][sel] - ref[sel]) / scale
            bad[sel] |= ~(dev <= REL_TOL)
        # the linear carriers: gamma_knu.value and ratio_bounds.actual_ratio
        x1, x2, yb = np.minimum(u1, u2) * c, np.maximum(u1, u2) * c, u3 * c
        a1, a2, b = x1 / c, x2 / c, yb / c
        lin = {
            "gamma_knu": refs["gamma_knu"],
            "ratio_bounds": (sp.betaln(a2, b) - sp.betaln(a1, b),
                             lg_terms(a1) + lg_terms(a2) + 2.0 * lg_terms(b)
                             + lg_terms((x1 + yb) / c) + lg_terms((x2 + yb) / c)),
        }
        for name, (ref, terms) in lin.items():
            sel = ok & (fn == EVAL_FUNCS.index(name))
            bad[sel] |= ~_linear_ok(s["got_lin"][sel], ref[sel], np.maximum(1.0, terms[sel]))
    return bad


def _linear_ok(value, log_ref, scale):
    """exp of a log-space result: compared in log space where it is a
    normal double, saturated (inf / underflow) outside."""
    with np.errstate(all="ignore"):
        in_range = np.abs(log_ref) < 700.0
        dev = np.abs(np.log(value) - log_ref) / scale
        ok = np.where(in_range, dev <= REL_TOL, True)
        ok &= np.where(log_ref > 710.0, value == np.inf, True)
        ok &= np.where(log_ref < -710.0, value < 1e-300, True)
        ok &= ~np.isnan(value)
    return ok


class Verify:
    """``knu check --suite all --format json`` in-process; an op is one
    check."""

    op_unit = "checks"
    argv = ["check", "--suite", "all", "--format", "json"]

    def __init__(self, seed, smoke):
        self.attempted = 0
        self.failed = 0
        self.points = []

    def op_targets(self):
        return {"checks." + fn.__name__: fn for fn in checks.SUITES["all"]}

    def warm_up(self):
        _run_cli(self.argv)

    def run_pass(self, record=True):
        rc, out, wall = _run_cli(self.argv)
        results = json.loads(out)
        if record:
            n_failed = sum(1 for r in results if not r["passed"])
            self.attempted += len(results)
            self.failed += n_failed + (1 if rc != 0 and n_failed == 0 else 0)
            self.points.append(sum(r["points"] for r in results))
        return wall, len(results), None

    def op_latencies(self, cols, names):
        ids = [i for i, name in enumerate(names) if name in CHECK_SUITE]
        sel = np.isin(cols["name"], ids)
        return cols["end"][sel] - cols["start"][sel]

    def check(self):
        return self.attempted, self.failed

    def extra(self):
        return {"checks.points": statistics.median(self.points) if self.points else 0}


class Signmap:
    """``knu signmap`` into a fresh temp directory inside the checkout;
    an op is one y map (its CSV and PGM), checked against golden
    sha256 digests and deleted after the pass."""

    op_unit = "maps"

    def __init__(self, name, seed, smoke):
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)
        if smoke:  # one desk map: the same CLI path at a tiny size
            y = "0.1" if name == "signmap-desk" else "20"
            self.mode, self.golden = ["--mode", "desk", "--y", y], golden["desk"]
            self.expected = ["map_" + y]
        elif name == "signmap-desk":
            self.mode, self.golden = ["--mode", "desk"], golden["desk"]
            self.expected = sorted({f.rsplit(".", 1)[0] for f in self.golden})
        else:
            self.mode, self.golden = ["--paper-grid", "--y", "20"], golden["paper"]
            self.expected = ["map_20"]
        self.attempted = 0
        self.failed = 0
        self.bytes = {"csv": [], "pgm": []}  # per pass

    def op_targets(self):
        return {
            "cli.main": cli.main,
            "signmap.grid_signmap": knugamma.signmap.grid_signmap,
            "signmap.write_atomic": knugamma.signmap.write_atomic,
        }

    def warm_up(self):
        self._pass(["--mode", "desk", "--y", "0.1"], ["map_0.1"], record=False)

    def run_pass(self, record=True):
        return self._pass(self.mode, self.expected, record)

    def _pass(self, mode, expected, record):
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="signmap-", dir=OUT_DIR)
        try:
            argv = ["signmap"] + mode + [
                "--out-csv", os.path.join(tmp, "map_{y}.csv"),
                "--out-pgm", os.path.join(tmp, "map_{y}.pgm"),
            ]
            rc, _, wall = _run_cli(argv)
            if record:
                written = {"csv": 0, "pgm": 0}
                for stem in expected:
                    ok = rc == 0
                    for ext in written:
                        path = os.path.join(tmp, f"{stem}.{ext}")
                        ok &= _sha256(path) == self.golden.get(f"{stem}.{ext}")
                        if os.path.exists(path):
                            written[ext] += os.path.getsize(path)
                    self.attempted += 1
                    self.failed += 0 if ok else 1
                for ext, size in written.items():
                    self.bytes[ext].append(size)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return wall, len(expected), None

    def op_latencies(self, cols, names):
        """One y job: its grid_signmap start to the end of its last
        write_atomic, in the thread that ran it."""
        grid = names.index("signmap.grid_signmap")
        write = names.index("signmap.write_atomic")
        lat = []
        for tid in np.unique(cols["thread"]):
            sel = (cols["thread"] == tid) & np.isin(cols["name"], [grid, write])
            order = np.argsort(cols["start"][sel])
            nm, st, en = (cols[k][sel][order] for k in ("name", "start", "end"))
            begin = None
            for j in range(len(nm)):
                if nm[j] == grid:
                    if begin is not None:
                        lat.append(last - begin)
                    begin = st[j]
                last = en[j]
            if begin is not None:
                lat.append(last - begin)
        return np.array(lat, dtype=np.int64)

    def check(self):
        return self.attempted, self.failed

    def extra(self):
        return {
            f"signmap.{ext}_bytes": statistics.median(sizes) if sizes else 0
            for ext, sizes in self.bytes.items()
        }


def _sha256(path):
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_cli(argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def make_workload(name, seed, smoke, spill):
    if name == "eval-mix":
        return EvalMix(seed, smoke, spill)
    if name == "verify":
        return Verify(seed, smoke)
    if name in ("signmap-desk", "signmap-paper"):
        return Signmap(name, seed, smoke)
    raise SystemExit(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# tracing


def trace_targets():
    """Every public function of every layer module, by span name."""
    targets = {}
    for layer in LAYERS:
        if layer == "params":
            continue  # a class: its __post_init__ is wrapped instead
        module = getattr(knugamma, layer)
        for name, fn in public_functions(module).items():
            targets[f"{layer}.{name}"] = fn
    return targets


def _count_oracle(result, counts):
    counts["oracle.evals"] = counts.get("oracle.evals", 0) + result.effort
    counts["oracle.results"] = counts.get("oracle.results", 0) + 1
    counts["oracle.converged"] = counts.get("oracle.converged", 0) + int(result.converged)


def _count_cells(result, counts):
    counts["signmap.cells"] = counts.get("signmap.cells", 0) + int(result.values.size)


def install_tracer(targets, full):
    tracer = Tracer(
        ScalarDomainError,
        hooks={"oracle.oracle_eval": _count_oracle, "signmap.grid_signmap": _count_cells},
    )
    tracer.wrap_all(targets, containers=list(checks.SUITES.values()))
    if full:
        params_cls = knugamma.params.Params
        params_cls.__post_init__ = tracer.wrap("params.Params", params_cls.__post_init__)
    return tracer


def layer_metrics(cols, names, counts):
    """The per-layer figures of one traced pass."""
    layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
    name_layer = np.array([layer_ids[n.split(".", 1)[0]] for n in names] or [0])
    name_ids = {n: i for i, n in enumerate(names)}
    lay = name_layer[cols["name"]]
    dur = cols["end"] - cols["start"]
    self_ns = cols["self_ns"]
    parent = cols["parent"]
    has_parent = parent >= 0
    parent_layer = np.where(has_parent, lay[np.where(has_parent, parent, 0)], -1)
    leaves_layer = parent_layer != lay
    out = {}

    def of(name):
        return cols["name"] == name_ids.get(name, -1)

    for layer, i in layer_ids.items():
        sel = lay == i
        out[f"{layer}.calls"] = int(sel.sum())
        out[f"{layer}.self_s"] = self_ns[sel].sum() / 1e9
        out[f"{layer}.errors"] = int((sel & (cols["err"] == 1) & leaves_layer).sum())
    for fn in SCALAR_FUNCS:
        sel = of(f"scalar.{fn}")
        out[f"scalar.{fn}.calls"] = int(sel.sum())
        out[f"scalar.{fn}.self_s"] = self_ns[sel].sum() / 1e9
    out["oracle.evals"] = counts.get("oracle.evals", 0)
    results = counts.get("oracle.results", 0)
    out["oracle.converged_ratio"] = counts.get("oracle.converged", 0) / results if results else 0.0
    for suite in SUITE_NAMES:
        ids = [name_ids[n] for n, s in CHECK_SUITE.items() if s == suite and n in name_ids]
        out[f"checks.{suite}.s"] = dur[np.isin(cols["name"], ids)].sum() / 1e9
    out["checks.beta-product-truncation.s"] = (
        dur[of("checks.check_beta_product_truncation")].sum() / 1e9
    )
    # sign-map stages in CPU seconds: the y jobs share the interpreter
    # lock, so their wall spans also hold each other's work
    cpu = cols["cpu"]
    out["signmap.compute.s"] = cpu[of("signmap.grid_signmap")].sum() / 1e9
    out["signmap.csv.s"] = cpu[of("signmap.iter_signmap_csv")].sum() / 1e9
    out["signmap.pgm.s"] = cpu[of("signmap.iter_signmap_pgm")].sum() / 1e9
    out["signmap.write.s"] = cols["self_cpu_ns"][of("signmap.write_atomic")].sum() / 1e9
    out["signmap.cells"] = counts.get("signmap.cells", 0)

    # the per-y jobs: compute and write spans whose parent is cli.main
    mains = np.flatnonzero(of("cli.main"))
    job = (of("signmap.grid_signmap") | of("signmap.write_atomic")) & np.isin(parent, mains)
    workers = len(np.unique(cols["thread"][job]))
    span = dur[mains].sum() * workers
    out["cli.workers"] = workers
    out["cli.busy_ratio"] = cpu[job].sum() / span if span else 0.0
    starts = job & of("signmap.grid_signmap")
    out["cli.wait.s"] = (cols["start"][starts] - cols["start"][parent[starts]]).sum() / 1e9
    return out


# ----------------------------------------------------------------------


def _lower_quartile(values):
    """The measured value a quarter of the way up the sorted values."""
    return sorted(values)[len(values) // 4]


def _measure(workload, seconds, smoke, tracer=None, layers=None):
    """Passes until ``seconds`` have gone by (one in smoke mode), as
    (wall s, ops, p50 us, p99 us of the op latencies) each.  With
    ``layers`` (a list), each pass's per-layer figures are appended to
    it; the spans of the first such pass are returned."""
    passes, first_spans = [], None
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        wall, n_ops, lat = workload.run_pass()
        if tracer is not None:
            cols = tracer.columns()
            if lat is None:
                lat = workload.op_latencies(cols, tracer.names)
            if layers is not None:
                layers.append(layer_metrics(cols, tracer.names, tracer.counts))
                first_spans = cols if first_spans is None else first_spans
        p50, p99 = np.percentile(lat, [50, 99]) / 1e3 if lat is not None else (0.0, 0.0)
        passes.append((wall, n_ops, float(p50), float(p99)))
        if smoke or time.perf_counter() - began >= seconds:
            return passes, first_spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    spill = tempfile.mkdtemp(prefix="spill-", dir=OUT_DIR)
    try:
        return _run(args, spill)
    finally:
        shutil.rmtree(spill, ignore_errors=True)


def _run(args, spill):
    workload = make_workload(args.workload, args.seed, args.smoke, spill)
    # the timed run only marks op boundaries: each check (verify), each
    # y job (sign maps); eval-mix times its calls itself
    op_tracer = None
    if hasattr(workload, "op_targets") and not args.trace:
        op_tracer = install_tracer(workload.op_targets(), full=False)
    workload.warm_up()

    result = {"workload": args.workload, "seed": args.seed, "op_unit": workload.op_unit}
    if not args.trace:
        passes, _ = _measure(workload, args.seconds, args.smoke, op_tracer)
        result["peak_rss_mb"] = _peak_rss_mb()
        # A shared host's speed swings by up to ~1.6x for seconds at a
        # time, and that only ever adds time: each timing is taken per
        # pass and the run reports the lower quartile over its passes,
        # low enough to skip most slowed passes, not hinging on one.
        wall, n_ops = _lower_quartile([(p[0], p[1]) for p in passes])
        result["metrics"] = {
            "wall_s": wall,
            "ops_per_s": n_ops / wall,
            "op_p50_us": _lower_quartile([p[2] for p in passes]),
            "op_p99_us": _lower_quartile([p[3] for p in passes]),
        }
        result["samples"] = {"passes": len(passes), "ops": n_ops}
        result["passes"] = passes
    else:
        half = args.seconds / 2.0
        plain, _ = _measure(workload, half, args.smoke)
        tracer = install_tracer(trace_targets(), full=True)
        per_pass = []
        traced, spans = _measure(workload, half, args.smoke, tracer, per_pass)
        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        for key in ("checks.points", "signmap.csv_bytes", "signmap.pgm_bytes"):
            metrics[key] = 0
        metrics.update(workload.extra())
        metrics["trace.overhead_ratio"] = min(p[0] for p in traced) / min(p[0] for p in plain)
        result["metrics"] = metrics
        result["samples"] = {"passes": len(traced), "untraced_passes": len(plain),
                             "ops": traced[0][1]}
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        np.savez(path, names=np.array(tracer.names), **spans)
        result["spans"] = os.path.relpath(path, ROOT)

    attempted, failed = workload.check()
    result["attempted"], result["failed"] = attempted, failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
