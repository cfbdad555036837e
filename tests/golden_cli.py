"""Golden digests of the ``knu`` command line.

``golden_cli.json`` lists command lines with the exit code and the
sha256 of stdout and of stderr that each gave when it was written.
``test_golden_cli.py`` reruns every line in-process through
``cli.main`` and compares, so a change that moves one byte of output
shows as a named failure.  The file is check data: rewrite an entry
only for an output change you mean, and name it where the change is
recorded.

    python tests/golden_cli.py --update    # rewrite golden_cli.json

``--update`` first prints each command line whose exit code or digest
differs from the file, so a rewrite names what it changes.

The lines cover ``knu check --suite all`` (text and JSON, four grids),
``knu eval`` on the six fast paths and the eleven oracle targets (text
and JSON, two (k, nu)), ``knu bounds`` at the README example and the
recorded edge cases, the exit-2 cases, and oracle lines at the edges
of the double range.  ``--stats`` timings and
cases that print a traceback are left out.  A line that raises a
warning is refused: its stderr would depend on the warning filters.
So is a line that leaves a file behind or a child process unreaped.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_cli.json")
# PYTHONPATH, if set, comes first, so the digests can be made from another checkout
sys.path.append(os.path.join(os.path.dirname(HERE), "src"))

from knugamma import cli  # noqa: E402

FAST_ARGS = ["--x", "2.5", "--y", "1.5", "--m", "2", "--s", "3.5"]
SINE_ARGS = ["--x", "0.3"]  # the sine integral diverges for x >= 1
KNU = (("1", "1"), ("0.5", "1.5"))
# oracle target -> the --fn whose default target it replaces
ORACLE_FN = {
    "gamma-integral": "gamma", "gamma-limit": "gamma", "recip-product": "gamma",
    "beta-unit-integral": "beta", "beta-scaled-integral": "beta",
    "psi-integral": "psi", "psi-log-integral": "psi", "polygamma-integral": "polygamma",
    "zeta-integral": "zeta", "hurwitz-integral": "hurwitz", "sine-integral": "gamma",
}
FMTS = ((), ("--format", "json"))

EXIT_2 = [
    # typed errors of the fast paths and oracle targets
    "eval --fn zeta --x 1",
    "eval --fn gamma --x -1.5",
    "eval --fn gamma --x -1e-05",
    "eval --fn gamma --x=-1e-05",
    "eval --fn gamma --x -inf",
    "eval --fn gamma --k 1 --nu 1e-300 --x 2e5",
    "eval --fn gamma --k 1 --nu 1e-300 --x 2e5 --format json",
    "eval --fn polygamma --x 1 --m 0",
    "eval --fn polygamma --x 1 --m 0 --oracle",
    "eval --fn gamma --x 1 --oracle --target gamma-limit --n 1",
    "eval --fn gamma --x 1 --oracle --target recip-product --n 0",
    "eval --fn gamma --oracle --target gamma-limit --k 1e3 --nu 1e3 --x 5e-324 --n 500",
    "eval --fn gamma --x 170 --oracle",
    "eval --fn beta --x 0.01 --y 1 --oracle",
    "eval --fn psi --oracle --target psi-integral --x 1e-300",
    "eval --fn polygamma --oracle --target polygamma-integral --m 2 --x 1e-200",
    "eval --fn zeta --oracle --target zeta-integral --k 1e-5 --nu 1 --x 1e-3",
    # a flag the function or target needs, or a name it does not know
    "eval --fn beta --x 1",
    "eval --fn polygamma --x 1",
    "eval --fn gamma --x 1 --oracle --target beta-unit-integral",
    "eval --fn gamma --x 1 --oracle --target nope",
    "eval --fn nope --x 1",
    "check --suite nope",
    "check --suite identities --grid 0,1",
    "check --suite identities --grid 1,abc",
    "bounds --x1 2 --x2 1 --y 1",
    "bounds --x1 1 --x2 1 --y 1",
    "bounds --x1 0 --x2 1 --y 1",
    "bounds --x1 -inf --x2 1 --y 1",
    "bounds --x1 1 --x2 2 --y 0",
    "bounds --x1 1 --x2 2 --y nan",
    # sign maps rejected before any file is written
    "signmap --y 1 --out-csv {tmp}/m.csv --out-pgm {tmp}/m.pgm",
    "signmap --y 1,abc --out-csv {tmp}/m_{y}.csv --out-pgm {tmp}/m_{y}.pgm",
    "signmap --y 1,1e308 --out-csv {tmp}/m_{y}.csv --out-pgm {tmp}/m_{y}.pgm",
    "signmap --y 1e308 --out-csv {tmp}/m_{y}.csv --out-pgm {tmp}/m_{y}.pgm",
    "signmap --y -1 --out-csv {tmp}/m_{y}.csv --out-pgm {tmp}/m_{y}.pgm",
    "signmap --y nan --out-csv {tmp}/m_{y}.csv --out-pgm {tmp}/m_{y}.pgm",
    "signmap --y inf --out-csv {tmp}/m_{y}.csv --out-pgm {tmp}/m_{y}.pgm",
]

# oracle lines at edges of the double range that exit 0
ORACLE_EDGES = [
    "eval --fn gamma --oracle --target recip-product --k 1e154 --nu 1e154 --x 1 --n 500",  # j c overflows to inf
]

BOUNDS = [
    "bounds --k 1 --nu 1 --x1 1 --x2 2 --y 1",
    "bounds --x1 3 --x2 9 --y 6 --format json",
    "bounds --k 1e100 --nu 1e100 --x1 1e-300 --x2 1 --y 1",
    "bounds --x1 1e-300 --x2 1e300 --y 1e-300",
    "bounds --x1 1e-200 --x2 1e200 --y 1e-250",
    "bounds --k 1e100 --nu 1e100 --x1 1e-122 --x2 1 --y 1",
    "bounds --k 1e-5 --nu 1e-5 --x1 1 --x2 2 --y 1e300",
    "bounds --x1 1 --x2 inf --y 1",
]


def cases():
    """Every golden command line, as an argv list."""
    out = []
    for grid in ((), ("--grid", "0.7,1.3,4"), ("--grid", "1e-100"), ("--grid", "1e100")):
        for fmt in FMTS:
            out.append(["check", "--suite", "all", *grid, *fmt])
    for k, nu in KNU:
        for fmt in FMTS:
            for fn in sorted(cli._FNS):
                out.append(["eval", "--fn", fn, "--k", k, "--nu", nu, *FAST_ARGS, *fmt])
            for target, fn in ORACLE_FN.items():
                args = SINE_ARGS if target == "sine-integral" else FAST_ARGS + ["--n", "1000"]
                out.append(["eval", "--fn", fn, "--k", k, "--nu", nu, *args,
                            "--oracle", "--target", target, *fmt])
    for line in BOUNDS:
        for fmt in FMTS if "--format" not in line else ((),):
            out.append(line.split() + list(fmt))
    out += [line.split() for line in EXIT_2]
    out += [line.split() for line in ORACLE_EDGES]
    return out


def run(argv):
    """{"argv", "code", "stdout", "stderr"} for one command line: the
    exit code and the sha256 of each stream.  ``{tmp}`` in a word is an
    empty temporary directory.  Help text is wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns = os.environ.get("COLUMNS")
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([word.replace("{tmp}", tmp) for word in argv])
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        left = os.listdir(tmp)
    try:
        child = os.waitpid(-1, os.WNOHANG)  # (0, 0) if a child still runs
    except ChildProcessError:
        child = None
    if child is not None:
        raise AssertionError(f"{argv} left a child process unreaped: {child}")
    if caught:
        raise AssertionError(f"{argv} warned: {[str(w.message) for w in caught]}")
    if left:
        raise AssertionError(f"{argv} left files behind: {left}")

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return {"argv": argv, "code": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}


def load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def changes(old, new):
    """One line per command line whose exit code or digests differ
    between two lists of records, or that only one of them has."""
    before = {tuple(r["argv"]): r for r in old}
    after = {tuple(r["argv"]): r for r in new}
    out = []
    for argv, r in after.items():
        was = before.get(argv)
        if was is None:
            out.append(f"added: {' '.join(argv)}")
        elif was != r:
            fields = ", ".join(f for f in ("code", "stdout", "stderr") if was[f] != r[f])
            out.append(f"changed ({fields}): {' '.join(argv)}")
    out += [f"removed: {' '.join(argv)}" for argv in before if argv not in after]
    return out


def main(argv):
    if argv != ["--update"]:
        sys.stderr.write(__doc__)
        return 2
    records = [run(case) for case in cases()]
    for line in changes(load() if os.path.exists(GOLDEN) else [], records):
        print(line)
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
