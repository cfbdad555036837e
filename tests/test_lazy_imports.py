"""numpy, json, the sign-map module, the check suites, the oracle and
the fork helper (with pickle) are loaded only by the code that uses
them: importing the package or the CLI, and the ``knu eval`` and
``knu bounds`` commands, leave them unloaded, and load neither
dataclasses nor inspect; ``knu check`` runs its identities, oracle and
PDE suites, and ``knu eval`` its series oracle targets, without numpy.  The package still
resolves every public name and submodule on first access, and the CLI
still rejects an unknown suite or oracle target by name."""

import os
import subprocess
import sys

import pytest

import knugamma
from knugamma import checks, cli, oracle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(knugamma.__file__)))
# The layer modules perfbench's tracer looks up on the package.
LAYERS = (
    "scalar", "params", "gamma", "beta", "psi", "zeta",
    "bounds", "oracle", "checks", "signmap", "cli",
)


@pytest.mark.parametrize(
    "code",
    [
        "import knugamma",
        "import knugamma.cli",
        "from knugamma import cli; cli.main(['eval', '--fn', 'gamma', '--x', '3'])",
        "from knugamma import cli; cli.main(['bounds', '--x1', '1', '--x2', '2', '--y', '3'])",
    ],
    ids=["package", "cli", "eval", "bounds"],
)
def test_scalar_paths_load_no_numpy(code):
    unloaded = (
        "numpy", "json", "knugamma.signmap", "knugamma.checks", "knugamma.oracle",
        "knugamma._fork", "pickle", "dataclasses", "inspect",
    )
    probe = code + f"\nimport sys\nprint([m for m in {unloaded!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("suite", ["identities", "oracle", "pde"])
def test_check_suites_run_without_numpy(suite):
    # numpy cannot be imported here, nor in the children fork_map starts,
    # so a check that reached for it would exit non-zero
    probe = (
        "import sys\nsys.modules['numpy'] = None\n"
        f"from knugamma import cli\nsys.exit(cli.main(['check', '--suite', {suite!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("PASS ")


@pytest.mark.parametrize("target", ["gamma-limit", "recip-product"])
def test_series_targets_run_without_numpy(target):
    argv = ["eval", "--fn", "gamma", "--x", "2.5", "--n", "100000", "--oracle", "--target", target]
    probe = f"import sys\nsys.modules['numpy'] = None\nfrom knugamma import cli\nsys.exit(cli.main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1].startswith("converged ")


def test_signmap_names_resolve_to_the_module():
    assert knugamma.grid_signmap is knugamma.signmap.grid_signmap
    assert knugamma.PAPER_Y_VALUES is knugamma.signmap.PAPER_Y_VALUES


def test_oracle_names_resolve_to_the_module():
    assert knugamma.oracle_eval is knugamma.oracle.oracle_eval
    assert knugamma.OracleResult is knugamma.oracle.OracleResult


def test_star_import_binds_all():
    namespace = {}
    exec("from knugamma import *", namespace)
    assert set(knugamma.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(knugamma, name) for name in knugamma.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_modules_resolve(layer):
    assert getattr(knugamma, layer).__name__ == "knugamma." + layer


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        knugamma.no_such_name


@pytest.mark.parametrize(
    "argv,names",
    [
        (["check", "--suite", "nope"], checks.SUITES),
        (["eval", "--fn", "gamma", "--x", "1", "--oracle", "--target", "nope"], oracle.ORACLE_TARGETS),
    ],
    ids=["suite", "target"],
)
def test_unknown_choice_exits_2_naming_the_choices(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(repr(name) in err for name in names)
