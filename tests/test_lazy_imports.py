"""numpy is loaded only by the code that builds arrays: importing the
package or the CLI, and the ``knu eval`` and ``knu bounds`` commands,
leave it (and the sign-map module) unloaded.  The package still
resolves every public name and submodule on first access."""

import os
import subprocess
import sys

import pytest

import knugamma

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
    probe = code + "\nimport sys\nprint([m for m in ('numpy', 'knugamma.signmap') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_signmap_names_resolve_to_the_module():
    assert knugamma.grid_signmap is knugamma.signmap.grid_signmap
    assert knugamma.PAPER_Y_VALUES is knugamma.signmap.PAPER_Y_VALUES


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
