"""Every golden command line gives the exit code, stdout and stderr
recorded in ``golden_cli.json`` (see ``golden_cli.py``), and gives them
with numpy held to its AVX2 code paths too."""

import json
import os
import subprocess
import sys

import golden_cli

# numpy's AVX-512 log, log1p, exp and expm1 differ from its other paths
# in the last bits; this turns them off for one process
AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def test_cli_outputs_match_golden_digests():
    golden = golden_cli.load()
    assert [entry["argv"] for entry in golden] == golden_cli.cases()
    differs = [" ".join(want["argv"]) for want in golden if golden_cli.run(want["argv"]) != want]
    assert not differs, differs


def test_cli_outputs_match_golden_digests_on_avx2_paths():
    golden = golden_cli.load()
    probe = (
        "import json, sys\nimport golden_cli\n"
        "print(json.dumps([golden_cli.run(argv) for argv in json.loads(sys.argv[1])]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps([entry["argv"] for entry in golden])],
        capture_output=True, text=True, timeout=300,
        cwd=golden_cli.HERE, env=dict(os.environ, **AVX2_ONLY),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    differs = [" ".join(want["argv"]) for want, run in zip(golden, got) if run != want]
    assert not differs, differs
