"""Every golden command line gives the exit code, stdout and stderr
recorded in ``golden_cli.json`` (see ``golden_cli.py``)."""

import golden_cli


def test_cli_outputs_match_golden_digests():
    golden = golden_cli.load()
    assert [entry["argv"] for entry in golden] == golden_cli.cases()
    differs = [" ".join(want["argv"]) for want in golden if golden_cli.run(want["argv"]) != want]
    assert not differs, differs
