"""Byte-for-byte snapshots of the JSON reports of every bundled model: the
`analyze --strategies` report (verdicts, certificates, witness tables, bounds
and lassos) and the `verify` report (the same verdicts plus the oracle block).

Regenerate the snapshots with `PYTHONPATH=src python tests/test_golden_reports.py`
only when a report change is intended.
"""

import json
import tempfile
from pathlib import Path

import pytest

from syncmdp import example_path
from syncmdp.cli import main
from syncmdp.examples import EXAMPLE_MODELS

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = {"analyze": ["--strategies"], "verify": []}   # command -> extra flags


def snapshot_path(name, command):
    return GOLDEN_DIR / (f"{name}.json" if command == "analyze" else f"{name}.{command}.json")


def report_text(name, command, out_path):
    """The CLI's JSON report for one bundled model, with `model.path` set to null."""
    path = example_path(name)
    code = main([command, "--model", path, "--target", "target", *COMMANDS[command],
                 "--json", str(out_path)])
    assert code == 0
    text = Path(out_path).read_text(encoding="utf-8")
    field = f'"path": {json.dumps(path)},'
    assert text.count(field) == 1
    return text.replace(field, '"path": null,')


@pytest.mark.parametrize("name, command", [
    pytest.param(name, command, id=name if command == "analyze" else f"{name}-{command}")
    for command in COMMANDS for name in EXAMPLE_MODELS])
def test_report_matches_snapshot(name, command, tmp_path, capsys):
    got = report_text(name, command, tmp_path / "report.json")
    capsys.readouterr()
    assert got == snapshot_path(name, command).read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for example in EXAMPLE_MODELS:
            for cmd in COMMANDS:
                text = report_text(example, cmd, Path(tmp) / "report.json")
                snapshot_path(example, cmd).write_text(text, encoding="utf-8")
