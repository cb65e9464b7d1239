"""Byte-for-byte snapshots, indented, of the JSON reports of every bundled model
and of the pinned models in tests/golden: the `analyze --strategies` report
(verdicts, certificates, witness tables, bounds and lassos) and the `verify`
report (the same verdicts plus the oracle block).

The pinned `prime-cycles` model is three disjoint deterministic cycles of
lengths 2, 3 and 5 (period 30), started uniformly on their first states, which
are the target: its countdown-cycle and freezing witnesses have memories of 30
and 31 values.

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
MODEL_PATHS = {**{name: example_path(name) for name in EXAMPLE_MODELS},
               "prime-cycles": str(GOLDEN_DIR / "prime-cycles.model.json")}


def snapshot_path(name, command):
    return GOLDEN_DIR / (f"{name}.json" if command == "analyze" else f"{name}.{command}.json")


def report_text(name, command, out_path):
    """The CLI's JSON report for one model, indented by `json.dumps(obj, indent=2)`, with
    `model.path` set to null. The CLI writes it on one line: `json.dumps(obj) + "\n"`."""
    path = MODEL_PATHS[name]
    code = main([command, "--model", path, "--target", "target", *COMMANDS[command],
                 "--json", str(out_path)])
    assert code == 0
    text = Path(out_path).read_text(encoding="utf-8")
    obj = json.loads(text)
    assert text == json.dumps(obj) + "\n"
    assert obj["model"]["path"] == path
    obj["model"]["path"] = None
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("name, command", [
    pytest.param(name, command, id=name if command == "analyze" else f"{name}-{command}")
    for command in COMMANDS for name in MODEL_PATHS])
def test_report_matches_snapshot(name, command, tmp_path, capsys):
    got = report_text(name, command, tmp_path / "report.json")
    capsys.readouterr()
    assert got == snapshot_path(name, command).read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in MODEL_PATHS:
            for cmd in COMMANDS:
                text = report_text(name, cmd, Path(tmp) / "report.json")
                snapshot_path(name, cmd).write_text(text, encoding="utf-8")
