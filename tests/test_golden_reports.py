"""Byte-for-byte snapshots of the `analyze --strategies` JSON report of every
bundled model: verdicts, certificates, witness tables, bounds and lassos.

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


def report_text(name, out_path):
    """The CLI's JSON report for one bundled model, with `model.path` set to null."""
    path = example_path(name)
    code = main(["analyze", "--model", path, "--target", "target",
                 "--strategies", "--json", str(out_path)])
    assert code == 0
    text = Path(out_path).read_text(encoding="utf-8")
    field = f'"path": {json.dumps(path)},'
    assert text.count(field) == 1
    return text.replace(field, '"path": null,')


@pytest.mark.parametrize("name", EXAMPLE_MODELS)
def test_report_matches_snapshot(name, tmp_path, capsys):
    got = report_text(name, tmp_path / "report.json")
    capsys.readouterr()
    assert got == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for example in EXAMPLE_MODELS:
            text = report_text(example, Path(tmp) / "report.json")
            (GOLDEN_DIR / f"{example}.json").write_text(text, encoding="utf-8")
