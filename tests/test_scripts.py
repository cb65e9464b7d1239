"""Smoke tests of the experiment scripts: they run against the package in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_analyze_examples():
    done = run_script("analyze_examples.py")
    assert done.returncode == 0, done.stderr
    for name in ("drain", "funnel", "loopback", "twophase"):
        assert f"=== {name} ===" in done.stdout


def test_verify_corpus():
    done = run_script("verify_corpus.py", "--count", "5")
    assert done.returncode == 0, done.stderr
    assert "all checks pass" in done.stdout


def test_report_digest():
    done = run_script("report_digest.py", "--count", "3")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert len(line["analyze"]) == len(line["verify"]) == 64
    assert line["models"] == {"analyze": 2 * 3 + 3 * 3, "verify": 3 + 4}
