"""Smoke tests of the experiment scripts: they run against the package in src/."""

import json
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from syncmdp import parse_model, randgen

from conftest import feeder_cycle

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
    assert "n <= 5, actions <= 2, denominators <= 4" in done.stdout
    assert "all checks pass" in done.stdout


def test_verify_corpus_wide_tier():
    done = run_script("verify_corpus.py", "--count", "45", "--seed", "7", "--max-states", "8",
                      "--max-actions", "3", "--max-denominator", "8")
    assert done.returncode == 0, done.stderr
    assert "45 instances (seed 7, n <= 8, actions <= 3, denominators <= 8)" in done.stdout
    assert "all checks pass" in done.stdout


def test_verify_corpus_tallies_guard_trips(monkeypatch, capsys):
    # the middle model's 18-state target is its own fixpoint bound and fails the
    # second condition, past the subset-search guard: it is tallied as a trip
    # instead of ending the sweep
    def instance(doc):
        pm = parse_model(doc)
        return randgen.RandomInstance(pm.mdp, pm.initial, pm.targets["target"])
    models = [instance(feeder_cycle(1)), instance(feeder_cycle(17)),
              instance(feeder_cycle(1, loops=2))]
    monkeypatch.setattr(randgen, "corpus", lambda seed, count, **kwargs: models[:count])
    script = runpy.run_path(str(ROOT / "scripts" / "verify_corpus.py"))
    monkeypatch.setattr(sys, "argv", ["verify_corpus.py", "--count", "3"])
    assert script["main"]() == 0
    out = capsys.readouterr().out
    assert "  guard trips: subset-search=1\n" in out
    assert "  region-dp-agreement          pass=2\n" in out
    assert "all checks pass" in out


def test_verify_corpus_passes_the_tier_flags_to_the_generator(monkeypatch, capsys):
    drawn = {}

    def fake_corpus(seed, count, **kwargs):
        drawn.update(kwargs, seed=seed, count=count)
        return []
    monkeypatch.setattr(randgen, "corpus", fake_corpus)
    script = runpy.run_path(str(ROOT / "scripts" / "verify_corpus.py"))
    monkeypatch.setattr(sys, "argv", ["verify_corpus.py", "--count", "0", "--seed", "3",
                                      "--max-states", "8", "--max-actions", "3",
                                      "--max-denominator", "8"])
    assert script["main"]() == 0
    assert drawn == {"seed": 3, "count": 0, "max_states": 8, "max_actions": 3,
                     "max_denominator": 8}


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--horizon", "-2", "expected an integer from 0 to 10000, got -2",
                 id="--horizon"),
    pytest.param("--enum-depth", "-2", "expected an integer of at least 0, got -2",
                 id="--enum-depth"),
    # the traces and the step profile grow with the square of the horizon
    pytest.param("--horizon", "10001", "expected an integer from 0 to 10000, got 10001",
                 id="--horizon-past-bound"),
])
def test_verify_corpus_rejects_a_negative_horizon_or_depth(monkeypatch, capsys, flag, value,
                                                           message):
    script = runpy.run_path(str(ROOT / "scripts" / "verify_corpus.py"))
    monkeypatch.setattr(sys, "argv", ["verify_corpus.py", "--count", "1", flag, value])
    with pytest.raises(SystemExit) as exc:
        script["main"]()
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--count", "-1", "expected an integer of at least 0, got -1"),
    ("--max-states", "0", "expected an integer of at least 1, got 0"),
    ("--max-denominator", "0", "expected an integer of at least 1, got 0"),
    ("--max-actions", "5", "expected an integer from 1 to 4, got 5"),
])
def test_verify_corpus_rejects_an_out_of_range_tier(monkeypatch, capsys, flag, value, message):
    script = runpy.run_path(str(ROOT / "scripts" / "verify_corpus.py"))
    monkeypatch.setattr(sys, "argv", ["verify_corpus.py", flag, value])
    with pytest.raises(SystemExit) as exc:
        script["main"]()
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_random_mdp_rejects_more_actions_than_it_has_names():
    rng = random.Random(0)
    assert randgen.random_mdp(rng, max_actions=4).action_count <= 4
    with pytest.raises(ValueError, match="max_actions is at most 4, got 6"):
        randgen.random_mdp(rng, max_actions=6)


def test_report_digest():
    # pinned: the first three large-tier models per n carry counter-product
    # certificates, so a byte change on that path changes the analyze digest
    done = run_script("report_digest.py", "--count", "3")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert line == {
        "analyze": "2bf9690b57cfec8b46b3b0d5da46928176626559c0db07e475d60f0139e93954",
        "verify": "fdc0c38f32c390c46098aaa5f84f0fa1eda2938f7eadb5c7dda1ce3530037683",
        "models": {"analyze": 2 * 3 + 3 * 3, "verify": 3 + 4},
    }


def test_verify_reports_are_pinned():
    # the verify digest `report_digest.py` prints at its default count, in
    # process: any change to a verify report on these 154 models shows here,
    # and a change made on purpose updates the pin
    script = runpy.run_path(str(ROOT / "scripts" / "report_digest.py"))
    models = script["verify_tier"](script["VERIFY_COUNT"])
    assert len(models) == 150 + 4
    assert script["digest"](models, verify=True) == (
        "ee9e715aca783d44f954eddb936d7340fdf68b56da79fb1ff6ae6eb305e071db")


def test_report_digest_cli_mode():
    done = run_script("report_digest.py", "--cli", "--count", "2")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert (len(line["cli-analyze"]) == len(line["cli-verify"])
            == len(line["cli-input-errors"]) == 64)
    assert line["models"] == {"analyze": 2 * 2 + 3 * 2, "verify": 2 + 4}
    again = run_script("report_digest.py", "--cli", "--count", "2")
    assert again.stdout == done.stdout  # the model path inside the reports is fixed
