"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import speed
from workloads import HERE, ROOT, WORKLOADS, load_references

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(scope="module", autouse=True)
def package():
    assert run.import_check()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_each_workload_emits_every_metric(name, trace):
    summary, verdict = run.run(name, 1, 0, trace, limit=3)
    line = json.loads(run.result_line(summary, verdict, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert run.render(summary, trace)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_planted_wrong_reference_is_counted():
    refs = load_references("corpus")[20260810][:5]
    planted = [f"{int(code, 16) ^ 1:05x}" for code in refs[:1]] + refs[1:]
    summary, verdict = run.run("corpus-analyze", 20260810, 0, 0, limit=5,
                               references=planted)
    assert summary["failures"]["wrong verdict"]["count"] == 1
    assert verdict["failed"] >= 1 and verdict["correct"] is False
    assert summary["error_rate"] == verdict["failed"] / 5


def test_known_crash_is_reported_with_its_frames():
    summary, verdict = run.run("corpus-analyze", 20260810, 0, 0, limit=40)
    kinds = summary["failures"]
    crash = "ValueError in bounds.BoundCert.to_obj > model.format_rational"
    assert crash in kinds and set(kinds[crash]["by_n"]) == {5}
    assert verdict["correct"] is True


def test_top_level_spans_fit_in_traced_wall():
    summary, _ = run.run("corpus-analyze", 20260810, 0, 1, limit=30)
    assert 0 < summary["top_level_s"] <= summary["traced_wall_s"]
    assert summary["metrics"]["model.load_model.calls"] == 30
    assert summary["metrics"]["cli.main.self_s"] > 0
    cli = sys.modules["syncmdp.cli"]
    assert not hasattr(cli.main, "__wrapped__"), "tracer left a wrapper installed"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "corpus-analyze", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_run_seed_leaves_the_work_unchanged():
    counts = []
    for seed in (1, 2):
        summary, _ = run.run("large-analyze", seed, 0, 1, limit=6)
        counts.append({k: v for k, v in summary["metrics"].items()
                       if k.endswith(("calls", "errors", ".len", "supports", "bits"))})
    assert counts[0] == counts[1]


def test_scale_uses_the_fastest_kernel_run():
    assert speed.scale(0.004, 0.002, 0.001, 0.003) == 0.004 * speed.REFERENCE_S / 0.001
    assert speed.kernel_seconds() > 0


def test_later_sweeps_overwrite_the_emptied_reports():
    summary, verdict = run.run("corpus-analyze", 1, 1.0, 0, limit=6)
    assert summary["sweeps"] >= 2
    assert verdict == {"correct": True, "attempted": 6, "failed": 0}
