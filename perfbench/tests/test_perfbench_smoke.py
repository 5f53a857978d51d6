"""A tiny-size run of the benchmark, and its refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

TINY = {"pairs": 4, "sft_steps": 4, "dpo_steps": 2, "loss_tail": 2, "eval_images": 5,
        "samples_per_prompt": 1, "quality_rounds": 1, "warmup_pairs": 2,
        "warmup_steps": 1, "warmup_images": 1,
        "config": {"grid": 8, "hidden": 16, "time_dim": 8, "batch_size": 8, "T": 10}}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, monkeypatch, workload, trace):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")   # main() sets it; restore after
    bench.import_program()
    from perfbench import pipeline
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)], sizes=pipeline.Sizes(**TINY))
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[-2].startswith("perfbench-record ")
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, monkeypatch, trace, section):
    result, record = _run(capsys, monkeypatch, "paper_mix", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["check_errors"]
    assert result["failed"] == 0 and result["attempted"] >= 7
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    env = record["environment"]
    for key in ("git_sha", "python", "numpy", "scipy", "blas", "threads", "nproc", "cpu_model"):
        assert key in env
    assert record["seed"] == 3


def test_traced_counts_follow_the_stages(capsys, monkeypatch):
    result, record = _run(capsys, monkeypatch, "layout_mix", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert record["absent"] == []
    assert m["datagen.toyworld.detect.calls"] > 0 and m["datagen.net.calls"] == 0
    assert m["sft.trainer.adam_step.calls"] == TINY["sft_steps"]
    assert m["bidpo.toyworld.detect.calls"] == 0
    assert m["eval.toyworld.detect.calls_per_image"] == 2.0
    assert m["eval.autodiff.matmul.calls"] == 0
    assert m["trace.overhead_s"] == pytest.approx(m["trace.traced_s"] - m["trace.untraced_s"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_mix",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
