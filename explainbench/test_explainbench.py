"""Self-tests of the benchmark, in its quick mode (a few requests each).

Run from the repository root with ``python3 -m pytest explainbench -q``
(about a minute).
"""

import importlib
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def quick(workload: str, trace: int, seed: int = 3) -> dict:
    return run.run(Namespace(workload=workload, seed=seed, seconds=0.0,
                             trace=trace, quick=2))


def test_workloads_match_settings():
    assert WORKLOADS == list(workloads.SETTINGS["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--quick", "2",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_request_sequence(workload):
    def first_blocks(seed):
        blocks = workloads.request_blocks(workload, seed)
        return [next(blocks) for _ in range(3)]

    assert first_blocks(5) == first_blocks(5)
    counts = workloads.SETTINGS["workloads"][workload]["counts"]
    assert sorted(first_blocks(6)[0]) == sorted(
        query for query, count in counts.items() for _ in range(count))
    assert all(count >= 1 for count in counts.values())


def test_untraced_run_after_traced_sees_original_functions():
    from repro.engine.cache import ArtifactCache

    evaluate = importlib.import_module("repro.db.evaluate")
    session = importlib.import_module("repro.engine.session")

    originals = (evaluate.lineage, session.lineage, session.plan_batch,
                 vars(ArtifactCache)["open"])
    recorded = []
    real_tracer = tracing.Tracer

    class Recording(real_tracer):
        def __init__(self):
            super().__init__()
            recorded.append(self)

    tracing.Tracer = Recording
    try:
        quick("tpch-warm", trace=1)
    finally:
        tracing.Tracer = real_tracer
    assert recorded and recorded[0].spans
    assert tracing.installed_wrappers() == []
    assert (evaluate.lineage, session.lineage, session.plan_batch,
            vars(ArtifactCache)["open"]) == originals
    spans = len(recorded[0].spans)
    quick("tpch-warm", trace=0)
    assert len(recorded[0].spans) == spans


def test_self_time_subtracts_covered_child_time():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, None, 0, "service.run_batch", 0.0, 10.0),
        (2, 1, 0, "numerics.exec", 1.0, 4.0),
        (3, 1, 0, "numerics.exec", 3.0, 6.0),  # overlaps span 2
        (4, 3, 0, "numerics.tape_lower", 5.0, 6.0),
    ]
    assert tracer.self_times() == {
        "service.run_batch": 5.0, "numerics.exec": 5.0,
        "numerics.tape_lower": 1.0,
    }


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "tpch-warm", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
