"""The benchmark's own tests: tiny-size smoke runs of every workload.

    python3 -m pytest perfbench/check_bench.py -q

Named check_*.py so the repository's test suite does not collect it; it
takes about two minutes, most of it the bessel-bm bundle, whose cost is set
by its time grid rather than its path count.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict[str, str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    info = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    return result, info


def _check_names(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


def test_declared_metrics_match_the_harness():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_only_named_refusals_are_unsolved():
    attract = next(c for c in workloads.SCALE_CASES if c.name == "attract-2y")
    known = "config error: scale values must be strictly increasing\n"
    assert workloads._refusal("x", 2, known, "", attract.refusals).wrong is None
    # any other ValueError also exits 2 with "config error"; that is a crash
    crash = "config error: operands could not be broadcast together\n"
    assert workloads._refusal("x", 2, crash, "", attract.refusals).wrong
    assert workloads._refusal("x", 2, known, "", ()).wrong
    horizon = ("numeric failure: condition_downward: 1.2% of paths resolved neither "
               "level before the horizon\n")
    assert workloads._refusal("x", 3, horizon, "", (workloads.HORIZON_REFUSAL,)).wrong is None
    assert workloads._refusal("x", 2, horizon, "", (workloads.HORIZON_REFUSAL,)).wrong


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_and_counts_repeat(workload):
    untraced, untraced_info = _result(_run(workload, 0))
    _check_names(untraced["metrics"], BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert untraced["metrics"][m["name"]]["value"] > 0, m["name"]

    first, first_info = _result(_run(workload, 1))
    second, second_info = _result(_run(workload, 1))
    _check_names(first["metrics"], BENCH["per_layer"])
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert untraced_info["digest"] == first_info["digest"] == second_info["digest"]


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("hitting-tail", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
