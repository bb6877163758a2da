"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import HERE, ROOT, load_pairrank, run_workload  # noqa: E402
from workloads import DEFAULT_SEED, ProtocolSpec, ScoreSpec, StudySpec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "study-990": StudySpec(n_tokens=20, budgets=(4,), replicates=2),
    "protocol-100k": ProtocolSpec(n_items=300),
    "score-5k": ScoreSpec(n_items=60, pool=4),
}
# Per-layer metrics a workload must leave at exactly zero: the layers it bypasses.
IDLE = {
    "study-990": ("metrics.csv_read_s",),
    "protocol-100k": ("metrics.", "experiment."),
    "score-5k": ("voters.", "protocol.", "experiment.", "metrics.ranks_s"),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric_without_failures(name, trace, tmp_path):
    result = run_workload(name, 7, 0, trace, tmp_path, spec=TINY[name])
    assert result["failed"] == 0, result["failures"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if not trace:
        assert result["metrics"]["ok_frac"] == 1.0
        assert all(v > 0 for v in result["metrics"].values())
        return
    for metric, value in result["metrics"].items():
        if metric == "trace.overhead_pct":
            continue
        if metric.startswith(IDLE[name]):
            assert value == 0, metric
        else:
            assert value > 0, metric


def test_recorded_digests_match_at_the_default_seed(tmp_path):
    recorded = json.loads((HERE / "digests.json").read_text())["score-5k"]
    result = run_workload("score-5k", DEFAULT_SEED, 0, False, tmp_path, expected=recorded)
    assert result["failed"] == 0, result["failures"]
    assert result["digests"] == {k: recorded[k] for k in ("0", "1")}


def test_digest_mismatch_fails_the_unit(tmp_path):
    result = run_workload("score-5k", DEFAULT_SEED, 0, False, tmp_path, expected={"0": "0" * 64})
    assert not result["correct"]
    assert result["failed"] == 2  # pair 0 differs, pair 1 has no recorded digest
    assert result["metrics"]["ok_frac"] == 0.0


@pytest.mark.parametrize("trace", [False, True])
def test_a_policy_whose_runs_all_raise_still_gives_a_result(trace, tmp_path, monkeypatch):
    protocol = load_pairrank(ROOT).protocol
    run_protocol = protocol.run_protocol

    def adaptive_raises(params, policy, *args, **kwargs):
        if policy == "adaptive":
            raise RuntimeError("adaptive run failed")
        return run_protocol(params, policy, *args, **kwargs)

    monkeypatch.setattr(protocol, "run_protocol", adaptive_raises)
    result = run_workload("protocol-100k", 7, 0, trace, tmp_path, spec=TINY["protocol-100k"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2 > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if not trace:
        assert result["metrics"]["adaptive_ms"] == 0.0
        assert result["metrics"]["uniform_ms"] > 0
        assert result["metrics"]["ok_frac"] == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "score-5k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
