#!/usr/bin/env python3
"""Record benchmark results: a seed sweep per workload, or the output digests.

    python3 perfbench/record.py --out perfbench/results/NAME.json
    python3 perfbench/record.py --digests

The sweep runs run.py --trace 0 once per seed (seeds 1..10) on each
workload of BENCHMARK.json, then one --trace 1 run at the default seed. For every end-to-end
metric it reports the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median, which must stay below the
metric's bound in BENCHMARK.json.
--digests rewrites digests.json from one pass over each workload's inputs
at the default seed; do that only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, environment, load_pairrank
from workloads import DEFAULT_SEED, WORKLOADS, Phase

RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "trace": trace, **result}


def summarize(runs: list, declared: list) -> dict:
    summary = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": metric["bound"],
        }
    return summary


def record_digests() -> None:
    pkg = load_pairrank(ROOT)
    digests = {}
    for name, cls in WORKLOADS.items():
        work = ROOT / ".bench_work" / f"digests-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(pkg, DEFAULT_SEED, work)
            phase = Phase()
            for batch in range(workload.cycle):
                workload.run_batch(phase, batch)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if phase.failures:
            raise SystemExit("\n".join(phase.failures))
        digests[name] = phase.digests
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args()
    if args.digests:
        record_digests()
        return 0
    if not args.out:
        parser.error("--out is required for a sweep")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"environment": environment(ROOT), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        traced = run_once(name, DEFAULT_SEED, bench["run_seconds"], 1)
        summary = summarize(runs, bench["end_to_end"])
        report["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
        print(f"{name}: {sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}")
        for metric in bench["end_to_end"]:
            s = summary[metric["name"]]
            print(f"  {metric['name']:<14s} median {s['median']:14.6f}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}  {'ok' if s['spread'] < s['bound'] / 3 else 'WIDE'}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
