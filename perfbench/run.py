#!/usr/bin/env python3
"""pairrank benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload study-990 --seed 101 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 the run is timed with tracing off and reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it times half the
budget untraced, then half with spans recorded around every call into
the layer modules, and reports the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import SpanStats, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Phase

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7


def load_pairrank(root: Path):
    """Import pairrank from root/src, never from anywhere else on sys.path."""
    init = root / "src" / "pairrank" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a pairrank source checkout")
    sys.path.insert(0, str(root / "src"))
    import pairrank

    if Path(pairrank.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported pairrank from {pairrank.__file__}, not {init}")
    return pairrank


def environment(root: Path) -> dict:
    def first_field(path: str, key: str):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    mem = first_field("/proc/meminfo", "MemTotal")
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": first_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def measure_setup(n_items: int) -> float:
    """Median time from starting a fresh interpreter until a replicate's inputs are built."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe_setup.py"), str(n_items)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def measure(workload, seconds: float) -> Phase:
    """Run whole batches until one more would overrun the budget; at least one."""
    phase = Phase()
    start = perf_counter()
    batch = 0
    while True:
        workload.run_batch(phase, batch)
        batch += 1
        elapsed = perf_counter() - start
        if elapsed * (batch + 1) / batch > seconds:
            return phase


def typical_unit(phase: Phase, cls: str | None = None) -> float:
    """Mean over input kinds of each kind's median unit time, for one class or all.

    A plain median over a study run would fall between the clusters of its
    cell types and jump from run to run; a median within each kind does not.
    0 when no unit of the class finished, which happens only when all of them
    failed, so the run is already reported as incorrect.
    """
    times = {}
    for kind, unit_class, seconds in phase.units:
        if cls is None or unit_class == cls:
            times.setdefault(kind, []).append(seconds)
    if not times:
        return 0.0
    return statistics.fmean(statistics.median(ts) for ts in times.values())


def end_to_end(phase: Phase, setup_s: float) -> dict:
    times = [t for _, _, t in phase.units]
    return {
        "setup_s": setup_s,
        "units_per_s": len(times) / phase.busy if phase.busy else 0.0,
        "unit_ms": 1000 * typical_unit(phase),
        "unit_p90_ms": 1000 * float(np.percentile(times, 90)) if times else 0.0,
        "adaptive_ms": 1000 * typical_unit(phase, "adaptive"),
        "uniform_ms": 1000 * typical_unit(phase, "uniform"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(phase.failures) / phase.attempted,
    }


def per_layer(traced: Phase, base: Phase, spans) -> dict:
    """Layer totals per checked unit (study cell, protocol run or scored pair)."""
    stats = SpanStats(spans)
    units = traced.attempted

    def per_unit(seconds_or_count):
        return seconds_or_count / units

    def group(*names):
        return per_unit(stats.group_time(names))

    vote_s = stats.total["SimulatedElectorate.vote_batch"]
    return {
        "voters.vote_s": per_unit(vote_s),
        "voters.votes": per_unit(stats.counts["votes"]),
        "voters.votes_per_s": stats.counts["votes"] / vote_s if vote_s else 0.0,
        "voters.setup_s": group("make_distribution", "load_similarity_file",
                                "sample_voter_pool", "SimulatedElectorate.__init__"),
        "protocol.pairs_s": group("generate_ballot_pairs", "generate_uniform_plan"),
        "protocol.select_s": group("select_survivors"),
        "protocol.rescale_s": group("rescale_slope", "rescale_scores", "update_running_average"),
        "protocol.self_s": per_unit(stats.self_time["run_protocol"]),
        "protocol.comparisons": per_unit(stats.counts["comparisons"]),
        "protocol.ballots": per_unit(stats.counts["ballots"]),
        "protocol.items_scored": per_unit(stats.counts["items_scored"]),
        "metrics.kendall_s": group("kendall"),
        "metrics.weighted_kendall_s": group("weighted_kendall"),
        "metrics.spearman_s": group("spearman", "weighted_spearman"),
        "metrics.ranks_s": group("ranks_from_scores"),
        "metrics.weights_s": group("additive_weights"),
        "metrics.csv_read_s": group("read_ranking_csv"),
        "metrics.rank_pairs": per_unit(stats.counts["rank_pairs"]),
        "metrics.dense_bytes": per_unit(stats.counts["dense_bytes"]),
        "experiment.write_s": group("write_outputs"),
        "experiment.cell_overhead_s": per_unit(
            stats.total["run_experiment"] - stats.children_time("run_experiment", "run_replicate")
        ),
        "experiment.self_s": per_unit(stats.self_time["run_replicate"]),
        "experiment.bytes_written": per_unit(stats.counts["bytes_written"]),
        "experiment.tables_retained": per_unit(stats.counts["tables_retained"]),
        "trace.overhead_pct": overhead_pct(traced, base),
    }


def overhead_pct(traced: Phase, base: Phase) -> float:
    traced_s, base_s = typical_unit(traced), typical_unit(base)
    return 100 * (traced_s / base_s - 1) if traced_s and base_s else 0.0


def span_table(spans) -> list[str]:
    stats = SpanStats(spans)
    lines = [f"{'span':<34s}{'calls':>9s}{'total_s':>11s}{'self_s':>11s}"]
    for name in sorted(stats.total, key=stats.total.get, reverse=True):
        lines.append(f"{name:<34s}{stats.calls[name]:>9d}{stats.total[name]:>11.4f}"
                     f"{stats.self_time[name]:>11.4f}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 spec=None, expected=None, pkg=None) -> dict:
    """Measure one workload; returns the result object and, for --trace 1, the spans."""
    pkg = pkg if pkg is not None else load_pairrank(ROOT)
    workload = WORKLOADS[name](pkg, seed, work, spec, expected)
    if not trace:
        setup_s = measure_setup(workload.setup_items())
        phase = measure(workload, seconds)
        phases, metrics, spans = [phase], end_to_end(phase, setup_s), []
    else:
        base = measure(workload, seconds / 2)
        tracer = Tracer()
        tracer.install(pkg)
        workload.tracer = tracer
        try:
            traced = measure(workload, seconds / 2)
        finally:
            tracer.uninstall()
        phases, metrics, spans = [base, traced], per_layer(traced, base, tracer.spans), tracer.spans
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    digests = {}
    for p in phases:
        digests.update(p.digests)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "digests": digests,
        "spans": spans,
        "units": len(phases[-1].units),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    recorded = json.loads((HERE / "digests.json").read_text())
    pkg = load_pairrank(ROOT)
    env = environment(ROOT)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work,
                              expected=recorded.get(args.workload, {}), pkg=pkg)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("error: computed metrics do not match BENCHMARK.json")
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    if args.trace:
        print("\n".join(span_table(result["spans"])))
    print(f"{args.workload} seed={args.seed} trace={args.trace} units={result['units']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric in declared:
        print(f"  {metric['name']:<30s}{values[metric['name']]:>18.6f} {metric['unit']}")
    print(json.dumps({"environment": env, "digests": result["digests"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
