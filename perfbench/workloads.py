"""The three benchmark workloads: generated inputs, timed units and output checks.

Each workload runs in batches. A batch is the smallest set of units whose
mix is the same every time (both policies, or one tie-free and one tied
pair), so medians do not depend on where the time budget cut a run. Only
the program's work is timed; input generation, checks and digests are not.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

DEFAULT_SEED = 101
POLICIES = ("adaptive", "uniform")
# The paper's voter pool: 100 voters, sigma* in [0.02, 0.2], epsilon in [0.005, 0.05].
N_VOTERS = 100
SIGMA_RANGE = (0.02, 0.2)
EPSILON_RANGE = (0.005, 0.05)
MODE = "relatedness"
TOLERANCE = 1e-12


@dataclass(frozen=True)
class StudySpec:
    n_tokens: int = 45  # 45 tokens give 990 pairwise cosines, the paper's N
    budgets: tuple = (20, 40)
    # The study script runs 50 replicates a cell; 12 cells x 50 take about two
    # minutes, more than one run may. 10 replicates keep all 12 cells in one
    # batch of about 25 s.
    replicates: int = 10


@dataclass(frozen=True)
class ProtocolSpec:
    n_items: int = 100_000
    m: int = 20
    alpha: float = 0.5
    n_ballots: int = 7


@dataclass(frozen=True)
class ScoreSpec:
    n_items: int = 5000
    pool: int = 8  # distinct pairs; even indices tie-free, odd indices tied
    levels: int = 41  # a single Borda ballot with m = 20 has 2m + 1 score levels


@dataclass
class Phase:
    """What one measured phase did: unit times, timed seconds and failures."""

    # (kind, class, seconds) per timed unit. A kind is one input shape (a study
    # cell, a policy, tie-free or tied pairs); the class is the policy it serves.
    units: list = field(default_factory=list)
    busy: float = 0.0  # seconds of timed work
    attempted: int = 0  # checked units: study cells, protocol runs, scored pairs
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def in_unit_interval(values) -> bool:
    return all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n in ascending order, ties given the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2)[inverse]


class Workload:
    """Base: runs checked units, optionally under a tracer."""

    name = ""
    spec_type = None
    cycle = 1  # batches before the inputs repeat

    def __init__(self, pkg, seed: int, work: Path, spec=None, expected: dict | None = None):
        self.pkg = pkg
        self.seed = seed
        self.spec = spec if spec is not None else self.spec_type()
        # Digests apply only to the recorded inputs: the default seed and sizes.
        self.expected = expected if seed == DEFAULT_SEED and self.spec == self.spec_type() else None
        self.tracer = None

    def setup_items(self) -> int:
        """Distribution size the set-up probe builds; 0 means imports only."""
        return 0

    def unit(self, phase: Phase, key: str, work, check) -> None:
        """Run one unit of work, then its checks; a raise or a failed check fails the unit."""
        phase.attempted += 1
        tracer = self.tracer
        first = 0
        try:
            if tracer is not None:
                first = len(tracer.spans)
                tracer.unit = phase.attempted
                tracer.active = True
            try:
                output = work(phase)
            finally:
                if tracer is not None:
                    tracer.active = False
            problems, digest, comparisons = check(output)
            if tracer is not None:
                problems += self._trace_problems(tracer.spans[first:], comparisons)
            phase.digests[key] = digest
            if self.expected is not None and self.expected.get(key) != digest:
                problems.append(f"digest {digest[:12]} differs from the recorded one")
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            phase.failures.append(f"{self.name} {key}: " + "; ".join(problems))

    @staticmethod
    def _trace_problems(spans, comparisons: int) -> list:
        counted = {"votes": 0, "comparisons": 0}
        for span in spans:
            for name in counted:
                counted[name] += (span[5] or {}).get(name, 0)
        return [
            f"traced {name} {value} != total_comparisons {comparisons}"
            for name, value in counted.items()
            if value != comparisons
        ]

    def run_batch(self, phase: Phase, batch: int) -> None:
        raise NotImplementedError


class Study(Workload):
    """The paper's study matrix at N = 990: run_experiment + write_outputs per cell."""

    name = "study-990"
    spec_type = StudySpec

    def __init__(self, pkg, seed, work, spec=None, expected=None):
        super().__init__(pkg, seed, work, spec, expected)
        ex = pkg.experiment
        cosines = work / "cosines.txt"
        values = ex.sample_cosine_values(self.spec.n_tokens, 64, 1.0, np.random.default_rng(12345))
        cosines.write_text("\n".join(repr(float(v)) for v in values))
        self.n_items = values.size
        rows = [("exponential", "exponential", None), ("power_law", "power_law", None),
                ("embedding", "file", str(cosines))]
        self.cells = []
        for label, dist, path in rows:
            for m in self.spec.budgets:
                for policy in ("uniform", "adaptive"):
                    key = f"{label}_m{m}_{policy}"
                    cfg = ex.ExperimentConfig(
                        n_items=self.n_items, m=m, policy=policy, distribution=dist,
                        similarity_file=path, mode=MODE, n_voters=N_VOTERS,
                        sigma_min=SIGMA_RANGE[0], sigma_max=SIGMA_RANGE[1],
                        eps_min=EPSILON_RANGE[0], eps_max=EPSILON_RANGE[1],
                        replicates=self.spec.replicates, seed=seed, n_jobs=1,
                        out_dir=str(work / key), snapshots=True,
                    )
                    self.cells.append((key, cfg))

    def setup_items(self) -> int:
        return self.n_items

    def run_batch(self, phase: Phase, batch: int) -> None:
        for key, cfg in self.cells:
            self.unit(phase, key, lambda ph, k=key, c=cfg: self._cell(ph, k, c), self._check)

    def _cell(self, phase: Phase, key: str, cfg):
        ex = self.pkg.experiment
        replicate_times = []
        inner = ex.run_replicate

        def timed(cfg_, replicate):
            start = perf_counter()
            result = inner(cfg_, replicate)
            replicate_times.append(perf_counter() - start)
            return result

        # _replicate_task looks run_replicate up in the module, so this times each replicate.
        ex.run_replicate = timed
        try:
            start = perf_counter()
            summary = ex.run_experiment(cfg)
            out = ex.write_outputs(summary)
            phase.busy += perf_counter() - start
        finally:
            ex.run_replicate = inner
        phase.units.extend((key, cfg.policy, t) for t in replicate_times)
        return cfg, summary, Path(out)

    def _check(self, output):
        cfg, summary, out = output
        problems = []
        comparisons = self.pkg.protocol.total_comparisons(cfg.protocol_params())
        if len(summary.replicates) != cfg.replicates:
            problems.append(f"{len(summary.replicates)} replicates, expected {cfg.replicates}")
        for rep in summary.replicates:
            if not in_unit_interval([rep.rho_w, rep.tau_w, rep.rho, rep.tau]):
                problems.append(f"replicate {rep.seed}: coefficient outside [-1, 1]")
        with open(out / "votes.csv") as fh:
            votes = sum(1 for _ in fh) - 1
        if votes != comparisons:
            problems.append(f"{votes} votes, total_comparisons is {comparisons}")
        digest = hashlib.sha256(
            "".join(sha256_file(out / name) for name in ("replicates.csv", "votes.csv", "scores.csv")).encode()
        ).hexdigest()
        return problems, digest, comparisons * cfg.replicates


class Protocol(Workload):
    """Dataset building at N = 10^5: run_protocol(keep_votes=True) then final_ranking."""

    name = "protocol-100k"
    spec_type = ProtocolSpec

    def setup_items(self) -> int:
        return self.spec.n_items

    def run_batch(self, phase: Phase, batch: int) -> None:
        for index, policy in enumerate(POLICIES):
            self.unit(phase, policy, lambda ph, i=index, p=policy: self._run(ph, i, p), self._check)

    def _run(self, phase: Phase, index: int, policy: str):
        pr, vo = self.pkg.protocol, self.pkg.voters
        spec = self.spec
        rng = np.random.default_rng([self.seed, index])
        dist = vo.make_distribution("exponential", spec.n_items)
        pool = vo.sample_voter_pool(N_VOTERS, SIGMA_RANGE, EPSILON_RANGE, rng)
        oracle = vo.SimulatedElectorate(dist, pool, MODE, rng)
        params = pr.ProtocolParams(spec.n_items, spec.m, spec.alpha, spec.n_ballots)
        start = perf_counter()
        table = pr.run_protocol(params, policy, oracle, rng, keep_votes=True)
        ranking = pr.final_ranking(table)
        elapsed = perf_counter() - start
        phase.busy += elapsed
        phase.units.append((policy, policy, elapsed))
        return params, table, ranking

    def _check(self, output):
        params, table, ranking = output
        n = params.n_items
        problems = []
        comparisons = self.pkg.protocol.total_comparisons(params)
        votes = sum(len(record.votes) for record in table.ballots)
        if votes != comparisons:
            problems.append(f"{votes} votes, total_comparisons is {comparisons}")
        if not np.array_equal(np.sort(ranking), np.arange(1, n + 1)):
            problems.append("final_ranking is not a permutation of 1..N")
        ybar = np.array([table.ybar_final[i] for i in range(n)], dtype=np.float64)
        return problems, hashlib.sha256(ybar.tobytes()).hexdigest(), comparisons


class Score(Workload):
    """read_ranking_csv + coefficient_suite on N = 5000 pairs, tie-free and tied."""

    name = "score-5k"
    spec_type = ScoreSpec

    def __init__(self, pkg, seed, work, spec=None, expected=None):
        super().__init__(pkg, seed, work, spec, expected)
        rng = np.random.default_rng(seed)
        n = self.spec.n_items
        self.pairs = []
        for index in range(self.spec.pool):
            truth = rng.standard_normal(n)
            ranks = []
            for side in ("a", "b"):
                scores = truth + 0.5 * rng.standard_normal(n)
                if index % 2:
                    # quantile bins: `levels` tie groups of nearly equal size
                    fraction = (np.argsort(np.argsort(scores)) + 0.5) / n
                    scores = np.floor(fraction * self.spec.levels)
                r = average_ranks(-scores)  # rank 1 = best
                path = work / f"pair{index}_{side}.csv"
                path.write_text(
                    "item_id,rank,weight\n" + "".join(f"{i},{float(v)!r},\n" for i, v in enumerate(r))
                )
                ranks.append((path, r))
            self.pairs.append(ranks)
        self.cycle = len(self.pairs) // 2
        # The scipy oracle runs in a child process, so neither scipy nor its
        # working memory counts in this process's peak_rss_mb.
        files = [str(path) for pair in self.pairs for path, _ in pair]
        oracle = subprocess.run([sys.executable, str(Path(__file__).with_name("oracle.py")), *files],
                                capture_output=True, text=True, timeout=120, check=True)
        self.reference = json.loads(oracle.stdout)

    def run_batch(self, phase: Phase, batch: int) -> None:
        # one tie-free pair, then one tied pair, cycling through the pool
        for index in (2 * batch % len(self.pairs), (2 * batch + 1) % len(self.pairs)):
            self.unit(phase, str(index), lambda ph, i=index: self._score(ph, i), self._check)

    def _score(self, phase: Phase, index: int):
        me = self.pkg.metrics
        (path_a, _), (path_b, _) = self.pairs[index]
        start = perf_counter()
        a, _ = me.read_ranking_csv(path_a)
        b, _ = me.read_ranking_csv(path_b)
        coeffs = me.coefficient_suite(a, b)
        elapsed = perf_counter() - start
        phase.busy += elapsed
        # A uniform run's single Borda ballot gives heavily tied scores, so tied
        # pairs fill the uniform slot and tie-free pairs the adaptive one.
        phase.units.append(("tied", "uniform", elapsed) if index % 2 else ("tie-free", "adaptive", elapsed))
        return index, a, b, coeffs

    def _check(self, output):
        index, a, b, coeffs = output
        (_, expected_a), (_, expected_b) = self.pairs[index]
        problems = []
        if not (np.array_equal(a, expected_a) and np.array_equal(b, expected_b)):
            problems.append("read_ranking_csv did not return the written ranks")
        values = [coeffs[name] for name in ("rho_w", "tau_w", "rho", "tau")]
        if not in_unit_interval(values):
            problems.append(f"coefficient outside [-1, 1]: {values}")
        rho, tau = self.reference[index]
        if abs(coeffs["rho"] - rho) > TOLERANCE:
            problems.append(f"rho {coeffs['rho']!r} != scipy spearmanr {rho!r}")
        if abs(coeffs["tau"] - tau) > TOLERANCE:
            problems.append(f"tau {coeffs['tau']!r} != scipy kendalltau {tau!r}")
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        return problems, digest, 0


WORKLOADS = {cls.name: cls for cls in (Study, Protocol, Score)}
