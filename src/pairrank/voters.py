"""Stochastic voter model for simulated pairwise semantic judgments.

Each item carries a latent similarity z in [-1, 1]. A voter perceives a
noisy copy of z whose noise amplitude shrinks to zero at the interval
boundaries, then picks the pair member with the higher perceived value,
occasionally voting the other one by oversight. Relatedness-driven
comparisons use |z| instead of z, so strong antonym pairs count as
highly related.

All randomness flows through a caller-supplied numpy Generator; two runs
with the same seed, distribution, and voter pool produce identical vote
streams (numpy's PCG64/ziggurat sampling is stable across runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import ranks_from_scores
from .protocol import RESULT_FIRST, RESULT_SECOND, RESULT_TIE, VoteOutcome

__all__ = [
    "MODES",
    "SimilarityDistribution",
    "SimulatedElectorate",
    "VoterParams",
    "builtin_similarity",
    "load_similarity_file",
    "make_distribution",
    "perceive",
    "sample_voter_pool",
    "theoretical_ranking",
    "vote",
]

MODES = ("similarity", "relatedness")
BUILTIN_KINDS = ("exponential", "power_law")


@dataclass(frozen=True)
class VoterParams:
    """One voter: noise amplitude scale sigma_star and oversight probability epsilon."""

    sigma_star: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.sigma_star < 0:
            raise ValueError("sigma_star must be >= 0")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SimilarityDistribution:
    """Latent similarity values defining the theoretical item ranking."""

    kind: str
    values: np.ndarray

    @property
    def n_items(self) -> int:
        return int(self.values.size)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _builtin_values(kind: str, n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    if kind == "exponential":
        return 2.0 * np.exp(-i / n) - 1.0
    if kind == "power_law":
        return 2.0 / (1.0 + np.sqrt(i / n)) - 1.0
    raise ValueError(f"unknown builtin distribution {kind!r}")


def builtin_similarity(kind: str, i: int, n: int) -> float:
    """Latent similarity of the i-th item (1-based) under a builtin distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= i <= n):
        raise ValueError(f"index {i} out of range 1..{n}")
    return float(_builtin_values(kind, n)[i - 1])


def make_distribution(kind: str, n_items: int) -> SimilarityDistribution:
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    return SimilarityDistribution(kind=kind, values=_builtin_values(kind, n_items))


def load_similarity_file(path) -> SimilarityDistribution:
    """Load one similarity value per line; '#' lines are comments.

    Values must lie in [-1, 1]; a bad line raises with its line number.
    """
    values: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                v = float(text)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: not a number: {text!r}") from exc
            if not (-1.0 <= v <= 1.0):
                raise ValueError(f"line {lineno}: value {v} outside [-1, 1]")
            values.append(v)
    if not values:
        raise ValueError(f"{path}: no similarity values found")
    return SimilarityDistribution(kind="file", values=np.asarray(values, dtype=float))


def sample_voter_pool(n_voters: int, sigma_range, epsilon_range, rng) -> list[VoterParams]:
    """Draw each voter's parameters independently and uniformly from the given ranges."""
    if n_voters < 1:
        raise ValueError("n_voters must be >= 1")
    s_lo, s_hi = float(sigma_range[0]), float(sigma_range[1])
    e_lo, e_hi = float(epsilon_range[0]), float(epsilon_range[1])
    if not (0.0 <= s_lo <= s_hi):
        raise ValueError(f"invalid sigma range [{s_lo}, {s_hi}]")
    if not (0.0 <= e_lo <= e_hi <= 1.0):
        raise ValueError(f"invalid epsilon range [{e_lo}, {e_hi}]")
    sigmas = rng.uniform(s_lo, s_hi, size=n_voters)
    epsilons = rng.uniform(e_lo, e_hi, size=n_voters)
    return [VoterParams(float(s), float(e)) for s, e in zip(sigmas, epsilons)]


def _perceive_values(z, sigma_star, eta, mode: str):
    # noise amplitude sigma_star * (1 - z^2) vanishes at z = +-1, so the
    # clip boundary is reached exactly and only there (up to measure zero)
    o = np.clip(z + sigma_star * (1.0 - z * z) * eta, -1.0, 1.0)
    return np.abs(o) if mode == "relatedness" else o


def perceive(z: float, voter: VoterParams, mode: str, rng) -> float:
    """One noisy reading of an item's latent similarity by one voter."""
    _check_mode(mode)
    if not (-1.0 <= z <= 1.0):
        raise ValueError("z must lie in [-1, 1]")
    eta = rng.standard_normal()
    return float(_perceive_values(z, voter.sigma_star, eta, mode))


def vote(
    z_i: float,
    z_j: float,
    voter: VoterParams,
    mode: str,
    rng,
    pair: tuple[int, int] = (0, 1),
    voter_id: int = 0,
) -> VoteOutcome:
    """Compare two items: the higher-perceived one wins with probability 1 - epsilon.

    Exact perceived ties (possible only for noiseless voters) are
    recorded as ties and never flipped by oversight.
    """
    o_i = perceive(z_i, voter, mode, rng)
    o_j = perceive(z_j, voter, mode, rng)
    if o_i == o_j:
        result = RESULT_TIE
    else:
        first_wins = o_i > o_j
        if rng.random() < voter.epsilon:
            first_wins = not first_wins
        result = RESULT_FIRST if first_wins else RESULT_SECOND
    return VoteOutcome(item_a=pair[0], item_b=pair[1], result=result, voter_id=voter_id)


def theoretical_ranking(distribution: SimilarityDistribution, mode: str) -> np.ndarray:
    """Ranks by latent similarity (similarity mode) or its absolute value (relatedness)."""
    _check_mode(mode)
    key = np.abs(distribution.values) if mode == "relatedness" else distribution.values
    return ranks_from_scores(key, higher_is_better=True)


class SimulatedElectorate:
    """Vote oracle backed by a voter pool and a similarity distribution.

    Callable as ``oracle(item_a, item_b)`` for one vote; ``vote_batch``
    answers a whole pair list with vectorized draws. Each comparison is
    assigned to a voter chosen uniformly at random with replacement, and
    perception noise is redrawn at every presentation.
    """

    def __init__(self, distribution: SimilarityDistribution, voters, mode: str, rng):
        _check_mode(mode)
        voters = list(voters)
        if not voters:
            raise ValueError("voter pool is empty")
        self.distribution = distribution
        self.voters = voters
        self.mode = mode
        self._rng = rng
        self._sigma = np.array([v.sigma_star for v in voters])
        self._epsilon = np.array([v.epsilon for v in voters])

    def __call__(self, item_a: int, item_b: int) -> VoteOutcome:
        voter_id = int(self._rng.integers(len(self.voters)))
        z = self.distribution.values
        return vote(
            float(z[item_a]),
            float(z[item_b]),
            self.voters[voter_id],
            self.mode,
            self._rng,
            pair=(item_a, item_b),
            voter_id=voter_id,
        )

    def vote_batch(self, pairs) -> list[VoteOutcome]:
        pairs = list(pairs)
        if not pairs:
            return []
        rng = self._rng
        z = self.distribution.values
        ia = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        ja = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        voter_ids = rng.integers(len(self.voters), size=len(pairs))
        sigma = self._sigma[voter_ids]
        o_i = _perceive_values(z[ia], sigma, rng.standard_normal(len(pairs)), self.mode)
        o_j = _perceive_values(z[ja], sigma, rng.standard_normal(len(pairs)), self.mode)
        flip = rng.random(len(pairs)) < self._epsilon[voter_ids]
        tie = o_i == o_j
        first_wins = np.where(flip, o_i < o_j, o_i > o_j)
        outcomes = []
        for k, (a, b) in enumerate(pairs):
            if tie[k]:
                result = RESULT_TIE
            else:
                result = RESULT_FIRST if first_wins[k] else RESULT_SECOND
            outcomes.append(VoteOutcome(item_a=a, item_b=b, result=result, voter_id=int(voter_ids[k])))
        return outcomes
