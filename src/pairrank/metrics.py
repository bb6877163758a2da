"""Rank-correlation coefficients with optional top-rank weighting.

A ranking is a vector of rank values aligned by item index, rank 1 being
the best position. Tied items carry the average of the positions they
span, so a valid length-N ranking always sums to N(N+1)/2. Weight
vectors are non-negative and sum to one.

The weighted coefficients are instances of the generic correlation form

    Gamma = sum_ij A_ij B_ij / sqrt(sum_ij A_ij^2 * sum_ij B_ij^2)

with A_ij = sqrt(w_i w_j) (a_j - a_i) for the Spearman-style coefficient
and A_ij = sqrt(w_i w_j) sign(a_j - a_i) for the Kendall-style one. The
Spearman-style coefficients are evaluated in closed form. The classical
Kendall coefficient counts discordant pairs with a merge sort in
O(N log^2 N) time and O(N) memory; the weighted one still sums the dense
N x N sign-product matrix. The test suite checks them against a direct
evaluation of the double sums, the dense reference formulas and scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "WeightScheme",
    "additive_weights",
    "coefficient_suite",
    "first_rank_share",
    "hyperbolic_weight",
    "kendall",
    "ranks_from_scores",
    "read_ranking_csv",
    "spearman",
    "trigamma",
    "uniform_weights",
    "validate_ranking",
    "weighted_kendall",
    "weighted_spearman",
    "write_ranking_csv",
]


def ranks_from_scores(scores, higher_is_better: bool = True) -> np.ndarray:
    """Convert a score vector into average-tie ranks (rank 1 = best score).

    Tied scores receive the mean of the positions they jointly occupy,
    e.g. two items sharing the best score both get rank 1.5.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if s.size == 0:
        raise ValueError("empty score list")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise ValueError(f"non-finite score at index {int(bad[0])}")
    key = -s if higher_is_better else s
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    # positions start+1 .. end share the rank (start+1+end)/2
    mean_rank = (starts + ends + 1) / 2.0
    return mean_rank[inverse.reshape(s.shape)]


def validate_ranking(ranks) -> np.ndarray:
    """Check the rank-vector invariants and return the ranks as an array."""
    r = np.asarray(ranks, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("ranking must be a non-empty one-dimensional vector")
    if not np.all(np.isfinite(r)):
        raise ValueError("ranking contains non-finite values")
    n = r.size
    if np.any(r < 1.0) or np.any(r > n):
        raise ValueError("rank values must lie in [1, N]")
    expected = n * (n + 1) / 2.0
    if abs(float(r.sum()) - expected) > 1e-8 * expected:
        raise ValueError("rank values do not sum to N(N+1)/2")
    return r


@dataclass(frozen=True)
class WeightScheme:
    """Weighting rule for rank positions.

    ``additive-hyperbolic`` weights position n as 1/(n+n0)^2 and combines
    the two rankings additively; ``uniform`` gives every item weight 1/N.
    """

    kind: str = "additive-hyperbolic"
    n0: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("additive-hyperbolic", "uniform"):
            raise ValueError(f"unknown weight scheme kind: {self.kind!r}")
        if self.n0 < 0 or int(self.n0) != self.n0:
            raise ValueError("offset n0 must be a non-negative integer")

    @classmethod
    def hyperbolic(cls, n0: int = 2) -> "WeightScheme":
        return cls(kind="additive-hyperbolic", n0=n0)

    @classmethod
    def uniform(cls) -> "WeightScheme":
        return cls(kind="uniform")


def hyperbolic_weight(n: float, n0: int = 2) -> float:
    """Unnormalized weight 1/(n+n0)^2 of rank position n (n may be fractional)."""
    if n < 1:
        raise ValueError("rank position must be >= 1")
    if n0 < 0:
        raise ValueError("offset n0 must be >= 0")
    return 1.0 / (n + n0) ** 2


def uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one item")
    return np.full(n, 1.0 / n)


def additive_weights(a, b, scheme: WeightScheme | None = None) -> np.ndarray:
    """Per-item weights w_i = (f(a_i) + f(b_i)) / sum_j (f(a_j) + f(b_j)).

    f is the scheme's position weight, evaluated at fractional ranks when
    the rankings contain ties. Symmetric in the two rankings.
    """
    if scheme is None:
        scheme = WeightScheme.hyperbolic()
    ra = np.asarray(a, dtype=float)
    rb = np.asarray(b, dtype=float)
    if ra.shape != rb.shape or ra.ndim != 1:
        raise ValueError("rankings must be one-dimensional and of equal length")
    if ra.size < 2:
        raise ValueError("need at least two items")
    if scheme.kind == "uniform":
        return uniform_weights(ra.size)
    if np.any(ra < 1.0) or np.any(rb < 1.0):
        raise ValueError("rank values must be >= 1")
    raw = 1.0 / (ra + scheme.n0) ** 2 + 1.0 / (rb + scheme.n0) ** 2
    return raw / raw.sum()


# Bernoulli-number coefficients B_2, B_4, B_6, B_8 of the asymptotic tail.
_TRIGAMMA_TAIL = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)
_TRIGAMMA_SHIFT = 10.0


def trigamma(x: float) -> float:
    """First derivative of the digamma function, for real x > 0.

    Uses the recurrence psi1(x) = psi1(x+1) + 1/x^2 to push the argument
    above 10, then an asymptotic expansion with Bernoulli terms through
    1/x^9. Absolute error is below 1e-10 on the positive axis.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x < _TRIGAMMA_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    z = inv * inv
    b2, b4, b6, b8 = _TRIGAMMA_TAIL
    tail = b2 + z * (b4 + z * (b6 + z * b8))
    return acc + inv + 0.5 * z + inv * z * tail


def first_rank_share(n0: int) -> float:
    """Large-N fraction of total weight carried by rank 1 under 1/(n+n0)^2."""
    if n0 < 0 or int(n0) != n0:
        raise ValueError("offset n0 must be a non-negative integer")
    return 1.0 / ((n0 + 1) ** 2 * trigamma(float(n0 + 1)))


def _clamp_unit(v: float) -> float:
    return float(min(1.0, max(-1.0, v)))


def _prepare_pair(a, b, w=None):
    ra = np.asarray(a, dtype=float)
    rb = np.asarray(b, dtype=float)
    if ra.ndim != 1 or ra.shape != rb.shape:
        raise ValueError("rankings must be one-dimensional and of equal length")
    if ra.size < 2:
        raise ValueError("need at least two items")
    if not (np.all(np.isfinite(ra)) and np.all(np.isfinite(rb))):
        raise ValueError("rankings contain non-finite values")
    if w is None:
        return ra, rb, None
    wv = np.asarray(w, dtype=float)
    if wv.shape != ra.shape:
        raise ValueError("weights must match the rankings in length")
    if not np.all(np.isfinite(wv)):
        raise ValueError("weights contain non-finite values")
    if np.any(wv < 0.0):
        raise ValueError("weights must be non-negative")
    if abs(float(wv.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return ra, rb, wv


def weighted_spearman(a, b, w) -> float:
    """Weighted Spearman coefficient: weighted rank covariance over sigma_a*sigma_b."""
    ra, rb, wv = _prepare_pair(a, b, w)
    da = ra - float(wv @ ra)
    db = rb - float(wv @ rb)
    var_a = float(wv @ (da * da))
    var_b = float(wv @ (db * db))
    if var_a <= 0.0 or var_b <= 0.0:
        raise ValueError("degenerate ranking: zero weighted variance")
    cov = float(wv @ (da * db))
    return _clamp_unit(cov / math.sqrt(var_a * var_b))


def _untied_weight_mass(r: np.ndarray, w: np.ndarray) -> float:
    # sum_ij w_i w_j over index pairs whose ranks differ
    _, inverse = np.unique(r, return_inverse=True)
    group_w = np.bincount(inverse, weights=w)
    return 1.0 - float(group_w @ group_w)


def _sign_matrix(r: np.ndarray) -> np.ndarray:
    # int8 matrix of sign(r_j - r_i)
    return (r[None, :] > r[:, None]).view(np.int8) - (r[None, :] < r[:, None]).view(np.int8)


def weighted_kendall(a, b, w) -> float:
    """Weighted Kendall coefficient.

    Numerator is sum_ij w_i w_j sign(a_j - a_i) sign(b_j - b_i); the
    normalization is sqrt of the product of the untied weight-pair masses
    of the two rankings, which reduces to 1 - sum_i w_i^2 when both
    rankings are tie-free.
    """
    ra, rb, wv = _prepare_pair(a, b, w)
    za = _untied_weight_mass(ra, wv)
    zb = _untied_weight_mass(rb, wv)
    if za <= 0.0 or zb <= 0.0:
        raise ValueError("degenerate ranking: all rank values tied")
    concordance = _sign_matrix(ra)
    concordance *= _sign_matrix(rb)
    num = float(wv @ concordance.astype(np.float64) @ wv)
    return _clamp_unit(num / math.sqrt(za * zb))


def spearman(a, b) -> float:
    """Classical Spearman coefficient (Pearson correlation of the rank vectors)."""
    ra, rb, _ = _prepare_pair(a, b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    var_a = float(da @ da)
    var_b = float(db @ db)
    if var_a <= 0.0 or var_b <= 0.0:
        raise ValueError("degenerate ranking: zero variance")
    return _clamp_unit(float(da @ db) / math.sqrt(var_a * var_b))


def _pairs_within(group_sizes: np.ndarray) -> int:
    return int((group_sizes * (group_sizes - 1) // 2).sum())


def _run_lengths(starts_run: np.ndarray) -> np.ndarray:
    # lengths of the runs of a sorted sequence, given a mask of run starts
    return np.diff(np.flatnonzero(np.append(starts_run, True)))


def _discordant_pairs(y: np.ndarray) -> int:
    """Number of index pairs i < j with y_i > y_j, for non-negative integer codes.

    A bottom-up merge sort: at each level, neighbouring sorted runs of
    length `width` form one block. Offsetting every code by block * k
    (k above the largest code) makes the left runs of all blocks one
    sorted array, so a single searchsorted counts, for each right-run
    element, the left-run elements of its own block that exceed it. A
    sort of the offset codes then merges every block at once.
    """
    n = y.size
    k = int(y.max()) + 1
    pos = np.arange(n)
    discordant = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        keyed = y + block * k
        left = pos % (2 * width) < width
        right = ~left
        # every block with a right run has a full left run, and all blocks before it are full
        not_above = np.searchsorted(keyed[left], keyed[right], side="right") - block[right] * width
        discordant += int((width - not_above).sum())
        y = np.sort(keyed) - block * k
        width *= 2
    return discordant


def kendall(a, b) -> float:
    """Classical Kendall coefficient with the standard tie correction.

    C - D = P - T_a - T_b + T_ab - 2D, with P all pairs, T_a, T_b and T_ab
    the pairs tied in a, in b and in both, and D the discordant pairs,
    counted as inversions of b's tie codes in (a, b) order. Every count is
    an exact integer.
    """
    ra, rb, _ = _prepare_pair(a, b)
    n = ra.size
    order = np.lexsort((rb, ra))
    a_sorted = ra[order]
    b_sorted = rb[order]
    _, codes_b, counts_b = np.unique(b_sorted, return_inverse=True, return_counts=True)
    new_a = np.append(True, a_sorted[1:] != a_sorted[:-1])
    new_ab = new_a | np.append(True, b_sorted[1:] != b_sorted[:-1])
    tied_a = _pairs_within(_run_lengths(new_a))
    tied_b = _pairs_within(counts_b)
    tied_ab = _pairs_within(_run_lengths(new_ab))
    concordance = float(
        n * (n - 1) // 2 - tied_a - tied_b + tied_ab - 2 * _discordant_pairs(codes_b)
    )
    all_pairs = n * (n - 1) / 2.0
    untied_a = all_pairs - float(tied_a)
    untied_b = all_pairs - float(tied_b)
    if untied_a <= 0.0 or untied_b <= 0.0:
        raise ValueError("degenerate ranking: all rank values tied")
    return _clamp_unit(concordance / math.sqrt(untied_a * untied_b))


def coefficient_suite(a, b, n0: int = 2) -> dict[str, float]:
    """All four coefficients of a ranking pair, keyed rho_w/tau_w/rho/tau.

    The weighted pair uses the additive hyperbolic scheme with offset n0.
    """
    w = additive_weights(a, b, WeightScheme.hyperbolic(n0))
    return {
        "rho_w": weighted_spearman(a, b, w),
        "tau_w": weighted_kendall(a, b, w),
        "rho": spearman(a, b),
        "tau": kendall(a, b),
    }


def write_ranking_csv(path, ranks, weights=None) -> None:
    """Write a ranking (and optional weights) as item_id,rank,weight rows."""
    r = np.asarray(ranks, dtype=float)
    wv = None if weights is None else np.asarray(weights, dtype=float)
    if wv is not None and wv.shape != r.shape:
        raise ValueError("weights must match the ranking in length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "rank", "weight"])
        for i, rank in enumerate(r):
            weight = "" if wv is None else repr(float(wv[i]))
            writer.writerow([i, repr(float(rank)), weight])


def read_ranking_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read item_id,rank[,weight] rows; returns ranks (and weights) in id order."""
    rows: list[tuple[int, float, float | None]] = []
    name = Path(path).name
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty ranking file")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                item = int(row[0])
                rank = float(row[1])
                weight = float(row[2]) if len(row) > 2 and row[2] != "" else None
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{name}:{lineno}: malformed row {row!r}") from exc
            if not math.isfinite(rank):
                raise ValueError(f"{name}:{lineno}: non-finite rank")
            if weight is not None and not math.isfinite(weight):
                raise ValueError(f"{name}:{lineno}: non-finite weight")
            rows.append((item, rank, weight))
    if not rows:
        raise ValueError(f"{path}: no ranking rows")
    rows.sort(key=lambda t: t[0])
    ids = [item for item, _, _ in rows]
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: item ids must be exactly 0..N-1")
    ranks = np.array([rank for _, rank, _ in rows])
    weights = None
    if all(wt is not None for _, _, wt in rows):
        weights = np.array([wt for _, _, wt in rows])
    return ranks, weights
