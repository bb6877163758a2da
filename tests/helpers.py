"""Independent oracles used across the test suite.

The double sums are deliberately written as plain loops over the generic
correlation form, so the implementations in the package are checked
against a second, independent arithmetic path. The dense N x N Kendall
formulas are the package's former ones; the current implementations must
reproduce them bit for bit.
"""

import math

import numpy as np


def gamma_double_sum(a_mat, b_mat) -> float:
    num = 0.0
    sum_a = 0.0
    sum_b = 0.0
    n = len(a_mat)
    for i in range(n):
        for j in range(n):
            num += a_mat[i][j] * b_mat[i][j]
            sum_a += a_mat[i][j] ** 2
            sum_b += b_mat[i][j] ** 2
    return num / math.sqrt(sum_a * sum_b)


def rho_w_double_sum(a, b, w) -> float:
    n = len(a)
    a_mat = [[math.sqrt(w[i] * w[j]) * (a[j] - a[i]) for j in range(n)] for i in range(n)]
    b_mat = [[math.sqrt(w[i] * w[j]) * (b[j] - b[i]) for j in range(n)] for i in range(n)]
    return gamma_double_sum(a_mat, b_mat)


def _sign(x: float) -> float:
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def tau_w_double_sum(a, b, w) -> float:
    n = len(a)
    a_mat = [[math.sqrt(w[i] * w[j]) * _sign(a[j] - a[i]) for j in range(n)] for i in range(n)]
    b_mat = [[math.sqrt(w[i] * w[j]) * _sign(b[j] - b[i]) for j in range(n)] for i in range(n)]
    return gamma_double_sum(a_mat, b_mat)


def ranks_by_counting(values, higher_is_better=True) -> np.ndarray:
    """Average-rank assignment by direct counting of better/equal values."""
    n = len(values)
    ranks = np.empty(n)
    for i in range(n):
        if higher_is_better:
            better = sum(1 for j in range(n) if values[j] > values[i])
        else:
            better = sum(1 for j in range(n) if values[j] < values[i])
        equal = sum(1 for j in range(n) if values[j] == values[i])
        ranks[i] = better + (equal + 1) / 2.0
    return ranks


def random_ranking(rng, n, with_ties=True) -> np.ndarray:
    """Random valid ranking; tie groups come from a small score alphabet."""
    if with_ties and rng.random() < 0.5:
        while True:
            scores = rng.integers(0, max(2, n // 2 + 1), size=n)
            if len(set(scores.tolist())) > 1:
                return ranks_by_counting(scores)
    return rng.permutation(n).astype(float) + 1.0


def random_weights(rng, n) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def _dense_clamp(v: float) -> float:
    return float(min(1.0, max(-1.0, v)))


def dense_kendall(a, b) -> float:
    """Classical Kendall tau from the dense N x N sign matrices.

    This is the package's former formula, kept as the reference the
    merge-sort implementation must match bit for bit.
    """
    ra = np.asarray(a, dtype=float)
    rb = np.asarray(b, dtype=float)
    n = ra.size
    sa = np.sign(ra[None, :] - ra[:, None])
    sb = np.sign(rb[None, :] - rb[:, None])
    concordance = float((sa * sb).sum()) / 2.0
    all_pairs = n * (n - 1) / 2.0
    tied_a = float(sum(c * (c - 1) // 2 for c in np.unique(ra, return_counts=True)[1]))
    tied_b = float(sum(c * (c - 1) // 2 for c in np.unique(rb, return_counts=True)[1]))
    return _dense_clamp(concordance / math.sqrt((all_pairs - tied_a) * (all_pairs - tied_b)))


def dense_weighted_kendall(a, b, w) -> float:
    """Weighted Kendall tau from float64 N x N sign matrices (the former formula)."""
    ra = np.asarray(a, dtype=float)
    rb = np.asarray(b, dtype=float)
    wv = np.asarray(w, dtype=float)

    def untied_mass(r):
        _, inverse = np.unique(r, return_inverse=True)
        group_w = np.bincount(inverse, weights=wv)
        return 1.0 - float(group_w @ group_w)

    sa = np.sign(ra[None, :] - ra[:, None])
    sb = np.sign(rb[None, :] - rb[:, None])
    num = float(wv @ (sa * sb) @ wv)
    return _dense_clamp(num / math.sqrt(untied_mass(ra) * untied_mass(rb)))
