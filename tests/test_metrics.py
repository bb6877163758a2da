import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairrank.metrics import (
    WeightScheme,
    additive_weights,
    coefficient_suite,
    first_rank_share,
    hyperbolic_weight,
    kendall,
    ranks_from_scores,
    read_ranking_csv,
    spearman,
    trigamma,
    uniform_weights,
    validate_ranking,
    weighted_kendall,
    weighted_spearman,
    write_ranking_csv,
)

from helpers import (
    dense_kendall,
    dense_weighted_kendall,
    random_ranking,
    random_weights,
    ranks_by_counting,
    rho_w_double_sum,
    tau_w_double_sum,
)

PI2_6 = math.pi**2 / 6.0


@st.composite
def rankings(draw, n):
    """A tie-free permutation or an average-tie ranking over a random score alphabet."""
    if draw(st.booleans()):
        return np.array(draw(st.permutations(range(n))), dtype=float) + 1.0
    levels = draw(st.integers(1, n))
    return ranks_by_counting(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))


@st.composite
def ranking_pairs(draw, max_n=80):
    n = draw(st.integers(2, max_n))
    a, b = draw(rankings(n)), draw(rankings(n))
    assume(np.unique(a).size > 1 and np.unique(b).size > 1)
    return a, b


class TestRanksFromScores:
    def test_strict_ordering(self):
        assert ranks_from_scores([0.9, 0.1, 0.5]).tolist() == [1, 3, 2]

    def test_average_rank_ties(self):
        assert ranks_from_scores([0.5, 0.5, 0.1]).tolist() == [1.5, 1.5, 3]

    def test_lower_is_better(self):
        assert ranks_from_scores([1, 2, 3], higher_is_better=False).tolist() == [1, 2, 3]

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty score list"):
            ranks_from_scores([])

    def test_non_finite_reports_index(self):
        with pytest.raises(ValueError, match="index 2"):
            ranks_from_scores([0.1, 0.2, math.nan, 0.4])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_matches_counting_oracle(self, scores):
        got = ranks_from_scores(scores)
        expected = ranks_by_counting(scores)
        assert np.allclose(got, expected)
        validate_ranking(got)


class TestWeights:
    def test_hyperbolic_values(self):
        assert hyperbolic_weight(1, 0) == 1.0
        assert hyperbolic_weight(1, 2) == pytest.approx(1 / 9)
        assert hyperbolic_weight(3, 2) == pytest.approx(0.04)

    def test_hyperbolic_fractional_rank(self):
        assert hyperbolic_weight(1.5, 2) == pytest.approx(1 / 3.5**2)

    def test_hyperbolic_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            hyperbolic_weight(0, 2)

    def test_additive_identical_rankings(self):
        w = additive_weights([1, 2, 3], [1, 2, 3], WeightScheme.hyperbolic(2))
        assert w == pytest.approx([0.52016, 0.29259, 0.18725], abs=1e-5)

    def test_additive_mixed_rankings(self):
        w = additive_weights([1, 2, 3], [2, 1, 3], WeightScheme.hyperbolic(2))
        assert w == pytest.approx([0.40637, 0.40637, 0.18726], abs=1e-5)

    def test_uniform_scheme(self):
        w = additive_weights([1, 4, 2, 3], [4, 1, 3, 2], WeightScheme.uniform())
        assert w.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            additive_weights([1, 2, 3], [1, 2])

    def test_fractional_ranks_allowed(self):
        w = additive_weights([1.5, 1.5, 3], [1, 2, 3])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(2, 10), st.integers(0, 5), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_additive_symmetry(self, n, n0, seed):
        rng = np.random.default_rng(seed)
        a = random_ranking(rng, n)
        b = random_ranking(rng, n)
        scheme = WeightScheme.hyperbolic(n0)
        assert np.allclose(additive_weights(a, b, scheme), additive_weights(b, a, scheme))

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            WeightScheme(kind="multiplicative")
        with pytest.raises(ValueError):
            WeightScheme.hyperbolic(-1)


class TestTrigamma:
    def test_known_identities(self):
        assert trigamma(1.0) == pytest.approx(PI2_6, abs=1e-10)
        assert trigamma(2.0) == pytest.approx(PI2_6 - 1.0, abs=1e-10)
        assert trigamma(3.0) == pytest.approx(PI2_6 - 1.25, abs=1e-10)

    def test_against_scipy_on_grid(self):
        for x in np.concatenate([np.linspace(0.05, 5, 60), np.linspace(5, 300, 40)]):
            assert trigamma(float(x)) == pytest.approx(
                float(scipy.special.polygamma(1, x)), abs=1e-10
            )

    def test_rejects_non_positive(self):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                trigamma(x)


class TestFirstRankShare:
    def test_reference_values(self):
        assert first_rank_share(0) == pytest.approx(6 / math.pi**2, abs=1e-9)
        assert first_rank_share(0) == pytest.approx(0.6079, abs=1e-4)
        assert first_rank_share(2) == pytest.approx(0.2813, abs=1e-4)

    def test_matches_direct_trigamma(self):
        assert first_rank_share(1) == pytest.approx(1.0 / (4.0 * trigamma(2.0)), abs=1e-12)

    @pytest.mark.parametrize("n0", [0, 1, 2, 5])
    def test_finite_sum_converges_from_above(self, n0):
        shares = []
        for n in (100, 1000, 10000):
            ranks = np.arange(1, n + 1)
            f = 1.0 / (ranks + n0) ** 2
            shares.append(f[0] / f.sum())
        limit = first_rank_share(n0)
        assert shares[0] > shares[1] > shares[2] > limit
        assert shares[2] == pytest.approx(limit, rel=1e-3)


class TestWeightedCoefficients:
    def test_identical_rankings_give_one(self):
        a = np.arange(1.0, 11.0)
        w = random_weights(np.random.default_rng(0), 10)
        assert weighted_spearman(a, a, w) == 1.0
        assert weighted_kendall(a, a, w) == 1.0

    def test_reversed_rankings_give_minus_one(self):
        a = np.arange(1.0, 8.0)
        b = 8.0 - a
        w = random_weights(np.random.default_rng(1), 7)
        assert weighted_spearman(a, b, w) == pytest.approx(-1.0, abs=1e-12)
        assert weighted_kendall(a, b, w) == pytest.approx(-1.0, abs=1e-12)

    def test_mixed_example_values(self):
        a, b = [1, 2, 3], [2, 1, 3]
        w = additive_weights(a, b, WeightScheme.hyperbolic(2))
        assert weighted_spearman(a, b, w) == pytest.approx(0.2552, abs=1e-4)
        assert weighted_kendall(a, b, w) == pytest.approx(-0.0408, abs=1e-4)

    def test_degenerate_ranking_raises(self):
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="degenerate"):
            weighted_spearman([1.5, 1.5], [1, 2], w)
        with pytest.raises(ValueError, match="degenerate"):
            weighted_kendall([1.5, 1.5], [1, 2], w)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            weighted_spearman([1, 2, 3], [1, 2, 3], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            weighted_kendall([1, 2, 3], [1, 2, 3], [-0.2, 0.6, 0.6])

    @given(st.integers(2, 8), st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_matches_double_sum_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_ranking(rng, n)
        b = random_ranking(rng, n)
        w = random_weights(rng, n)
        if np.unique(a).size == 1 or np.unique(b).size == 1:
            return
        assert weighted_spearman(a, b, w) == pytest.approx(
            rho_w_double_sum(a, b, w), abs=1e-10
        )
        assert weighted_kendall(a, b, w) == pytest.approx(
            tau_w_double_sum(a, b, w), abs=1e-10
        )

    @given(st.integers(2, 10), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_ranking(rng, n)
        b = random_ranking(rng, n)
        w = random_weights(rng, n)
        if np.unique(a).size == 1 or np.unique(b).size == 1:
            return
        rho = weighted_spearman(a, b, w)
        tau = weighted_kendall(a, b, w)
        assert -1.0 <= rho <= 1.0 and -1.0 <= tau <= 1.0
        assert rho == pytest.approx(weighted_spearman(b, a, w), abs=1e-12)
        assert tau == pytest.approx(weighted_kendall(b, a, w), abs=1e-12)

    @given(ranking_pairs(), st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_reference(self, pair, seed):
        a, b = pair
        w = random_weights(np.random.default_rng(seed), a.size)
        assert weighted_kendall(a, b, w) == dense_weighted_kendall(a, b, w)
        hyperbolic = additive_weights(a, b)
        assert weighted_kendall(a, b, hyperbolic) == dense_weighted_kendall(a, b, hyperbolic)

    def test_non_finite_weights_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="weights contain non-finite"):
                weighted_kendall([1, 2, 3], [1, 2, 3], [0.5, 0.5, bad])

    def test_top_rank_sensitivity(self):
        n = 100
        identity = np.arange(1.0, n + 1)
        swap_top = identity.copy()
        swap_top[[0, n - 1]] = swap_top[[n - 1, 0]]
        swap_mid = identity.copy()
        swap_mid[[49, 50]] = swap_mid[[50, 49]]
        n0 = 2
        tau_top = weighted_kendall(identity, swap_top, additive_weights(identity, swap_top, WeightScheme.hyperbolic(n0)))
        tau_mid = weighted_kendall(identity, swap_mid, additive_weights(identity, swap_mid, WeightScheme.hyperbolic(n0)))
        assert tau_top < tau_mid


class TestClassicalCoefficients:
    def test_identical_and_reversed(self):
        a = [1, 2, 3, 4]
        assert spearman(a, a) == 1.0 and kendall(a, a) == 1.0
        assert spearman(a, [4, 3, 2, 1]) == -1.0
        assert kendall(a, [4, 3, 2, 1]) == -1.0

    def test_single_discordant_pair(self):
        assert kendall([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3, abs=1e-12)

    @given(st.integers(3, 12), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_against_scipy(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_ranking(rng, n)
        b = random_ranking(rng, n)
        if np.unique(a).size == 1 or np.unique(b).size == 1:
            return
        assert spearman(a, b) == pytest.approx(
            float(scipy.stats.spearmanr(a, b).statistic), abs=1e-10
        )
        assert kendall(a, b) == pytest.approx(
            float(scipy.stats.kendalltau(a, b).statistic), abs=1e-10
        )

    @given(st.integers(2, 12), st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_uniform_weight_reduction(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_ranking(rng, n)
        b = random_ranking(rng, n)
        if np.unique(a).size == 1 or np.unique(b).size == 1:
            return
        w = uniform_weights(n)
        assert weighted_spearman(a, b, w) == pytest.approx(spearman(a, b), abs=1e-12)
        assert weighted_kendall(a, b, w) == pytest.approx(kendall(a, b), abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            spearman([2, 2, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="degenerate"):
            kendall([2, 2, 2], [1, 2, 3])

    @given(ranking_pairs())
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_reference(self, pair):
        a, b = pair
        assert kendall(a, b) == dense_kendall(a, b)

    def test_ties_heavy_large_n_against_scipy(self):
        # The dense formula would need N^2 float64 matrices (~80 GB) here.
        n = 100_000
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 41, n)
        a = ranks_from_scores(scores)
        b = ranks_from_scores(scores + rng.integers(-4, 5, n))
        tracemalloc.start()
        try:
            tau = kendall(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * n
        assert tau == pytest.approx(float(scipy.stats.kendalltau(a, b).statistic), abs=1e-12)


class TestCoefficientSuite:
    def test_identical_rankings(self):
        suite = coefficient_suite([1, 2, 3, 4], [1, 2, 3, 4], n0=2)
        assert set(suite) == {"rho_w", "tau_w", "rho", "tau"}
        assert all(v == 1.0 for v in suite.values())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_ranks_rejected(self, bad):
        # -inf already fails the weights' rank >= 1 check
        with pytest.raises(ValueError, match="rank"):
            coefficient_suite([1, 2, 3, 4], [1, 2, 3, bad])
        for coefficient in (spearman, kendall):
            with pytest.raises(ValueError, match="rankings contain non-finite"):
                coefficient([1, 2, bad, 4], [1, 2, 3, 4])


class TestRankingCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ranking.csv"
        ranks = np.array([2.0, 1.0, 3.5, 3.5, 5.0])
        weights = random_weights(np.random.default_rng(3), 5)
        write_ranking_csv(path, ranks, weights)
        got_ranks, got_weights = read_ranking_csv(path)
        assert np.array_equal(got_ranks, ranks)
        assert np.array_equal(got_weights, weights)

    def test_round_trip_without_weights(self, tmp_path):
        path = tmp_path / "ranking.csv"
        write_ranking_csv(path, [1.0, 2.0, 3.0])
        ranks, weights = read_ranking_csv(path)
        assert ranks.tolist() == [1.0, 2.0, 3.0]
        assert weights is None

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("item_id,rank,weight\n0,not-a-rank,\n")
        with pytest.raises(ValueError, match="broken.csv:2"):
            read_ranking_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rank_reports_line(self, tmp_path, bad):
        path = tmp_path / "ranks.csv"
        path.write_text(f"item_id,rank,weight\n0,1.0,\n1,{bad},\n")
        with pytest.raises(ValueError, match="ranks.csv:3: non-finite rank"):
            read_ranking_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_weight_reports_line(self, tmp_path, bad):
        path = tmp_path / "ranks.csv"
        path.write_text(f"item_id,rank,weight\n0,1.0,{bad}\n1,2.0,0.5\n")
        with pytest.raises(ValueError, match="ranks.csv:2: non-finite weight"):
            read_ranking_csv(path)

    def test_malformed_weight_reports_line(self, tmp_path):
        path = tmp_path / "ranks.csv"
        path.write_text("item_id,rank,weight\n0,1.0,heavy\n")
        with pytest.raises(ValueError, match="ranks.csv:2: malformed row"):
            read_ranking_csv(path)

    def test_ids_must_be_dense(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("item_id,rank,weight\n0,1.0,\n2,2.0,\n")
        with pytest.raises(ValueError, match="0..N-1"):
            read_ranking_csv(path)


class TestValidateRanking:
    def test_accepts_tied_ranking(self):
        validate_ranking([1.5, 1.5, 3.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_ranking([1.0, 1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_ranking([0.5, 2.0, 3.0])
