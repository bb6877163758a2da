import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank.protocol import RESULT_FIRST, RESULT_SECOND, RESULT_TIE
from pairrank.voters import (
    SimilarityDistribution,
    SimulatedElectorate,
    VoterParams,
    builtin_similarity,
    load_similarity_file,
    make_distribution,
    perceive,
    sample_voter_pool,
    theoretical_ranking,
    vote,
)

from helpers import ranks_by_counting


class TestVoterParams:
    def test_validation(self):
        VoterParams(0.0, 0.0)
        VoterParams(0.2, 1.0)
        with pytest.raises(ValueError):
            VoterParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            VoterParams(0.1, 1.5)


class TestBuiltinDistributions:
    def test_power_law_endpoint(self):
        assert builtin_similarity("power_law", 990, 990) == 0.0

    def test_exponential_endpoint(self):
        assert builtin_similarity("exponential", 990, 990) == pytest.approx(2 / math.e - 1)

    def test_exponential_top(self):
        assert builtin_similarity("exponential", 1, 990) == pytest.approx(0.99798, abs=1e-5)

    def test_index_out_of_range(self):
        for i in (0, 991):
            with pytest.raises(ValueError, match="out of range"):
                builtin_similarity("exponential", i, 990)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            builtin_similarity("zipf", 1, 10)

    @pytest.mark.parametrize("kind", ["exponential", "power_law"])
    def test_vector_matches_scalar_and_decreases(self, kind):
        d = make_distribution(kind, 50)
        assert d.n_items == 50
        for i in (1, 7, 50):
            assert d.values[i - 1] == builtin_similarity(kind, i, 50)
        assert np.all(np.diff(d.values) < 0)
        assert np.all((-1 <= d.values) & (d.values <= 1))


class TestSimilarityFile:
    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# header comment\n1.0\n0.0\n\n-1.0\n")
        d = load_similarity_file(path)
        assert d.kind == "file"
        assert d.values.tolist() == [1.0, 0.0, -1.0]

    def test_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1.5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_similarity_file(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0.5\n0.1\nbanana\n")
        with pytest.raises(ValueError, match="line 3"):
            load_similarity_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no similarity values"):
            load_similarity_file(path)

    def test_large_file_count(self, tmp_path):
        path = tmp_path / "values.txt"
        rng = np.random.default_rng(0)
        path.write_text("\n".join(str(v) for v in rng.uniform(-1, 1, 990)))
        assert load_similarity_file(path).n_items == 990


class TestVoterPool:
    def test_draws_inside_ranges(self):
        pool = sample_voter_pool(100, (0.02, 0.2), (0.005, 0.05), np.random.default_rng(0))
        assert len(pool) == 100
        assert all(0.02 <= v.sigma_star <= 0.2 for v in pool)
        assert all(0.005 <= v.epsilon <= 0.05 for v in pool)

    def test_degenerate_range(self):
        pool = sample_voter_pool(10, (0.1, 0.1), (0.02, 0.02), np.random.default_rng(0))
        assert all(v == VoterParams(0.1, 0.02) for v in pool)

    def test_means_match_midpoints(self):
        pool = sample_voter_pool(100_000, (0.02, 0.2), (0.005, 0.05), np.random.default_rng(1))
        sigma_mean = float(np.mean([v.sigma_star for v in pool]))
        eps_mean = float(np.mean([v.epsilon for v in pool]))
        assert sigma_mean == pytest.approx(0.11, rel=0.01)
        assert eps_mean == pytest.approx(0.0275, rel=0.01)

    def test_invalid_ranges(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_voter_pool(10, (0.2, 0.1), (0.0, 0.1), rng)
        with pytest.raises(ValueError):
            sample_voter_pool(10, (0.0, 0.1), (0.5, 1.5), rng)
        with pytest.raises(ValueError):
            sample_voter_pool(0, (0.0, 0.1), (0.0, 0.1), rng)


class TestPerceive:
    def test_noiseless_is_identity(self):
        rng = np.random.default_rng(0)
        voter = VoterParams(0.0, 0.0)
        for z in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert perceive(z, voter, "similarity", rng) == z

    def test_boundaries_are_exact(self):
        rng = np.random.default_rng(1)
        voter = VoterParams(0.2, 0.0)
        for _ in range(100):
            assert perceive(1.0, voter, "similarity", rng) == 1.0
            assert perceive(-1.0, voter, "similarity", rng) == -1.0
            assert perceive(-1.0, voter, "relatedness", rng) == 1.0

    @given(
        st.floats(-1.0, 1.0),
        st.floats(0.0, 0.5),
        st.integers(0, 2**31),
    )
    @settings(max_examples=200)
    def test_output_ranges(self, z, sigma, seed):
        rng = np.random.default_rng(seed)
        voter = VoterParams(sigma, 0.0)
        o_sim = perceive(z, voter, "similarity", rng)
        o_rel = perceive(z, voter, "relatedness", rng)
        assert -1.0 <= o_sim <= 1.0
        assert 0.0 <= o_rel <= 1.0

    def test_clip_saturation_is_rare_at_reference_noise(self):
        # at z = 0 the perceived value only saturates when |eta| >= 1/sigma
        prob = math.erfc(5.0 / math.sqrt(2.0))
        assert prob == pytest.approx(5.7e-7, rel=0.01)
        assert prob <= 1e-5

    def test_rejects_out_of_range_z(self):
        with pytest.raises(ValueError):
            perceive(1.2, VoterParams(0.1, 0.0), "similarity", np.random.default_rng(0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            perceive(0.5, VoterParams(0.1, 0.0), "relevance", np.random.default_rng(0))


class TestVote:
    def test_noiseless_vote_is_deterministic(self):
        rng = np.random.default_rng(0)
        voter = VoterParams(0.0, 0.0)
        for _ in range(20):
            assert vote(0.8, 0.2, voter, "similarity", rng).result == RESULT_FIRST
            assert vote(0.2, 0.8, voter, "similarity", rng).result == RESULT_SECOND
            assert vote(-0.9, 0.2, voter, "relatedness", rng).result == RESULT_FIRST

    def test_certain_oversight_always_flips(self):
        rng = np.random.default_rng(0)
        voter = VoterParams(0.0, 1.0)
        for _ in range(20):
            assert vote(0.8, 0.2, voter, "similarity", rng).result == RESULT_SECOND

    def test_exact_perception_tie(self):
        rng = np.random.default_rng(0)
        outcome = vote(0.5, 0.5, VoterParams(0.0, 0.0), "similarity", rng)
        assert outcome.result == RESULT_TIE

    def test_equal_latent_values_split_evenly(self):
        d = SimilarityDistribution("file", np.array([0.3, 0.3]))
        electorate = SimulatedElectorate(
            d, [VoterParams(0.1, 0.0)], "similarity", np.random.default_rng(42)
        )
        outcomes = electorate.vote_batch([(0, 1)] * 100_000)
        freq_first = sum(o.result == RESULT_FIRST for o in outcomes) / len(outcomes)
        assert freq_first == pytest.approx(0.5, abs=0.01)

    def test_oversight_linearity(self):
        # win probability of the first item is p - (2p - 1) * epsilon
        z_i, z_j, sigma = 0.4, 0.1, 0.15
        trials = 100_000
        d = SimilarityDistribution("file", np.array([z_i, z_j]))

        def win_rate(eps, seed):
            electorate = SimulatedElectorate(
                d, [VoterParams(sigma, eps)], "similarity", np.random.default_rng(seed)
            )
            outcomes = electorate.vote_batch([(0, 1)] * trials)
            return sum(o.result == RESULT_FIRST for o in outcomes) / trials

        p0 = win_rate(0.0, 1)
        se = math.sqrt(0.25 / trials)
        for eps, seed in ((0.25, 2), (0.5, 3)):
            predicted = p0 - (2 * p0 - 1) * eps
            assert win_rate(eps, seed) == pytest.approx(predicted, abs=4 * se)

    def test_relatedness_sign_symmetry(self):
        # win frequency against a fixed opponent depends on |z| only
        trials = 100_000
        se = math.sqrt(0.25 / trials)

        def win_rate(z, seed):
            d = SimilarityDistribution("file", np.array([z, 0.2]))
            electorate = SimulatedElectorate(
                d, [VoterParams(0.15, 0.0)], "relatedness", np.random.default_rng(seed)
            )
            outcomes = electorate.vote_batch([(0, 1)] * trials)
            return sum(o.result == RESULT_FIRST for o in outcomes) / trials

        assert win_rate(0.5, 11) == pytest.approx(win_rate(-0.5, 12), abs=3 * se)


class TestTheoreticalRanking:
    def test_relatedness_uses_magnitude(self):
        d = SimilarityDistribution("file", np.array([0.9, -0.95, 0.1]))
        assert theoretical_ranking(d, "relatedness").tolist() == [2, 1, 3]

    def test_similarity_uses_signed_value(self):
        d = SimilarityDistribution("file", np.array([0.9, -0.95, 0.1]))
        assert theoretical_ranking(d, "similarity").tolist() == [1, 3, 2]

    def test_exponential_fold_reorders_relateness_tail(self):
        d = make_distribution("exponential", 10)
        got = theoretical_ranking(d, "relatedness")
        expected = ranks_by_counting(np.abs(d.values))
        assert np.allclose(got, expected)
        # the negative tail folds back above weaker positive values
        assert got[9] < got[6]
        assert theoretical_ranking(d, "similarity").tolist() == list(range(1, 11))


class TestSimulatedElectorate:
    def test_requires_voters(self):
        d = make_distribution("exponential", 5)
        with pytest.raises(ValueError):
            SimulatedElectorate(d, [], "similarity", np.random.default_rng(0))

    def test_batch_and_scalar_paths_are_each_deterministic(self):
        d = make_distribution("exponential", 20)
        voters = [VoterParams(0.1, 0.02), VoterParams(0.2, 0.01)]
        pairs = [(0, 1), (5, 3), (10, 2)] * 5

        def batch_run():
            e = SimulatedElectorate(d, voters, "relatedness", np.random.default_rng(9))
            return [(o.result, o.voter_id) for o in e.vote_batch(pairs)]

        def scalar_run():
            e = SimulatedElectorate(d, voters, "relatedness", np.random.default_rng(9))
            return [(o.result, o.voter_id) for o in (e(a, b) for a, b in pairs)]

        assert batch_run() == batch_run()
        assert scalar_run() == scalar_run()

    def test_outcomes_reference_their_pairs(self):
        d = make_distribution("power_law", 30)
        e = SimulatedElectorate(
            d, sample_voter_pool(5, (0.0, 0.2), (0.0, 0.05), np.random.default_rng(0)),
            "relatedness", np.random.default_rng(1),
        )
        pairs = [(3, 7), (1, 2)]
        outcomes = e.vote_batch(pairs)
        assert [(o.item_a, o.item_b) for o in outcomes] == pairs
        assert all(0 <= o.voter_id < 5 for o in outcomes)
