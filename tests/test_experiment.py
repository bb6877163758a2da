import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from pairrank.experiment import (
    COEFFICIENTS,
    ExperimentConfig,
    config_from_file,
    export_figure_data,
    parse_config_file,
    replicate_seed,
    run_experiment,
    run_replicate,
    sample_cosine_values,
    write_outputs,
)
from pairrank.metrics import write_ranking_csv


def tiny_config(**overrides):
    base = dict(
        n_items=30, m=4, alpha=0.5, n_ballots=3, policy="adaptive",
        distribution="exponential", mode="relatedness", n_voters=5,
        replicates=3, seed=11, n0=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "n_items = 40\n"
            "m = 4\n"
            "policy = uniform\n"
            "replicates = 2\n"
            "snapshots = false\n"
        )
        cfg = config_from_file(cfg_file, {"seed": 9, "policy": "adaptive"})
        assert cfg.n_items == 40
        assert cfg.policy == "adaptive"
        assert cfg.seed == 9
        assert cfg.snapshots is False
        assert cfg.alpha == 0.5  # default retained

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n_itmes = 40\n")
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_file(cfg_file)

    def test_malformed_line_reports_location(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n_items = 40\njust words\n")
        with pytest.raises(ValueError, match="run.cfg:2"):
            parse_config_file(cfg_file)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(policy="greedy").validate()
        with pytest.raises(ValueError):
            tiny_config(sigma_min=0.3, sigma_max=0.1).validate()
        with pytest.raises(ValueError):
            tiny_config(distribution="file").validate()
        with pytest.raises(ValueError):
            tiny_config(reference="ground-truth").validate()

    def test_defaults_match_study_settings(self):
        cfg = ExperimentConfig()
        assert (cfg.n_items, cfg.m, cfg.alpha, cfg.n_ballots) == (990, 20, 0.5, 7)
        assert (cfg.sigma_min, cfg.sigma_max) == (0.02, 0.2)
        assert (cfg.eps_min, cfg.eps_max) == (0.005, 0.05)
        assert cfg.n_voters == 100 and cfg.replicates == 50 and cfg.n0 == 2


class TestReplicateSeeds:
    def test_counter_scheme_is_stable(self):
        assert replicate_seed(7, 0) == replicate_seed(7, 0)
        seeds = {replicate_seed(7, r) for r in range(100)}
        assert len(seeds) == 100
        assert replicate_seed(8, 0) not in seeds

    def test_single_replicate_rerun(self):
        cfg = tiny_config(replicates=3)
        again = run_replicate(cfg, 1)
        summary = run_experiment(cfg)
        ref = summary.replicates[1]
        assert again.seed == ref.seed
        assert (again.rho_w, again.tau_w, again.rho, again.tau) == (
            ref.rho_w, ref.tau_w, ref.rho, ref.tau,
        )


class TestRunExperiment:
    def test_deterministic_summaries(self):
        first = run_experiment(tiny_config())
        second = run_experiment(tiny_config())
        assert first.mean == second.mean
        assert first.sd == second.sd
        assert [r.seed for r in first.replicates] == [r.seed for r in second.replicates]

    def test_coefficients_in_range(self):
        summary = run_experiment(tiny_config())
        for rep in summary.replicates:
            for name in COEFFICIENTS:
                assert -1.0 <= getattr(rep, name) <= 1.0

    def test_parallel_matches_sequential(self):
        sequential = run_experiment(tiny_config(n_jobs=1, snapshots=False))
        parallel = run_experiment(tiny_config(n_jobs=2, snapshots=False))
        assert sequential.mean == parallel.mean
        assert sequential.sd == parallel.sd

    def test_single_replicate_has_no_sd(self):
        summary = run_experiment(tiny_config(replicates=1))
        assert all(summary.sd[name] is None for name in COEFFICIENTS)

    def test_reference_controls_theory_ranking(self):
        rel = run_experiment(tiny_config(reference="relatedness", snapshots=False))
        sim = run_experiment(tiny_config(reference="similarity", snapshots=False))
        assert not np.array_equal(rel.theoretical_ranks, sim.theoretical_ranks)

    def test_file_distribution_round_trip(self, tmp_path):
        values = sample_cosine_values(10, 16, 1.0, np.random.default_rng(2))
        path = tmp_path / "cosines.txt"
        path.write_text("\n".join(repr(float(v)) for v in values))
        cfg = tiny_config(
            n_items=len(values), distribution="file", similarity_file=str(path),
            replicates=2,
        )
        summary = run_experiment(cfg)
        assert len(summary.replicates) == 2

    def test_distribution_size_mismatch(self, tmp_path):
        path = tmp_path / "cosines.txt"
        path.write_text("0.5\n0.2\n")
        cfg = tiny_config(distribution="file", similarity_file=str(path))
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_experiment(cfg)


class TestOutputs:
    def test_written_files_and_arithmetic(self, tmp_path):
        summary = run_experiment(tiny_config())
        out = write_outputs(summary, tmp_path / "out")
        for name in ("summary.csv", "replicates.csv", "votes.csv", "scores.csv",
                     "figure_ballot_scores.csv", "figure_final_scores.csv",
                     "figure_rescale_points.csv", "figure_rescale_fit.csv"):
            assert (out / name).exists()

        rows = read_rows(out / "replicates.csv")
        assert len(rows) == 3
        for name in COEFFICIENTS:
            values = [float(r[name]) for r in rows]
            mean = math.fsum(values) / len(values)
            sd = math.sqrt(
                math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
            )
            assert abs(mean - summary.mean[name]) <= 1e-12
            assert abs(sd - summary.sd[name]) <= 1e-12

        summary_rows = read_rows(out / "summary.csv")
        assert [r["coefficient"] for r in summary_rows] == list(COEFFICIENTS)
        assert all(r["policy"] == "adaptive" for r in summary_rows)

    def test_sd_blank_for_single_replicate(self, tmp_path):
        summary = run_experiment(tiny_config(replicates=1))
        out = write_outputs(summary, tmp_path / "out")
        assert all(r["sd"] == "" for r in read_rows(out / "summary.csv"))

    def test_byte_identical_reruns(self, tmp_path):
        a = write_outputs(run_experiment(tiny_config()), tmp_path / "a")
        b = write_outputs(run_experiment(tiny_config()), tmp_path / "b")
        for name in ("summary.csv", "replicates.csv", "votes.csv", "scores.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_vote_log_schema(self, tmp_path):
        out = write_outputs(run_experiment(tiny_config()), tmp_path / "out")
        rows = read_rows(out / "votes.csv")
        assert set(rows[0]) == {"ballot_index", "item_a", "item_b", "voter_id", "result"}
        assert all(r["result"] in ("A", "B", "T") for r in rows)
        # ballot 1 of the tiny config holds 30 items appearing 4 times each
        assert sum(r["ballot_index"] == "1" for r in rows) == 60

    def test_score_table_schema(self, tmp_path):
        out = write_outputs(run_experiment(tiny_config()), tmp_path / "out")
        rows = read_rows(out / "scores.csv")
        assert set(rows[0]) == {
            "item_id", "ballot_index", "appearances", "wins", "ties",
            "x", "y", "ybar", "eliminated_at",
        }
        assert sum(r["ballot_index"] == "1" for r in rows) == 30
        survivors = [r for r in rows if r["ballot_index"] == "3"]
        assert len(survivors) == 8
        assert all(r["eliminated_at"] == "" for r in survivors)


class TestFigureData:
    def test_rescale_fit_covers_later_ballots(self, tmp_path):
        summary = run_experiment(tiny_config())
        export_figure_data(summary, tmp_path)
        fit_rows = read_rows(tmp_path / "figure_rescale_fit.csv")
        assert [r["ballot_index"] for r in fit_rows] == ["2", "3"]
        for row in fit_rows:
            slope = float(row["slope"])
            assert float(row["intercept"]) == pytest.approx(1.0 - slope)
            assert slope >= 0.0
        point_rows = read_rows(tmp_path / "figure_rescale_points.csv")
        assert {r["ballot_index"] for r in point_rows} == {"2", "3"}

    def test_ballot_scores_cover_schedule(self, tmp_path):
        summary = run_experiment(tiny_config())
        export_figure_data(summary, tmp_path)
        rows = read_rows(tmp_path / "figure_ballot_scores.csv")
        per_ballot = {k: sum(r["ballot_index"] == k for r in rows) for k in ("1", "2", "3")}
        assert per_ballot == {"1": 30, "2": 15, "3": 8}
        finals = read_rows(tmp_path / "figure_final_scores.csv")
        assert len(finals) == 30

    def test_single_ballot_run(self, tmp_path):
        summary = run_experiment(tiny_config(policy="uniform", n_ballots=1))
        export_figure_data(summary, tmp_path)
        rows = read_rows(tmp_path / "figure_ballot_scores.csv")
        assert {r["ballot_index"] for r in rows} == {"1"}
        assert read_rows(tmp_path / "figure_rescale_points.csv") == []
        assert read_rows(tmp_path / "figure_rescale_fit.csv") == []

    def test_snapshots_required(self, tmp_path):
        summary = run_experiment(tiny_config(snapshots=False))
        with pytest.raises(ValueError, match="snapshots"):
            export_figure_data(summary, tmp_path)


class TestCosineSample:
    def test_shape_and_range(self):
        values = sample_cosine_values(45, 64, 1.0, np.random.default_rng(0))
        assert values.shape == (990,)
        assert np.all((-1 <= values) & (values <= 1))
        assert 0.2 < values.mean() < 0.8

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            sample_cosine_values(1)


def run_cli(args, cwd):
    """Run ``python -m pairrank`` in ``cwd`` against the package under test.

    The child's ``PYTHONPATH`` starts with the absolute directory this process
    imported ``pairrank`` from, so a relative entry such as ``PYTHONPATH=src``
    does not break when ``cwd`` changes.
    """
    import os
    from pathlib import Path

    import pairrank

    package_root = str(Path(pairrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pairrank", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


class TestCli:
    def test_plan_reference_output(self, tmp_path):
        proc = run_cli(
            ["plan", "--n-items", "990", "--m", "20", "--alpha", "0.5", "--ballots", "7"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert "990 495 248 124 62 31 16" in proc.stdout
        assert "total comparisons: 19660" in proc.stdout
        assert "top-rank presentations: 140" in proc.stdout

    def test_plan_invalid_params_exit_code(self, tmp_path):
        proc = run_cli(
            ["plan", "--n-items", "10", "--m", "4", "--alpha", "0.2", "--ballots", "4"],
            tmp_path,
        )
        assert proc.returncode == 1
        assert "error" in proc.stdout

    def test_metrics_identical_files(self, tmp_path):
        ranks = np.arange(1.0, 9.0)
        write_ranking_csv(tmp_path / "a.csv", ranks)
        write_ranking_csv(tmp_path / "b.csv", ranks)
        proc = run_cli(["metrics", "a.csv", "b.csv", "--n0", "2"], tmp_path)
        assert proc.returncode == 0
        for name in COEFFICIENTS:
            assert f"{name} 1.000000" in proc.stdout

    def test_metrics_non_finite_rank(self, tmp_path):
        write_ranking_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        write_ranking_csv(tmp_path / "b.csv", [1.0, 2.0, 3.0, math.inf])
        proc = run_cli(["metrics", "a.csv", "b.csv"], tmp_path)
        assert proc.returncode == 2
        assert "b.csv:5: non-finite rank" in proc.stderr
        assert proc.stdout == ""

    def test_metrics_missing_file(self, tmp_path):
        proc = run_cli(["metrics", "a.csv", "b.csv"], tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_cost(self, tmp_path):
        proc = run_cli(
            ["cost", "--seconds-per-comparison", "5", "--comparisons", "19660"], tmp_path
        )
        assert proc.returncode == 0
        assert "27.3" in proc.stdout

    def test_unknown_flag(self, tmp_path):
        proc = run_cli(["plan", "--frobnicate"], tmp_path)
        assert proc.returncode == 2

    def test_simulate_is_reproducible(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "n_items = 30\nm = 4\nalpha = 0.5\nn_ballots = 3\n"
            "n_voters = 5\nreplicates = 2\nseed = 3\n"
        )
        args = ["simulate", "--config", "tiny.cfg", "--seed", "7", "--out-dir", "run1"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "rho_w: mean=" in proc.stdout
        proc2 = run_cli(
            ["simulate", "--config", "tiny.cfg", "--seed", "7", "--out-dir", "run2"],
            tmp_path,
        )
        assert proc2.returncode == 0
        for name in ("summary.csv", "replicates.csv", "votes.csv"):
            assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

    def test_simulate_single_replicate_prints_na(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("n_items = 30\nm = 4\nn_ballots = 3\nn_voters = 5\nreplicates = 1\n")
        proc = run_cli(["simulate", "--config", "tiny.cfg", "--out-dir", "out"], tmp_path)
        assert proc.returncode == 0
        assert "sd=n/a" in proc.stdout

    def test_simulate_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("policy = greedy\n")
        proc = run_cli(["simulate", "--config", "bad.cfg"], tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
