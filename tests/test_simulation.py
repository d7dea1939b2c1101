"""Data generation, contamination schemes, and the replication studies."""

import builtins
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import robustpanel.estimators as estimators
import robustpanel.simulation as sim
from robustpanel.errors import BlockPolicyError, NoValidTuning
from robustpanel.io import (
    ConsistencyStudyConfig,
    ErrorDistStudyConfig,
    ExperimentConfig,
    OutlierStudyConfig,
)
from robustpanel.panel import within_ls
from robustpanel.simulation import (
    ContaminationScheme,
    DgpConfig,
    block_length,
    contaminate,
    gen_holdout_panel,
    gen_panel,
    rmse_prediction_study,
    run_mc,
)


class TestGenPanel:
    def test_chisq_regressor_centered(self):
        p = gen_panel(DgpConfig(10000, 100, seed=1))
        assert abs(p.x[:, :, 0].mean()) < 0.01

    def test_noiseless_recovery(self):
        p = gen_panel(DgpConfig(200, 4, error_dist="none", seed=2))
        assert_allclose(within_ls(p).beta, [2.4, -1.2], atol=1e-10)

    def test_eta_variance(self):
        cfg = DgpConfig(1_000_000, 2, error_dist="none", seed=3)
        p = gen_panel(cfg)
        # with eps = 0, alpha_i = mean_t(y - x beta) and eta_i is alpha_i
        # minus the regressor part of the heterogeneity
        beta = np.asarray(cfg.beta)
        gamma = np.asarray(cfg.gamma)
        alpha = (p.y - p.x @ beta).mean(axis=1)
        eta = alpha - (p.x @ gamma).sum(axis=1) / np.sqrt(cfg.n_periods)
        assert 11.8 <= eta.var() <= 12.2
        assert 5.9 <= eta.mean() <= 6.1

    def test_moment_checks_per_error_law(self):
        n_cells = 1_000_000
        draws = {
            d: gen_panel(DgpConfig(n_cells // 2, 2, error_dist=d, seed=7))
            for d in ("normal", "t5", "chisq4", "cauchy")
        }

        def recover_eps(p, d):
            cfg = DgpConfig(n_cells // 2, 2, error_dist=d, seed=7)
            clean = gen_panel(dataclasses.replace(cfg, error_dist="none"))
            return (p.y - clean.y).ravel()

        eps = recover_eps(draws["normal"], "normal")
        assert abs(eps.mean()) < 3 * 1.0 / np.sqrt(n_cells)
        assert abs(eps.var() - 1.0) < 3 * np.sqrt(2.0 / n_cells)
        eps = recover_eps(draws["t5"], "t5")
        assert abs(eps.var() - 5.0 / 3.0) < 3 * np.sqrt((25 - 25 / 9) / n_cells)
        eps = recover_eps(draws["chisq4"], "chisq4")
        assert abs(eps.mean() - 4.0) < 3 * np.sqrt(8.0 / n_cells)
        assert abs(eps.var() - 8.0) < 3 * np.sqrt((12 / 4 + 2) * 64 / n_cells)
        eps = recover_eps(draws["cauchy"], "cauchy")
        assert abs(np.median(eps)) < 0.005

    def test_x_laws(self):
        p = gen_panel(DgpConfig(5000, 100, seed=9))
        n_cells = p.y.size
        assert abs(p.x[:, :, 0].var() - 4.0) < 3 * np.sqrt(128.0 / n_cells)
        assert abs(p.x[:, :, 1].var() - 1.0) < 3 * np.sqrt(2.0 / n_cells)
        assert abs(p.x[:, :, 1].mean()) < 3 / np.sqrt(n_cells)

    def test_deterministic(self):
        a = gen_panel(DgpConfig(20, 3, seed=11))
        b = gen_panel(DgpConfig(20, 3, seed=11))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(1, 3)
        with pytest.raises(ValueError):
            DgpConfig(10, 2, beta=(1.0,), gamma=(1.0, 2.0))
        with pytest.raises(ValueError):
            DgpConfig(10, 2, error_dist="laplace")


class TestGenHoldout:
    def test_cell_mode_heterogeneity_signature(self):
        cfg = DgpConfig(100, 2, seed=5)
        hp = gen_holdout_panel(cfg, 4000, seed=13)
        resid = hp.y - hp.x @ np.asarray(cfg.beta)
        centered = resid - resid.mean(axis=1, keepdims=True)
        # per-cell heterogeneity + noise has variance 45, halved by centering
        assert 21.0 <= centered.var() <= 24.0


class TestContaminate:
    def test_block_length(self):
        assert [block_length(t) for t in (2, 3, 4, 5)] == [1, 2, 2, 3]

    def test_noop(self):
        p = gen_panel(DgpConfig(10, 3, seed=15))
        out = contaminate(p, ContaminationScheme("random_vertical", 0, seed=1))
        assert np.array_equal(out.y, p.y) and np.array_equal(out.x, p.x)

    def test_random_vertical_touches_exactly_m_cells(self):
        p = gen_panel(DgpConfig(120, 2, seed=17))
        out = contaminate(p, ContaminationScheme("random_vertical", 12, seed=3))
        diff = out.y != p.y
        assert diff.sum() == 12
        assert np.all((out.y[diff] >= 20.0) & (out.y[diff] <= 80.0))
        assert np.array_equal(out.x, p.x)
        assert np.array_equal(out.y[~diff], p.y[~diff])

    def test_random_leverage_redraws_regressors(self):
        p = gen_panel(DgpConfig(120, 2, seed=19))
        out = contaminate(p, ContaminationScheme("random_leverage", 12, seed=3))
        ydiff = out.y != p.y
        xdiff = np.any(out.x != p.x, axis=2)
        assert ydiff.sum() == 12
        assert np.array_equal(ydiff, xdiff)  # same cells hit in y and x
        assert np.all(out.x[xdiff] > 0)  # N(8, sd 2) draws sit far from 0

    def test_concentrated_blocks_cover_half_units(self):
        p = gen_panel(DgpConfig(80, 3, seed=21))
        out = contaminate(p, ContaminationScheme("concentrated_leverage", 24, seed=5))
        ydiff = out.y != p.y
        assert ydiff.sum() == 24
        hit_units = np.nonzero(ydiff.any(axis=1))[0]
        assert len(hit_units) == 12  # blocks of 2 periods in 12 units
        assert np.all(ydiff[hit_units, :2])
        assert not np.any(ydiff[:, 2])  # last period untouched
        assert np.all((out.y[ydiff] >= 79.0) & (out.y[ydiff] <= 80.0))
        xdiff = np.any(out.x != p.x, axis=2)
        assert np.array_equal(xdiff, ydiff)
        assert np.array_equal(out.y[~ydiff], p.y[~ydiff])
        assert np.array_equal(out.x[~xdiff], p.x[~xdiff])

    def test_concentrated_vertical_leaves_x_alone(self):
        p = gen_panel(DgpConfig(120, 2, seed=23))
        out = contaminate(p, ContaminationScheme("concentrated_vertical", 24, seed=5))
        assert np.array_equal(out.x, p.x)
        assert (out.y != p.y).sum() == 24

    def test_block_policy_error_names_nearest(self):
        p = gen_panel(DgpConfig(80, 3, seed=25))
        with pytest.raises(BlockPolicyError, match="12"):
            contaminate(p, ContaminationScheme("concentrated_vertical", 13, seed=0))
        with pytest.raises(BlockPolicyError, match="2"):
            contaminate(p, ContaminationScheme("concentrated_vertical", 1, seed=0))

    def test_m_bounds(self):
        p = gen_panel(DgpConfig(10, 2, seed=27))
        with pytest.raises(ValueError):
            contaminate(p, ContaminationScheme("random_vertical", 21, seed=0))
        with pytest.raises(ValueError):
            contaminate(p, ContaminationScheme("concentrated_vertical", 11, seed=0))
        with pytest.raises(ValueError):
            ContaminationScheme("vertical", 5, seed=0)

    def test_labels_preserved(self):
        p = gen_panel(DgpConfig(10, 2, seed=29))
        out = contaminate(p, ContaminationScheme("random_vertical", 4, seed=1))
        assert out.unit_labels == p.unit_labels
        assert out.period_labels == p.period_labels


class TestRunMc:
    def test_noiseless_ls_has_zero_mse(self):
        report = run_mc(DgpConfig(30, 3, error_dist="none"), None, ["ls"], 1, 99)
        assert report.mse["ls"] == pytest.approx(0.0, abs=1e-20)
        assert report.n_failed == 0 and not report.degraded

    def test_deterministic(self):
        dgp = DgpConfig(40, 2)
        scheme = ContaminationScheme("random_vertical", 8)
        a = run_mc(dgp, scheme, ["ls", "huber"], 5, 7)
        b = run_mc(dgp, scheme, ["ls", "huber"], 5, 7)
        for name in ("ls", "huber"):
            assert np.array_equal(a.se_samples[name], b.se_samples[name])
        assert a.mse == b.mse

    def test_replication_prefix_invariant_to_s(self):
        dgp = DgpConfig(30, 2)
        small = run_mc(dgp, None, ["ls"], 5, 31)
        large = run_mc(dgp, None, ["ls"], 12, 31)
        assert np.array_equal(small.se_samples["ls"], large.se_samples["ls"][:5])

    def test_failures_excluded_and_counted(self, monkeypatch):
        calls = {"n": 0}
        real = sim._fit

        def flaky(cp, names, c, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NoValidTuning("synthetic failure for the test")
            return real(cp, names, c, seed)

        monkeypatch.setattr(sim, "_fit", flaky)
        report = run_mc(DgpConfig(20, 2), None, ["ls"], 30, 3)
        assert report.n_failed == 1
        assert len(report.se_samples["ls"]) == 29
        assert not report.degraded
        assert "synthetic failure" in report.failures[0][1]

    def test_degraded_flag(self, monkeypatch):
        def broken(cp, names, c, seed):
            raise NoValidTuning("always fails")

        monkeypatch.setattr(sim, "_fit", broken)
        report = run_mc(DgpConfig(20, 2), None, ["tukey"], 10, 3)
        assert report.n_failed == 10
        assert report.degraded
        assert np.isnan(report.mse["tukey"])

    @pytest.mark.parametrize("names, starts", [
        (("ls", "huber", "tukey", "esl"), 1),
        (("tukey",), 1),
        (("ls",), 0),
    ])
    def test_one_high_breakdown_start_per_replication(self, names, starts, monkeypatch):
        calls = {"n": 0}
        real = estimators.high_breakdown_init

        def counting(panel, seed=0):
            calls["n"] += 1
            return real(panel, seed=seed)

        monkeypatch.setattr(estimators, "high_breakdown_init", counting)
        report = run_mc(DgpConfig(30, 2), None, names, 3, 5)
        assert report.n_failed == 0
        assert calls["n"] == 3 * starts

    def test_mse_is_mean_of_se_samples(self):
        report = run_mc(DgpConfig(40, 2), None, ["ls", "huber"], 8, 11)
        assert set(report.mse) == {"ls", "huber"}
        for name in ("ls", "huber"):
            assert report.mse[name] == pytest.approx(report.se_samples[name].mean())

    def test_contaminated_mse_ordering_smoke(self):
        # Concentrated leverage is the hardest cell: half-block outliers with
        # redrawn regressors relocate the LS fit entirely.  The harness fits
        # the redescending families from the high-breakdown start, so Tukey
        # recovers the coefficients; Huber cannot (a monotone psi keeps
        # unbounded influence in the design space, and the global optimum of
        # its convex objective sits at the contaminated fit), so the harness
        # reports it honestly near the LS level.
        dgp = DgpConfig(120, 2)
        scheme = ContaminationScheme("concentrated_leverage", 24)
        report = run_mc(dgp, scheme, ["ls", "huber", "tukey", "esl"], 30, 2024)
        assert report.n_failed == 0
        assert 15.0 < report.mse["ls"] < 50.0
        assert report.mse["tukey"] < 0.1
        assert report.mse["esl"] < 0.1
        assert report.mse["ls"] > 10.0 * report.mse["tukey"]
        assert report.mse["ls"] > 10.0 * report.mse["esl"]
        assert report.mse["huber"] > 10.0

    def test_random_vertical_recovery_smoke(self):
        # Random vertical outliers inflate LS only moderately; both
        # redescending fits reject them and return to the clean noise floor.
        dgp = DgpConfig(120, 2)
        scheme = ContaminationScheme("random_vertical", 24)
        report = run_mc(dgp, scheme, ["ls", "tukey", "esl"], 30, 77)
        assert report.n_failed == 0
        assert 1.0 < report.mse["ls"] < 8.0
        assert report.mse["tukey"] < 0.1
        assert report.mse["esl"] < 0.1


class TestRmseStudy:
    def test_rmse_nonnegative_finite(self):
        report = rmse_prediction_study(
            DgpConfig(40, 2), ContaminationScheme("random_vertical", 8),
            ["ls", "huber"], 6, 20, 13,
        )
        assert set(report.rmse) == {"ls", "huber"}
        for name in ("ls", "huber"):
            vals = report.rmse_samples[name]
            assert len(vals) == 6
            assert np.all(vals >= 0) and np.all(np.isfinite(vals))

    def test_cell_effects_baseline_level(self):
        # clean data, T=2: prediction error concentrates near sqrt(22.5) = 4.74
        report = rmse_prediction_study(DgpConfig(120, 2), None, ["ls"], 10, 50, 17)
        assert 4.4 <= report.rmse["ls"] <= 5.1

    def test_validates_n_test(self):
        with pytest.raises(ValueError):
            rmse_prediction_study(DgpConfig(10, 2), None, ["ls"], 2, 0, 1)



class TestRunExperiment:
    CONFIG = ExperimentConfig(
        estimators=("ls",), s=2, master_seed=3,
        outlier_study=OutlierStudyConfig(n_units=10, n_periods=2, m_levels=(0, 2),
                                         kinds=("random_vertical", "random_leverage"),
                                         n_test=2),
        consistency_study=ConsistencyStudyConfig(n_values=(10, 12), t_fixed=2,
                                                 t_values=(3,), n_fixed=10),
        error_dist_study=ErrorDistStudyConfig(pairs=((10, 2), (12, 3))),
    )

    def test_cells_in_table_order_without_files(self, monkeypatch):
        def no_files(*args, **kwargs):
            raise AssertionError("run_experiment opened a file")

        monkeypatch.setattr(builtins, "open", no_files)
        cells = [(section, key) for section, key, _ in sim.run_experiment(self.CONFIG)]
        assert cells == (
            [("outlier_study", (kind, m)) for kind in ("random_vertical", "random_leverage")
             for m in (0, 2)]
            + [("consistency_study", key) for key in (("n", 10, 2), ("n", 12, 2), ("t", 10, 3))]
            + [("error_dist_study", (dist, n, t)) for dist in ("normal", "t5", "chisq4", "cauchy")
               for n, t in ((10, 2), (12, 3))]
        )

    def test_cell_seeds_follow_the_master_seed(self):
        def seed(entropy, key):  # the first word of SeedSequence(entropy, spawn_key=key)
            return int(np.random.SeedSequence(entropy, spawn_key=key).generate_state(1)[0])

        reports = {key: report for _, key, report in sim.run_experiment(self.CONFIG)}
        master = self.CONFIG.master_seed
        outlier = rmse_prediction_study(
            DgpConfig(10, 2), ContaminationScheme("random_vertical", 2), ["ls"], 2, 2,
            seed(master, (1, 0, 1)))
        curve = run_mc(DgpConfig(10, 3), None, ["ls"], 2, seed(master, (2, 1, 0)))
        law = run_mc(DgpConfig(12, 3, error_dist="chisq4"), None, ["ls"], 2,
                     seed(seed(master, (3,)), (2, 1)))
        assert reports["random_vertical", 2].rmse == outlier.rmse
        assert reports["t", 10, 3].mse == curve.mse
        assert reports["chisq4", 12, 3].mse == law.mse
