"""Data generation, contamination schemes, and the replication studies."""

import builtins
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import robustpanel.estimators as estimators
import robustpanel.simulation as sim
from robustpanel.errors import BlockPolicyError, DegeneratePanel, NoValidTuning
from robustpanel.io import (
    ConsistencyStudyConfig,
    ErrorDistStudyConfig,
    ExperimentConfig,
    OutlierStudyConfig,
)
from robustpanel.panel import _centered, _predictions, predict, within_ls, within_transform
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

    @pytest.mark.parametrize("n, t", [(1, 3), (2.5, 3), (10, 3.0), (True, 3)])
    def test_sizes_must_be_whole_and_at_least_two(self, n, t):
        # a float or bool size failed inside numpy with a TypeError
        with pytest.raises(ValueError):
            gen_panel(DgpConfig(n, t))

    def test_numpy_integer_sizes_accepted(self):
        dgp = DgpConfig(np.int64(10), np.int32(3), seed=1)
        assert np.array_equal(gen_panel(dgp).y, gen_panel(DgpConfig(10, 3, seed=1)).y)

    def test_config_validation(self):
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
        for m in (2.5, True, -1):
            with pytest.raises(ValueError):
                contaminate(p, ContaminationScheme("random_vertical", m, seed=0))
        out = contaminate(p, ContaminationScheme("random_vertical", np.int64(2), seed=0))
        assert (out.y != p.y).sum() == 2

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

    def test_no_estimator_rejected(self):
        for s_total in (0, 1):
            with pytest.raises(ValueError, match="estimators must be nonempty"):
                run_mc(DgpConfig(10, 2), None, [], s_total, 0)

    def test_deterministic(self):
        dgp = DgpConfig(40, 2)
        scheme = ContaminationScheme("random_vertical", 8)
        a = run_mc(dgp, scheme, ["ls", "huber"], 5, 7)
        b = run_mc(dgp, scheme, ["ls", "huber"], 5, 7)
        for name in ("ls", "huber"):
            assert np.array_equal(a.se_samples[name], b.se_samples[name])
        assert a.mse == b.mse

    @pytest.mark.parametrize("s_total", [0, 3])
    def test_ls_degrees_of_freedom_checked_before_any_chunk(self, s_total, monkeypatch):
        # (N, T, K) = (2, 2, 2) leaves ls no residual degrees of freedom: the
        # study raises what within_ls raises before it fits anything, at any S
        drawn = []
        monkeypatch.setattr(estimators, "_starts", lambda *args: drawn.append(args))
        with pytest.raises(DegeneratePanel) as got:
            run_mc(DgpConfig(2, 2), None, ["huber", "ls"], s_total, 0)
        assert str(got.value) == "no residual degrees of freedom: NT - N - K = 0 (N=2, T=2, K=2)"
        assert not drawn

    @pytest.mark.parametrize("s_total", [2.5, -1, True])
    def test_validates_s_total(self, s_total):
        with pytest.raises(ValueError):
            run_mc(DgpConfig(10, 3), None, ["ls"], s_total, 1)

    def test_replication_prefix_invariant_to_s(self):
        dgp = DgpConfig(30, 2)
        small = run_mc(dgp, None, ["ls"], 5, 31)
        large = run_mc(dgp, None, ["ls"], 12, 31)
        assert np.array_equal(small.se_samples["ls"], large.se_samples["ls"][:5])

    def test_failures_excluded_and_counted(self, monkeypatch):
        calls = {"n": 0}
        real = sim._fit

        def flaky(y, x, shape, names, c, seeds):  # the first replication fails
            fits, failed = real(y, x, shape, names, c, seeds)
            calls["n"] += 1
            if calls["n"] == 1:
                failed[0] = NoValidTuning("synthetic failure for the test")
            return fits, failed

        monkeypatch.setattr(sim, "_fit", flaky)
        report = run_mc(DgpConfig(20, 2), None, ["ls"], 30, 3)
        assert report.n_failed == 1
        assert len(report.se_samples["ls"]) == 29
        assert not report.degraded
        assert "synthetic failure" in report.failures[0][1]

    def test_degraded_flag(self, monkeypatch):
        def broken(y, x, shape, names, c, seeds):
            return {}, {i: NoValidTuning("always fails") for i in range(len(seeds))}

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
        real = estimators._starts

        def counting(x, y, seeds):  # one start per member of the stack
            calls["n"] += len(seeds)
            return real(x, y, seeds)

        monkeypatch.setattr(estimators, "_starts", counting)
        report = run_mc(DgpConfig(30, 2), None, names, 3, 5)
        assert report.n_failed == 0
        assert calls["n"] == 3 * starts

    def test_mse_is_mean_of_se_samples(self):
        report = run_mc(DgpConfig(40, 2), None, ["ls", "huber"], 8, 11)
        assert set(report.mse) == {"ls", "huber"}
        for name in ("ls", "huber"):
            assert report.mse[name] == pytest.approx(report.se_samples[name].mean())

    def test_nonconverged_fits_counted_per_estimator(self):
        names = ("ls", "huber", "tukey", "esl")
        dgp = DgpConfig(120, 2)
        scheme = ContaminationScheme("concentrated_leverage", 24)
        report = run_mc(dgp, scheme, names, 30, 315)
        want = dict.fromkeys(names, 0)
        for s in range(30):
            seeds = sim._seeds(315, (s,), 4)
            panel = contaminate(gen_panel(dataclasses.replace(dgp, seed=seeds[0])),
                                dataclasses.replace(scheme, seed=seeds[1]))
            cp = within_transform(panel)
            fits, failed = sim._fit(cp.y[None], cp.x[None], cp.shape, names, "auto", [seeds[2]])
            assert not failed
            for name in names:
                want[name] += not fits[name].converged[0]
        assert report.n_failed == 0
        assert report.n_nonconverged == want
        assert sum(want.values()) > 0  # the count is not trivially zero here

    def test_few_huber_fits_stop_at_the_cap(self):
        # Criterion-2 leverage study: Huber's data-driven c is often 0.1 or
        # less, where plain IRLS crawls like least absolute deviations.  With
        # its Newton and IRLS steps sized by an exact line search these 100
        # fits take 482 iterations in all and none stops at the cap (plain
        # IRLS ran 6,306 and left 19 there; halved Newton steps 2,078 and 3).
        report = run_mc(DgpConfig(120, 2), ContaminationScheme("concentrated_leverage", 24),
                        ["huber"], 100, 315)
        assert report.n_failed == 0
        assert report.n_nonconverged["huber"] <= 1

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
        for n_test in (0, 2.5):
            with pytest.raises(ValueError):
                rmse_prediction_study(DgpConfig(10, 2), None, ["ls"], 2, n_test, 1)
        report = rmse_prediction_study(DgpConfig(10, 2), None, ["ls"], 2, np.int64(2), 1)
        assert report.rmse_samples["ls"].size == 2



class TestStackedReplications:
    # A study fits its replications in stacks of up to STACK_REPS; every
    # sample, count and failure is the one a stack of one gives, bit for bit.
    NAMES = ("ls", "huber", "tukey", "esl")

    @staticmethod
    def reports(monkeypatch, study):
        alone = None
        for chunk in (1, sim.STACK_REPS):
            monkeypatch.setattr(sim, "STACK_REPS", chunk)
            report = study()
            alone = alone or report
        return alone, report

    @staticmethod
    def assert_same(a, b):
        assert a.failures == b.failures
        assert a.n_nonconverged == b.n_nonconverged
        for samples in ("se_samples", "rmse_samples"):
            sa, sb = getattr(a, samples), getattr(b, samples)
            assert (sa is None) == (sb is None)
            for name in sa or ():
                assert sa[name].tobytes() == sb[name].tobytes()

    @pytest.mark.parametrize("prediction", [False, True])
    def test_chunk_size_moves_no_sample(self, prediction, monkeypatch):
        # 45 replications: one full stack of 40 and a ragged one of 5
        dgp = DgpConfig(120, 2)
        scheme = ContaminationScheme("concentrated_leverage", 24)
        if prediction:
            study = lambda: rmse_prediction_study(dgp, scheme, self.NAMES, 45, 50, 315)
        else:
            study = lambda: run_mc(dgp, scheme, self.NAMES, 45, 315)
        alone, stacked = self.reports(monkeypatch, study)
        assert sum(alone.n_nonconverged.values()) > 0
        self.assert_same(alone, stacked)

    def test_failure_inside_a_stack(self, monkeypatch):
        # At (N, T) = (3, 3) under t5 errors, with seed 11, replication 76
        # fails in esl's selection.  A stack that holds it is fitted again
        # in halves, and every panel gets the result it gets alone.  The
        # halves reuse the start already drawn, so each panel's start is
        # drawn once at either chunk size.
        drawn = []
        starts = estimators._starts
        monkeypatch.setattr(estimators, "_starts",
                            lambda x, y, seeds: drawn.append(len(x)) or starts(x, y, seeds))
        for s_total, seed, kinds in ((80, 11, {"NoValidTuning"}),):
            alone, stacked = self.reports(monkeypatch, lambda: drawn.clear() or run_mc(
                DgpConfig(3, 3, error_dist="t5"), None, self.NAMES, s_total, seed))
            assert 0 < stacked.n_failed < s_total
            assert any(0 < s % sim.STACK_REPS < sim.STACK_REPS - 1 for s, _ in stacked.failures)
            assert {message.split(":")[0] for _, message in stacked.failures} == kinds
            self.assert_same(alone, stacked)
            assert sum(drawn) == s_total  # members passed to _starts in the stacked run


class TestChunkKernels:
    # A study draws, contaminates, centres and scores each chunk as stacks
    # of arrays; every member is the lone replication's panel bit for bit.
    S = 5

    @staticmethod
    def schemes(t):
        m = 4 * block_length(t)
        return [None] + [ContaminationScheme(kind, mm) for kind in sim.CONTAMINATION_KINDS
                         for mm in (0, m)]

    @staticmethod
    def lone(dgp, scheme, seed, n_test):
        """A replication built one panel at a time, as a study did before chunks."""
        panel = gen_panel(dataclasses.replace(dgp, seed=seed[0]))
        if scheme is not None:
            panel = contaminate(panel, dataclasses.replace(scheme, seed=seed[1]))
        return panel, within_transform(panel), gen_holdout_panel(dgp, n_test, seed[3])

    @pytest.mark.parametrize("error_dist", sim.ERROR_DISTS)
    @pytest.mark.parametrize("n, t", [(120, 2), (7, 3)])  # T = 3: blocks of 2 of 3 periods
    def test_chunk_equals_lone_panels(self, n, t, error_dist):
        dgp = DgpConfig(n, t, error_dist=error_dist)
        seeds = [sim._seeds(315, (s,), 4) for s in range(self.S)]
        betas = np.random.default_rng(1).normal(size=(self.S, 2))
        for scheme in self.schemes(t):
            y, x = sim._panels(dgp, [seed[0] for seed in seeds], None)
            if scheme is not None:
                sim._contaminate(y, x, scheme.kind, scheme.m, [seed[1] for seed in seeds])
            yc, xc, faults = _centered(y, x)
            test_y, test_x = sim._panels(dgp, [seed[3] for seed in seeds], 9)
            yhat = _predictions(test_y, test_x, betas)
            assert not faults and not yc.flags.writeable and not xc.flags.writeable
            for r, seed in enumerate(seeds):
                panel, cp, test = self.lone(dgp, scheme, seed, 9)
                assert y[r].tobytes() == panel.y.tobytes() and x[r].tobytes() == panel.x.tobytes()
                assert yc[r].tobytes() == cp.y.tobytes() and xc[r].tobytes() == cp.x.tobytes()
                assert test_y[r].tobytes() == test.y.tobytes()
                assert test_x[r].tobytes() == test.x.tobytes()
                assert yhat[r].tobytes() == predict(test, betas[r]).tobytes()

    @pytest.mark.parametrize("error_dist", sim.ERROR_DISTS)
    @pytest.mark.parametrize("n, t", [(120, 2), (7, 3)])
    def test_study_samples_equal_lone_replications(self, n, t, error_dist):
        dgp = DgpConfig(n, t, error_dist=error_dist)
        for scheme in self.schemes(t):
            report = rmse_prediction_study(dgp, scheme, ["ls"], self.S, 9, 315)
            se, rmse = [], []
            for s in range(self.S):
                _, cp, test = self.lone(dgp, scheme, sim._seeds(315, (s,), 4), 9)
                beta = within_ls(cp).beta
                se.append(float(np.sum((beta - np.asarray(dgp.beta)) ** 2)))
                yhat = predict(test, beta)
                rmse.append(float(np.sqrt(np.sum((test.y - yhat) ** 2) / test.y.size)))
            assert report.se_samples["ls"].tobytes() == np.array(se).tobytes()
            assert report.rmse_samples["ls"].tobytes() == np.array(rmse).tobytes()

    @pytest.mark.parametrize("poison", [
        {(2, 0): np.inf, (5, 0): np.inf},  # two non-finite y: replication 2's is named
        {(4, 0): 1e200, (6, 0): np.inf},  # a centered sum that overflows comes first
        {(1, 3): np.inf, (4, 0): 1e200},  # a non-finite holdout comes first
        {(3, 3): np.inf, (3, 0): 1e200},  # in one replication the training panel comes first
    ])
    def test_failure_raises_the_first_lone_replications_error(self, poison, monkeypatch):
        # poison[(s, i)] goes into cell (s, 1) of the errors that replication
        # s draws from its seed i (0 the training panel, 3 the holdout)
        dgp = DgpConfig(120, 2)
        scheme = ContaminationScheme("concentrated_vertical", 24)  # never period 1
        seeds = [sim._seeds(315, (s,), 4) for s in range(8)]
        cells = {seeds[s][i]: (s, value) for (s, i), value in poison.items()}
        draw = sim._draw_errors

        def poisoned(rng, dist, shape):
            eps = draw(rng, dist, shape)
            s, value = cells.get(rng.bit_generator.seed_seq.entropy, (None, None))
            if s is not None:
                eps[s, 1] = value
            return eps

        monkeypatch.setattr(sim, "_draw_errors", poisoned)
        with pytest.raises(DegeneratePanel) as want:
            for seed in seeds:
                self.lone(dgp, scheme, seed, 50)
        with pytest.raises(DegeneratePanel) as got:
            rmse_prediction_study(dgp, scheme, ["ls"], 8, 50, 315)
        assert str(got.value) == str(want.value)
        first = min(poison)
        if poison[first] == np.inf:
            assert str(got.value) == "non-finite y at unit %d, period 1" % first[0]
        else:
            assert str(got.value).startswith("centered y has a sum of squares")

    @pytest.mark.parametrize("t, scheme, names", [
        (2, None, ["bogus"]),
        (2, ContaminationScheme("random_vertical", 25), ["ls"]),  # 25 > 20 cells
        (2, ContaminationScheme("concentrated_vertical", 11), ["ls"]),  # 11 > 10 units
        (2, ContaminationScheme("random_vertical", 25), ["bogus"]),
        (3, ContaminationScheme("concentrated_vertical", 3), ["ls"]),  # blocks of 2 periods
    ])
    def test_empty_study_checks_its_inputs(self, t, scheme, names):
        raised = []
        for s_total in (0, 1):
            with pytest.raises((ValueError, BlockPolicyError)) as err:
                run_mc(DgpConfig(10, t), scheme, names, s_total, 1)
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1]


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
