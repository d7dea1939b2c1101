"""IRLS solver, the tuned Huber/Tukey and exponential-squared pipelines,
the high-breakdown start, and sandwich standard errors."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import synth_panel
import robustpanel.simulation as sim
from robustpanel.errors import (
    DegenerateDesign,
    SingularWeightedDesign,
    UnstableCurvature,
)
from robustpanel.estimators import (
    HB_SCORE_CELLS,
    HB_SUBSAMPLES,
    IrlsConfig,
    _elemental_subsets,
    fit_esl,
    fit_estimator,
    fit_mestimator,
    high_breakdown_init,
    irls_fit,
    sandwich_se,
)
from robustpanel.losses import LossSpec, psi, psi_prime, rho
from robustpanel.panel import FitResult, PanelData, within_ls, within_transform
from robustpanel.scale import initial_scale
from robustpanel.tuning import HUBER_GRID


def contaminated_copy(panel, cells, values):
    y = panel.y.copy()
    y.ravel()[np.asarray(cells)] = values
    return PanelData(y, panel.x)


class TestIrls:
    def test_fixed_point_of_exact_fit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3, 2))
        beta0 = np.array([1.5, -0.5])
        y = x @ beta0 + rng.uniform(0, 9, (10, 1))
        fit = irls_fit(PanelData(y, x), LossSpec("tukey", 4.685), beta0, 1.0)
        assert fit.converged and fit.iterations == 1
        assert_allclose(fit.beta, beta0, atol=1e-12)
        assert np.all(fit.weights == 1.0)

    def test_huber_no_trimming_equals_ls(self):
        p = synth_panel(n=30, t=4, k=2, seed=2)
        ls = within_ls(p)
        fit = irls_fit(p, LossSpec("huber", 1e9), np.zeros(2), 1.0)
        assert fit.converged
        assert_allclose(fit.beta, ls.beta, atol=1e-10)

    def test_tukey_zeroes_single_vertical_outlier(self):
        p = synth_panel(n=30, t=3, k=2, seed=5)
        ls_clean = within_ls(p)
        y = p.y.copy()
        y[7, 1] += 1000.0
        pc = PanelData(y, p.x)
        ls = within_ls(pc)
        cp = within_transform(pc)
        sigma = initial_scale((cp.y - cp.x @ ls.beta).ravel()).value
        fit = irls_fit(cp, LossSpec("tukey", 4.685), ls.beta, sigma)
        assert fit.weights[7, 1] == 0.0
        assert np.max(np.abs(fit.beta - ls_clean.beta)) < 0.05

    def test_total_rejection_raises(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 2, 1))
        y = np.tile([50.0, -50.0], (5, 1))
        with pytest.raises(SingularWeightedDesign):
            irls_fit(PanelData(y + 3.0, x), LossSpec("tukey", 1.0), np.zeros(1), 1.0)

    def test_iteration_cap(self):
        p = synth_panel(n=20, t=3, k=2, seed=7, noise=2.0)
        fit = irls_fit(p, LossSpec("tukey", 3.0), np.zeros(2), 0.5, IrlsConfig(max_iter=1))
        assert fit.iterations == 1 and not fit.converged

    def test_huber_objective_monotone(self):
        p = synth_panel(n=30, t=3, k=2, seed=4)
        cells = np.random.default_rng(6).choice(90, 9, replace=False)
        pc = contaminated_copy(p, cells, np.random.default_rng(7).uniform(20, 80, 9))
        cp = within_transform(pc)
        spec = LossSpec("huber", 1.0)
        beta_init = np.zeros(2)
        sigma = 2.0

        def objective(b):
            return float(np.sum(rho(spec, (cp.y - cp.x @ b).ravel() / sigma)))

        values = [objective(beta_init)]
        for k in range(1, 9):
            fit = irls_fit(cp, spec, beta_init, sigma, IrlsConfig(max_iter=k))
            values.append(objective(fit.beta))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestFitMestimator:
    def test_clean_panel_tracks_ls(self):
        p = synth_panel(n=250, t=3, k=2, seed=11)
        ls = within_ls(p)
        for family in ("huber", "tukey"):
            fit = fit_mestimator(p, family)
            assert np.max(np.abs(fit.beta - ls.beta)) < 0.02
            assert fit.converged

    def test_auto_c_comes_from_grid(self):
        p = synth_panel(n=60, t=3, k=2, seed=13)
        fit = fit_mestimator(p, "huber")
        assert np.any(np.isclose(fit.c_selected, HUBER_GRID))

    def test_fixed_c_matches_manual_pipeline(self):
        p = synth_panel(n=40, t=3, k=2, seed=15)
        fit = fit_mestimator(p, "tukey", c=4.685)
        cp = within_transform(p)
        ls = within_ls(cp)
        sigma = initial_scale((cp.y - cp.x @ ls.beta).ravel()).value
        manual = irls_fit(cp, LossSpec("tukey", 4.685), ls.beta, sigma)
        assert np.array_equal(fit.beta, manual.beta)
        assert np.array_equal(fit.weights, manual.weights)

    def test_rejects_unknown_family_and_bad_c(self):
        p = synth_panel(n=10, t=2, k=1, seed=0)
        with pytest.raises(ValueError):
            fit_mestimator(p, "esl")
        with pytest.raises(ValueError):
            fit_mestimator(p, "huber", c=-1.0)

    @pytest.mark.parametrize("family", ["huber", "tukey"])
    def test_regression_equivariance(self, family):
        p = synth_panel(n=40, t=3, k=2, seed=19, noise=1.5)
        nu = np.array([3.0, -7.0])
        fit = fit_mestimator(p, family)
        shifted = fit_mestimator(PanelData(p.y + p.x @ nu, p.x), family)
        assert_allclose(shifted.beta, fit.beta + nu, atol=1e-8)
        assert_allclose(shifted.weights, fit.weights, atol=1e-9)

    @pytest.mark.parametrize("family", ["huber", "tukey"])
    def test_scale_equivariance_auto(self, family):
        p = synth_panel(n=40, t=3, k=2, seed=23, noise=1.5)
        lam = 37.0
        fit = fit_mestimator(p, family)
        scaled = fit_mestimator(PanelData(lam * p.y, p.x), family)
        assert scaled.c_selected == fit.c_selected  # standardized residuals unchanged
        # agreement is limited by the IRLS stopping tolerance, not exact algebra
        assert_allclose(scaled.beta, lam * fit.beta, rtol=1e-6)
        assert_allclose(scaled.weights, fit.weights, atol=1e-6)


class TestHighBreakdownInit:
    def test_clean_panel_near_ls(self):
        p = synth_panel(n=40, t=4, k=2, seed=3)
        b0 = high_breakdown_init(p, seed=9)
        assert np.max(np.abs(b0 - within_ls(p).beta)) < 0.1

    def test_forty_percent_vertical_outliers(self):
        p = synth_panel(n=50, t=2, k=2, seed=1)
        y = p.y.copy()
        rng = np.random.default_rng(101)
        units = rng.choice(50, 20, replace=False)
        cols = rng.integers(0, 2, 20)
        y[units, cols] += 1000.0
        pc = PanelData(y, p.x)
        truth = np.array([2.4, -1.2])
        b0 = high_breakdown_init(pc, seed=9)
        assert np.max(np.abs(b0 - truth)) < 1.0
        assert np.max(np.abs(within_ls(pc).beta - truth)) > 10.0

    def test_deterministic(self):
        p = synth_panel(n=30, t=3, k=2, seed=27)
        a = high_breakdown_init(p, seed=5)
        b = high_breakdown_init(p, seed=5)
        assert np.array_equal(a, b)

    def test_all_singular_raises(self):
        x = np.zeros((6, 2, 1))
        y = np.arange(12.0).reshape(6, 2)
        with pytest.raises(DegenerateDesign):
            high_breakdown_init(PanelData(y, x), seed=0)

    def test_forty_percent_vertical_outliers_on_a_subsample(self):
        # NT > HB_SCORE_CELLS: candidates are ranked on a subsample and
        # only the best few are scored on the full panel
        p = synth_panel(n=1100, t=2, k=2, seed=4)
        assert p.y.size > HB_SCORE_CELLS
        y = p.y.copy()
        rng = np.random.default_rng(102)
        units = rng.choice(1100, 440, replace=False)
        y[units, rng.integers(0, 2, 440)] += 1000.0
        pc = PanelData(y, p.x)
        truth = np.array([2.4, -1.2])
        assert np.max(np.abs(high_breakdown_init(pc, seed=9) - truth)) < 1.0
        assert np.max(np.abs(within_ls(pc).beta - truth)) > 10.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_subsets_are_distinct_and_in_range(self, k):
        nt = k + 1
        idx = _elemental_subsets(np.random.default_rng(3), nt, k)
        assert idx.shape == (HB_SUBSAMPLES, k)
        assert idx.min() >= 0 and idx.max() < nt
        assert all(len(set(row)) == k for row in idx.tolist())
        assert np.array_equal(idx, _elemental_subsets(np.random.default_rng(3), nt, k))

    @staticmethod
    def peak_bytes_per_cell(n):
        cp = within_transform(synth_panel(n=n, t=4, k=2, seed=8))
        tracemalloc.start()
        try:
            high_breakdown_init(cp, seed=1)
            return tracemalloc.get_traced_memory()[1] / cp.y.size
        finally:
            tracemalloc.stop()

    def test_peak_memory_per_cell(self):
        # Up to HB_SCORE_CELLS cells the (G, NT) candidate residuals dominate.
        assert self.peak_bytes_per_cell(500) <= 5_000

    def test_peak_memory_per_cell_above_the_subsample_size(self):
        # Above it only a fixed-size subsample and HB_RESCORE full-sample
        # rows of residuals are held.
        assert self.peak_bytes_per_cell(5_000) <= 1_000


class TestFitEsl:
    def test_clean_panel_tracks_ls(self):
        p = synth_panel(n=200, t=3, k=2, seed=21)
        fit = fit_esl(p, seed=2)
        assert np.max(np.abs(fit.beta - within_ls(p).beta)) < 0.05
        assert fit.converged
        assert fit.sigma_hat > 0

    def test_second_outer_pass_is_a_fixed_point(self):
        # converged holds only once a later outer pass moved beta by less
        # than the IRLS tolerance and left c within 1%
        p = synth_panel(n=60, t=3, k=2, seed=0)
        rng = np.random.default_rng(200)
        cells = rng.choice(180, 18, replace=False)
        pc = contaminated_copy(p, cells, rng.uniform(20, 80, 18))
        assert fit_esl(pc, seed=3).converged

    def test_deterministic(self):
        p = synth_panel(n=30, t=3, k=2, seed=33)
        a = fit_esl(p, seed=4)
        b = fit_esl(p, seed=4)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.weights, b.weights)
        assert a.c_selected == b.c_selected

    def test_scale_equivariance(self):
        p = synth_panel(n=40, t=3, k=2, seed=29, noise=1.5)
        lam = 19.0
        fit = fit_esl(p, seed=6)
        scaled = fit_esl(PanelData(lam * p.y, p.x), seed=6)
        assert_allclose(scaled.beta, lam * fit.beta, rtol=1e-6)
        assert_allclose(scaled.weights, fit.weights, atol=1e-6)
        assert scaled.c_selected == pytest.approx(lam**2 * fit.c_selected, rel=1e-9)

    def test_regression_equivariance(self):
        p = synth_panel(n=40, t=3, k=2, seed=31, noise=1.5)
        nu = np.array([-2.0, 5.0])
        fit = fit_esl(p, seed=6)
        shifted = fit_esl(PanelData(p.y + p.x @ nu, p.x), seed=6)
        assert_allclose(shifted.beta, fit.beta + nu, atol=1e-6)
        assert_allclose(shifted.weights, fit.weights, atol=1e-6)

    @pytest.mark.parametrize("k, s", [(40, 1e8), (40, 1e-8), (20, 1e-8)])
    def test_regressor_unit_equivariance(self, k, s):
        # x in units s times larger: slopes divide by s, the residuals and
        # c stay put.  At these K and s, (trace/K)^K and det V overflow or
        # underflow in absolute form.
        rng = np.random.default_rng(k)
        x = rng.standard_normal((200, 4, k))
        beta = rng.uniform(-2.0, 2.0, k)
        y = x @ beta + rng.uniform(0.0, 12.0, (200, 1)) + rng.standard_normal((200, 4))
        fit = fit_esl(PanelData(y, x), seed=1)
        scaled = fit_esl(PanelData(y, s * x), seed=1)
        assert_allclose(scaled.beta, fit.beta / s, rtol=1e-6)
        assert scaled.c_selected == pytest.approx(fit.c_selected, rel=1e-6)

    def test_fixed_c_skips_selection(self):
        p = synth_panel(n=30, t=3, k=2, seed=35)
        fit = fit_estimator(p, "esl", c=25.0, seed=1)
        assert fit.c_selected == 25.0
        assert fit.converged


class TestSandwich:
    def test_identity_psi_reduction(self):
        p = synth_panel(n=40, t=3, k=2, seed=37)
        fit = fit_mestimator(p, "huber", c=1e9)
        cov = sandwich_se(p, fit, LossSpec("huber", 1e9))
        cp = within_transform(p)
        e = (cp.y - cp.x @ fit.beta).ravel()
        xdd = cp.x.reshape(-1, 2)
        expected = np.mean(e**2) * np.linalg.inv(xdd.T @ xdd)
        assert_allclose(cov.matrix, expected, rtol=1e-10)

    def test_scalar_brute_force_oracle(self):
        p = synth_panel(n=25, t=3, k=1, seed=41)
        fit = fit_mestimator(p, "tukey")
        spec = LossSpec("tukey", fit.c_selected)
        cov = sandwich_se(p, fit, spec)

        cp = within_transform(p)
        e = (cp.y - cp.x @ fit.beta).ravel()
        eh = e / fit.sigma_hat
        nt = eh.size
        s2 = sum(float(psi(spec, v)) ** 2 for v in eh) / nt
        sp = sum(float(psi_prime(spec, v)) for v in eh) / nt
        denom = sum(float(v) ** 2 for v in cp.x.ravel())
        expected = (s2 / sp**2) * fit.sigma_hat**2 / denom
        assert_allclose(cov.matrix[0, 0], expected, rtol=1e-10)
        assert cov.std_errors[0] == pytest.approx(np.sqrt(expected), rel=1e-10)

    def test_negative_curvature_raises(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((6, 2, 1))
        y = np.tile([1.0, -1.0], (6, 1)) + 2.0
        fit = FitResult(
            estimator="esl", beta=np.zeros(1), sigma_hat=1.0, iterations=1, converged=True
        )
        with pytest.raises(UnstableCurvature):
            sandwich_se(PanelData(y, x), fit, LossSpec("esl", 1.0))

    def test_symmetric_nonnegative_diagonal(self):
        p = synth_panel(n=50, t=4, k=3, seed=43, beta=(2.4, -1.2, 0.7))
        fit = fit_mestimator(p, "huber")
        cov = sandwich_se(p, fit, LossSpec("huber", fit.c_selected))
        assert_allclose(cov.matrix, cov.matrix.T, atol=1e-10)
        assert np.all(np.diag(cov.matrix) >= 0)
        assert np.all(np.linalg.eigvalsh(cov.matrix) >= 0)


class TestBoundedInfluence:
    def test_single_huge_outlier_barely_moves_robust_fits(self):
        p = synth_panel(n=50, t=4, k=2, seed=17)
        tukey = fit_mestimator(p, "tukey")
        esl = fit_esl(p, seed=1)
        se_t = sandwich_se(p, tukey, LossSpec("tukey", tukey.c_selected)).std_errors
        se_e = sandwich_se(p, esl, LossSpec("esl", esl.c_selected)).std_errors
        ls = within_ls(p)

        y = p.y.copy()
        y[3, 2] += 1e6
        pc = PanelData(y, p.x)
        shift_t = np.max(np.abs(fit_mestimator(pc, "tukey").beta - tukey.beta))
        shift_e = np.max(np.abs(fit_esl(pc, seed=1).beta - esl.beta))
        shift_ls = np.max(np.abs(within_ls(pc).beta - ls.beta))
        assert shift_t < 10 * se_t.max()
        assert shift_e < 10 * se_e.max()
        assert shift_ls > 100 * shift_t
        assert shift_ls > 100 * shift_e


class TestFitEstimatorDispatch:
    def test_ls_returns_classical_fit(self):
        p = synth_panel(n=20, t=3, k=2, seed=45)
        fit = fit_estimator(p, "ls")
        ref = within_ls(p)
        assert np.array_equal(fit.beta, ref.beta)
        assert fit.std_errors is not None

    @pytest.mark.parametrize("name", ["huber", "tukey", "esl"])
    def test_robust_fits_carry_sandwich_ses(self, name):
        p = synth_panel(n=30, t=3, k=2, seed=47)
        fit = fit_estimator(p, name, seed=3)
        assert fit.estimator == name
        assert fit.std_errors is not None and np.all(fit.std_errors > 0)
        assert fit.c_selected is not None

    def test_unknown_estimator(self):
        p = synth_panel(n=10, t=2, k=1, seed=0)
        with pytest.raises(ValueError):
            fit_estimator(p, "lasso")

    @pytest.mark.parametrize("name", ["huber", "tukey", "esl"])
    def test_matches_study_harness_fit(self, name, monkeypatch):
        # fit_estimator and the study harness share one dispatcher, and the
        # shared start is the one the public procedures draw, so the library
        # fit at a replication's seed is the harness's fit, bit for bit.
        seen = []
        real = sim._fit

        def recording(cp, names, c, seed):
            fits = real(cp, names, c, seed)
            seen.append((cp, seed, fits[name].beta))
            return fits

        monkeypatch.setattr(sim, "_fit", recording)
        sim.run_mc(sim.DgpConfig(120, 2), sim.ContaminationScheme("concentrated_leverage", 24),
                   [name], 3, 315)
        assert len(seen) == 3
        for cp, seed, beta in seen:
            assert np.array_equal(fit_estimator(cp, name, seed=seed).beta, beta)
            if name == "esl":
                public = fit_esl(cp, seed=seed)
            else:
                public = fit_mestimator(cp, name, beta_init=high_breakdown_init(cp, seed=seed))
            assert np.array_equal(public.beta, beta)


class TestPinnedDigests:
    # SHA-256 over tobytes() of results first computed on x86_64 with numpy
    # 2.4, before every median went through scale._median; a kernel that moves
    # one bit of a start, a selected c or a study sample fails here.  A change
    # that moves study numbers on purpose re-pins these with the simulate
    # table digests of test_cli.

    def test_leverage_study(self):
        names = ("ls", "huber", "tukey", "esl")
        report = sim.rmse_prediction_study(
            sim.DgpConfig(n_units=120, n_periods=2),
            sim.ContaminationScheme(kind="concentrated_leverage", m=24), names, 20, 50, 315)
        digest = hashlib.sha256()
        for name in names:
            digest.update(report.se_samples[name].tobytes())
            digest.update(report.rmse_samples[name].tobytes())
        assert digest.hexdigest() == (
            "d2c56836fce5b4f81123f49922ba2faa880b6d47e0359d298d489b7ec068081d")

    def test_start_and_esl_fit_on_a_subsample(self):
        # 5,000 cells: the start ranks its candidates on HB_SCORE_CELLS
        assert 1250 * 4 > HB_SCORE_CELLS
        panel = sim.contaminate(sim.gen_panel(sim.DgpConfig(n_units=1250, n_periods=4, seed=7)),
                                sim.ContaminationScheme(kind="random_vertical", m=250, seed=8))
        cp = within_transform(panel)
        fit = fit_esl(cp, seed=9)
        digest = hashlib.sha256()
        digest.update(high_breakdown_init(cp, seed=9).tobytes())
        digest.update(fit.beta.tobytes())
        digest.update(np.array([fit.c_selected, fit.sigma_hat]).tobytes())
        assert digest.hexdigest() == (
            "006645401c06e2685aec1b71d8af318c1c6580f24c42592ef8e6e2f80fd95e9e")
