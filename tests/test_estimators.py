"""IRLS solver, the tuned Huber/Tukey and exponential-squared pipelines,
the high-breakdown start, and sandwich standard errors."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import far_leverage_panel, synth_panel
import robustpanel.estimators as estimators
import robustpanel.simulation as sim
from robustpanel.errors import (
    DegenerateDesign,
    RobustPanelError,
    SingularDesign,
    SingularWeightedDesign,
    UnstableCurvature,
)
from robustpanel.estimators import (
    HB_SCORE_CELLS,
    HB_SUBSAMPLES,
    IrlsConfig,
    _elemental_subsets,
    _n_subsets,
    fit_esl,
    fit_estimator,
    fit_mestimator,
    high_breakdown_init,
    irls_fit,
    sandwich_se,
)
from robustpanel.losses import LossSpec, psi, psi_prime, rho, weight
from robustpanel.panel import (ESTIMATOR_NAMES, CenteredPanel, FitResult, PanelData, within_ls,
                               within_transform)
from robustpanel.scale import initial_scale, mad_scale
from robustpanel.tuning import HUBER_GRID


def contaminated_copy(panel, cells, values):
    y = panel.y.copy()
    y.ravel()[np.asarray(cells)] = values
    return PanelData(y, panel.x)


class TestIrls:
    def test_rejects_no_iterations_and_a_scale_that_is_not_positive(self):
        p = synth_panel(n=10, t=2, k=1, seed=0)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            IrlsConfig(max_iter=0)
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="sigma must be positive"):
                irls_fit(p, LossSpec("huber", 1.345), np.zeros(1), sigma)

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

    @pytest.mark.parametrize("seed", range(3))
    def test_huber_line_search_against_a_grid(self, seed, monkeypatch):
        # Random stacks of residuals u, directions v and constants c, with
        # cells at v = 0, at u = +-c and at u = +-inf (IRLS past the float
        # range).  Along any direction _huber_minimizer's alpha is least on a
        # dense grid of phi(alpha) = sum rho(u - alpha v), and phi' changes
        # sign there.  Along a Newton direction (v scaled so that the
        # quadratic model at alpha = 0 is least at 1) _huber_step takes the
        # whole step where no cell changes side of +-c, and searches
        # elsewhere: at K = 1 with the design x = newton, from beta = 0 at
        # sigma = 1 (so y = u), its step H^-1 g is 1 up to rounding, and its
        # new beta is how far it goes along newton.  A member whose Newton
        # step is not taken reaches the weighted LS solve, which here
        # returns nan, so its new beta is nan.
        rng = np.random.default_rng(seed)
        s, n = 60, 12
        u, v = 3.0 * rng.standard_normal((s, n)), rng.standard_normal((s, n))
        v[rng.random((s, n)) < 0.2] = 0.0
        u[::4, 0], u[1::4, 0] = np.inf, -np.inf
        c = rng.uniform(0.05, 3.0, s)
        u[::3, 1], u[1::3, 1] = c[::3], -c[1::3]  # on a kink at alpha = 0
        u[:3, 2] = 0.5 * c[:3]
        u[:3, 3] = -u[:3, 2]
        inner = np.abs(u) <= c[:, None]
        down = -(v * np.clip(u, -c[:, None], c[:, None])).sum(axis=1)  # phi'(0)
        curve = (v * v * inner).sum(axis=1)
        # 0 where v has no Newton scale, which leaves no descent either
        scale = np.where((down < 0) & (curve > 0), -down / np.maximum(curve, 1e-300), 0.0)
        newton = v * scale[:, None]
        # no descent: moving only the cells at +-c/2, and both alike, the
        # first three members stand at their minimizer (X' psi = 0)
        newton[:3] = 0.0
        newton[:3, 2:4] = 1.0
        # phi falls without bound along this one (its cell at u = inf pulls
        # harder than the clipped cells resist), and the running sum of the
        # slope, with the inf cell's rises at its unreached kinks, must not
        # round to a root past the last kink
        u[3, :3], c[3] = (np.inf, 1.1440097249125298, 4.6833362486324095), 2.488517733395421
        newton[3] = np.r_[5.098284233071504, -3.035537276807298, np.zeros(n - 2)]

        def deriv(i, w, alpha):
            return -(w[i] * psi(LossSpec("huber", c[i]), u[i] - alpha * w[i])).sum()

        def check(w, alpha, ok):
            for i in range(s):
                spec, fin = LossSpec("huber", c[i]), np.isfinite(u[i])
                moves = fin & (w[i] != 0)  # past top every such cell is clipped
                top = 2.0 * ((np.abs(u[i, moves]) + c[i]) / np.abs(w[i, moves])).max(initial=1.0)
                if deriv(i, w, 0.0) >= 0 or deriv(i, w, top) < 0:  # no descent, or no minimum
                    assert not ok[i]
                    continue
                assert ok[i]
                # phi(alpha) - phi(0); a cell at u = +-inf adds -+c v alpha
                grid = np.append(np.linspace(0.0, top, 20001), alpha[i])[:, None]
                phi = (rho(spec, u[i, fin] - grid * w[i, fin]).sum(axis=1)
                       - c[i] * grid[:, 0] * (np.sign(u[i, ~fin]) * w[i, ~fin]).sum())
                assert phi[-1] <= phi[:-1].min() + 1e-9 * (1.0 + np.abs(phi).max())
                eps, tol = 1e-7 * max(alpha[i], 1.0), 1e-9 * (1.0 + c[i] * np.abs(w[i]).sum())
                assert deriv(i, w, alpha[i] - eps) <= tol
                assert deriv(i, w, alpha[i] + eps) >= -tol

        down = -(v * np.clip(u, -c[:, None], c[:, None])).sum(axis=1)  # at member 3's u and c
        check(v, *estimators._huber_minimizer(u, v, c, down))
        monkeypatch.setattr(estimators, "_weighted_solve",
                            lambda x, y, w: (np.full((len(x), x.shape[2]), np.nan), {}))
        new, singular = estimators._huber_step(newton[:, :, None], u, c, np.zeros((s, 1)), u,
                                               np.ones(s), np.ones((s, n)))
        taken = ~np.isnan(new[:, 0])
        assert not singular
        check(newton, new[:, 0], taken)
        assert not taken[:3].any()
        side = lambda a: np.sign(a) * (np.abs(a) > c[:, None])
        fast = taken & (side(u) == side(u - newton)).all(axis=1)
        assert fast.any() and (taken & ~fast).any()
        assert_allclose(new[fast, 0], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("family", ["huber", "tukey", "esl"])
    def test_carried_weights_match_recomputed_ones(self, family, monkeypatch):
        # _irls takes psi and the next step's weights from one evaluation of
        # the loss and carries the weights to that step.  A loop that fits
        # each member alone and recomputes the weights from u before every
        # step must give the same coefficients, weights, iterations and
        # flags, bit for bit.  Member 0 is an exact fit and leaves the stack
        # after one step; the others carry 10% gross outliers.  huber's
        # member 1 has so few cells within +-c that its Newton step is not
        # taken and its weighted LS step reads the carried weights.
        rng = np.random.default_rng(23)
        s, n, t, k = 4, 25, 3, 2
        x = rng.standard_normal((s, n * t, k))
        beta = np.array([2.4, -1.2])
        y = x @ beta + rng.standard_normal((s, n * t))
        y[0] = x[0] @ beta
        y[1:, ::10] += rng.uniform(20.0, 80.0, (s - 1, (n * t + 9) // 10))
        start = np.tile(beta + 0.3, (s, 1))
        start[0] = beta
        if family == "esl":
            c, sigma = np.array([2.0, 3.0, 5.0, 8.0]), np.ones(s)
        else:
            c = np.array([1.345, 0.05, 1.0, 2.0]) if family == "huber" else np.full(s, 4.685)
            sigma = np.array([1.0, 0.5, 1.2, 0.9])
        solved = []
        weighted_solve = estimators._weighted_solve

        def counted(x, y, w):
            solved.append(len(x))
            return weighted_solve(x, y, w)

        monkeypatch.setattr(estimators, "_weighted_solve", counted)
        fit = estimators._irls(x, y, family, c, start, sigma, IrlsConfig().max_iter)
        assert solved  # every family reaches a weighted LS step
        assert fit.iterations[0] == 1 and fit.converged[0] and len(set(fit.iterations)) > 1
        for i in range(s):
            xi, yi, b, spec = x[i:i + 1], y[i:i + 1], start[i:i + 1], LossSpec(family, c[i])
            u = (yi - estimators._xb(xi, b)) / sigma[i]
            for it in range(1, IrlsConfig().max_iter + 1):
                if family == "huber":
                    new, singular = estimators._huber_step(xi, yi, c[i:i + 1], b, u,
                                                           sigma[i:i + 1], weight(spec, u))
                else:
                    new, singular = estimators._weighted_solve(xi, yi, weight(spec, u))
                assert not singular
                resid = yi - estimators._xb(xi, new)
                u = resid / sigma[i]
                done = estimators._settled(xi, new - b, sigma[i] * psi(spec, u), yi - resid)[0]
                b = new
                if done:
                    break
            alone = (b[0], weight(spec, u)[0], it, done)
            for stacked, lone in zip((fit.beta, fit.weights, fit.iterations, fit.converged),
                                     alone):
                assert np.asarray(stacked[i]).tobytes() == np.asarray(lone).tobytes()

    @pytest.mark.parametrize("family", ["huber", "tukey", "esl"])
    def test_gross_outlier_does_not_loosen_the_stop(self, family):
        # One cell off by 1e10: the stopping rule measures the step against
        # the residuals as the loss bounds them, so a fit reporting
        # converged=True still lies at its IRLS fixed point.
        p = synth_panel(n=100, t=4, k=2, seed=3)
        y = p.y.copy()
        y[5, 1] += 1e10
        cp = within_transform(PanelData(y, p.x))
        beta0 = high_breakdown_init(cp, seed=1)
        sigma = mad_scale(cp.y - cp.x @ beta0).value
        if family == "esl":
            spec, sigma = LossSpec("esl", 3.0 * sigma**2), 1.0
        else:
            spec = LossSpec(family, {"huber": 1.345, "tukey": 4.685}[family])
        fit = irls_fit(cp, spec, beta0, sigma)
        fixed_point = irls_fit(cp, spec, fit.beta, sigma, IrlsConfig(max_iter=300)).beta
        assert fit.converged
        assert np.max(np.abs(fit.beta - fixed_point)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 30), t=st.integers(2, 4), k=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 0.4),
           family=st.sampled_from(["huber", "tukey", "esl"]))
    def test_converged_fit_solves_its_estimating_equation(self, n, t, k, seed, share, family):
        # A fit that reports converged=True satisfies X' psi(r / sigma) = 0:
        # ||X' psi|| is small against ||X|| ||psi||, or against ||X|| ||u|| when
        # the fit passes through its retained cells and psi is rounding noise.
        # esl is checked at its final inner IRLS, whose scale is 1.
        p = synth_panel(n=n, t=t, k=k, seed=seed, beta=(2.4, -1.2, 0.7))
        rng = np.random.default_rng(seed)
        y = p.y.copy()
        bad = rng.random(y.shape) < share
        y[bad] += rng.uniform(20.0, 80.0, bad.sum())
        panel = PanelData(y, p.x)
        try:
            if family == "esl":
                fit, sigma = fit_esl(panel, seed=seed), 1.0
            else:
                fit = fit_mestimator(panel, family, beta_init=high_breakdown_init(panel, seed=seed))
                sigma = fit.sigma_hat
        except RobustPanelError:
            return  # a panel too small or too contaminated to fit
        if not fit.converged:
            return
        cp = within_transform(panel)
        u = (cp.y - cp.x @ fit.beta) / sigma
        ps = psi(LossSpec(family, fit.c_selected), u)
        x_norm = np.linalg.norm(cp.x)
        assert np.linalg.norm(ps @ cp.x) <= (
            1e-5 * x_norm * np.linalg.norm(ps) + 1e-12 * x_norm * np.linalg.norm(u))


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
        # the subsets drawn, 49 at K = 2 and 436 at K = 5, still hold a clean one
        for k in (2, 5):
            truth = np.array([2.4, -1.2, 0.7, 1.5, -0.4])[:k]
            p = synth_panel(n=50, t=2, k=k, seed=1, beta=truth)
            y = p.y.copy()
            rng = np.random.default_rng(101)
            units = rng.choice(50, 20, replace=False)
            cols = rng.integers(0, 2, 20)
            y[units, cols] += 1000.0
            pc = PanelData(y, p.x)
            b0 = high_breakdown_init(pc, seed=9)
            assert np.max(np.abs(b0 - truth)) < 1.0
            assert np.max(np.abs(within_ls(pc).beta - truth)) > 10.0

    def test_six_regressors_keep_the_full_draw(self):
        # From K = 6 the rule's count reaches HB_SUBSAMPLES, so the random
        # stream is that of the fixed 500-subset draw.  The digest was
        # computed before the count depended on K and re-pinned once when
        # the start was stacked: the batched solve of its polish and the
        # row blocks of its scoring move the last bits of the starts.
        digest = hashlib.sha256()
        for n, t in [(40, 3), (600, 4)]:  # 120 cells, and 2,400 > HB_SCORE_CELLS
            p = synth_panel(n=n, t=t, k=6, seed=12, beta=(2.4, -1.2, 0.7, 1.5, -0.4, 0.9))
            digest.update(high_breakdown_init(p, seed=9).tobytes())
        assert digest.hexdigest() == (
            "fac078b172165d81a1dde429bd523c261ece5859411a6960ce87ef10a57f1feb")

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

    def test_fewer_cells_than_k_plus_one_raises(self):
        # N = T = 2, K = 4: NT = 4 < K + 1
        rng = np.random.default_rng(2)
        p = PanelData(rng.standard_normal((2, 2)), rng.standard_normal((2, 2, 4)))
        with pytest.raises(DegenerateDesign, match="at least K\\+1 observations, have 4"):
            high_breakdown_init(p, seed=0)

    def test_zero_mad_skips_the_polish(self):
        # y = 2x exactly: every elemental fit is 2 with zero residuals, so
        # the winner's MAD is 0 and the polish, which needs a positive
        # scale, is skipped
        x = np.array([[0.0, 2.0], [1.0, 3.0], [5.0, 1.0], [4.0, 7.0]])
        start = high_breakdown_init(PanelData(2.0 * x, x[:, :, None]), seed=0)
        assert np.array_equal(start, [2.0])

    def test_singular_polish_keeps_the_elemental_winner(self, monkeypatch):
        p = synth_panel(n=30, t=3, k=2, seed=27)
        polished = high_breakdown_init(p, seed=5)

        def singular(x, y, w):  # every member's weighted design is singular
            return np.zeros((len(x), x.shape[2])), {
                i: SingularWeightedDesign("rank 0 < 2") for i in range(len(x))}

        monkeypatch.setattr(estimators, "_weighted_solve", singular)
        winner = high_breakdown_init(p, seed=5)
        assert not np.array_equal(winner, polished)
        # an elemental fit passes exactly through K = 2 cells
        cp = within_transform(p)
        assert np.sum(np.abs(cp.y - cp.x @ winner) < 1e-9) >= 2

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

    @pytest.mark.parametrize("k", [1, 2, 5, 6])
    def test_subsets_are_distinct_and_in_range(self, k):
        # log(1e-6) / log(1 - 0.5^k) rounded up, capped at HB_SUBSAMPLES
        rows = {1: 20, 2: 49, 5: 436, 6: HB_SUBSAMPLES}[k]
        assert _n_subsets(k) == rows
        nt = k + 1
        idx = _elemental_subsets(np.random.default_rng(3), nt, k, rows)
        assert idx.shape == (rows, k)
        assert idx.min() >= 0 and idx.max() < nt
        assert all(len(set(row)) == k for row in idx.tolist())
        assert np.array_equal(idx, _elemental_subsets(np.random.default_rng(3), nt, k, rows))

    def test_regressor_varying_in_few_cells(self):
        # K = 1 draws 20 subsets, but the regressor is constant within 95 of
        # 100 units, so demeaning leaves it 0 in 95% of the cells and all 20
        # are singular on about a third of the seeds; the singular ones are
        # then redrawn, round by round, until all are solvable or
        # HB_SUBSAMPLES have been drawn in all, which here goes on toward
        # HB_SUBSAMPLES.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = np.zeros((100, 4, 1))
            x[:5, :, 0] = 3.0 * rng.standard_normal((5, 4))
            y = 2.0 * x[..., 0] + rng.uniform(0.0, 10.0, (100, 1))
            y += 0.1 * rng.standard_normal((100, 4))
            assert abs(high_breakdown_init(PanelData(y, x), seed=seed)[0] - 2.0) < 0.05

    def test_singular_subsets_are_redrawn(self, monkeypatch):
        # At T = 2 a unit's two centered cells mirror each other, so a subset
        # that holds both is singular.  Criterion-2 replications 5, 7, 13 and
        # 19 (seed 315) each meet one among their first _n_subsets(2); only
        # the singular subsets are drawn again, so the draw stays near
        # _n_subsets(2) instead of going on to HB_SUBSAMPLES.
        cps, seeds = [], []
        for s in range(20):
            panel_seed, scheme_seed, fit_seed, _ = sim._seeds(315, (s,), 4)
            panel = sim.gen_panel(sim.DgpConfig(n_units=120, n_periods=2, seed=panel_seed))
            cps.append(within_transform(sim.contaminate(panel, sim.ContaminationScheme(
                kind="concentrated_leverage", m=24, seed=scheme_seed))))
            seeds.append(fit_seed)
        rows = []

        def counted(rng, nt, k, n):
            rows.append(n)
            return _elemental_subsets(rng, nt, k, n)

        monkeypatch.setattr(estimators, "_elemental_subsets", counted)
        for s in (5, 7, 13, 19):
            rows.clear()
            high_breakdown_init(cps[s], seed=seeds[s])
            assert _n_subsets(2) < sum(rows) < 2 * _n_subsets(2)
        lone = np.stack([high_breakdown_init(cp, seed=seed) for cp, seed in zip(cps, seeds)])
        stacked = estimators._starts(np.stack([cp.x for cp in cps]),
                                     np.stack([cp.y for cp in cps]), seeds)
        assert np.array_equal(stacked, lone)

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

    def test_a_candidate_with_residuals_past_the_float_range_scores_inf(self):
        # the second candidate's residuals hold one -inf but have a finite MAD
        x = np.array([[[1.0], [2.0], [1e300], [3.0], [0.5]]])
        mads = estimators._mad_rows(np.array([[[1.0], [1e10]]]), x, np.zeros((1, 5)))
        assert np.isfinite(mads[0, 0]) and mads[0, 1] == np.inf

    @pytest.mark.parametrize("name", ["huber", "tukey", "esl"])
    def test_a_start_never_leaves_residuals_past_the_float_range(self, name):
        # Some elemental fits of this panel have residuals at +-inf and a
        # finite MAD.  Were one of them the start, the residual scale of
        # the fit would meet residuals that are not finite (a ValueError,
        # which _fit does not isolate).
        panel = far_leverage_panel()
        cp = within_transform(panel)
        assert np.isfinite(cp.y - cp.x @ high_breakdown_init(cp, seed=0)).all()
        fit = fit_estimator(panel, name)
        assert fit.converged
        assert np.isfinite(fit.beta).all() and np.isfinite(fit.std_errors).all()


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
        assert fit.converged and scaled.converged  # the stopping rule is unit-free too

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

    def test_rejects_a_fit_whose_scale_is_not_positive(self):
        # huber's and tukey's moments standardize by sigma_hat; esl's do not
        p = synth_panel(n=20, t=3, k=2, seed=5)
        fit = fit_mestimator(p, "huber")
        spec = LossSpec("huber", fit.c_selected)
        with pytest.raises(ValueError, match="sigma must be positive"):
            sandwich_se(p, dataclasses.replace(fit, sigma_hat=0.0), spec)
        esl = dataclasses.replace(fit, estimator="esl", sigma_hat=0.0)
        assert np.isfinite(sandwich_se(p, esl, LossSpec("esl", 4.0)).matrix).all()

    def test_a_variance_past_the_float_range_is_a_singular_design(self):
        # sigma_hat^2 raises OverflowError on a Python float
        p = synth_panel(n=20, t=3, k=2, seed=5)
        fit = FitResult(estimator="huber", beta=within_ls(p).beta, sigma_hat=1e200,
                        iterations=1, converged=True)
        with pytest.raises(SingularDesign, match="sandwich covariances"):
            sandwich_se(p, fit, LossSpec("huber", 1.345))

    def test_equal_regressors_are_a_singular_design(self):
        # X'X is exactly singular, so np.linalg.inv raises LinAlgError
        p = synth_panel(n=20, t=3, k=1, seed=5)
        x = np.concatenate((p.x, p.x), axis=2)
        fit = FitResult(estimator="huber", beta=np.zeros(2), sigma_hat=1.0, iterations=1,
                        converged=True)
        with pytest.raises(SingularDesign, match="sandwich covariances"):
            sandwich_se(PanelData(p.y, x), fit, LossSpec("huber", 1.345))

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

        def recording(y, x, shape, names, c, seeds):
            fits, failed = real(y, x, shape, names, c, seeds)
            seen.extend((CenteredPanel(y=y[i], x=x[i], shape=shape), seed, fits[name].beta[i])
                        for i, seed in enumerate(seeds) if i not in failed)
            return fits, failed

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


    @pytest.mark.parametrize("name", ["ls", "huber", "tukey", "esl"])
    def test_lone_fit_equals_its_member_of_a_stack(self, name):
        # The studies fit a stack of panels at once; fit_estimator is a
        # stack of one, and each member's fit is the lone one, bit for bit.
        # ls has no tuning constant and no weights.
        dgp = sim.DgpConfig(n_units=120, n_periods=2)
        scheme = sim.ContaminationScheme(kind="concentrated_leverage", m=24)
        cps = [within_transform(sim.contaminate(
            sim.gen_panel(dataclasses.replace(dgp, seed=s)),
            dataclasses.replace(scheme, seed=100 + s))) for s in range(12)]
        seeds = list(range(200, 212))
        fits, failed = estimators._fit(np.stack([cp.y for cp in cps]),
                                       np.stack([cp.x for cp in cps]), cps[0].shape, (name,),
                                       "auto", seeds)
        assert not failed
        stacked = fits[name]
        for i, (cp, seed) in enumerate(zip(cps, seeds)):
            lone = fit_estimator(cp, name, seed=seed)
            assert lone.beta.tobytes() == stacked.beta[i].tobytes()
            assert (lone.iterations, lone.converged, lone.sigma_hat) == (
                stacked.iterations[i], stacked.converged[i], stacked.sigma[i])
            if name == "ls":
                assert lone.c_selected is None and lone.weights is None
                assert stacked.c is None and stacked.weights is None
            else:
                assert lone.weights.tobytes() == stacked.weights[i].reshape(cp.shape).tobytes()
                assert lone.c_selected == stacked.c[i]


class TestRegressorUnits:
    # Column j of x in units geomspace(sqrt(r), 1 / sqrt(r), K)[j], a scale
    # ratio of r between the first and last: slope j divides by that factor
    # and its standard error with it, and no iteration count, converged
    # flag or tuning constant moves.  Every K x K system the robust fits
    # solve is tested for singularity against its own column sizes (see
    # tuning._nonsingular); within LS's rank test holds to r = 1e12.
    PANELS = {
        "leverage": lambda: sim.contaminate(
            sim.gen_panel(sim.DgpConfig(n_units=120, n_periods=2, seed=3)),
            sim.ContaminationScheme(kind="concentrated_leverage", m=24, seed=4)),
        "three regressors": lambda: sim.gen_panel(sim.DgpConfig(
            n_units=50, n_periods=3, beta=(2.4, -1.2, 0.7), gamma=(2.0, 4.0, 1.0), seed=5)),
        "cauchy": lambda: sim.gen_panel(sim.DgpConfig(n_units=200, n_periods=3,
                                                      error_dist="cauchy", seed=6)),
    }

    @pytest.mark.parametrize("label", list(PANELS))
    def test_fits_do_not_depend_on_the_units_of_a_regressor(self, label):
        panel = self.PANELS[label]()
        k = panel.x.shape[-1]
        for name in ESTIMATOR_NAMES:
            base = fit_estimator(panel, name, seed=1)
            for r in (1e6, 1e9, 1e12):
                units = np.geomspace(np.sqrt(r), 1.0 / np.sqrt(r), k)
                fit = fit_estimator(PanelData(panel.y, panel.x * units), name, seed=1)
                assert_allclose(fit.beta * units, base.beta, rtol=1e-12, err_msg=name)
                assert_allclose(fit.std_errors * units, base.std_errors, rtol=1e-10,
                                err_msg=name)
                assert (fit.iterations, fit.converged) == (base.iterations, base.converged)
                if name == "esl":  # on the squared scale of the residuals
                    assert fit.c_selected == pytest.approx(base.c_selected, rel=1e-12)
                else:
                    assert fit.c_selected == base.c_selected


class TestPinnedDigests:
    # SHA-256 over tobytes() of results computed on x86_64 with numpy 2.4;
    # test_leverage_study was last re-pinned when the start came to redraw
    # a singular elemental subset instead of drawing on to HB_SUBSAMPLES
    # (the start's draw moved on replications that meet one, so their
    # robust samples moved; ls held), the others when huber's Newton and
    # IRLS steps took an exact line search (its iterations and last bits
    # moved; ls, tukey and esl held); a kernel that moves one bit of a start, a selected c or a study sample
    # fails here.  A change that moves study numbers on purpose re-pins
    # these with the simulate table digests of test_cli.  test_exact_fit_study
    # pins the (3, 2) regime, where every robust fit is an exact fit and
    # esl's selection works on residuals of rounding size; the exact-fit
    # rule of ROADMAP.md's item 17 will move it on purpose and re-pin it.

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
            "d05a795f65d2f6db9e6d03703f8dd13970ab83c553abdfbd42d2d32c679d71db")

    def test_exact_fit_study(self):
        # clean (3, 2) panels: 39 of 400 replications fail and esl leaves
        # 101 fits unconverged.  Replications 200-399 are needed: forming
        # esl's mean score in the same matmul as kappa moves the last bits
        # of S(c) and a sample among them, while the first 200 hold.
        names = ("ls", "huber", "tukey", "esl")
        report = sim.run_mc(sim.DgpConfig(n_units=3, n_periods=2), None, names, 400, 7)
        digest = hashlib.sha256()
        for name in names:
            digest.update(report.se_samples[name].tobytes())
        digest.update(repr((report.n_failed, [report.n_nonconverged[name] for name in names]))
                      .encode())
        assert digest.hexdigest() == (
            "9404af51cbbf5c58a5d58ef475e7aed70705a6c58136be6830508be16a6cccff")

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
            "80e6fdce8a617e448bd19d1d81262a6dd480f9bd9ec9f0a76c708a2cc12f7550")

    def test_fit_results_the_cli_reports(self):
        # every field of fit_estimator that `robustpanel fit` writes, for each
        # estimator on a (120, 2) concentrated-leverage panel and on 5,000
        # cells (the start's subsample path): iterations, converged flags,
        # weights and standard errors move with the IRLS control flow
        panels = (
            sim.contaminate(sim.gen_panel(sim.DgpConfig(n_units=120, n_periods=2, seed=3)),
                            sim.ContaminationScheme(kind="concentrated_leverage", m=24, seed=4)),
            sim.contaminate(sim.gen_panel(sim.DgpConfig(n_units=1250, n_periods=4, seed=7)),
                            sim.ContaminationScheme(kind="random_vertical", m=250, seed=8)),
        )
        digest = hashlib.sha256()
        for panel in panels:
            for name in ("ls", "huber", "tukey", "esl"):
                fit = fit_estimator(panel, name, seed=9)
                for array in (fit.beta, fit.std_errors, fit.weights):
                    if array is not None:
                        digest.update(array.tobytes())
                digest.update(repr((fit.sigma_hat, fit.c_selected, fit.iterations,
                                    fit.converged)).encode())
        assert digest.hexdigest() == (
            "1317a74c71c08a9bcd8889de1c1db1e40151f83c78e44342358bbf158b3485eb")
