"""Panel container, within transform, within LS, fixed effects, prediction."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robustpanel.errors import DegeneratePanel, SingularDesign
from robustpanel.estimators import fit_mestimator, irls_fit
from robustpanel.losses import LossSpec
from robustpanel.panel import (
    FitResult,
    PanelData,
    fixed_effects,
    predict,
    within_ls,
    within_transform,
)
from robustpanel.tuning import HUBER_GRID, default_esl_grid, esl_cov, esl_select_c, select_c_grid

from conftest import NULL_DIRECTION, nearly_collinear_panel, synth_panel
from oracles import direct_rmse, exact_within_ls


class TestPanelData:
    def test_shapes_and_labels(self):
        p = synth_panel(n=5, t=3, k=2)
        assert (p.n_units, p.n_periods, p.n_regressors) == (5, 3, 2)
        assert len(p.unit_labels) == 5 and len(set(p.unit_labels)) == 5
        assert len(p.period_labels) == 3

    def test_immutable_after_construction(self):
        p = synth_panel(n=3, t=2, k=1)
        with pytest.raises(ValueError):
            p.y[0, 0] = 99.0
        with pytest.raises(ValueError):
            p.x[0, 0, 0] = 99.0

    @pytest.mark.parametrize(
        "n,t", [(1, 3), (2, 1)],
    )
    def test_too_small_rejected(self, n, t):
        y = np.zeros((n, t))
        x = np.zeros((n, t, 1))
        with pytest.raises(DegeneratePanel):
            PanelData(y, x)

    def test_nonfinite_rejected(self):
        y = np.zeros((2, 2))
        x = np.zeros((2, 2, 1))
        y[1, 1] = np.nan
        with pytest.raises(DegeneratePanel):
            PanelData(y, x)

    def test_nonfinite_regressor_named_with_its_cell(self):
        x = np.zeros((3, 2, 2))
        x[2, 1, 1] = np.inf
        with pytest.raises(DegeneratePanel, match="non-finite x2 at unit 2, period 1"):
            PanelData(np.zeros((3, 2)), x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DegeneratePanel):
            PanelData(np.zeros((2, 2)), np.zeros((2, 3, 1)))
        with pytest.raises(DegeneratePanel):
            PanelData(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_duplicate_labels_rejected(self):
        y = np.zeros((2, 2))
        x = np.zeros((2, 2, 1))
        with pytest.raises(DegeneratePanel):
            PanelData(y, x, unit_labels=("a", "a"))
        with pytest.raises(DegeneratePanel, match="period labels must be distinct"):
            PanelData(y, x, period_labels=("t1", "t1"))

    def test_one_dimensional_y_and_no_regressor_rejected(self):
        with pytest.raises(DegeneratePanel, match="y must be 2-dimensional"):
            PanelData(np.zeros(4), np.zeros((4, 1, 1)))
        with pytest.raises(DegeneratePanel, match="need at least 1 regressor"):
            PanelData(np.zeros((2, 2)), np.zeros((2, 2, 0)))


class TestFitResult:
    FIT = dict(estimator="huber", beta=np.zeros(2), sigma_hat=1.0, iterations=3, converged=True)

    @pytest.mark.parametrize("field,value,message", [
        ("estimator", "lasso", "unknown estimator name 'lasso'"),
        ("beta", np.array([0.0, np.inf]), "beta must be finite"),
        ("beta", np.array([np.nan, 0.0]), "beta must be finite"),
        ("sigma_hat", -1.0, "sigma_hat must be nonnegative"),
        ("sigma_hat", np.nan, "sigma_hat must be nonnegative"),
        ("weights", np.array([[0.5, -0.1]]), "weights must lie in \\[0, 1\\]"),
        ("weights", np.array([[1.5, 0.5]]), "weights must lie in \\[0, 1\\]"),
        # sandwich_se squares the scale, and no fit produces an infinite one
        ("sigma_hat", np.inf, "sigma_hat must be nonnegative and finite"),
    ])
    def test_invalid_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            FitResult(**{**self.FIT, field: value})


class TestWithinTransform:
    def test_constant_unit_annihilated(self):
        y = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
        x = np.ones((2, 3, 1))
        cp = within_transform(PanelData(y, x))
        yc = cp.y.reshape(cp.shape)
        assert_allclose(yc[0], 0.0, atol=1e-15)
        assert_allclose(yc[1], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_hand_example(self, hand_panel):
        cp = within_transform(hand_panel)
        assert cp.shape == (2, 2) and cp.y.shape == (4,) and cp.x.shape == (4, 1)
        yc, xc = cp.y.reshape(cp.shape), cp.x.reshape(cp.shape + (1,))
        assert_allclose(yc, [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-15)
        assert_allclose(xc[:, :, 0], [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-15)
        # the removed unit means
        assert_allclose(hand_panel.y - yc, [[1.0, 1.0], [12.0, 12.0]], atol=1e-15)
        assert_allclose(hand_panel.x[:, :, 0] - xc[:, :, 0], [[1.0, 1.0], [2.0, 2.0]],
                        atol=1e-15)

    def test_unit_sums_vanish(self, noisy_panel):
        cp = within_transform(noisy_panel)
        assert np.abs(cp.y.reshape(cp.shape).sum(axis=1)).max() < 1e-10
        assert np.abs(cp.x.reshape(cp.shape + (-1,)).sum(axis=1)).max() < 1e-10

    def test_idempotent(self, noisy_panel):
        cp = within_transform(noisy_panel)
        cp2 = within_transform(PanelData(cp.y.reshape(cp.shape),
                                         cp.x.reshape(cp.shape + (-1,))))
        assert_allclose(cp2.y, cp.y, atol=1e-12)
        assert_allclose(cp2.x, cp.x, atol=1e-12)

    def test_regressor_too_small_to_square_rejected(self):
        y = np.arange(6.0).reshape(3, 2)
        x = np.zeros((3, 2, 1))
        x[2, 1, 0] = 1e-160  # its centered square, 5e-321, is below the normal range
        with pytest.raises(DegeneratePanel, match="x1 .*too small to square"):
            within_transform(PanelData(y, x))
        x[2, 1, 0] = 0.0  # an all-zero column is left to the rank check of the fits
        assert within_transform(PanelData(y, x)).x.shape == (6, 1)

    def test_arrays_are_read_only(self, noisy_panel):
        cp = within_transform(noisy_panel)
        assert not cp.y.flags.writeable and not cp.x.flags.writeable
        with pytest.raises(ValueError):
            cp.y[0] = 1.0

    def test_peak_memory_is_one_design(self):
        # 200k cells at K = 2: the centered arrays are built once and held
        # by the CenteredPanel without a second copy
        panel = synth_panel(n=50_000, t=4, k=2, seed=8)
        tracemalloc.start()
        try:
            cp = within_transform(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (cp.y.nbytes + cp.x.nbytes)

    def test_per_unit_shift_invariance(self, noisy_panel):
        shift = np.linspace(-40.0, 60.0, noisy_panel.n_units)
        shifted = PanelData(noisy_panel.y + shift[:, None], noisy_panel.x)
        cp0 = within_transform(noisy_panel)
        cp1 = within_transform(shifted)
        assert_allclose(cp1.y, cp0.y, atol=1e-10)


class TestWithinLs:
    def test_hand_example(self, hand_panel):
        fit = within_ls(hand_panel)
        assert fit.beta.shape == (1,)
        assert fit.beta[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.estimator == "ls"
        assert fit.converged and fit.weights is None and fit.c_selected is None

    def test_noiseless_recovery(self):
        p = synth_panel(n=30, t=3, k=2, seed=5, noise=0.0)
        fit = within_ls(p)
        assert_allclose(fit.beta, [2.4, -1.2], atol=1e-10)

    def test_matches_exact_rational_oracle(self):
        for seed in (0, 1, 2):
            p = synth_panel(n=23, t=4, k=3, seed=seed, beta=(2.4, -1.2, 0.7))
            fit = within_ls(p)
            oracle = exact_within_ls(p.y, p.x)
            assert_allclose(fit.beta, oracle, rtol=0, atol=1e-8)

    def test_sigma_hat_dof(self, noisy_panel):
        fit = within_ls(noisy_panel)
        cp = within_transform(noisy_panel)
        resid = cp.y - cp.x @ fit.beta
        n, t, k = noisy_panel.n_units, noisy_panel.n_periods, noisy_panel.n_regressors
        expected = np.sqrt((resid**2).sum() / (n * t - n - k))
        assert fit.sigma_hat == pytest.approx(expected, rel=1e-12)

    def test_scale_equivariance(self, noisy_panel):
        base = within_ls(noisy_panel).beta
        for lam in (-3.0, 0.25, 10.0):
            scaled = PanelData(lam * noisy_panel.y, noisy_panel.x)
            assert_allclose(within_ls(scaled).beta, lam * base, atol=1e-10)

    def test_regression_equivariance(self, noisy_panel):
        base = within_ls(noisy_panel).beta
        nu = np.array([3.0, -7.5])
        moved = PanelData(noisy_panel.y + noisy_panel.x @ nu, noisy_panel.x)
        assert_allclose(within_ls(moved).beta, base + nu, atol=1e-10)

    def test_affine_equivariance(self, noisy_panel):
        base = within_ls(noisy_panel).beta
        a = np.array([[2.0, 0.5], [-1.0, 1.5]])
        transformed = PanelData(noisy_panel.y, noisy_panel.x @ a)
        assert_allclose(
            within_ls(transformed).beta, np.linalg.solve(a, base), atol=1e-10
        )

    def test_collinear_design_names_null_direction(self):
        rng = np.random.default_rng(4)
        x1 = rng.standard_normal((6, 4))
        x = np.stack([x1, 2.0 * x1], axis=2)
        y = rng.standard_normal((6, 4))
        with pytest.raises(SingularDesign) as err:
            within_ls(PanelData(y, x))
        assert "null direction" in str(err.value)

    def test_nearly_collinear_design_matches_exact_rational_oracle(self):
        # Two regressors correlated at 1 - 1e-12, just inside the
        # singularity rule: forming X'X squares the design's condition
        # number, and the refinement steps on the residuals win the digits
        # back (2e-9 relative measured; one step left 2e-6, none 1e-3).
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x1, z = rng.standard_normal((40, 4)), rng.standard_normal((40, 4))
            rho = 1.0 - 1e-12
            x = np.stack([x1, rho * x1 + np.sqrt(1.0 - rho**2) * z], axis=2)
            y = x @ np.array([2.4, -1.2]) + rng.standard_normal((40, 4))
            assert_allclose(within_ls(PanelData(y, x)).beta, exact_within_ls(y, x), rtol=1e-8)

    def test_nearly_collinear_design_is_singular_by_the_one_rule(self):
        # Two regressors correlated at 1 - 1e-13 (see conftest): the message
        # names the near-null direction.
        with pytest.raises(SingularDesign) as err:
            within_ls(nearly_collinear_panel())
        assert re.search(NULL_DIRECTION, str(err.value))

    def test_no_residual_degrees_of_freedom_rejected(self):
        # N = T = K = 2: the slopes are solvable but NT - N - K = 0
        rng = np.random.default_rng(6)
        p = PanelData(rng.standard_normal((2, 2)), rng.standard_normal((2, 2, 2)))
        with pytest.raises(DegeneratePanel, match="NT - N - K = 0"):
            within_ls(p)

    def test_std_errors_classical_form(self, noisy_panel):
        fit = within_ls(noisy_panel)
        cp = within_transform(noisy_panel)
        xc = cp.x.reshape(cp.shape + (-1,))
        xtx = np.einsum("itk,itl->kl", xc, xc)
        expected = fit.sigma_hat * np.sqrt(np.diag(np.linalg.inv(xtx)))
        assert_allclose(fit.std_errors, expected, rtol=1e-10)


class TestFixedEffectsAndPredict:
    def test_noiseless_alpha_recovery(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 5, 2))
        beta = np.array([2.4, -1.2])
        alpha = rng.uniform(0, 12, 8)
        y = x @ beta + alpha[:, None]
        p = PanelData(y, x)
        assert_allclose(fixed_effects(p, beta), alpha, atol=1e-12)
        assert_allclose(predict(p, beta), y, atol=1e-12)

    def test_zero_beta_gives_unit_means(self, noisy_panel):
        alpha = fixed_effects(noisy_panel, np.zeros(2))
        assert_allclose(alpha, noisy_panel.y.mean(axis=1), atol=1e-14)
        yhat = predict(noisy_panel, np.zeros(2))
        assert_allclose(yhat, np.repeat(alpha[:, None], noisy_panel.n_periods, axis=1))

    def test_residual_unit_means_vanish(self, noisy_panel):
        fit = within_ls(noisy_panel)
        alpha = fixed_effects(noisy_panel, fit.beta)
        resid = noisy_panel.y - noisy_panel.x @ fit.beta - alpha[:, None]
        assert np.abs(resid.mean(axis=1)).max() < 1e-10

    def test_clean_split_rmse_scale(self):
        # train and held-out panels share the DGP; unit effects are recovered
        # from the held-out units' own means, so only coefficient noise and
        # the centered disturbance remain
        train = synth_panel(n=120, t=2, k=2, seed=21)
        test = synth_panel(n=50, t=2, k=2, seed=22)
        fit = within_ls(train)
        yhat = predict(test, fit.beta)
        rmse = np.sqrt(((test.y - yhat) ** 2).mean())
        assert rmse == pytest.approx(direct_rmse(test.y, yhat), rel=1e-12)
        assert 0.4 < rmse < 1.1

    def test_beta_shape_checked(self, noisy_panel):
        with pytest.raises(ValueError):
            fixed_effects(noisy_panel, np.zeros(5))


# every public function that takes a coefficient vector checks its length
COEFFICIENT_CALLS = {
    "irls_fit": lambda p, b: irls_fit(p, LossSpec("huber", 1.345), b, 1.0),
    "fit_mestimator": lambda p, b: fit_mestimator(p, "huber", beta_init=b),
    "select_c_grid": lambda p, b: select_c_grid(p, "huber", b, 1.0, HUBER_GRID),
    "esl_select_c": lambda p, b: esl_select_c(p, b, default_esl_grid(1.0)),
    "esl_cov": lambda p, b: esl_cov(p, b, 1.0),
    "fixed_effects": fixed_effects,
}


@pytest.mark.parametrize("beta", [0.0, np.zeros(3)], ids=["scalar", "one_too_long"])
@pytest.mark.parametrize("name", sorted(COEFFICIENT_CALLS))
def test_coefficient_vector_must_have_length_k(name, beta, noisy_panel):
    with pytest.raises(ValueError, match="must have length 2, got shape"):
        COEFFICIENT_CALLS[name](noisy_panel, beta)
