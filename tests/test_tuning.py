"""Tuning-constant selection: efficiency factor grid search and the
exponential-squared pseudo-outlier / xi / det(V) procedure."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robustpanel.errors import NoValidTuning, ZeroScale
from robustpanel.losses import LossSpec, psi, psi_prime, weight
from robustpanel.panel import PanelData, within_transform
from robustpanel.tuning import (
    GRID_BLOCK_CELLS,
    HUBER_GRID,
    TAU_C_MAX,
    TUKEY_GRID,
    default_esl_grid,
    efficiency_factor,
    esl_cov,
    esl_select_c,
    pseudo_outlier_set,
    select_c_grid,
    xi,
    _blocks,
    _esl_grids,
)

from conftest import synth_panel


def panel_with_residuals(resid):
    """Panel whose centered y equals `resid` exactly (rows must sum to 0);
    with beta_current = 0 the standardized residuals are resid / sigma."""
    resid = np.asarray(resid, dtype=float)
    n, t = resid.shape
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((n, t, 1))
    return PanelData(resid + 5.0, x)


class TestEfficiencyFactor:
    def test_huber_hand_value(self):
        tau, defined = efficiency_factor([0.5, -0.5, 0.5, -0.5], LossSpec("huber", 1.0))
        assert defined
        assert tau == pytest.approx(4.0, abs=1e-14)

    def test_tukey_total_rejection_undefined(self):
        # the second: cells exactly at the smallest subnormal c, whose
        # sqrt(3)/2 multiple rounds back to c itself
        for e, c in (([8.0, -9.0, 11.0], 2.0), ([5e-324, -5e-324], 5e-324)):
            tau, defined = efficiency_factor(e, LossSpec("tukey", c))
            assert tau == 0.0 and not defined

    def test_huber_closed_form_inside(self):
        rng = np.random.default_rng(1)
        e = 0.3 * rng.standard_normal(100)
        tau, defined = efficiency_factor(e, LossSpec("huber", 2.0))
        assert defined
        assert tau == pytest.approx(len(e) / np.sum(e**2), rel=1e-12)

    def test_huber_1345_near_normal_efficiency(self):
        rng = np.random.default_rng(2024)
        e = rng.standard_normal(10000)
        tau, defined = efficiency_factor(e, LossSpec("huber", 1.345))
        assert defined
        assert 0.85 <= tau <= 1.00

    @pytest.mark.parametrize("family", ["huber", "tukey", "esl"])
    def test_nan_residual_raises_and_inf_takes_psi_limits(self, family):
        spec = LossSpec(family, 1.0)
        for bad in ([], [np.nan, 1.0, 2.0]):
            with pytest.raises(ValueError, match="no residuals|nan"):
                efficiency_factor(bad, spec)
        assert efficiency_factor([np.inf, -1.0, 2.0], spec) == efficiency_factor(
            [1e300, -1.0, 2.0], spec)

    @pytest.mark.parametrize("family,c", [("huber", 1.0), ("tukey", 4.0), ("esl", 2.0)])
    def test_invariant_to_psi_rescaling(self, family, c):
        rng = np.random.default_rng(5)
        e = rng.standard_normal(400)
        spec = LossSpec(family, c)
        tau, _ = efficiency_factor(e, spec)
        n = e.size
        for k in (1e-6, 0.5, 3.0, 1e6):
            scaled = (np.sum(k * psi_prime(spec, e))) ** 2 / (
                n * np.sum((k * psi(spec, e)) ** 2)
            )
            assert_allclose(scaled, tau, rtol=1e-12)


class TestSelectCGrid:
    def test_grids_match_stated_ranges(self):
        assert len(HUBER_GRID) == 60
        assert HUBER_GRID[0] == pytest.approx(0.05) and HUBER_GRID[-1] == pytest.approx(3.0)
        assert len(TUKEY_GRID) == 46
        assert TUKEY_GRID[0] == pytest.approx(1.0) and TUKEY_GRID[-1] == pytest.approx(10.0)

    def test_singleton_grid(self):
        resid = np.array([[1.0, -1.0], [0.5, -0.5]])
        curve = select_c_grid(panel_with_residuals(resid), "huber", np.zeros(1), 1.0, [1.7])
        assert curve.c_star == 1.7
        assert curve.tau_star == curve.tau_hat[0]

    def test_clean_normal_picks_large_huber_c(self):
        rng = np.random.default_rng(77)
        resid = rng.standard_normal((100, 10))
        resid -= resid.mean(axis=1, keepdims=True)
        p = panel_with_residuals(resid)
        curve = select_c_grid(p, "huber", np.zeros(1), 1.0, HUBER_GRID)
        assert curve.c_star >= 2.0
        assert curve.tau_star == curve.tau_hat.max()

    def test_planted_outliers_rejected_under_tukey(self):
        rng = np.random.default_rng(14)
        n, t = 50, 2
        v = np.abs(rng.standard_normal(n))
        v[:5] = 20.0  # 10% of cells end up at exactly +-20
        resid = np.stack([v, -v], axis=1)
        p = panel_with_residuals(resid)
        curve = select_c_grid(p, "tukey", np.zeros(1), 1.0, TUKEY_GRID)
        assert curve.c_star < 10.0
        spec = LossSpec("tukey", curve.c_star)
        assert np.all(weight(spec, np.array([20.0, -20.0])) == 0.0)

    def test_all_rejected_raises(self):
        resid = np.array([[50.0, -50.0], [60.0, -60.0]])
        p = panel_with_residuals(resid)
        with pytest.raises(NoValidTuning):
            select_c_grid(p, "tukey", np.zeros(1), 1.0, [1.0, 2.0])

    def test_rejects_another_family_and_a_scale_that_is_not_positive(self):
        p = panel_with_residuals(np.array([[1.0, -1.0], [0.5, -0.5]]))
        with pytest.raises(ValueError, match="grid tuning applies to huber or tukey, got 'esl'"):
            select_c_grid(p, "esl", np.zeros(1), 1.0, [1.0])
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="sigma must be positive"):
                select_c_grid(p, "huber", np.zeros(1), sigma, HUBER_GRID)

    def test_tie_break_smallest_c(self):
        # all residuals inside every Huber c: tau = n / sum(e^2) for each,
        # a flat curve, so the smallest grid point must win
        resid = np.array([[0.01, -0.01], [0.02, -0.02]])
        p = panel_with_residuals(resid)
        curve = select_c_grid(p, "huber", np.zeros(1), 1.0, [1.0, 2.0, 3.0])
        assert curve.c_star == 1.0


@pytest.mark.parametrize("grid", [[], [np.nan, 4.0], [-1.0, 4.0], [0.0, 1.0, 4.0], [1.0, np.inf]])
@pytest.mark.parametrize("family", ["huber", "tukey", "esl"])
def test_searches_reject_an_empty_grid_or_an_invalid_candidate(family, grid):
    p = synth_panel(n=20, t=3, k=2, seed=1)
    message = "positive and finite" if grid else "no candidate"
    with pytest.raises(ValueError, match=message):
        if family == "esl":
            esl_select_c(p, np.zeros(2), grid)
        else:
            select_c_grid(p, family, np.zeros(2), 1.0, grid)


@pytest.mark.parametrize("family", ["huber", "tukey"])
@pytest.mark.parametrize("c", [1.5e154, 1e200])
def test_tau_rejects_a_constant_whose_square_leaves_the_float_range(family, c):
    # Past about 1.3e154 c^2 overflows: huber's tau_hat read nan and won a
    # grid, and tukey's read 0, undefined, at residuals well inside c.
    with pytest.raises(ValueError, match="tuning constant .* is above 1e\\+100"):
        efficiency_factor([0.5, -1.5, np.inf, 2.0], LossSpec(family, c))
    p = panel_with_residuals(np.array([[1.0, -1.0], [0.5, -0.5]]))
    for grid in ([1.0, c], [c]):
        with pytest.raises(ValueError, match="tuning constant .* is above 1e\\+100"):
            select_c_grid(p, family, np.zeros(1), 1.0, grid)


@pytest.mark.parametrize("family", ["huber", "tukey"])
def test_tau_at_the_largest_constant(family):
    # At TAU_C_MAX every finite cell is inside c, so tau_hat is NT / sum e^2;
    # a cell at +-inf is clipped to c by huber, which adds c^2 to sum psi^2,
    # and rejected by tukey.  No step overflows (a RuntimeWarning fails here).
    e = np.array([0.5, -1.5, 2.0])  # sum e^2 = 6.5
    for cells, tau_huber, tau_tukey in ((e, 3 / 6.5, 3 / 6.5),
                                        (np.append(e, np.inf), 9 / (4 * (6.5 + 1e200)),
                                         9 / (4 * 6.5))):
        tau, defined = efficiency_factor(cells, LossSpec(family, TAU_C_MAX))
        assert defined
        assert tau == pytest.approx(tau_huber if family == "huber" else tau_tukey, rel=1e-12)
    p = panel_with_residuals(np.array([[1.0, -1.0], [0.5, -0.5]]))
    curve = select_c_grid(p, family, np.zeros(1), 1.0, [1.0, TAU_C_MAX])
    assert curve.defined.all()


class TestPseudoOutliers:
    def test_rejects_a_scale_that_is_not_positive(self):
        for sigma_mad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="sigma_mad must be positive"):
                pseudo_outlier_set(np.ones(4), sigma_mad)

    def test_no_exceedance(self):
        out = pseudo_outlier_set(np.full((2, 2), 0.1), 1.0)
        assert np.array_equal(out, np.zeros((2, 2), dtype=bool))

    def test_single_exceedance(self):
        resid = np.array([[0.0, 0.0], [0.0, 10.0]])
        out = pseudo_outlier_set(resid, 1.0)
        assert np.array_equal(out, [[False, False], [False, True]])

    def test_threshold_is_inclusive(self):
        resid = np.array([[2.5, 0.0], [0.0, -2.5]])
        out = pseudo_outlier_set(resid, 1.0)
        assert np.array_equal(out, [[True, False], [False, True]])

    def test_normal_rate_near_tail_mass(self):
        from robustpanel.scale import mad_scale

        rng = np.random.default_rng(99)
        resid = rng.standard_normal((100, 100))
        sigma = mad_scale(resid).value
        m = int(pseudo_outlier_set(resid, sigma).sum())
        assert 0.008 <= m / resid.size <= 0.018


class TestXi:
    def test_rejects_a_count_inconsistent_with_nt(self):
        for nt in (0, -2):
            with pytest.raises(ValueError, match="nt must be positive"):
                xi(1.0, np.zeros(0), 0, nt)
        for m, cells in ((-1, 2), (3, 2), (0, 5)):  # m + retained cells past nt = 4
            with pytest.raises(ValueError, match="inconsistent with nt"):
                xi(1.0, np.zeros(cells), m, 4)

    def test_zero_loss_excluded_boundary(self):
        assert xi(1.0, np.zeros(4), 0, 4) == 0.0

    def test_half_outliers_boundary_included(self):
        assert xi(1.0, np.zeros(2), 2, 4) == 1.0

    def test_hand_value(self):
        val = xi(1.0, np.ones(4), 0, 4)
        assert val == pytest.approx(2.0 * (1.0 - np.exp(-1.0)), rel=1e-14)

    def test_monotone_in_m_and_floor(self):
        rng = np.random.default_rng(8)
        e = rng.standard_normal(20)
        nt = 50
        vals = [xi(2.0, e, m, nt) for m in range(0, 31)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v >= 2.0 * m / nt for m, v in enumerate(vals))


def centered_from(y, x):
    return within_transform(PanelData(y, x))


class TestEslCov:
    def test_zero_residuals(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 1))
        beta0 = np.array([1.5])
        xc = x - x.mean(axis=1, keepdims=True)
        y = (x @ beta0) + 7.0  # residuals at beta0 vanish after centering
        cp = centered_from(y, x)
        v, defined = esl_cov(cp, beta0, 2.0)
        assert defined
        assert_allclose(v, 0.0, atol=1e-15)
        # the information factor -(2/c) kappa M is literally (2/c) * (-1) * mean(xdd^2)
        from robustpanel.tuning import _esl_sandwich

        xdd = cp.x.reshape(-1, 1)
        e = (cp.y.ravel() - xdd @ beta0)[None]
        kappa, cross, _, _, _, _ = _esl_sandwich(xdd[None], e, np.array([[2.0]]),
                                                 np.ones(e.shape, dtype=bool))
        info = -(2.0 / 2.0) * kappa[0, 0] * cross[0]
        assert_allclose(info, -(2.0 / 2.0) * np.mean(xc**2) * np.ones((1, 1)), rtol=1e-12)

    def test_scalar_factor_root_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2, 1))
        a = 0.7
        resid = np.array([[a, -a], [a, -a], [a, -a]])
        y = resid + 3.0
        cp = centered_from(y, np.zeros_like(x) + x)
        # residuals at beta0 = 0 are +-a; at c = 2 a^2 the factor 2e^2/c - 1 = 0
        v, defined = esl_cov(cp, np.zeros(1), 2.0 * a * a)
        assert not defined

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(21)
        n, t, k = 12, 3, 2
        x = rng.standard_normal((n, t, k))
        y = x @ np.array([1.0, -2.0]) + rng.uniform(0, 5, (n, 1)) + rng.standard_normal((n, t))
        cp = centered_from(y, x)
        beta0 = np.array([0.8, -1.7])
        c = 1.9
        v, defined = esl_cov(cp, beta0, c)
        assert defined

        # independent element-by-element recomputation
        nt = n * t
        e = (cp.y - cp.x @ beta0).ravel()
        xdd = cp.x.reshape(nt, k)
        kappa = sum(np.exp(-e[i] ** 2 / c) * (2 * e[i] ** 2 / c - 1) for i in range(nt)) / nt
        meanxx = np.zeros((k, k))
        for i in range(nt):
            for p in range(k):
                for q in range(k):
                    meanxx[p, q] += xdd[i, p] * xdd[i, q] / nt
        info = (2.0 / c) * kappa * meanxx
        scores = np.array([np.exp(-e[i] ** 2 / c) * (2 * e[i] / c) * xdd[i] for i in range(nt)])
        sbar = scores.mean(axis=0)
        sigma_tilde = np.zeros((k, k))
        for i in range(nt):
            d = scores[i] - sbar
            sigma_tilde += np.outer(d, d) / nt
        inv = np.linalg.inv(info)
        assert_allclose(v, inv @ sigma_tilde @ inv, rtol=1e-10, atol=1e-12)


class TestEslSelectC:
    def test_degenerate_clean_limit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2, 1))
        beta0 = np.array([2.0])
        y = x @ beta0 + 1.0
        cp = centered_from(y, x)
        with pytest.raises(NoValidTuning):
            esl_select_c(cp, beta0, np.geomspace(0.1, 10.0, 8))

    def test_singleton_feasibility(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2, 1))
        resid = np.tile([1.0, -1.0], (6, 1))
        cp = centered_from(resid + 4.0, x)
        # xi(c) = 2(1 - exp(-1/c)) <= 1 only for c >= 1/ln 2 ~ 1.4427
        state = esl_select_c(cp, np.zeros(1), np.array([0.2, 0.5, 1.5]))
        assert state.c_selected == 1.5
        assert state.m == 0
        assert np.sum((state.xi_values > 0) & (state.xi_values <= 1)) == 1

    def test_exhaustive_scan_oracle(self):
        from robustpanel.losses import rho as rho_fn
        from robustpanel.scale import mad_scale

        rng = np.random.default_rng(42)
        n, t, k = 30, 4, 2
        x = rng.standard_normal((n, t, k))
        beta = np.array([2.4, -1.2])
        y = x @ beta + rng.uniform(0, 12, (n, 1)) + rng.standard_normal((n, t))
        flat = rng.choice(n * t, 12, replace=False)
        y.ravel()[flat] = rng.uniform(20, 80, 12)
        cp = centered_from(y, x)
        beta0 = beta + 0.05
        e = (cp.y - cp.x @ beta0).ravel()
        grid = default_esl_grid(mad_scale(e).value)
        state = esl_select_c(cp, beta0, grid)

        # brute-force scan with independently coded xi and det(V)
        sigma_mad = mad_scale(e).value
        outlier = np.abs(e) >= 2.5 * sigma_mad
        m = int(outlier.sum())
        best_c, best_det = None, np.inf
        for c in grid:
            xi_c = 2.0 * m / e.size + (2.0 / e.size) * float(
                np.sum(rho_fn(LossSpec("esl", float(c)), e[~outlier]))
            )
            if not (0.0 < xi_c <= 1.0):
                continue
            v, defined = esl_cov(cp, beta0, float(c))
            if not defined:
                continue
            d = float(np.linalg.det(v))
            if d < best_det:
                best_det, best_c = d, float(c)
        assert best_c is not None
        assert state.c_selected == best_c
        assert state.m == m

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3, 2))
        y = x @ np.array([1.0, 1.0]) + rng.standard_normal((8, 3))
        cp = centered_from(y, x)
        grid = np.geomspace(0.05, 50.0, 25)
        s1 = esl_select_c(cp, np.ones(2), grid)
        s2 = esl_select_c(cp, np.ones(2), grid)
        assert s1.c_selected == s2.c_selected
        assert np.array_equal(s1.xi_values, s2.xi_values)
        assert np.array_equal(s1.detv_values, s2.detv_values, equal_nan=True)


class TestGridKernels:
    """Each search evaluates its whole grid in one pass, and the one-point
    functions are calls into the same kernels: tau_hat and xi agree
    exactly, log det V_hat (ranked through log det S and the scalar
    information) with slogdet of esl_cov's matrix to rounding."""

    @pytest.mark.parametrize("family,grid", [("huber", HUBER_GRID), ("tukey", TUKEY_GRID)])
    def test_tau_curve_is_efficiency_factor_pointwise(self, family, grid):
        rng = np.random.default_rng(31)
        v = 1.5 + 3.0 * np.abs(rng.standard_normal(60))  # every |e| >= 1.5
        v[:6] = 40.0
        p = panel_with_residuals(np.stack([v, -v], axis=1))
        beta, sigma = np.zeros(1), 1.0
        curve = select_c_grid(p, family, beta, sigma, grid)
        cp = within_transform(p)
        e = ((cp.y - cp.x @ beta) / sigma).ravel()
        for j, c in enumerate(grid):
            tau, defined = efficiency_factor(e, LossSpec(family, c))
            assert curve.tau_hat[j] == tau and curve.defined[j] == defined
        if family == "tukey":  # the smallest constants reject every cell
            assert not curve.defined[0] and curve.defined[-1]

    @pytest.mark.parametrize("family", ["huber", "tukey"])
    def test_tau_curve_from_one_sort_matches_the_cell_sums(self, family):
        # Both families' tau_hat come from one sort of |e| per member.
        # huber's sum psi' is the count of |e| <= c and sum psi^2 a
        # cumulative sum of e^2 below c plus c^2 per cell above; tukey's are
        # power sums of |e| over the cells far inside c plus sums cell by
        # cell over those near it.  Against the moments summed cell by cell,
        # on an unsorted grid inside the family's range, with cells exactly
        # at |e| = c (inside for huber, outside for tukey, whose psi and psi'
        # vanish there), just inside c (where power sums of e^2 alone would
        # cancel to noise: tau_hat off by 100% at NT = 1), at +-inf and past
        # the square root of the float range, all inside and all outside the
        # grid, at NT = 1, and scaled with the grid by 2^100, where tenth
        # powers of |e| would pass the float range.  huber: a count is exact,
        # and one cell counted on the wrong side moves tau_hat by far more
        # than rounding, so the numerator must agree exactly and tau_hat to
        # the rounding of the cumulative sum.  tukey: the same defined mask
        # and argmax, and tau_hat to rounding (the largest gap on these
        # inputs is 1.1e-14 relative).
        from robustpanel.tuning import _tau_grid

        grid, kinks = {
            "huber": ([1.5, 0.25, 3.0, 0.5, 0.05, 1.0, 0.75], [0.5, -0.5, 1.0, -3.0, 0.05]),
            "tukey": ([3.0, 1.0, 9.8, 2.2, 1.4, 6.0, 4.6], [3.0, -2.2, 1.0, -9.8, 4.6]),
        }[family]
        grid = np.array(grid)
        rng = np.random.default_rng(8)
        e = 1.5 * rng.standard_normal((6, 11))
        e[0, :5] = kinks  # on kinks
        e[5, :2] = [-0.999999 * grid[0], 0.99 * grid[2]]  # just inside c, where (1 - v)^4 nears 0
        e[1, :4] = [np.inf, -np.inf, -0.25, 1e200]  # 1e200 squares past the float range
        e[2] = 0.01 * rng.standard_normal(11)  # inside at every c
        e[3] = np.copysign(50.0 + rng.random(11), rng.standard_normal(11))  # outside at every c
        e[4, :] = 0.0  # tau_hat undefined: no spread at all
        for scale, stack in ((1.0, e), (1.0, e[:, :1]), (2.0**100, 2.0**100 * e)):
            nt, g = stack.shape[1], scale * grid
            with np.errstate(all="raise"):
                tau, defined = _tau_grid(stack, family, g)
            c = g[:, None]
            for i, row in enumerate(stack):
                if family == "tukey":
                    specs = [LossSpec("tukey", cj) for cj in g]
                    num = np.float_power([np.sum(psi_prime(spec, row)) for spec in specs], 2)
                    den = nt * np.array([np.sum(psi(spec, row) ** 2) for spec in specs])
                    assert np.array_equal(defined[i], den != 0.0)
                    ref = np.divide(num, den, out=np.zeros(g.size), where=den != 0.0)
                    assert_allclose(tau[i], ref, rtol=1e-13, atol=0.0)
                    best = np.argmax(np.where(defined[i], tau[i], -np.inf))
                    assert best == np.argmax(np.where(den != 0.0, ref, -np.inf))
                    continue
                num = np.float_power(np.sum((np.abs(row) <= c).astype(float), axis=1), 2)
                den = nt * np.sum(np.clip(row, -c, c) ** 2, axis=1)
                assert np.array_equal(defined[i], den != 0.0)
                assert np.array_equal(tau[i] == 0.0, (num == 0.0) | (den == 0.0))
                ref = np.divide(num, den, out=np.zeros(g.size), where=den != 0.0)
                assert_allclose(tau[i], ref, rtol=1e-14, atol=0.0)
                on = den != 0.0
                assert np.array_equal(np.round(tau[i, on] * den[on]), num[on])  # exact counts
        assert not defined[4].any() and (tau[3] == 0.0).all()
        assert defined[3].all() if family == "huber" else not defined[3].any()

    def test_esl_curves_are_xi_and_esl_cov_pointwise(self):
        rng = np.random.default_rng(42)
        n, t, k = 30, 4, 2
        x = rng.standard_normal((n, t, k))
        beta = np.array([2.4, -1.2])
        y = x @ beta + rng.uniform(0, 12, (n, 1)) + rng.standard_normal((n, t))
        y.ravel()[rng.choice(n * t, 12, replace=False)] = rng.uniform(20, 80, 12)
        cp = centered_from(y, x)
        beta0 = beta + 0.05
        resid = cp.y - cp.x @ beta0
        grid = np.geomspace(0.01, 1000.0, 40)
        state = esl_select_c(cp, beta0, grid)
        good = resid[~pseudo_outlier_set(resid, state.sigma_mad)]
        feasible = (state.xi_values > 0) & (state.xi_values <= 1)
        assert 0 < feasible.sum() < grid.size
        for j, c in enumerate(grid):
            assert state.xi_values[j] == xi(c, good, state.m, resid.size)
            v, defined = esl_cov(cp, beta0, c)
            if feasible[j] and defined:
                sign, logdet = np.linalg.slogdet(v)
                assert sign > 0
                assert_allclose(state.detv_values[j], logdet, rtol=1e-10)
            else:
                assert np.isnan(state.detv_values[j])

    def test_undefined_covariance_and_infeasible_points(self):
        a = 0.7
        x = np.random.default_rng(4).standard_normal((6, 2, 2))
        cp = centered_from(np.tile([a, -a], (6, 1)) + 3.0, x)
        # |e| = a everywhere: xi(c) = 2(1 - exp(-a^2/c)) > 1 at c = 0.2 a^2,
        # and psi'(a) = 0 at c = 2 a^2, so the information vanishes there
        grid = a * a * np.array([0.2, 2.0, 3.0, 5.0])
        state = esl_select_c(cp, np.zeros(2), grid)
        assert state.m == 0
        assert state.xi_values[0] > 1 and np.isnan(state.detv_values[0])
        assert 0 < state.xi_values[1] <= 1 and np.isnan(state.detv_values[1])
        assert not esl_cov(cp, np.zeros(2), grid[1])[1]
        for j in (2, 3):
            v, defined = esl_cov(cp, np.zeros(2), grid[j])
            assert defined
            assert_allclose(state.detv_values[j], np.linalg.slogdet(v)[1], rtol=1e-10)
        assert state.c_selected == grid[np.nanargmin(state.detv_values)]

    def test_row_blocks_match_one_point_calls(self):
        # Enough cells that esl's grid is walked in at least three row
        # blocks.  xi reduces each row on its own, and tau_hat reads each
        # grid point off one sort whatever the grid, so both are bit-equal
        # to the one-point calls; log det V_hat goes through a BLAS matmul
        # whose last bits depend on the number of rows in it.
        cp = within_transform(synth_panel(n=2000, t=4, k=2, seed=3))
        nt = cp.y.size
        grid = default_esl_grid(1.0)
        assert len(_blocks(1, grid.size, nt)) >= 3
        beta0 = np.array([2.45, -1.15])
        resid = cp.y - cp.x @ beta0
        for family, fgrid in (("huber", HUBER_GRID), ("tukey", TUKEY_GRID)):
            curve = select_c_grid(cp, family, beta0, 1.0, fgrid)
            for j, c in enumerate(fgrid):
                assert (curve.tau_hat[j], curve.defined[j]) == efficiency_factor(
                    resid, LossSpec(family, c))
        state = esl_select_c(cp, beta0, grid)
        good = resid[~pseudo_outlier_set(resid, state.sigma_mad)]
        assert np.isfinite(state.detv_values).sum() > 10
        for j, c in enumerate(grid):
            assert state.xi_values[j] == xi(c, good, state.m, nt)
            if np.isfinite(state.detv_values[j]):
                v, defined = esl_cov(cp, beta0, c)
                assert defined
                assert_allclose(state.detv_values[j], np.linalg.slogdet(v)[1], rtol=1e-10)

    def test_stacked_esl_search_matches_lone_panels(self):
        # A stack of three members, each compared with its lone panel: one
        # whose residuals at beta0 = 0 are its exactly centered y, 16 of 24
        # of them 0, so its MAD is 0 and it flags nothing; and two whose
        # pseudo-outlier counts m differ.
        from robustpanel.scale import mad_scale
        from robustpanel.tuning import _esl_search

        rng = np.random.default_rng(17)
        exact = np.zeros((12, 2))
        exact[:4] = np.array([[0.75, -0.75], [0.5, -0.5], [1.25, -1.25], [2.0, -2.0]])
        ys = [exact]
        for m in (1, 4):
            y = rng.standard_normal((12, 2))
            y.ravel()[rng.choice(24, m, replace=False)] += 40.0
            ys.append(y)
        panels = [within_transform(PanelData(y, rng.standard_normal((12, 2, 2)))) for y in ys]
        assert np.array_equal(panels[0].y, exact.ravel())
        grids = np.stack([np.geomspace(0.01, 100.0, 50)] + [
            default_esl_grid(mad_scale(cp.y).value) for cp in panels[1:]])
        beta0 = np.zeros(2)
        c, sigma_mad, xi_vals, detv, m = _esl_search(
            np.stack([cp.x for cp in panels]), np.stack([cp.y for cp in panels]),
            np.zeros((3, 2)), grids)
        assert sigma_mad[0] == 0.0 and m[0] == 0
        assert m[1] > 0 and m[2] > 0 and m[1] != m[2]
        for i, cp in enumerate(panels):
            alone = esl_select_c(cp, beta0, grids[i])
            assert (alone.c_selected, alone.sigma_mad, alone.m) == (c[i], sigma_mad[i], m[i])
            assert np.array_equal(alone.xi_values, xi_vals[i])
            assert np.array_equal(alone.detv_values, detv[i], equal_nan=True)
            good = cp.y[~pseudo_outlier_set(cp.y, sigma_mad[i])] if m[i] else cp.y
            for j, c_j in enumerate(grids[i]):
                assert xi_vals[i, j] == xi(c_j, good, int(m[i]), cp.y.size)

    def test_esl_select_c_peak_memory_per_cell(self):
        cp = within_transform(synth_panel(n=5000, t=4, k=2, seed=8))
        beta0 = np.array([2.4, -1.2])
        tracemalloc.start()
        try:
            esl_select_c(cp, beta0, default_esl_grid(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * cp.y.size


def test_default_esl_grid_scales_with_sigma():
    g1 = default_esl_grid(1.0)
    g2 = default_esl_grid(3.0)
    assert len(g1) == 50
    assert g1[0] == pytest.approx(0.1) and g1[-1] == pytest.approx(100.0)
    assert_allclose(g2, 9.0 * g1, rtol=1e-12)


@pytest.mark.parametrize("s, g, nt", [(40, 50, 6), (4, 50, 150), (40, 50, 240), (1, 50, 25000)])
def test_blocks_hold_one_member_in_the_same_row_runs(s, g, nt):
    # every block holds one member, whose rows run as they do in a stack of one
    runs = [rows for _, rows in _blocks(1, g, nt)]
    assert _blocks(s, g, nt) == [(i, rows) for i in range(s) for rows in runs]
    assert [r.start for r in runs] == [0] + [r.stop for r in runs[:-1]] and runs[-1].stop == g
    assert all((r.stop - r.start) * nt <= GRID_BLOCK_CELLS or r.stop - r.start == 1 for r in runs)


def test_stacked_esl_grids_match_lone_grids_bit_for_bit():
    # Each member's grid is the one a lone member gets, and the one the
    # scalar formula gives, which squares a Python float through pow().
    # About one MAD in a thousand squares to another last bit as a product
    # (an array's ** 2); those make up the first stack.
    rng = np.random.default_rng(5)
    mads = 10.0 ** rng.uniform(-17.0, 17.0, 100_000)
    hard = np.array([v for v in mads.tolist() if v ** 2 != v * v][:40])
    assert len(hard) == 40
    for sigma in [hard] + [10.0 ** rng.uniform(-17.0, 17.0, 40) for _ in range(20)]:
        grids = _esl_grids(sigma)
        assert grids.shape == (40, 50)
        for grid, v in zip(grids, sigma.tolist()):
            assert grid.tobytes() == default_esl_grid(v).tobytes()
            assert grid.tobytes() == np.geomspace(0.1 * v**2, 100.0 * v**2, 50).tobytes()
    with pytest.raises(ZeroScale, match="MAD scale 1e-170 "):
        _esl_grids(np.array([1.0, 1e-170, 1e-200]))
    # the mirror at the top: the fit path's grid, unlike default_esl_grid,
    # reports a scale whose 100 sigma^2 leaves the float range as no valid c
    with pytest.raises(NoValidTuning, match="MAD scale 2e[+]153 .* too large to square"):
        _esl_grids(np.array([1.0, 2e153, 1e200]))
    assert np.isfinite(_esl_grids(np.array([1e153]))).all()


@pytest.mark.parametrize("sigma_mad", [0.0, -1.0, np.nan, np.inf, 1e155, 1e200])
def test_default_esl_grid_rejects_a_scale_out_of_range(sigma_mad):
    # the largest candidate 100 sigma_mad^2 must stay in the float range
    with pytest.raises(ValueError, match="sigma_mad"):
        default_esl_grid(sigma_mad)
    assert np.isfinite(default_esl_grid(1e153)).all()


def test_default_esl_grid_rejects_a_scale_that_squares_to_zero():
    # sigma_mad > 0, but sigma_mad^2 = 1e-340 underflows
    with pytest.raises(ZeroScale):
        default_esl_grid(1e-170)
