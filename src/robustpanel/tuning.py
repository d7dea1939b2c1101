"""Data-driven selection of the tuning constant.

Two routes, matching how the estimators use them:

* ``select_c_grid`` picks the Huber or Tukey constant by maximizing an
  empirical efficiency factor over a fixed grid,

      tau_hat(c) = (sum psi'(e_it))^2 / (NT * sum psi(e_it)^2),

  evaluated at standardized within-group residuals.  The factor is
  invariant to rescaling psi by a constant, so either member of a
  proportional psi family gives the same curve.

* ``esl_select_c`` picks the exponential-squared constant by minimizing
  det(V_hat(c)) over the feasible set G = {c : xi(c) in (0, 1]}, where
  xi measures the share of the worst-case loss mass assigned to flagged
  pseudo-outliers and V_hat is a sandwich covariance evaluated at an
  initial high-breakdown fit.

Each search evaluates its whole grid in one array pass over
(grid points x cells), walked in row blocks of at most GRID_BLOCK_CELLS
cells so that its temporaries stay bounded on a large panel;
``efficiency_factor``, ``xi`` and ``esl_cov`` are one-point calls into the
same kernels.  Both searches break ties toward the smallest grid point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoValidTuning, ZeroScale
from .losses import ESL, LossSpec, _psi, _psi_prime, _rho
from .panel import _as_centered
from .scale import _mad

HUBER_GRID = 0.05 * np.arange(1, 61)
TUKEY_GRID = 1.0 + 0.2 * np.arange(46)
GRID_BLOCK_CELLS = 2**17  # cells per row block of a grid kernel; one block on a study panel


def default_esl_grid(sigma_mad):
    """50 log-spaced candidates spanning [0.1, 100] times sigma_mad^2.

    The constant enters the exponential-squared loss as exp(-e^2 / c), so
    candidates must live on the squared scale of the residuals.  Raises
    ZeroScale when the smallest candidate underflows to zero.
    """
    if not sigma_mad > 0:
        raise ValueError("sigma_mad must be positive")
    s2 = float(sigma_mad) ** 2
    if not 0.1 * s2 > 0.0:
        raise ZeroScale(
            "MAD scale %g of the residuals is too small to square; rescale y" % sigma_mad
        )
    return np.geomspace(0.1 * s2, 100.0 * s2, 50)


def _row_blocks(g, nt):
    """Slices of consecutive rows of a (g, nt) grid array, each of at most
    GRID_BLOCK_CELLS cells but never less than one row."""
    rows = max(1, GRID_BLOCK_CELLS // max(nt, 1))
    return [slice(i, min(i + rows, g)) for i in range(0, g, rows)]


def _tau_grid(e, family, grid):
    """tau_hat(c) and whether it is defined, at every c in `grid` at once.

    One pass over (G, NT) in row blocks (see _row_blocks): psi and psi'
    take the block's grid points as a column, and each row is reduced to
    its two moments.  A row's sums do not depend on the block it lands in.
    When every observation lands where psi vanishes (total rejection by a
    redescender) both moments are 0 and the factor is reported as 0,
    undefined, rather than 0/0.
    """
    num = np.empty(grid.size)
    den = np.empty(grid.size)
    for rows in _row_blocks(grid.size, e.size):
        c = grid[rows, None]
        # float_power squares through pow(), as a scalar ** 2 does, where
        # ** 2 on an array multiplies; the two can differ in the last bit
        num[rows] = np.float_power(np.sum(_psi_prime(family, c, e), axis=1), 2)
        den[rows] = e.size * np.sum(_psi(family, c, e) ** 2, axis=1)
    defined = den != 0.0
    tau = np.divide(num, den, out=np.zeros(grid.size), where=defined)
    return tau, defined


def efficiency_factor(std_residuals, loss):
    """Empirical efficiency factor tau_hat for one loss at given residuals.

    Returns ``(value, defined)``; (0.0, False) under total rejection.
    """
    e = np.asarray(std_residuals, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("no residuals supplied")
    tau, defined = _tau_grid(e, loss.family, np.array([loss.c]))
    return float(tau[0]), bool(defined[0])


@dataclass(frozen=True)
class EfficiencyCurve:
    """Grid search record for the Huber/Tukey tuning constant."""

    grid: np.ndarray
    tau_hat: np.ndarray
    defined: np.ndarray
    c_star: float
    tau_star: float


def select_c_grid(panel, family, beta_current, sigma, grid):
    """Maximize tau_hat(c) over `grid` at the current fit.

    `panel` may be raw or already within-centered; residuals are
    (y_dd - x_dd beta_current) / sigma.  Raises NoValidTuning when the
    factor is undefined at every grid point.
    """
    if family not in ("huber", "tukey"):
        raise ValueError("grid tuning applies to huber or tukey, got %r" % (family,))
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    cp = _as_centered(panel)
    with np.errstate(over="ignore"):  # +-inf residuals take psi's limits, as in irls_fit
        e = (cp.y - cp.x @ np.asarray(beta_current, dtype=float)) / sigma

    grid = np.asarray(grid, dtype=float)
    tau, defined = _tau_grid(e, family, grid)
    if not defined.any():
        raise NoValidTuning(
            "efficiency factor undefined at every candidate c in "
            "[%g, %g]; all residuals fall in the rejection region"
            % (grid.min(), grid.max())
        )
    masked = np.where(defined, tau, -np.inf)
    best = int(np.argmax(masked))  # argmax returns the first, i.e. smallest c
    return EfficiencyCurve(grid, tau, defined, float(grid[best]), float(tau[best]))


def pseudo_outlier_set(residuals, sigma_mad):
    """Cells whose absolute residual reaches 2.5 * sigma_mad: a boolean
    mask of the shape of `residuals`."""
    if not sigma_mad > 0:
        raise ValueError("sigma_mad must be positive")
    return np.abs(np.asarray(residuals, dtype=float)) >= 2.5 * sigma_mad


def _xi_grid(residuals_good, m, nt, grid):
    """xi(c) at every c in `grid`, in one (G, #retained) pass in row blocks."""
    e = np.asarray(residuals_good, dtype=float).ravel()
    if nt <= 0:
        raise ValueError("nt must be positive")
    if m < 0 or m + e.size > nt:
        raise ValueError("m and retained residuals inconsistent with nt")
    loss = np.empty(grid.size)
    for rows in _row_blocks(grid.size, e.size):
        loss[rows] = np.sum(_rho(ESL, grid[rows, None], e), axis=1)
    return 2.0 * m / nt + (2.0 / nt) * loss


def xi(c, residuals_good, m, nt):
    """Feasibility functional: worst-case mass of the m flagged cells plus
    twice the mean exponential-squared loss over the retained residuals.

    xi(c) = 2 m / NT + (2 / NT) * sum_retained rho_c(e).  Since rho <= 1,
    xi <= 2(m + #retained)/NT <= 2; the feasible region asks xi in (0, 1].
    """
    c = LossSpec(ESL, c).c
    return float(_xi_grid(residuals_good, m, nt, np.array([c]))[0])


def _esl_sandwich(xdd, e, grid):
    """The terms of V_hat(c) = I^{-1} Sigma_tilde I^{-1} at every c in
    `grid`, from the (NT, K) centered regressors and the residuals e at
    beta0.  With psi, psi' the exponential-squared kernels at c and
    M = mean[x_dd x_dd'] fixed:

        I(c)           = -(2/c) kappa(c) M,   kappa(c) = mean[psi'(e)]
        Sigma_tilde(c) = (2/c)^2 S(c),
        S(c)           = mean[psi^2 x_dd x_dd'] - mean[psi x_dd] mean[psi x_dd]'

    so V_hat(c) = M^{-1} S(c) M^{-1} / kappa(c)^2 and
    log det V_hat = log det S - 2 (K log|kappa| + log det M): no per-c
    inverse or determinant of I, and the S(c) of a row block of the grid
    (see _row_blocks) come from one (rows, NT) @ (NT, K^2) matmul.  I is
    negative definite near e = 0; only its square enters V_hat.

    I(c) counts as numerically singular when |det I| falls below
    1e-12 ((2/c) trace(M) / K)^K, the trace scale of the information with
    kappa replaced by its unit bound (|psi'| <= 1); the factor 2/c cancels
    from both sides.  Using kappa itself as the yardstick would cancel out
    of the ratio, and a root of kappa, which the search must skip, would
    go undetected.  Both sides are compared as logarithms, so neither
    overflows or underflows as K grows or the regressors change units.

    Returns ``(kappa, M, S, log_det_v, defined)`` with S of shape
    (G, K, K); log_det_v is log det V_hat(c), -inf where det S(c) <= 0.
    """
    nt, k = xdd.shape
    cross = xdd.T @ xdd / nt
    outer = (xdd[:, :, None] * xdd[:, None, :]).reshape(nt, k * k)
    kappa = np.empty(grid.size)
    mean_scores = np.empty((grid.size, k))
    s = np.empty((grid.size, k * k))
    # psi^2 x x' can pass the float range where x x' does not; such an S(c)
    # leaves the float range and its c counts as undefined
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(grid.size, nt):
            c = grid[rows, None]
            kappa[rows] = np.mean(_psi_prime(ESL, c, e), axis=1)
            p = _psi(ESL, c, e)
            mean_scores[rows] = p @ xdd / nt
            np.square(p, out=p)
            s[rows] = p @ outer / nt
        s = s.reshape(-1, k, k)
        s -= mean_scores[:, :, None] * mean_scores[:, None, :]
    in_range = np.isfinite(s).all(axis=(1, 2))
    s[~in_range] = 0.0  # keeps slogdet quiet; those c are undefined anyway

    _, log_det_m = np.linalg.slogdet(cross)
    trace_scale = np.trace(cross) / k
    sign_s, log_det_s = np.linalg.slogdet(s)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 where kappa or M vanish
        log_abs_kappa = np.log(np.abs(kappa))
        defined = in_range & (trace_scale > 0.0) & (
            k * log_abs_kappa + log_det_m >= np.log(1e-12) + k * np.log(trace_scale))
        log_det_v = np.where(sign_s > 0, log_det_s - 2.0 * (log_det_m + k * log_abs_kappa),
                             -np.inf)
    return kappa, cross, s, log_det_v, defined


def esl_cov(panel, beta0, c):
    """Sandwich covariance V_hat(c) = I^{-1} Sigma_tilde I^{-1} at beta0
    (see _esl_sandwich for its terms and the singularity test).

    Returns ``(matrix, defined)``; `defined` is False, with a nan matrix,
    when the information factor is numerically singular.
    """
    cp = _as_centered(panel)
    beta0 = np.asarray(beta0, dtype=float)
    kappa, cross, s, _, defined = _esl_sandwich(cp.x, cp.y - cp.x @ beta0,
                                                np.array([float(c)]))
    if not defined[0]:
        return np.full(cross.shape, np.nan), False
    inv = np.linalg.inv(cross)
    return inv @ s[0] @ inv / kappa[0] ** 2, True


@dataclass(frozen=True)
class EslTuningState:
    """Everything the exponential-squared selection step decided."""

    sigma_mad: float
    m: int
    grid: np.ndarray
    xi_values: np.ndarray
    detv_values: np.ndarray  # log det V_hat(c); nan off the feasible set
    c_selected: float


def esl_select_c(panel, beta0, grid):
    """Pick the exponential-squared constant: smallest det(V_hat) over the
    feasible set G = {c in grid : xi(c) in (0, 1], V_hat defined}.
    Determinants are ranked by their logarithms, which neither overflow
    nor underflow; a non-positive det(V_hat) ranks as log 0 = -inf.

    Residuals are taken raw (unstandardized) at beta0; the selected c
    absorbs their scale.  When the residuals have zero median absolute
    deviation no cell is flagged (there is no spread to flag against).
    Raises NoValidTuning when G is empty, reporting the xi range seen.
    """
    cp = _as_centered(panel)
    beta0 = np.asarray(beta0, dtype=float)
    resid = cp.y - cp.x @ beta0
    nt = resid.size

    sigma_mad = float(_mad(resid.copy()))
    flagged = pseudo_outlier_set(resid, sigma_mad) if sigma_mad > 0 else np.zeros(nt, bool)
    m = int(flagged.sum())
    good = resid[~flagged]

    grid = np.asarray(grid, dtype=float)
    xi_vals = _xi_grid(good, m, nt, grid)
    _, _, _, log_det_v, defined = _esl_sandwich(cp.x, resid, grid)
    feasible = (xi_vals > 0.0) & (xi_vals <= 1.0) & defined
    detv = np.where(feasible, log_det_v, np.nan)
    if not feasible.any():
        raise NoValidTuning(
            "no candidate c gives xi in (0, 1] with a well defined "
            "covariance; xi ranged over [%g, %g] across the grid"
            % (xi_vals.min(), xi_vals.max())
        )
    masked = np.where(feasible, detv, np.inf)
    best = int(np.argmin(masked))  # first minimum, i.e. smallest c on ties
    return EslTuningState(
        sigma_mad=sigma_mad,
        m=m,
        grid=grid,
        xi_values=xi_vals,
        detv_values=detv,
        c_selected=float(grid[best]),
    )
