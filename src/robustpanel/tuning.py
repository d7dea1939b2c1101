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
(grid points x cells); ``efficiency_factor``, ``xi`` and ``esl_cov`` are
one-point calls into the same kernels.  Both searches break ties toward
the smallest grid point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoValidTuning
from .losses import ESL, LossSpec, _psi, _psi_prime, _rho
from .panel import _as_centered
from .scale import MAD_CONSISTENCY

HUBER_GRID = 0.05 * np.arange(1, 61)
TUKEY_GRID = 1.0 + 0.2 * np.arange(46)


def default_esl_grid(sigma_mad):
    """50 log-spaced candidates spanning [0.1, 100] times sigma_mad^2.

    The constant enters the exponential-squared loss as exp(-e^2 / c), so
    candidates must live on the squared scale of the residuals.
    """
    if not sigma_mad > 0:
        raise ValueError("sigma_mad must be positive")
    s2 = float(sigma_mad) ** 2
    return np.geomspace(0.1 * s2, 100.0 * s2, 50)


def _tau_grid(e, family, grid):
    """tau_hat(c) and whether it is defined, at every c in `grid` at once.

    One (G, NT) pass: psi and psi' take the grid as a column, and each
    row is reduced to its two moments.  When every observation lands
    where psi vanishes (total rejection by a redescender) both moments
    are 0 and the factor is reported as 0, undefined, rather than 0/0.
    """
    c = grid[:, None]
    # float_power squares through pow(), as a scalar ** 2 does, where
    # ** 2 on an array multiplies; the two can differ in the last bit
    num = np.float_power(np.sum(_psi_prime(family, c, e), axis=1), 2)
    den = e.size * np.sum(_psi(family, c, e) ** 2, axis=1)
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
    beta_current = np.asarray(beta_current, dtype=float)
    e = ((cp.y - cp.x @ beta_current) / sigma).ravel()

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
    """Cells whose absolute residual reaches 2.5 * sigma_mad.

    `residuals` is the (N, T) residual matrix; returns the boolean (N, T)
    mask of flagged cells.
    """
    if not sigma_mad > 0:
        raise ValueError("sigma_mad must be positive")
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 2:
        raise ValueError("residuals must be an (N, T) matrix")
    return np.abs(r) >= 2.5 * sigma_mad


def _xi_grid(residuals_good, m, nt, grid):
    """xi(c) at every c in `grid`, in one (G, #retained) pass."""
    e = np.asarray(residuals_good, dtype=float).ravel()
    if nt <= 0:
        raise ValueError("nt must be positive")
    if m < 0 or m + e.size > nt:
        raise ValueError("m and retained residuals inconsistent with nt")
    return 2.0 * m / nt + (2.0 / nt) * np.sum(_rho(ESL, grid[:, None], e), axis=1)


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
    inverse or determinant of I, and every S(c) comes from one
    (G, NT) @ (NT, K^2) matmul.  I is negative definite near e = 0; only
    its square enters V_hat.

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
    c = grid[:, None]
    cross = xdd.T @ xdd / nt
    kappa = np.mean(_psi_prime(ESL, c, e), axis=1)
    p = _psi(ESL, c, e)
    mean_scores = p @ xdd / nt
    outer = (xdd[:, :, None] * xdd[:, None, :]).reshape(nt, k * k)
    np.square(p, out=p)
    s = (p @ outer / nt).reshape(-1, k, k)
    s -= mean_scores[:, :, None] * mean_scores[:, None, :]

    _, log_det_m = np.linalg.slogdet(cross)
    trace_scale = np.trace(cross) / k
    sign_s, log_det_s = np.linalg.slogdet(s)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 where kappa or M vanish
        log_abs_kappa = np.log(np.abs(kappa))
        defined = (trace_scale > 0.0) & (
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
    k = cp.x.shape[2]
    e = (cp.y - cp.x @ beta0).ravel()
    kappa, cross, s, _, defined = _esl_sandwich(cp.x.reshape(e.size, k), e,
                                                np.array([float(c)]))
    if not defined[0]:
        return np.full((k, k), np.nan), False
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
    flat = resid.ravel()
    nt = flat.size

    med = np.median(flat)
    sigma_mad = MAD_CONSISTENCY * float(np.median(np.abs(flat - med)))
    if sigma_mad > 0:
        flagged = pseudo_outlier_set(resid, sigma_mad)
    else:
        flagged = np.zeros(resid.shape, dtype=bool)
    m = int(flagged.sum())
    good = resid[~flagged]

    grid = np.asarray(grid, dtype=float)
    xi_vals = _xi_grid(good, m, nt, grid)
    _, _, _, log_det_v, defined = _esl_sandwich(cp.x.reshape(nt, -1), flat, grid)
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
