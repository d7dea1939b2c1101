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

Both searches break ties toward the smallest grid point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoValidTuning
from .losses import LossSpec, psi, psi_prime, rho
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


def efficiency_factor(std_residuals, loss):
    """Empirical efficiency factor tau_hat for one loss at given residuals.

    Returns ``(value, defined)``.  When every observation lands where
    psi vanishes (total rejection by a redescender) both moments are 0
    and the factor is reported as (0.0, False) rather than 0/0.
    """
    e = np.asarray(std_residuals, dtype=float).ravel()
    n = e.size
    if n == 0:
        raise ValueError("no residuals supplied")
    num = np.sum(psi_prime(loss, e)) ** 2
    den = n * np.sum(psi(loss, e) ** 2)
    if den == 0.0:
        return 0.0, False
    return float(num / den), True


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
    tau = np.zeros(grid.size)
    defined = np.zeros(grid.size, dtype=bool)
    for j, c in enumerate(grid):
        tau[j], defined[j] = efficiency_factor(e, LossSpec(family, float(c)))
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


def xi(c, residuals_good, m, nt):
    """Feasibility functional: worst-case mass of the m flagged cells plus
    twice the mean exponential-squared loss over the retained residuals.

    xi(c) = 2 m / NT + (2 / NT) * sum_retained rho_c(e).  Since rho <= 1,
    xi <= 2(m + #retained)/NT <= 2; the feasible region asks xi in (0, 1].
    """
    e = np.asarray(residuals_good, dtype=float).ravel()
    if nt <= 0:
        raise ValueError("nt must be positive")
    if m < 0 or m + e.size > nt:
        raise ValueError("m and retained residuals inconsistent with nt")
    base = 2.0 * m / nt
    if e.size == 0:
        return float(base)
    return float(base + (2.0 / nt) * np.sum(rho(LossSpec("esl", float(c)), e)))


def _esl_information(cp, e, c):
    """Second-derivative factor of the sandwich, in the literal form

        (2/c) * mean[ exp(-e^2/c) (2 e^2 / c - 1) ] * mean[ x_dd x_dd' ].

    Near e = 0 the bracket is negative, so this matrix is negative
    definite there; only its inverse enters V_hat, where the signs cancel.
    """
    nt = e.size
    xdd = cp.x.reshape(nt, -1)
    u = e * e / c
    kappa = float(np.mean(np.exp(-u) * (2.0 * u - 1.0)))
    return (2.0 / c) * kappa * (xdd.T @ xdd) / nt


def esl_cov(panel, beta0, c):
    """Sandwich covariance V_hat(c) = I^{-1} Sigma_tilde I^{-1} at beta0.

    Returns ``(matrix, defined)``.  `defined` is False when the
    information factor is numerically singular: |det I| is compared,
    with a 1e-12 margin, against the trace scale (trace/K)^K of the
    information evaluated with the scalar mean replaced by its natural
    unit bound (|exp(-u)(2u-1)| <= 1 for u >= 0).  Using the signed mean
    itself as the yardstick would cancel out of the ratio and a root of
    the scalar factor, which the search must skip, would go undetected.
    Both sides are compared as logarithms, so neither overflows or
    underflows as K grows or the regressors change units.
    """
    cp = _as_centered(panel)
    beta0 = np.asarray(beta0, dtype=float)
    k = cp.x.shape[2]
    nt = cp.y.size
    e = (cp.y - cp.x @ beta0).ravel()

    info = _esl_information(cp, e, c)
    xdd = cp.x.reshape(nt, k)
    base = (2.0 / c) * np.trace(xdd.T @ xdd) / nt / k
    _, logdet = np.linalg.slogdet(info)
    if base == 0.0 or logdet < np.log(1e-12) + k * np.log(base):
        return np.full((k, k), np.nan), False

    scores = (np.exp(-e * e / c) * (2.0 * e / c))[:, None] * xdd
    centered = scores - scores.mean(axis=0)
    sigma_tilde = centered.T @ centered / nt
    inv = np.linalg.inv(info)
    return inv @ sigma_tilde @ inv, True


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
    xi_vals = np.array([xi(float(c), good, m, nt) for c in grid])
    detv = np.full(grid.size, np.nan)
    feasible = (xi_vals > 0.0) & (xi_vals <= 1.0)
    for j in np.nonzero(feasible)[0]:
        v, defined = esl_cov(cp, beta0, float(grid[j]))
        if defined:
            sign, logdet = np.linalg.slogdet(v)
            detv[j] = logdet if sign > 0 else -np.inf
        else:
            feasible[j] = False
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
