"""Balanced-panel data model, within-group transform, and within-group LS.

The fixed-effects model is y_it = x_it' beta + alpha_i + eps_it. Subtracting
per-unit time means ("within transform") annihilates alpha_i, after which
beta is estimated by pooled regression of the centered y on the centered x.

Every symmetric K x K system the fits solve goes through one kernel,
_solve: within LS's normal equations X'X b = X'y here, in the
estimators the weighted normal equations of IRLS and the start's polish
and huber's Newton system, and every covariance, whose inverse is the
solve of the identity (_covariance here, for within LS's standard errors
and the sandwich covariance, and tuning.esl_cov).  Each counts as
singular by one rule, _nonsingular: log|det a| - sum_j log s_j <= log
1e-12, with s_j the size of column j, which tuning also applies to esl's
information matrix and the estimators to the start's elemental subsets.
The rule is compared in log space and measures each system against its
own column sizes, so it does not depend on the units of any regressor.
Every estimator applies it to the centered design's X'X through one
check, _gram, and raises SingularDesign where it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePanel, SingularDesign

ESTIMATOR_NAMES = ("ls", "huber", "tukey", "esl")
LOG_SINGULAR = np.log(1e-12)  # log |det| / prod(column sizes) at which a system is singular


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    width = len(str(count - 1))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


@dataclass(frozen=True)
class PanelData:
    """A balanced panel: y indexed (unit, period), x indexed
    (unit, period, regressor), with distinct unit and period labels.

    Values are validated finite and frozen after construction; N >= 2 and
    T >= 2 are required (the within transform degenerates at T = 1).
    """

    y: np.ndarray
    x: np.ndarray
    unit_labels: tuple[str, ...] = None
    period_labels: tuple[str, ...] = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 2:
            raise DegeneratePanel(f"y must be 2-dimensional (unit, period), got shape {y.shape}")
        if x.ndim != 3:
            raise DegeneratePanel(
                f"x must be 3-dimensional (unit, period, regressor), got shape {x.shape}"
            )
        n, t = y.shape
        if x.shape[:2] != (n, t):
            raise DegeneratePanel(
                f"x shape {x.shape[:2]} does not match y shape {(n, t)}"
            )
        if n < 2:
            raise DegeneratePanel(f"need at least 2 units, got {n}")
        if t < 2:
            raise DegeneratePanel(f"need at least 2 periods, got {t}")
        if x.shape[2] < 1:
            raise DegeneratePanel("need at least 1 regressor")
        if not np.all(np.isfinite(y)):
            i, s = np.argwhere(~np.isfinite(y))[0]
            raise DegeneratePanel(f"non-finite y at unit {i}, period {s}")
        if not np.all(np.isfinite(x)):
            i, s, k = np.argwhere(~np.isfinite(x))[0]
            raise DegeneratePanel(f"non-finite x{k + 1} at unit {i}, period {s}")
        units = tuple(self.unit_labels) if self.unit_labels is not None else _default_labels("u", n)
        periods = (
            tuple(self.period_labels) if self.period_labels is not None else _default_labels("t", t)
        )
        if len(units) != n or len(set(units)) != n:
            raise DegeneratePanel("unit labels must be distinct and match the number of units")
        if len(periods) != t or len(set(periods)) != t:
            raise DegeneratePanel("period labels must be distinct and match the number of periods")
        object.__setattr__(self, "y", _frozen_array(y))
        object.__setattr__(self, "x", _frozen_array(x))
        object.__setattr__(self, "unit_labels", units)
        object.__setattr__(self, "period_labels", periods)

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class CenteredPanel:
    """Within-transformed panel, stacked as the regression design.

    ``y`` is the (NT,) centered response and ``x`` the (NT, K) centered
    design, unit-major: cell i * T + s is unit i in period s.  ``shape`` is
    the panel's (N, T), which only the degrees of freedom of within LS and
    the (N, T) weights of a fit need.  Its arrays are the read-only row of
    a _centered stack of one, held without a copy (see within_transform).
    Only the functions that fit one panel take one; a study hands its
    centered chunk to the stacked fit kernels as the arrays themselves and
    builds none.
    """

    y: np.ndarray
    x: np.ndarray
    shape: tuple


@dataclass(frozen=True)
class FitResult:
    """Output of any fitting routine.

    ``weights`` and ``c_selected`` are None for plain LS; ``std_errors`` is
    None until a covariance has been computed.
    """

    estimator: str
    beta: np.ndarray
    sigma_hat: float
    iterations: int
    converged: bool
    std_errors: np.ndarray | None = None
    c_selected: float | None = None
    weights: np.ndarray | None = None  # (N, T)

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator name {self.estimator!r}")
        beta = _frozen_array(self.beta)
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        if not 0.0 <= self.sigma_hat < np.inf:
            raise ValueError("sigma_hat must be nonnegative and finite")
        object.__setattr__(self, "beta", beta)
        if self.std_errors is not None:
            object.__setattr__(self, "std_errors", _frozen_array(self.std_errors))
        if self.weights is not None:
            w = _frozen_array(self.weights)
            if w.min() < 0.0 or w.max() > 1.0 + 1e-12:
                raise ValueError("weights must lie in [0, 1]")
            object.__setattr__(self, "weights", w)


class _Fits(NamedTuple):
    """One estimator's fits of a stack of S panels, as the stacked kernels
    return them: coefficients (S, K), the scale of record, iterations and
    converged flags (S,), and for the M-estimators the tuning constants
    (S,) and the loss weights at the last residuals (S, NT), None for ls.
    A FitResult is row 0 of one (see _fit_result)."""

    beta: np.ndarray
    sigma: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    c: np.ndarray | None
    weights: np.ndarray | None


def _fit_result(estimator: str, fits: _Fits, shape: tuple, std_errors) -> FitResult:
    """The FitResult of the first member of a stack's record `fits`, its
    weights laid out as the (N, T) `shape`."""
    return FitResult(estimator=estimator, beta=fits.beta[0], sigma_hat=float(fits.sigma[0]),
                     iterations=int(fits.iterations[0]), converged=bool(fits.converged[0]),
                     std_errors=std_errors,
                     c_selected=None if fits.c is None else float(fits.c[0]),
                     weights=None if fits.weights is None else fits.weights[0].reshape(shape))


def _centered(y: np.ndarray, x: np.ndarray):
    """The within transform of a stack of panels, (S, N, T) responses and
    (S, N, T, K) regressors: the (S, NT) centered responses and the
    (S, NT, K) centered designs, unit-major and read-only, and a dict that
    maps each member whose centered column leaves the float range to its
    DegeneratePanel (see within_transform).
    """
    s, n, t, k = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        y = (y - y.mean(axis=2)[..., None]).reshape(s, n * t)
        x = (x - x.mean(axis=2)[:, :, None, :]).reshape(s, n * t, k)
        sums = np.column_stack((np.einsum("si,si->s", y, y), np.einsum("sik,sik->sk", x, x)))
    too_small = (sums < np.finfo(float).tiny) & np.column_stack((np.zeros(s, bool), x.any(axis=1)))
    bad = ~np.isfinite(sums) | too_small
    faults = {int(r): DegeneratePanel(
        f"centered {f'x{j}' if j else 'y'} has a sum of squares outside the float range; "
        f"rescale the column (its values are too {'small' if too_small[r, j] else 'large'} "
        f"to square)") for r, j in enumerate(bad.argmax(axis=1)) if bad[r, j]}
    y.flags.writeable = False
    x.flags.writeable = False
    return y, x, faults


def within_transform(panel: PanelData) -> CenteredPanel:
    """Subtract per-unit time means from y and x, stacked unit-major,
    read-only: a stack of one of _centered, held without a copy.

    Raises DegeneratePanel, naming the column, when the sum of squares of a
    centered column is not finite, or, for a regressor that is not all
    zero, below the normal float range: every fit squares these values,
    and past about 1e154 they overflow, below about 1e-154 they underflow.
    """
    y, x, faults = _centered(panel.y[None], panel.x[None])
    if faults:
        raise faults[0]
    return CenteredPanel(y=y[0], x=x[0], shape=panel.y.shape)


def _as_centered(panel) -> CenteredPanel:
    return panel if isinstance(panel, CenteredPanel) else within_transform(panel)


def _nonsingular(log_det, sizes):
    """Which K x K systems a are not singular, from log|det a| (`log_det`)
    and the (..., K) sizes s_j of their columns: the one rule of every
    system the fits solve, log|det a| - sum_j log s_j > LOG_SINGULAR.

    s_j is the diagonal entry a_jj of a cross-product matrix and the
    largest |entry| of column j of an elemental subset.  Changing the units
    of regressor j moves log|det a| and log s_j alike, so the test does
    not depend on the units of any regressor, and in log space neither side
    overflows or underflows.  A zero column has det a = 0 and counts as
    singular: -inf - (-inf) is nan, which fails the comparison.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return log_det - np.log(sizes).sum(axis=-1) > LOG_SINGULAR


def _solve(a, b):
    """Solve every member's symmetric K x K system a beta = b at once,
    (S, K, K) by (S, K), or by (S, K, M) for M right-hand sides: the one
    solve of every such system the fits meet.  The covariances take a^-1
    as the solve of the identity (see _covariance and tuning.esl_cov).

    A system counts as singular by _nonsingular with its diagonal a_jj as
    the size of column j, and each is scaled to a unit diagonal (Jacobi
    equilibration) before one batched solve, so that neither the test nor
    the conditioning of the solve depends on the units of the regressors.
    A singular member is solved as the identity, so its beta is
    meaningless.  `a` is left as it is.  Returns (beta, which are not
    singular).
    """
    diag = np.diagonal(a, axis1=1, axis2=2)
    ok = _nonsingular(np.linalg.slogdet(a)[1], diag)
    # (S, K, 1); a zero column is singular already
    inv = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))[:, :, None]
    a = a * inv * inv.transpose(0, 2, 1)
    a[~ok] = np.identity(a.shape[1])
    return (np.linalg.solve(a, b.reshape(*b.shape[:2], -1) * inv) * inv).reshape(b.shape), ok


def _gram(x):
    """X'X of every member of a stack of centered designs (S, NT, K), or
    SingularDesign, naming a null direction (from an SVD of its X'X, taken
    only then), for a member whose X'X is singular by _nonsingular: the
    one design rule of every estimator.  Within LS runs it on its normal
    equations; the robust fits run it once per stack, after the start is
    drawn (see estimators._fit_rest), and fit_mestimator and irls_fit
    before they iterate."""
    a = x.transpose(0, 2, 1) @ x
    ok = _nonsingular(np.linalg.slogdet(a)[1], np.diagonal(a, axis1=1, axis2=2))
    if not ok.all():  # X'X's last right singular vector is its nearest null direction
        null = ", ".join("%+.4f" % v for v in np.linalg.svd(a[np.argmin(ok)])[2][-1])
        raise SingularDesign("centered design is singular: |det X'X| is below 1e-12 of the "
                             "product of its diagonal; null direction approximately (%s)" % null)
    return a


def _covariance(a, factor, what: str) -> np.ndarray:
    """factor * a^-1, symmetrized, for one centered design's K x K
    cross-product `a`, its inverse the solve of the identity (see _solve);
    `factor` may be inf or nan.  Raises SingularDesign naming `what` when
    `a` is singular by _nonsingular or a value leaves the float range."""
    inv, ok = _solve(a[None], np.identity(len(a))[None])
    with np.errstate(over="ignore", invalid="ignore"):
        cov = factor * inv[0]
    if not (ok[0] and np.isfinite(cov).all()):
        raise SingularDesign(f"{what} of the centered design are singular or leave the float "
                             f"range; rescale the regressors or drop a collinear one")
    return 0.5 * (cov + cov.T)


def _xb(x, b):
    """x @ b for every member: (S, NT, K) by (S, K) -> (S, NT)."""
    return (x @ b[:, :, None])[:, :, 0]


def _ls_dof(n: int, t: int, k: int) -> int:
    """The residual degrees of freedom NT - N - K of within LS, or
    DegeneratePanel when there are none."""
    dof = n * t - n - k
    if dof <= 0:
        raise DegeneratePanel(f"no residual degrees of freedom: NT - N - K = {dof} "
                              f"(N={n}, T={t}, K={k})")
    return dof


def _ls(x: np.ndarray, y: np.ndarray, shape: tuple) -> _Fits:
    """Within LS of every member of a stack of centered panels of one
    (N, T) `shape`, (S, NT, K) designs x and (S, NT) responses y: the
    normal equations X'X b = X'y by _solve, then two steps of iterative
    refinement, b += (X'X)^-1 X'r at the residuals r, and sigma_hat, the
    residual root mean square over _ls_dof.  Forming X'X squares the
    design's condition number, and each step wins back about as many
    digits as the solve keeps: with two columns correlated at 1 - 1e-12,
    at the edge of the singularity rule, the slopes lie within 2e-9
    relative of the exact solution (LAPACK least squares: 3e-10), where one
    step leaves 2e-6 and none 1e-3.  Raises SingularDesign for a member
    whose X'X is singular (see _gram); every member's design is checked
    before the degrees of freedom."""
    a = _gram(x)
    beta = _solve(a, (y[:, None, :] @ x)[:, 0, :])[0]
    for _ in range(2):
        beta += _solve(a, ((y - _xb(x, beta))[:, None, :] @ x)[:, 0, :])[0]
    r = y - _xb(x, beta)
    # a batched matmul sums each member's squares as r @ r does
    sigma = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0] / _ls_dof(*shape, x.shape[2]))
    return _Fits(beta, sigma, np.ones(len(y), dtype=int), np.ones(len(y), dtype=bool), None, None)


def within_ls(panel: PanelData | CenteredPanel) -> FitResult:
    """Within-group least squares: beta = (sum xdd xdd')^-1 (sum xdd ydd).

    sigma_hat is the residual root mean square with the LS degrees-of-freedom
    correction NT - N - K; std_errors are the classical
    sigma_hat * sqrt(diag((sum xdd xdd')^-1)).  A stack of one of _ls.
    """
    cp = _as_centered(panel)
    fits = _ls(cp.x[None], cp.y[None], cp.shape)
    se = np.sqrt(np.diag(_covariance(cp.x.T @ cp.x, fits.sigma[0] ** 2, "standard errors")))
    return _fit_result("ls", fits, cp.shape, se)


def _coefficients(beta, k: int, name: str) -> np.ndarray:
    """`beta` as a float vector, or ValueError unless it has length k and
    every entry is finite."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (k,):
        raise ValueError(f"{name} must have length {k}, got shape {beta.shape}")
    if not np.isfinite(beta).all():
        raise ValueError(f"{name} must be finite")
    return beta


def _effects(y: np.ndarray, x: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Per-unit intercepts ybar_i - xbar_i' beta of every member of a stack:
    (S, N) from (S, N, T) responses, (S, N, T, K) regressors and (S, K)
    coefficients."""
    return y.mean(axis=2) - (x.mean(axis=2) @ betas[:, :, None])[..., 0]


def _predictions(y: np.ndarray, x: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """predict for every member of a stack (shapes as in _effects): (S, N, T)."""
    return (x @ betas[:, None, :, None])[..., 0] + _effects(y, x, betas)[..., None]


def fixed_effects(panel: PanelData, beta) -> np.ndarray:
    """Per-unit intercepts alpha_i = ybar_i - xbar_i' beta: a stack of one of _effects."""
    beta = _coefficients(beta, panel.n_regressors, "beta")
    return _effects(panel.y[None], panel.x[None], beta[None])[0]


def predict(test_panel: PanelData, beta) -> np.ndarray:
    """Predicted y for every cell, with each unit's intercept recovered from
    its own sample means: a stack of one of _predictions."""
    beta = _coefficients(beta, test_panel.n_regressors, "beta")
    return _predictions(test_panel.y[None], test_panel.x[None], beta[None])[0]
