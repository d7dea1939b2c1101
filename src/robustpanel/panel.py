"""Balanced-panel data model, within-group transform, and within-group LS.

The fixed-effects model is y_it = x_it' beta + alpha_i + eps_it. Subtracting
per-unit time means ("within transform") annihilates alpha_i, after which
beta is estimated by pooled regression of the centered y on the centered x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePanel, SingularDesign

ESTIMATOR_NAMES = ("ls", "huber", "tukey", "esl")


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
    the (N, T) weights of a fit need.
    """

    y: np.ndarray
    x: np.ndarray
    shape: tuple

    def __post_init__(self):
        for name in ("y", "x"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


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
        if not self.sigma_hat >= 0.0:
            raise ValueError("sigma_hat must be nonnegative")
        object.__setattr__(self, "beta", beta)
        if self.std_errors is not None:
            object.__setattr__(self, "std_errors", _frozen_array(self.std_errors))
        if self.weights is not None:
            w = _frozen_array(self.weights)
            if w.min() < 0.0 or w.max() > 1.0 + 1e-12:
                raise ValueError("weights must lie in [0, 1]")
            object.__setattr__(self, "weights", w)


def within_transform(panel: PanelData) -> CenteredPanel:
    """Subtract per-unit time means from y and x, stacked unit-major.

    Raises DegeneratePanel, naming the column, when the sum of squares of a
    centered column is not finite, or, for a regressor that is not all
    zero, below the normal float range: every fit squares these values,
    and past about 1e154 they overflow, below about 1e-154 they underflow.
    """
    n, t, k = panel.x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        y = (panel.y - panel.y.mean(axis=1)[:, None]).reshape(n * t)
        x = (panel.x - panel.x.mean(axis=1)[:, None, :]).reshape(n * t, k)
        sums = np.append(y @ y, np.einsum("ik,ik->k", x, x))
    too_small = np.append(False, (sums[1:] < np.finfo(float).tiny) & x.any(axis=0))
    bad = ~np.isfinite(sums) | too_small
    if bad.any():
        j = int(np.argmax(bad))
        raise DegeneratePanel(
            f"centered {f'x{j}' if j else 'y'} has a sum of squares outside the float range; "
            f"rescale the column (its values are too {'small' if too_small[j] else 'large'} "
            f"to square)"
        )
    return CenteredPanel(y=y, x=x, shape=(n, t))


def _as_centered(panel) -> CenteredPanel:
    if isinstance(panel, CenteredPanel):
        return panel
    return within_transform(panel)


def _solve_ls(xmat: np.ndarray, yvec: np.ndarray) -> np.ndarray:
    """Least squares via orthogonal decomposition, with a rank check that
    names the offending null direction."""
    k = xmat.shape[1]
    beta, _, rank, _ = np.linalg.lstsq(xmat, yvec, rcond=None)
    if rank < k:
        _, _, vt = np.linalg.svd(xmat, full_matrices=False)
        null = vt[-1]
        direction = ", ".join(f"{v:+.4f}" for v in null)
        raise SingularDesign(
            f"centered design is rank deficient (rank {rank} < {k}); "
            f"null direction approximately ({direction})"
        )
    return beta


def _in_float_range(compute, what: str) -> np.ndarray:
    """compute(), a term built on (X'X)^{-1}, or SingularDesign when X'X (which
    squares X's condition number) is singular in floats or a value overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            values = compute()
        except (np.linalg.LinAlgError, ArithmeticError):  # the latter from float ** 2 or /
            values = np.nan
    if not np.all(np.isfinite(values)):
        raise SingularDesign(f"{what} of the centered design leave the float range; "
                             f"rescale the regressors or drop a collinear one")
    return values


def within_ls(panel: PanelData | CenteredPanel) -> FitResult:
    """Within-group least squares: beta = (sum xdd xdd')^-1 (sum xdd ydd).

    sigma_hat is the residual root mean square with the LS degrees-of-freedom
    correction NT - N - K; std_errors are the classical
    sigma_hat * sqrt(diag((sum xdd xdd')^-1)).
    """
    cp = _as_centered(panel)
    (n, t), k = cp.shape, cp.x.shape[1]
    beta = _solve_ls(cp.x, cp.y)
    resid = cp.y - cp.x @ beta
    dof = n * t - n - k
    if dof <= 0:
        raise DegeneratePanel(
            f"no residual degrees of freedom: NT - N - K = {dof} (N={n}, T={t}, K={k})"
        )
    sigma = float(np.sqrt(resid @ resid / dof))
    se = _in_float_range(lambda: sigma * np.sqrt(np.diag(np.linalg.inv(cp.x.T @ cp.x))),
                         "standard errors")
    return FitResult(
        estimator="ls",
        beta=beta,
        sigma_hat=sigma,
        iterations=1,
        converged=True,
        std_errors=se,
    )


def fixed_effects(panel: PanelData, beta) -> np.ndarray:
    """Per-unit intercepts alpha_i = ybar_i - xbar_i' beta."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (panel.n_regressors,):
        raise ValueError(
            f"beta must have length {panel.n_regressors}, got shape {beta.shape}"
        )
    return panel.y.mean(axis=1) - panel.x.mean(axis=1) @ beta


def predict(test_panel: PanelData, beta) -> np.ndarray:
    """Predicted y for every cell, with each unit's intercept recovered from
    its own sample means."""
    beta = np.asarray(beta, dtype=float)
    alpha = fixed_effects(test_panel, beta)
    return test_panel.x @ beta + alpha[:, None]
