import numpy as np
import pytest

from robustpanel.panel import PanelData


def synth_panel(n=40, t=4, k=2, seed=0, beta=(2.4, -1.2), noise=1.0, alpha_spread=12.0):
    """Small fixed-effects panel: y = x @ beta + alpha_i + noise * eps."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)[:k]
    x = np.empty((n, t, k))
    for j in range(k):
        if j % 2 == 0:
            x[:, :, j] = rng.chisquare(2, (n, t)) - 2.0
        else:
            x[:, :, j] = rng.standard_normal((n, t))
    alpha = rng.uniform(0.0, alpha_spread, n)
    eps = noise * rng.standard_normal((n, t))
    y = x @ beta + alpha[:, None] + eps
    return PanelData(y, x)


@pytest.fixture
def hand_panel():
    # N=2, T=2, K=1; within-LS solves to exactly 1.0
    y = np.array([[0.0, 2.0], [11.0, 13.0]])
    x = np.array([[0.0, 2.0], [1.0, 3.0]])[:, :, None]
    return PanelData(y, x)


@pytest.fixture
def noisy_panel():
    return synth_panel(seed=11)


def far_leverage_panel():
    """A valid (20, 2) panel, K = 1, on which some elemental fits of the
    high-breakdown start have residuals at +-inf but a finite MAD: unit 0
    holds a regressor of +-1e150 and a response of order 1, while every
    other unit has y of order 1e150 on x of order 1e-10."""
    rng = np.random.default_rng(1)
    x = 1e-10 * rng.standard_normal((20, 2, 1))
    x[0, :, 0] = 1e150, -1e150
    with np.errstate(over="ignore"):
        y = 1e160 * x[..., 0] + 1e140 * rng.standard_normal((20, 2))
    y[0] = rng.standard_normal(2)
    return PanelData(y, x)


def huge_scale_panel():
    """A valid (5, 3) panel, K = 2, whose residual MAD at the start,
    2.7e153, squares past the float range at 100 times, so that esl's grid
    cannot be built: the 11th of repeated draws of y = 5e153 N(0, 1).  The
    draws before it are too large to center."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3, 2))
    for _ in range(11):
        y = 5e153 * rng.standard_normal((5, 3))
    return PanelData(y, x)


# the SingularDesign message on nearly_collinear_panel: (1, -1) / sqrt(2), up to sign
NULL_DIRECTION = r"null direction approximately \(([+-])0\.7071, (?!\1)[+-]0\.7071\)"


def nearly_collinear_panel():
    """A (40, 4) panel, K = 2, whose regressors are correlated at 1 - 1e-13:
    |det X'X| is about 2e-13 of the product of its diagonal, below the
    1e-12 of the rule every K x K system the fits solve meets, although a
    rank test on the singular values (below eps NT times the largest, as
    lstsq's) calls this design full rank.  Its near-null direction is
    (1, -1) / sqrt(2), up to sign."""
    rng = np.random.default_rng(12)
    x1, z = rng.standard_normal((2, 40, 4))
    rho = 1.0 - 1e-13
    x = np.stack([x1, rho * x1 + np.sqrt(1.0 - rho**2) * z], axis=2)
    return PanelData(rng.standard_normal((40, 4)), x)
