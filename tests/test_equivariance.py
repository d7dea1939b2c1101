"""Equivariance of every estimator under changes of units, over generated
panels (Rousseeuw & Leroy 1987 define these properties for robust
regression).

y -> a y + X b + alpha_i, with a of either sign and |a| from about 1e-150
to 1e150, and x -> x A, with A well conditioned, together: each fit of
fit_estimator then moves to beta' = A^-1 (a beta + b), with the same
huber or tukey constant (a^2 c for esl, which lives on the squared scale
of the raw residuals), the same weights, iterations and converged flag,
and the covariance a^2 A^-1 V A^-T.  A fit that fails fails after the
transform with the same error type.  Every K x K system the fits solve,
the design rule and the covariances' inverse are measured against the
system's own column sizes, so none of this depends on the units.

The "none" error law is left out: without noise every robust fit is an
exact fit, whose residual scale is rounding noise (ROADMAP.md, item 17),
and no transform preserves rounding noise.  For the same reason N >= 10:
at T = 2 an elemental fit of the start passes exactly through 2K of the
2N centered cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import robustpanel.simulation as sim
from robustpanel.errors import EstimationError
from robustpanel.estimators import fit_estimator, sandwich_se
from robustpanel.losses import LossSpec
from robustpanel.panel import ESTIMATOR_NAMES, PanelData, within_transform

RTOL = 1e-9  # measured: 1.8e-15 for y -> a y + X b + alpha_i, 3e-11 for x -> x A
ERROR_LAWS = tuple(law for law in sim.ERROR_DISTS if law != "none")


@st.composite
def panels(draw):
    n, t, k = draw(st.integers(10, 40)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    panel = sim.gen_panel(sim.DgpConfig(n, t, beta=(2.4, -1.2, 0.7)[:k], gamma=(2.0, 4.0, 1.0)[:k],
                                        error_dist=draw(st.sampled_from(ERROR_LAWS)), seed=seed))
    kind = draw(st.sampled_from((None,) + sim.CONTAMINATION_KINDS))
    if kind is not None:  # up to a fifth of the cells, in whole blocks for a concentrated kind
        block = sim.block_length(t) if kind.startswith("concentrated") else 1
        m = block * draw(st.integers(1, n * t // (5 * block)))
        panel = sim.contaminate(panel, sim.ContaminationScheme(kind, m, seed))
    return panel


def covariance(panel, fit):
    """The covariance of a fit_estimator fit: sandwich_se's, or within LS's
    classical sigma_hat^2 (X''X'')^-1."""
    if fit.estimator == "ls":
        cp = within_transform(panel)
        return fit.sigma_hat**2 * np.linalg.inv(cp.x.T @ cp.x)
    return sandwich_se(panel, fit, LossSpec(fit.estimator, fit.c_selected)).matrix


def fit_or_error(panel, name):
    try:
        return fit_estimator(panel, name, seed=1)
    except EstimationError as err:
        return type(err)


@settings(max_examples=25, deadline=None)
@given(panel=panels(), sign=st.sampled_from((-1.0, 1.0)), power=st.floats(-150.0, 150.0),
       seed=st.integers(0, 2**32 - 1))
def test_fits_move_with_the_units_of_y_and_x(panel, sign, power, seed):
    rng = np.random.default_rng(seed)
    n, t, k = panel.x.shape
    # |a y| stays below 1e150, so that the centered sums of squares keep
    # in the float range
    a = sign * 10.0**power / max(1.0, np.abs(panel.y).max())
    b, alpha = a * rng.standard_normal(k), a * rng.standard_normal(n)
    u, _, vt = np.linalg.svd(rng.standard_normal((k, k)))
    transform = u @ np.diag(rng.uniform(0.5, 2.0, k)) @ vt  # condition number at most 4
    moved = PanelData(a * panel.y + panel.x @ b + alpha[:, None], panel.x @ transform)
    back = np.linalg.inv(transform)
    for name in ESTIMATOR_NAMES:
        base, fit = fit_or_error(panel, name), fit_or_error(moved, name)
        if isinstance(base, type):
            assert fit is base, name
            continue
        assert not isinstance(fit, type), (name, fit)
        # compared in the units of the base fit: A beta' - b against a beta
        scale = np.linalg.norm(base.beta) + np.linalg.norm(b / a)
        assert np.linalg.norm((transform @ fit.beta - b) / a - base.beta) <= RTOL * scale, name
        expected = a**2 * back @ covariance(panel, base) @ back.T
        assert_allclose(fit.std_errors, np.sqrt(np.diag(expected)), rtol=RTOL, err_msg=name)
        assert (fit.iterations, fit.converged) == (base.iterations, base.converged), name
        if name == "esl":
            assert_allclose(fit.c_selected, a**2 * base.c_selected, rtol=RTOL)
        else:
            assert fit.c_selected == base.c_selected, name
        if name != "ls":
            assert_allclose(fit.weights, base.weights, rtol=0.0, atol=RTOL, err_msg=name)
