"""Robust M-estimation of the within-transformed panel model.

The solvers here share one engine, iteratively reweighted least squares
with the scale held fixed, and differ in how they choose the tuning
constant and the starting point:

* ``fit_mestimator`` runs the four-step Huber/Tukey procedure: within
  LS, median-based residual scale, efficiency-factor grid search for c,
  then IRLS at the chosen c.
* ``fit_esl`` runs the exponential-squared procedure: high-breakdown
  initial fit, pseudo-outlier screening and det(V) minimization for c,
  IRLS update, iterated up to three times.

``sandwich_se`` provides asymptotic standard errors of the familiar
(E psi^2 / (E psi')^2) * sigma^2 * (X''X'')^{-1} form for any of them.

``fit_estimator`` and the simulation studies fit through one dispatcher,
``_fit``, which draws one ``high_breakdown_init`` start per panel and
starts every robust estimator from it.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, SingularWeightedDesign, UnstableCurvature
from .losses import LossSpec, psi, psi_prime, weight
from .panel import ESTIMATOR_NAMES, FitResult, _as_centered, _in_float_range, within_ls
from .scale import _mad, initial_scale, mad_scale
from .tuning import HUBER_GRID, TUKEY_GRID, default_esl_grid, esl_select_c, select_c_grid

TUKEY_REFERENCE_C = 4.685  # 95% normal efficiency, used for refinement passes
HB_SUBSAMPLES = 500  # elemental subsets drawn by high_breakdown_init
HB_SCORE_CELLS = 2000  # above this many cells, candidates are ranked on a subsample this size
HB_RESCORE = 10  # best subsample candidates that are scored again on the full sample
IRLS_TOL = 1e-8  # coefficient change that ends an IRLS or ESL outer loop; see _settled
ESL_MAX_OUTER = 3  # outer passes of fit_esl


@dataclass(frozen=True)
class IrlsConfig:
    max_iter: int = 100

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _settled(delta, beta):
    """Whether a max-norm coefficient change `delta` is below IRLS_TOL.

    Below 1 the tolerance is taken relative to the largest coefficient,
    so that regressors measured in larger units, which shrink the
    coefficients, do not end a loop after its first step.
    """
    return delta < IRLS_TOL * min(1.0, float(np.max(np.abs(beta))))


def _weighted_solve(xdd, ydd, w):
    """Solve the weighted normal equations via sqrt-weight row scaling."""
    root = np.sqrt(w)
    sol, _, rank, _ = np.linalg.lstsq(xdd * root[:, None], ydd * root, rcond=None)
    if rank < xdd.shape[1]:
        raise SingularWeightedDesign(
            "weighted cross-product is rank %d < %d; the current weights "
            "reject too much of the sample" % (rank, xdd.shape[1])
        )
    return sol


def irls_fit(panel, spec, beta_init, sigma, config=IrlsConfig()):
    """Iteratively reweighted LS at a fixed loss and fixed scale.

    Repeats w_it = weight(spec, (y_it - x_it' beta) / sigma) followed by
    a weighted LS solve until the coefficients settle (see _settled) or
    config.max_iter is reached.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    cp = _as_centered(panel)
    beta = np.asarray(beta_init, dtype=float)
    sig = float(sigma)
    # a residual past the float range once standardized is +-inf, where
    # every weight takes its limit
    with np.errstate(over="ignore"):
        w = weight(spec, (cp.y - cp.x @ beta) / sig)
        for iterations in range(1, config.max_iter + 1):
            new_beta = _weighted_solve(cp.x, cp.y, w)
            delta = np.max(np.abs(new_beta - beta))
            beta = new_beta
            w = weight(spec, (cp.y - cp.x @ beta) / sig)
            if _settled(delta, beta):
                break
    return FitResult(
        estimator=spec.family,
        beta=beta,
        sigma_hat=sig,
        iterations=iterations,
        converged=bool(_settled(delta, beta)),
        c_selected=spec.c,
        weights=w.reshape(cp.shape),
    )


def fit_mestimator(panel, family, c="auto", beta_init=None):
    """Four-step Huber/Tukey fit: LS start, robust scale, tuned c, IRLS.

    `c` is "auto" (grid search by efficiency factor) or a fixed positive
    number, in which case the grid-search step is skipped.

    `beta_init` overrides the within-LS starting vector of step 1; the
    residual scale of step 2 and the grid search of step 3 then run at
    the supplied coefficients.  The default (None) follows the printed
    procedure, whose LS start is cheap but inherits its sensitivity to
    high-leverage contamination.
    """
    if family not in ("huber", "tukey"):
        raise ValueError("family must be huber or tukey, got %r" % (family,))
    cp = _as_centered(panel)
    if beta_init is None:
        beta0 = within_ls(cp).beta
    else:
        beta0 = np.asarray(beta_init, dtype=float)
        if beta0.shape != (cp.x.shape[1],):
            raise ValueError(
                "beta_init must have length %d, got shape %r"
                % (cp.x.shape[1], beta0.shape)
            )
    sigma = initial_scale(cp.y - cp.x @ beta0).value
    if c == "auto":
        grid = HUBER_GRID if family == "huber" else TUKEY_GRID
        c = select_c_grid(cp, family, beta0, sigma, grid).c_star
    return irls_fit(cp, LossSpec(family, c), beta0, sigma)  # LossSpec checks a fixed c


def _elemental_subsets(rng, nt, k):
    """HB_SUBSAMPLES rows of k distinct cell indices in [0, nt), by Floyd's
    algorithm: column j draws from [0, nt - k + j] and takes nt - k + j
    itself when the draw repeats an earlier column of its row.  Each row is
    a uniformly random k-subset, and no (HB_SUBSAMPLES, nt) array is built.
    """
    idx = np.empty((HB_SUBSAMPLES, k), dtype=np.intp)
    for j in range(k):
        top = nt - k + j
        draw = rng.integers(0, top + 1, size=HB_SUBSAMPLES)
        repeat = (idx[:, :j] == draw[:, None]).any(axis=1)
        idx[:, j] = np.where(repeat, top, draw)
    return idx


def _mad_rows(betas, xdd, ydd):
    """MAD scale of the residuals y - x beta for each row of `betas`, scored
    in one (rows, cells) buffer that _mad overwrites; +inf where they leave
    the float range, so that such a row never ranks first."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid = betas @ xdd.T
        np.subtract(ydd, resid, out=resid)
        mads = _mad(resid)
    return np.where(np.isfinite(mads), mads, np.inf)


def high_breakdown_init(panel, seed=0):
    """High-breakdown starting vector from an elemental-subset search.

    Draws HB_SUBSAMPLES random K-point subsets of the centered
    observations (see _elemental_subsets), solves each exactly and keeps
    the candidate whose residuals have the smallest MAD scale.  Up to
    HB_SCORE_CELLS cells every candidate is scored on the full sample.  On
    a larger panel every candidate is ranked on one random HB_SCORE_CELLS
    subsample and only the best HB_RESCORE are scored on the full sample,
    as in FAST-LTS and fast-S, so time and memory stay linear in the cells.
    The winner is refined with a single bounded-weight (Tukey, c=4.685)
    reweighted solve.  Singular subsets are skipped; if every subset is
    singular the panel cannot support even an elemental fit and
    DegenerateDesign is raised.
    """
    cp = _as_centered(panel)
    nt, k = cp.x.shape
    if nt < k + 1:
        raise DegenerateDesign("need at least K+1 observations, have %d" % nt)

    rng = np.random.default_rng(seed)
    idx = _elemental_subsets(rng, nt, k)
    a = cp.x[idx]  # (HB_SUBSAMPLES, K, K)
    b = cp.y[idx]
    # |det a| > 1e-12 max|a|^K, compared in log space so that neither side
    # overflows or underflows when the regressors change units
    _, logdet = np.linalg.slogdet(a)
    log_scale = k * np.log(np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300))
    good = logdet > np.log(1e-12) + log_scale
    if not good.any():
        raise DegenerateDesign("all %d elemental subsets were singular" % HB_SUBSAMPLES)
    betas = np.linalg.solve(a[good], b[good][..., None])[..., 0]  # (G, K)

    if nt > HB_SCORE_CELLS:
        sub = rng.choice(nt, HB_SCORE_CELLS, replace=False)
        ranked = np.argsort(_mad_rows(betas, cp.x[sub], cp.y[sub]), kind="stable")
        betas = betas[ranked[:HB_RESCORE]]
    mads = _mad_rows(betas, cp.x, cp.y)
    best = int(np.argmin(mads))
    if mads[best] == np.inf:
        raise DegenerateDesign("every elemental fit has residuals past the float range")
    beta0 = betas[best]

    sigma = float(mads[best])
    if sigma > 0:
        with np.errstate(over="ignore"):  # +-inf residuals get weight 0, as in irls_fit
            w = weight(LossSpec("tukey", TUKEY_REFERENCE_C), (cp.y - cp.x @ beta0) / sigma)
        try:
            beta0 = _weighted_solve(cp.x, cp.y, w)
        except SingularWeightedDesign:
            pass  # keep the unrefined elemental winner
    return beta0


def fit_esl(panel, seed=0):
    """Exponential-squared fit with data-driven constant selection.

    Starts from high_breakdown_init(panel, seed).  The candidate grid is
    built once, from the MAD scale of the residuals at that start.  Each
    outer pass then re-flags pseudo-outliers at the current coefficients,
    re-selects c by det(V) minimization over that fixed grid, and updates
    the coefficients by IRLS with the loss applied to raw residuals (the
    selected c lives on the squared raw-residual scale, so the IRLS
    standardization is fixed at 1).  The loop stops after at most
    ESL_MAX_OUTER passes, or earlier once both the coefficient change and
    the relative change in c are negligible.  The reported sigma_hat is
    the MAD scale at which the final selection was made.
    """
    cp = _as_centered(panel)
    return _esl(cp, high_breakdown_init(cp, seed=seed), "auto")


def _esl(cp, start, c):
    """The outer loop of fit_esl, run from the high-breakdown fit `start`;
    a fixed `c` (from fit_estimator) skips the selection step entirely."""
    beta = start
    if c == "auto":
        grid = default_esl_grid(mad_scale(cp.y - cp.x @ beta).value)
    prev_c = None
    total_iters = 0
    outer_converged = False
    for _ in range(ESL_MAX_OUTER):
        if c == "auto":
            state = esl_select_c(cp, beta, grid)
            c_sel, sigma_mad = state.c_selected, state.sigma_mad
        else:
            c_sel = float(c)  # LossSpec rejects one that is not positive
            sigma_mad = mad_scale(cp.y - cp.x @ beta).value
        fit = irls_fit(cp, LossSpec("esl", c_sel), beta, 1.0)
        total_iters += fit.iterations
        inner_converged = fit.converged
        delta = np.max(np.abs(fit.beta - beta))
        beta = fit.beta
        if prev_c is not None and _settled(delta, beta) and abs(c_sel - prev_c) / c_sel < 0.01:
            outer_converged = True
            break
        prev_c = c_sel
    return FitResult(
        estimator="esl",
        beta=beta,
        sigma_hat=sigma_mad,
        iterations=total_iters,
        converged=inner_converged and outer_converged,
        c_selected=c_sel,
        weights=fit.weights,
    )


@dataclass(frozen=True)
class SandwichCovariance:
    """Asymptotic covariance (E psi^2 / (E psi')^2) sigma^2 (X''X'')^{-1}."""

    matrix: np.ndarray

    @property
    def std_errors(self):
        return np.sqrt(np.diag(self.matrix))


def sandwich_se(panel, fit, spec):
    """Plug-in sandwich covariance for a converged M-fit.

    The moments standardize residuals by fit.sigma_hat, except for
    exponential-squared fits, where the loss acts on raw residuals and
    sigma is fixed at 1 (the reported sigma_hat is the MAD scale of
    record, not the IRLS scale).  Raises UnstableCurvature when the mean
    psi' is not positive, since the asymptotic variance requires
    E[psi'] > 0.
    """
    cp = _as_centered(panel)
    sigma = 1.0 if fit.estimator == "esl" else fit.sigma_hat
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    with np.errstate(over="ignore"):  # +-inf residuals take psi's limits, as in irls_fit
        e = (cp.y - cp.x @ fit.beta) / sigma

    psi_sq_mean = float(np.mean(psi(spec, e) ** 2))
    psi_prime_mean = float(np.mean(psi_prime(spec, e)))
    if psi_prime_mean <= 0:
        raise UnstableCurvature(
            "mean psi' = %g is not positive; the curvature condition "
            "E[psi'] > 0 fails at this fit" % psi_prime_mean
        )

    def cov():
        m = psi_sq_mean / psi_prime_mean**2 * sigma**2 * np.linalg.inv(cp.x.T @ cp.x)
        return 0.5 * (m + m.T)

    return SandwichCovariance(_in_float_range(cov, "sandwich covariances"))


def _fit(cp, names, c, seed):
    """Fit each named estimator to a centered panel; the one name -> procedure map.

    Returns {name: FitResult}.  Every robust estimator starts from one
    high_breakdown_init(cp, seed), drawn at most once (never when every
    name is ls) and shared read-only.  huber and tukey start from it rather
    than the printed LS start: under concentrated contamination the LS
    start leaves the redescending fit in the contaminated local minimum
    (the outliers look like the fit and the clean data like outliers).
    """
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError("unknown estimator %r" % (name,))
    start = None
    fits = {}
    for name in names:
        if name == "ls":
            fits[name] = within_ls(cp)
            continue
        if start is None:
            start = high_breakdown_init(cp, seed=seed)
            start.flags.writeable = False
        if name == "esl":
            fits[name] = _esl(cp, start, c)
        else:
            fits[name] = fit_mestimator(cp, name, c=c, beta_init=start)
    return fits


def fit_estimator(panel, estimator, c="auto", seed=0):
    """Fit one named estimator and attach its standard errors.

    ls: within-group least squares with classical standard errors.
    huber / tukey: M-fit started from high_breakdown_init(panel, seed),
    with sandwich standard errors.
    esl: exponential-squared fit with sandwich standard errors.
    """
    cp = _as_centered(panel)
    fit = _fit(cp, (estimator,), c, seed)[estimator]
    if estimator == "ls":
        return fit
    cov = sandwich_se(cp, fit, LossSpec(estimator, fit.c_selected))
    return dataclasses.replace(fit, std_errors=cov.std_errors)
