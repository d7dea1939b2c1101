"""Monte Carlo harness: panel generation, outlier contamination schemes,
and replication studies of estimation and prediction error.

The data generating process is

    y_it = x_it' beta + alpha_i + eps_it,
    alpha_i = sum_t x_it' gamma / sqrt(T) + eta_i,   eta_i ~ U(0, 12),

with odd-numbered regressors drawn chi-square(2) - 2 and even-numbered
standard normal, so the design is deliberately asymmetric.  Four error
laws are supported plus a "none" hook for exact-recovery tests.

Contamination kinds:
  random_vertical        m uniformly chosen cells get y ~ U(20, 80)
  random_leverage        same cells also get every regressor ~ N(8, sd 2)
  concentrated_vertical  blocks of ceil(T/2) periods in m / ceil(T/2)
                         units get y ~ U(79, 80)
  concentrated_leverage  those blocks also get regressors ~ N(8, sd 2)

Concentrated blocks cover half of each hit unit's periods (rounded up),
never the whole unit: within-group centering absorbs any value that is
constant inside a unit, so whole-unit blocks would vanish from the
centered data and leave nothing for the estimators to disagree about.

Every derived seed comes from ``_seeds``: replication s of a study uses
SeedSequence(master_seed, spawn_key=(s,)), so replication s is the same
no matter how many replications surround it.

A study runs its replications in chunks of up to STACK_REPS, each chunk
an array from its draws to its scores.  Every replication draws its
panel, contamination and holdout from its own seeds, in the order a lone
panel draws them, into (S, N, T) and (S, N, T, K) stacks (``_panels``,
``_contaminate``); the chunk is centered at once (``panel._centered``),
its centered arrays are fitted as they are, as one stack
(``estimators._fit``), which returns each estimator's fits as arrays, and
it is scored from those arrays in one pass per estimator
(``panel._predictions``).  gen_panel, contaminate,
gen_holdout_panel, within_transform and predict are stacks of one over
the same kernels, so a chunk member is its lone panel bit for bit.  ``run_experiment`` is the
one study driver: it runs every cell of an experiment config and derives
each cell's seed from the config's master seed.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockPolicyError
from .estimators import _fit
from .panel import ESTIMATOR_NAMES, PanelData, _centered, _ls_dof, _predictions
from .tuning import GRID_BLOCK_CELLS

ERROR_DISTS = ("normal", "t5", "chisq4", "cauchy", "none")
# replications fitted as one stack (see estimators._fit); fewer when their
# panels together would pass GRID_BLOCK_CELLS cells
STACK_REPS = 40
CONTAMINATION_KINDS = (
    "random_vertical",
    "random_leverage",
    "concentrated_vertical",
    "concentrated_leverage",
)


def _is_whole(value, minimum):
    """True for a Python or NumPy integer (not a bool) of at least `minimum`."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum)


@dataclass(frozen=True)
class DgpConfig:
    n_units: int
    n_periods: int
    beta: tuple = (2.4, -1.2)
    gamma: tuple = (2.0, 4.0)
    error_dist: str = "normal"
    seed: int = 0

    def __post_init__(self):
        if not (_is_whole(self.n_units, 2) and _is_whole(self.n_periods, 2)):
            raise ValueError("need at least 2 units and 2 periods, as whole numbers")
        if len(self.beta) != len(self.gamma):
            raise ValueError(
                "beta and gamma must have equal length, got %d and %d"
                % (len(self.beta), len(self.gamma))
            )
        if self.error_dist not in ERROR_DISTS:
            raise ValueError(
                "error_dist must be one of %s" % (ERROR_DISTS,)
            )


@dataclass(frozen=True)
class ContaminationScheme:
    kind: str
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CONTAMINATION_KINDS:
            raise ValueError("kind must be one of %s" % (CONTAMINATION_KINDS,))
        if not _is_whole(self.m, 0):
            raise ValueError("m must be a nonnegative whole number, got %r" % (self.m,))


def _draw_errors(rng, dist, shape):
    if dist == "normal":
        return rng.standard_normal(shape)
    if dist == "t5":
        return rng.standard_t(5, shape)
    if dist == "chisq4":
        return rng.chisquare(4, shape)  # used as generated, mean 4
    if dist == "cauchy":
        return rng.standard_cauchy(shape)
    return np.zeros(shape)


def _draw_x(rng, x):
    """Fill one (N, T, K) panel's regressors, column by column."""
    for j in range(x.shape[-1]):
        if j % 2 == 0:  # regressors 1, 3, ... in 1-based counting
            x[..., j] = rng.chisquare(2, x.shape[:2]) - 2.0
        else:
            x[..., j] = rng.standard_normal(x.shape[:2])


def _panels(config, seeds, n_test):
    """The (S, N, T) responses and (S, N, T, K) regressors of the panels
    drawn from `seeds`, member r from default_rng(seeds[r]) in the order
    x, then eta, then errors: training panels of config.n_units units for
    n_test None, else holdout panels of n_test units (gen_holdout_panel's
    law: z is drawn after x, and eta per cell).  Values are not checked
    (see _accepted)."""
    n, t = n_test or config.n_units, config.n_periods
    beta = np.asarray(config.beta, dtype=float)
    gamma = np.asarray(config.gamma, dtype=float)
    x = np.empty((len(seeds), n, t, beta.size))
    z = np.empty((len(seeds), n, t, gamma.size))
    eta = np.empty((len(seeds), n, t if n_test else 1))
    eps = np.empty((len(seeds), n, t))
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        _draw_x(rng, x[r])
        if n_test:
            _draw_x(rng, z[r])
        eta[r] = rng.uniform(0.0, 12.0, eta.shape[1:])
        eps[r] = _draw_errors(rng, config.error_dist, (n, t))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite y is flagged later
        if n_test:
            return x @ beta + (z @ gamma + eta) + eps, x
        alpha = (x @ gamma).sum(axis=2, keepdims=True) / math.sqrt(t) + eta
        return x @ beta + alpha + eps, x


def _accepted(y, x):
    """Which members of a (S, N, T) and (S, N, T, K) stack PanelData takes:
    K >= 1 and every value finite (N, T >= 2 hold by construction)."""
    return ((x.shape[-1] > 0) & np.isfinite(y).all(axis=(1, 2))
            & np.isfinite(x).all(axis=(1, 2, 3)))


def gen_panel(config):
    """Generate one panel: a stack of one of _panels."""
    y, x = _panels(config, [config.seed], None)
    return PanelData(y[0], x[0])


def gen_holdout_panel(config, n_test, seed):
    """Clean evaluation panel of n_test units from the same regressor and
    error laws: a stack of one of _panels.

    The heterogeneity term is drawn freshly per cell as
    alpha_it = z_it' gamma + eta_it, where z_it is an independent draw
    from the regressor laws: held-out units are strangers whose effects
    carry the same variance as the training construction but are pure,
    unexplainable noise to the fitted model.  (Building alpha from the
    test panel's own regressors would instead reward any fit whose
    coefficients drift toward beta + gamma, inverting the comparison
    between clean and contaminated fits; reusing the training
    construction's per-unit alpha_i would let own-means prediction
    cancel it almost entirely.)
    """
    y, x = _panels(config, [seed], n_test)
    return PanelData(y[0], x[0])


def block_length(t):
    """Periods per concentrated block: half the panel length, rounded up."""
    return (t + 1) // 2


def check_contamination(kind, m, n_units, n_periods):
    """Raise unless m cells of `kind` fit an (N, T) panel: m <= NT and, for a
    concentrated kind, whole blocks of block_length(T) periods in at most N
    units.  A BlockPolicyError names the nearest valid m; the rest are
    ValueErrors."""
    if m > n_units * n_periods:
        raise ValueError("m = %d exceeds the %d panel cells" % (m, n_units * n_periods))
    b = block_length(n_periods)
    if kind.startswith("concentrated") and m % b:
        lower = m - m % b
        nearest = lower if 2 * (m % b) <= b and lower > 0 else lower + b
        raise BlockPolicyError("m = %d does not split into blocks of %d periods; "
                               "nearest valid m is %d" % (m, b, nearest))
    if kind.startswith("concentrated") and m // b > n_units:
        raise ValueError("m = %d needs %d contaminated units but the panel has %d"
                         % (m, m // b, n_units))


def _contaminate(y, x, kind, m, seeds):
    """Write m cells of `kind` into every member of the C-contiguous
    (S, N, T) and (S, N, T, K) stacks in place, member r from default_rng(seeds[r]);
    check_contamination must have passed.  A concentrated kind's cells are
    the first block_length(T) periods of m / block_length(T) units."""
    s, n, t, k = x.shape
    b = block_length(t)
    y, x = y.reshape(s, n * t), x.reshape(s, n * t, k)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if kind.startswith("random"):
            cells, low = rng.choice(n * t, m, replace=False), 20.0
        else:
            units = rng.choice(n, m // b, replace=False)
            cells, low = (units[:, None] * t + np.arange(b)).ravel(), 79.0
        y[r, cells] = rng.uniform(low, 80.0, m)
        if kind.endswith("leverage"):
            x[r, cells] = rng.normal(8.0, 2.0, (m, k))


def contaminate(panel, scheme):
    """Apply one contamination scheme, a stack of one of _contaminate;
    untouched cells stay bitwise equal."""
    check_contamination(scheme.kind, scheme.m, panel.n_units, panel.n_periods)
    if scheme.m == 0:
        return panel
    y, x = panel.y[None].copy(), panel.x[None].copy()
    _contaminate(y, x, scheme.kind, scheme.m, [scheme.seed])
    return PanelData(y[0], x[0], unit_labels=panel.unit_labels,
                     period_labels=panel.period_labels)


def _means(samples):
    return {name: float(np.mean(v)) if v.size else float("nan") for name, v in samples.items()}


@dataclass(frozen=True)
class SimulationReport:
    """Replication study results for one ( dgp, scheme, estimators ) cell."""

    se_samples: dict  # estimator -> array of ||beta_hat - beta||^2, successes only
    n_nonconverged: dict  # estimator -> successes whose fit reported converged=False
    failures: tuple  # (replication index, message) pairs
    rmse_samples: dict  # estimator -> array of prediction RMSEs; None without a prediction study

    @property
    def mse(self):  # estimator -> mean of se_samples, nan when every replication failed
        return _means(self.se_samples)

    @property
    def rmse(self):  # estimator -> mean of rmse_samples; None without a prediction study
        return None if self.rmse_samples is None else _means(self.rmse_samples)

    @property
    def n_failed(self):
        return len(self.failures)

    @property
    def degraded(self):  # more than 5% of the replications failed
        successes = len(next(iter(self.se_samples.values())))  # one sample per estimator each
        return self.n_failed > 0.05 * (self.n_failed + successes)


def _seeds(master_seed, key, n):
    """The first n words of SeedSequence(master_seed, spawn_key=key), as ints."""
    state = np.random.SeedSequence(master_seed, spawn_key=key).generate_state(n)
    return [int(v) for v in state]


def _study(dgp, scheme, estimators, s_total, master_seed, n_test):
    """run_mc, and with n_test rmse_prediction_study.  The scheme, the
    estimator names and, with ls among them, its degrees of freedom are
    checked before any chunk, so S = 0 checks them too; every chunk is
    drawn, contaminated, centered, fitted and scored as stacks of arrays,
    each estimator's fits read from its record (see panel._Fits) as arrays."""
    if not estimators:
        raise ValueError("estimators must be nonempty")
    if not _is_whole(s_total, 0):
        raise ValueError("s_total must be a nonnegative whole number, got %r" % (s_total,))
    names = tuple(estimators)
    n, t = dgp.n_units, dgp.n_periods
    if scheme is not None:
        check_contamination(scheme.kind, scheme.m, n, t)
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError("unknown estimator %r" % (name,))
    if "ls" in names:
        _ls_dof(n, t, len(dgp.beta))
    beta_true = np.asarray(dgp.beta, dtype=float)
    se = {name: [] for name in names}
    nonconverged = dict.fromkeys(names, 0)
    rmse = {name: [] for name in names}
    failures = []
    chunk = max(1, min(STACK_REPS, GRID_BLOCK_CELLS // (n * t)))
    for first in range(0, s_total, chunk):
        reps = range(first, min(first + chunk, s_total))
        seeds = [_seeds(master_seed, (s,), 4) for s in reps]
        y, x = _panels(dgp, [seed[0] for seed in seeds], None)
        flagged = ~_accepted(y, x)
        if scheme is not None and scheme.m:
            _contaminate(y, x, scheme.kind, scheme.m, [seed[1] for seed in seeds])
        y, x, faults = _centered(y, x)  # the uncentered stacks are freed here
        flagged[list(faults)] = True
        if n_test:
            test_y, test_x = _panels(dgp, [seed[3] for seed in seeds], n_test)
            flagged |= ~_accepted(test_y, test_x)
        for r in np.flatnonzero(flagged)[:1]:  # raise what replication r raises alone:
            gen_panel(dataclasses.replace(dgp, seed=seeds[r][0]))  # a non-finite value,
            if r in faults:
                raise faults[r]  # a centered column outside the float range,
            PanelData(test_y[r], test_x[r])  # or a non-finite holdout value
        fits, failed = _fit(y, x, (n, t), names, "auto", [seed[2] for seed in seeds])
        failures += [(first + r, "%s: %s" % (type(err).__name__, err)) for r, err in failed.items()]
        done = np.delete(np.arange(len(seeds)), list(failed))
        if n_test:
            test_y, test_x = test_y[done], test_x[done]
        for name, fit in fits.items():  # a name has no record when every member failed
            nonconverged[name] += int(np.count_nonzero(~fit.converged[done]))
            betas = fit.beta[done]
            with np.errstate(over="ignore"):  # an error past the float range is inf
                se[name].append(np.sum((betas - beta_true) ** 2, axis=1))
                if n_test:
                    residuals = test_y - _predictions(test_y, test_x, betas)
                    rmse[name].append(np.sqrt(np.sum(residuals ** 2, axis=(1, 2)) / (n_test * t)))
    return SimulationReport(
        se_samples={name: np.concatenate([np.empty(0), *v]) for name, v in se.items()},
        n_nonconverged=nonconverged,
        failures=tuple(failures),
        rmse_samples={name: np.concatenate([np.empty(0), *v]) for name, v in rmse.items()}
        if n_test else None,
    )


def run_mc(dgp, scheme, estimators, s_total, master_seed):
    """Estimation-error study: S replications of generate, contaminate,
    fit; records the squared coefficient error of every estimator."""
    return _study(dgp, scheme, estimators, s_total, master_seed, None)


def rmse_prediction_study(dgp, scheme, estimators, s_total, n_test, master_seed):
    """Prediction study: each replication also generates a clean test
    panel of n_test units and records root mean squared prediction error
    under own-means intercept recovery."""
    if not _is_whole(n_test, 2):
        raise ValueError("n_test must be a whole number of at least 2, got %r" % (n_test,))
    return _study(dgp, scheme, estimators, s_total, master_seed, n_test)


def run_experiment(config):
    """Run every study cell of an experiment config (``io.ExperimentConfig``).

    Yields (section, key, SimulationReport) in table order, section by
    section:

      "outlier_study"      key (kind, m), kinds outer and m levels inner
      "consistency_study"  key (axis, n, t), the n axis then the t axis
      "error_dist_study"   key (error_dist, n, t), laws outer and pairs inner

    Cell seeds: (1, kind index, m index) and (2, axis index, point index)
    under the master seed; the error-law cells use (law index, pair index)
    under the seed of (3,).
    """
    names, s_total, master = config.estimators, config.s, config.master_seed

    def dgp(n, t, error_dist):
        return DgpConfig(n_units=n, n_periods=t, beta=config.beta, gamma=config.gamma,
                         error_dist=error_dist)

    study = config.outlier_study
    if study is not None:
        train = dgp(study.n_units, study.n_periods, config.error_dist)
        for ki, kind in enumerate(study.kinds):
            for mi, m in enumerate(study.m_levels):
                yield "outlier_study", (kind, m), rmse_prediction_study(
                    train, ContaminationScheme(kind=kind, m=m), names, s_total,
                    study.n_test, _seeds(master, (1, ki, mi), 1)[0])
    study = config.consistency_study
    if study is not None:
        axes = (("n", [(n, study.t_fixed) for n in study.n_values]),
                ("t", [(study.n_fixed, t) for t in study.t_values]))
        for ai, (axis, points) in enumerate(axes):
            for pi, (n, t) in enumerate(points):
                yield "consistency_study", (axis, n, t), run_mc(
                    dgp(n, t, config.error_dist), None, names, s_total,
                    _seeds(master, (2, ai, pi), 1)[0])
    study = config.error_dist_study
    if study is not None:
        base = _seeds(master, (3,), 1)[0]
        for di, dist in enumerate(ERROR_DISTS[:-1]):  # every law but the "none" hook
            for pi, (n, t) in enumerate(study.pairs):
                yield "error_dist_study", (dist, n, t), run_mc(
                    dgp(n, t, dist), None, names, s_total, _seeds(base, (di, pi), 1)[0])
