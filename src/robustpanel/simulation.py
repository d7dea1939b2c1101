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
no matter how many replications surround it.  ``run_experiment`` is the
one study driver: it runs every cell of an experiment config and derives
each cell's seed from the config's master seed.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockPolicyError, EstimationError
from .estimators import _fit
from .panel import PanelData, predict, within_transform
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


def _draw_x(rng, n, t, k):
    x = np.empty((n, t, k))
    for j in range(k):
        if j % 2 == 0:  # regressors 1, 3, ... in 1-based counting
            x[:, :, j] = rng.chisquare(2, (n, t)) - 2.0
        else:
            x[:, :, j] = rng.standard_normal((n, t))
    return x


def gen_panel(config):
    """Generate one panel.  Draw order is x, then eta, then errors."""
    rng = np.random.default_rng(config.seed)
    n, t = config.n_units, config.n_periods
    beta = np.asarray(config.beta, dtype=float)
    gamma = np.asarray(config.gamma, dtype=float)
    x = _draw_x(rng, n, t, beta.size)
    eta = rng.uniform(0.0, 12.0, n)
    eps = _draw_errors(rng, config.error_dist, (n, t))
    with np.errstate(over="ignore", invalid="ignore"):  # PanelData names a non-finite y
        alpha = (x @ gamma).sum(axis=1) / math.sqrt(t) + eta
        y = x @ beta + alpha[:, None] + eps
    return PanelData(y, x)


def gen_holdout_panel(config, n_test, seed):
    """Clean evaluation panel of n_test units from the same regressor and
    error laws.

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
    rng = np.random.default_rng(seed)
    t = config.n_periods
    beta = np.asarray(config.beta, dtype=float)
    gamma = np.asarray(config.gamma, dtype=float)
    x = _draw_x(rng, n_test, t, beta.size)
    z = _draw_x(rng, n_test, t, gamma.size)
    eta = rng.uniform(0.0, 12.0, (n_test, t))
    eps = _draw_errors(rng, config.error_dist, (n_test, t))
    with np.errstate(over="ignore", invalid="ignore"):  # PanelData names a non-finite y
        y = x @ beta + (z @ gamma + eta) + eps
    return PanelData(y, x)


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


def contaminate(panel, scheme):
    """Apply one contamination scheme; untouched cells stay bitwise equal."""
    n, t = panel.n_units, panel.n_periods
    check_contamination(scheme.kind, scheme.m, n, t)
    if scheme.m == 0:
        return panel
    k = panel.n_regressors
    nt = n * t
    rng = np.random.default_rng(scheme.seed)
    y = panel.y.copy()
    x = panel.x.copy()

    if scheme.kind in ("random_vertical", "random_leverage"):
        cells = rng.choice(nt, scheme.m, replace=False)
        y.ravel()[cells] = rng.uniform(20.0, 80.0, scheme.m)
        if scheme.kind == "random_leverage":
            x.reshape(nt, k)[cells] = rng.normal(8.0, 2.0, (scheme.m, k))
    else:
        b = block_length(t)
        n_blocks = scheme.m // b
        units = rng.choice(n, n_blocks, replace=False)
        y[units, :b] = rng.uniform(79.0, 80.0, (n_blocks, b))
        if scheme.kind == "concentrated_leverage":
            x[units, :b, :] = rng.normal(8.0, 2.0, (n_blocks, b, k))
    return PanelData(y, x, unit_labels=panel.unit_labels, period_labels=panel.period_labels)


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


def _seeds(master_seed, key, n=1):
    """The first n words of SeedSequence(master_seed, spawn_key=key), as ints."""
    state = np.random.SeedSequence(master_seed, spawn_key=key).generate_state(n)
    return [int(v) for v in state]


def _study(dgp, scheme, estimators, s_total, master_seed, n_test=None):
    if not estimators:
        raise ValueError("estimators must be nonempty")
    if not _is_whole(s_total, 0):
        raise ValueError("s_total must be a nonnegative whole number, got %r" % (s_total,))
    names = tuple(estimators)
    beta_true = np.asarray(dgp.beta, dtype=float)
    se = {name: [] for name in names}
    nonconverged = dict.fromkeys(names, 0)
    rmse = {name: [] for name in names} if n_test else None
    failures = []
    chunk = max(1, min(STACK_REPS, GRID_BLOCK_CELLS // (dgp.n_units * dgp.n_periods)))
    for first in range(0, s_total, chunk):
        reps = range(first, min(first + chunk, s_total))
        cps, fit_seeds, tests = [], [], []
        for s in reps:
            seeds = _seeds(master_seed, (s,), 4)
            panel = gen_panel(dataclasses.replace(dgp, seed=seeds[0]))
            if scheme is not None:
                panel = contaminate(panel, dataclasses.replace(scheme, seed=seeds[1]))
            cps.append(within_transform(panel))
            fit_seeds.append(seeds[2])
            tests.append(gen_holdout_panel(dgp, n_test, seeds[3]) if n_test else None)
        for s, fits, test_panel in zip(reps, _fit(cps, names, "auto", fit_seeds), tests):
            if isinstance(fits, EstimationError):
                failures.append((s, "%s: %s" % (type(fits).__name__, fits)))
                continue
            for name in names:
                nonconverged[name] += not fits[name].converged
                with np.errstate(over="ignore"):  # an error past the float range is inf
                    se[name].append(float(np.sum((fits[name].beta - beta_true) ** 2)))
                    if n_test:
                        yhat = predict(test_panel, fits[name].beta)
                        rmse[name].append(
                            float(np.sqrt(np.sum((test_panel.y - yhat) ** 2) / test_panel.y.size))
                        )
    return SimulationReport(
        se_samples={name: np.asarray(v) for name, v in se.items()},
        n_nonconverged=nonconverged,
        failures=tuple(failures),
        rmse_samples={name: np.asarray(v) for name, v in rmse.items()} if n_test else None,
    )


def run_mc(dgp, scheme, estimators, s_total, master_seed):
    """Estimation-error study: S replications of generate, contaminate,
    fit; records the squared coefficient error of every estimator."""
    return _study(dgp, scheme, estimators, s_total, master_seed)


def rmse_prediction_study(dgp, scheme, estimators, s_total, n_test, master_seed):
    """Prediction study: each replication also generates a clean test
    panel of n_test units and records root mean squared prediction error
    under own-means intercept recovery."""
    if not _is_whole(n_test, 2):
        raise ValueError("n_test must be a whole number of at least 2, got %r" % (n_test,))
    return _study(dgp, scheme, estimators, s_total, master_seed, n_test=n_test)


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
                    study.n_test, _seeds(master, (1, ki, mi))[0])
    study = config.consistency_study
    if study is not None:
        axes = (("n", [(n, study.t_fixed) for n in study.n_values]),
                ("t", [(study.n_fixed, t) for t in study.t_values]))
        for ai, (axis, points) in enumerate(axes):
            for pi, (n, t) in enumerate(points):
                yield "consistency_study", (axis, n, t), run_mc(
                    dgp(n, t, config.error_dist), None, names, s_total,
                    _seeds(master, (2, ai, pi))[0])
    study = config.error_dist_study
    if study is not None:
        base = _seeds(master, (3,))[0]
        for di, dist in enumerate(ERROR_DISTS[:-1]):  # every law but the "none" hook
            for pi, (n, t) in enumerate(study.pairs):
                yield "error_dist_study", (dist, n, t), run_mc(
                    dgp(n, t, dist), None, names, s_total, _seeds(base, (di, pi))[0])
