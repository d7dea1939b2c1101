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

Each search runs on a stack of panels at once, with a leading
replication axis: ``_tau_search`` and ``_esl_search`` take the (S, NT)
residuals (and, for esl, the (S, NT, K) designs and one grid per member)
of a chunk of study replications, and ``select_c_grid`` and
``esl_select_c`` are stacks of one.  huber's and tukey's searches take
each member's whole tau_hat curve from one sort of its |e| (see
_tau_grid): a count, power sums and, for tukey, the cells nearest each c
summed one by one, with no pass over (members x grid points x cells).
esl's search evaluates every member's whole grid in array passes over
(grid points x cells), walked in blocks of one member's grid rows, at
most GRID_BLOCK_CELLS cells each (see _blocks), so that its temporaries
stay small.  A member's rows are blocked the same way in any stack, so
its numbers do not depend on its stack-mates.  esl's search flags a whole
stack at once and takes xi and V_hat from one evaluation of exp(-e^2 / c)
per member, grid point and cell (see _esl_sandwich); its grids come from
one stacked _esl_grids, of which default_esl_grid is a stack of one.  A
search returns values only and raises NoValidTuning when any member has
no valid c; ``estimators._fit`` then isolates that member's panel.
``efficiency_factor`` (for huber and tukey) and ``esl_cov`` are
one-point calls into the same kernels, and ``xi`` sums the same per-cell
loss in the same order as the search, so the two agree bit for bit.
Both searches break ties toward the smallest grid point, and both reject
an empty grid or a candidate that is not positive and finite.

esl's information matrix counts as singular by the one rule of every
K x K system the fits solve, panel._nonsingular, which measures it
against its own column sizes, so it does not depend on the units of any
regressor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoValidTuning, ZeroScale
from .losses import ESL, LossSpec, _esl_v, _psi, _psi_prime, _rho
from .panel import _as_centered, _coefficients, _nonsingular, _solve
from .scale import _mad

HUBER_GRID = 0.05 * np.arange(1, 61)
TUKEY_GRID = 1.0 + 0.2 * np.arange(46)
GRID_BLOCK_CELLS = 2**14  # cells per block of a grid kernel: 128 KB per temporary
TAU_C_MAX = 1e100  # largest huber or tukey constant of tau_hat: (c NT)^2 stays in the float range
TAU_TUKEY_SPAN = 1e30  # widest tukey grid of tau_hat, max c / min c: its tenth powers stay normal


def _esl_grids(sigma):
    """default_esl_grid of every member of the (S,) MAD scales `sigma`, as
    an (S, 50) stack.  float_power squares through pow(), as the scalar
    ** 2 does, where ** 2 on an array multiplies; the two can differ in the
    last bit.  Raises ZeroScale when a member's smallest candidate
    underflows to zero and NoValidTuning when its largest one leaves the
    float range, naming the scale of the first such member.
    """
    # 100 s2 past the float range is reported below; and near the top of
    # the range geomspace's 10^log10(c) can overflow where c does not, when
    # it returns the end point itself
    with np.errstate(over="ignore"):
        s2 = np.float_power(sigma, 2)
        for bad, error, size in ((~(0.1 * s2 > 0.0), ZeroScale, "small"),
                                 (~(100.0 * s2 < np.inf), NoValidTuning, "large")):
            if bad.any():
                raise error("MAD scale %g of the residuals is too %s to square; rescale y"
                            % (sigma[bad.argmax()], size))
        return np.geomspace(0.1 * s2, 100.0 * s2, 50, axis=-1)


def default_esl_grid(sigma_mad):
    """50 log-spaced candidates spanning [0.1, 100] times sigma_mad^2.

    The constant enters the exponential-squared loss as exp(-e^2 / c), so
    candidates must live on the squared scale of the residuals.  Raises
    ValueError when sigma_mad is not positive and finite or its largest
    candidate leaves the float range, and ZeroScale when the smallest one
    underflows to zero.  A stack of one of _esl_grids.
    """
    if not 0.0 < sigma_mad < np.inf:
        raise ValueError("sigma_mad must be positive and finite")
    with np.errstate(over="ignore"):
        if 100.0 * np.float_power(sigma_mad, 2) == np.inf:
            raise ValueError("sigma_mad %g is too large: 100 sigma_mad^2 leaves the float range"
                             % sigma_mad)
    return _esl_grids(np.array([float(sigma_mad)]))[0]


def _candidates(grid):
    """`grid` as a float array of tuning constants.  Raises ValueError when
    it is empty or a candidate is not positive and finite."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("the grid holds no candidate tuning constant")
    bad = ~((grid > 0.0) & (grid < np.inf))
    if bad.any():
        raise ValueError("tuning constant must be positive and finite, got %r" % float(grid[bad][0]))
    return grid


def _blocks(s, g, nt):
    """(member, row slice) blocks of an (s, g, nt) stack of grid rows: one
    member per block, its g rows in runs of at most GRID_BLOCK_CELLS // nt
    (never less than one row).  Every member's rows are split the same way
    in any stack, so its row sums and products do not depend on its
    stack-mates."""
    rows = max(1, GRID_BLOCK_CELLS // nt)
    return [(i, slice(j, min(j + rows, g))) for i in range(s) for j in range(0, g, rows)]


def _tau(dpsi, psi2, nt):
    """tau_hat from the moment sums sum psi' and sum psi^2 over NT cells,
    and where it is defined: when every cell lands where psi vanishes
    (total rejection by a redescender) both sums are 0 and tau_hat is
    reported as 0, undefined, rather than 0/0."""
    # float_power squares through pow(), as a scalar ** 2 does, where ** 2
    # on an array multiplies; the two can differ in the last bit
    num, den = np.float_power(dpsi, 2), nt * psi2
    defined = den != 0.0
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=defined), defined


def _power_sums(sq, at, count):
    """The sums of sq, sq^2, ..., sq^count over each member's first `at`
    cells, one (S, G) array per power, from the (S, NT) sq and the (S, G)
    counts `at`.  The powers are built one at a time in a running buffer."""
    power = sq.copy() if count > 1 else sq
    cum, sums = np.zeros((len(sq), sq.shape[1] + 1)), []  # cum[:, i]: the sum of i cells
    for k in range(count):
        if k:
            power *= sq
        np.cumsum(power, axis=1, out=cum[:, 1:])
        sums.append(np.take_along_axis(cum, at, axis=1))
    return sums


def _near_sums(u, t, lo, hi):
    """tukey's sum psi' and sum psi^2 / top^2 taken cell by cell over the
    cells lo:hi of each member at each grid point, from u, the (S, NT)
    sorted |e| / top; t, the (G,) top / c; and lo <= hi, both (S, G).  One
    element per (grid point, cell) pair, summed per (member, grid point);
    with no pair at all np.bincount returns integer zeros."""
    s, nt = u.shape
    n = (hi - lo).ravel()
    pair = np.repeat(np.arange(n.size), n)
    first = (lo + nt * np.arange(s)[:, None]).ravel() - np.cumsum(n) + n  # less each run's offset
    cells = u.ravel()[np.arange(pair.size) + first[pair]]
    w = 1.0 - (cells * np.tile(t, s)[pair]) ** 2  # 1 - (e / c)^2
    dpsi = np.bincount(pair, w * (5.0 * w - 4.0), n.size)
    psi2 = np.bincount(pair, np.square(cells * np.square(w)), n.size)
    return dpsi.reshape(s, -1), psi2.reshape(s, -1)


def _tau_grid(e, family, grid):
    """tau_hat(c) and whether it is defined, for every member (row of the
    (S, NT) residuals e) of huber or tukey at every c in `grid` at once.

    Both families' moments come from one sort of each member's |e|,
    whatever the grid, in O(NT log NT + G) per member rather than a pass
    over (G, NT).  Over the cells inside c (a searchsorted count n_in)
    psi' and psi^2 are polynomials in v = e^2 / c^2, so with P_k the
    cumulative sum of |e|^k over those cells, read at each grid point:

        huber:  sum psi' = n_in,  sum psi^2 = P_2 + c^2 (NT - n_in)
        tukey:  sum psi' = n_in - 6 P_2 / c^2 + 5 P_4 / c^4
                sum psi^2 = P_2 - 4 P_4 / c^2 + 6 P_6 / c^4 - 4 P_8 / c^6 + P_10 / c^8

    tukey's are taken in Horner form in 1 / c^2.  huber counts a cell at
    the kink |e| = c inside, keeping psi' its inner value 1; tukey counts
    it outside, where psi and psi' are 0.  The powers are of |e| clamped
    at the grid's top, which changes none below it (see _power_sums).
    tukey's are of |e| / 2^k with 2^k the power of two above that top, all
    in [0, 1], so none leaves the float range whatever the grid; scaling by
    a power of two rounds nothing, so a grid point's tau_hat does not
    depend on the rest of the grid, bit for bit, while the powers stay
    normal floats.  At the grid's smallest c, |e| / top is at least
    c / (2 max c), whose tenth power stays normal while the grid spans up
    to about 3e30.  tau_hat at the smallest c measured up to 8e-12
    relative off its value on a grid of one at a span of 1e31, up to 0.14
    at 1e32 and a factor 3 from 1e33.

    huber's count is exact and its sum of squares equals the cell by cell
    sum to rounding.  tukey's expansion cancels: its terms add up to
    e^2 (1 + v)^4 per cell against the cell's e^2 (1 - v)^4, which
    vanishes as |e| nears c, where tau_hat can peak on a small panel.  So
    the power sums cover only the far cells, v <= 3/4, where the ratio is
    at most 7^4, and the near ones, 3/4 < v < 1, are summed cell by cell
    (see _near_sums): about half a (grid point, cell) pair per cell of a
    study panel.  At each member's argmax tukey's tau_hat then lies within
    3e-13 relative of a long-double cell by cell sum on panels of 6 to 240
    cells, as the cell by cell float sums do, and it is exactly 0,
    undefined, where every cell is rejected.

    Raises ValueError when a constant exceeds TAU_C_MAX (1e100), or when
    a tukey grid's largest constant exceeds TAU_TUKEY_SPAN (1e30) times
    its smallest (see above).  Past about 1e154 c^2 leaves the float
    range: huber's psi^2 of a clipped cell and tukey's top^2 overflow, and
    tukey's (|e| / top)^2 underflow to 0 at residuals of order 1.  Up to
    TAU_C_MAX huber's sum psi^2, at most c^2 NT, stays in range times NT
    at any NT a panel can hold.
    """
    nt, cmax = e.shape[1], grid.max()
    if cmax > TAU_C_MAX:
        raise ValueError("tuning constant %g is above %g, past which tau_hat leaves the float "
                         "range" % (cmax, TAU_C_MAX))
    if family == "tukey" and cmax > TAU_TUKEY_SPAN * grid.min():
        raise ValueError("tukey grid spans %g to %g, a ratio above %g, past which tau_hat's "
                         "power sums underflow" % (grid.min(), cmax, TAU_TUKEY_SPAN))
    a = np.abs(e)
    a.sort(axis=1)
    if family == "huber":
        inside = np.stack([np.searchsorted(row, grid, side="right") for row in a])
        np.square(np.minimum(a, cmax, out=a), out=a)
        return _tau(inside, _power_sums(a, inside, 1)[0] + grid * grid * (nt - inside), nt)
    inside = np.stack([np.searchsorted(row, grid, side="left") for row in a])
    # the far cells, v <= 3/4, never more than those inside: at the
    # smallest subnormal c, sqrt(0.75) c rounds back to c
    far = np.minimum(inside, np.stack(
        [np.searchsorted(row, np.sqrt(0.75) * grid, side="right") for row in a]))
    top = np.ldexp(1.0, np.frexp(cmax)[1])  # the power of two above the grid's top
    u = np.divide(np.minimum(a, cmax, out=a), top, out=a)
    p2, p4, p6, p8, p10 = _power_sums(np.square(u), far, 5)
    t = top / grid
    r = t * t
    dpsi, psi2 = _near_sums(u, t, far, inside)
    psi2 = psi2 + p2 + r * (r * (6.0 * p6 + r * (r * p10 - 4.0 * p8)) - 4.0 * p4)
    return _tau(dpsi + far + r * (5.0 * r * p4 - 6.0 * p2), top * (top * psi2), nt)


def efficiency_factor(std_residuals, loss):
    """Empirical efficiency factor tau_hat for one loss at given residuals.

    Returns ``(value, defined)``; (0.0, False) under total rejection.  A
    nan residual raises ValueError; +-inf ones take psi's limits.  huber
    and tukey go through the grid kernel with a grid of one, and raise
    ValueError for a constant above TAU_C_MAX (1e100), past which tau_hat
    leaves the float range; esl, which has no grid search of its own, is
    evaluated at its one point directly.
    """
    e = np.asarray(std_residuals, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("no residuals supplied")
    if np.isnan(e).any():
        raise ValueError("residuals must not be nan")
    if loss.family == ESL:
        tau, defined = _tau(np.sum(_psi_prime(ESL, loss.c, e)),
                            np.sum(_psi(ESL, loss.c, e) ** 2), e.size)
    else:
        tau, defined = _tau_grid(e[None], loss.family, np.array([loss.c]))
    return tau.item(), bool(defined.item())


@dataclass(frozen=True)
class EfficiencyCurve:
    """Grid search record for the Huber/Tukey tuning constant, per grid point."""

    tau_hat: np.ndarray
    defined: np.ndarray
    c_star: float
    tau_star: float


def _tau_search(e, family, grid):
    """The grid search of select_c_grid for every member (row) of the
    standardized residuals e: tau_hat, defined and the index of each
    member's c_star.  Raises NoValidTuning when tau_hat is nowhere defined
    for some member."""
    tau, defined = _tau_grid(e, family, grid)
    if not defined.any(axis=1).all():
        raise NoValidTuning(
            "efficiency factor undefined at every candidate c in [%g, %g]; all residuals "
            "fall in the rejection region" % (grid.min(), grid.max()))
    return tau, defined, np.argmax(np.where(defined, tau, -np.inf), axis=1)  # smallest c first


def select_c_grid(panel, family, beta_current, sigma, grid):
    """Maximize tau_hat(c) over `grid` at the current fit.

    `panel` may be raw or already within-centered; residuals are
    (y_dd - x_dd beta_current) / sigma.  Raises NoValidTuning when the
    factor is undefined at every grid point, and ValueError when sigma is
    not positive and finite, a coefficient is not finite, or the grid is
    empty or holds a candidate that is not positive and finite, or one
    above TAU_C_MAX (1e100), past which tau_hat leaves the float range,
    or when a tukey grid spans more than TAU_TUKEY_SPAN (1e30).
    """
    if family not in ("huber", "tukey"):
        raise ValueError("grid tuning applies to huber or tukey, got %r" % (family,))
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    cp = _as_centered(panel)
    beta = _coefficients(beta_current, cp.x.shape[1], "beta_current")
    with np.errstate(over="ignore"):  # +-inf residuals take psi's limits, as in irls_fit
        e = (cp.y - cp.x @ beta) / sigma

    grid = _candidates(grid)
    tau, defined, best = _tau_search(e[None], family, grid)
    best = best[0]
    return EfficiencyCurve(tau[0], defined[0], float(grid[best]), float(tau[0, best]))


def _flagged(residuals, sigma_mad):
    """The pseudo-outlier cut: |residual| >= 2.5 sigma_mad, elementwise."""
    return np.abs(residuals) >= 2.5 * sigma_mad


def pseudo_outlier_set(residuals, sigma_mad):
    """Cells whose absolute residual reaches 2.5 * sigma_mad: a boolean
    mask of the shape of `residuals`."""
    if not sigma_mad > 0:
        raise ValueError("sigma_mad must be positive")
    return _flagged(np.asarray(residuals, dtype=float), sigma_mad)


def xi(c, residuals_good, m, nt):
    """Feasibility functional: worst-case mass of the m flagged cells plus
    twice the mean exponential-squared loss over the retained residuals.

    xi(c) = 2 m / NT + (2 / NT) * sum_retained rho_c(e).  Since rho <= 1,
    xi <= 2(m + #retained)/NT <= 2; the feasible region asks xi in (0, 1].
    """
    c = LossSpec(ESL, c).c
    e = np.asarray(residuals_good, dtype=float).ravel()
    if nt <= 0:
        raise ValueError("nt must be positive")
    if m < 0 or m + e.size > nt:
        raise ValueError("m and retained residuals inconsistent with nt")
    return float(2.0 * m / nt + (2.0 / nt) * np.sum(_rho(ESL, c, e)))


def _esl_sandwich(x, e, grid, keep):
    """The terms of V_hat(c) = I^{-1} Sigma_tilde I^{-1} for every member of
    a stack at every c of its grid, from the (S, NT, K) centered regressors
    x, the (S, NT) residuals e at beta0 and the (S, G) grids, and the loss
    sum of xi(c) over the cells that the (S, NT) mask `keep` retains.
    With psi, psi' the exponential-squared kernels at c and
    M = mean[x_dd x_dd'] fixed:

        I(c)           = -(2/c) kappa(c) M,   kappa(c) = mean[psi'(e)]
        Sigma_tilde(c) = (2/c)^2 S(c),
        S(c)           = mean[psi^2 x_dd x_dd'] - mean[psi x_dd] mean[psi x_dd]'

    so V_hat(c) = M^{-1} S(c) M^{-1} / kappa(c)^2 and
    log det V_hat = log det S - 2 (K log|kappa| + log det M): no per-c
    inverse or determinant of I, and the S(c) of a member's block of the
    grid (see _blocks) come from one (rows, NT) @ (NT, K^2) matmul.  I is
    negative definite near e = 0; only its square enters V_hat.

    I(c) counts as numerically singular by the one rule of
    panel._nonsingular: |det I| is measured against the product of its
    column sizes with kappa replaced by its unit bound (|psi'| <= 1), the
    diagonal of (2/c) M, and the factor 2/c cancels from both sides.
    Using kappa itself as the yardstick would cancel out of the ratio, and
    a root of kappa, which the search must skip, would go undetected.  So
    the test does not depend on the units of any regressor, and in log
    space neither side overflows or underflows as K grows.

    The loss is evaluated once per cell and c: w = exp(-e^2 / c), which is
    1 - rho.  kappa = (sum w - (2/c) sum w e^2) / NT, both sums from one
    (rows, NT) @ (NT, 2) matmul, so no psi' array is formed; w then becomes
    psi = sign(e) |e| w in place, and psi^2 in place.  |e|, e^2 and the
    (NT, K^2) products x x' are formed once per call, never per block.  The
    retained loss sum_keep rho is taken over each member's retained cells
    gathered C-contiguous (np.compress), so it adds in the order xi() adds
    them and equals it bit for bit; a sum over all cells with the flagged
    ones zeroed would add in another order.  The mean score is taken as
    psi @ x: forming it in the kappa matmul as w @ (sign(e) |e| x) rounds
    differently, and that moves esl's numbers on exact-fit panels such as
    (N, T) = (3, 2).

    Returns ``(kappa, M, S, log_det_v, defined, loss)`` with M of shape
    (S, K, K), S of shape (S, G, K, K) and loss of shape (S, G); log_det_v
    is log det V_hat(c), -inf where det S(c) <= 0.
    """
    s, nt, k = x.shape
    g = grid.shape[1]
    cross = x.transpose(0, 2, 1) @ x / nt
    outer = (x[:, :, :, None] * x[:, :, None, :]).reshape(s, nt, k * k)
    sums = np.empty((s, g, 2))
    mean_scores = np.empty((s, g, k))
    sq = np.empty((s, g, k * k))
    loss = np.empty((s, g))
    # psi^2 x x' can pass the float range where x x' does not; such an S(c)
    # leaves the float range and its c counts as undefined
    with np.errstate(over="ignore", invalid="ignore"):
        a = _esl_v(grid.max(), e)[0]  # |e|, clamped where every exp(-e^2 / c) is 0
        a2, signed = a * a, np.copysign(a, e, out=a)  # a's buffer becomes sign(e) |e|
        ones_a2 = np.stack((np.ones(a2.shape), a2), axis=2)  # w @ ones_a2 = (sum w, sum w e^2)
        for i, rows in _blocks(s, g, nt):
            w = np.exp(-a2[i] / grid[i, rows, None])
            loss[i, rows] = np.sum(1.0 - np.compress(keep[i], w, axis=-1), axis=-1)
            sums[i, rows] = w @ ones_a2[i]
            w *= signed[i]  # psi
            mean_scores[i, rows] = w @ x[i] / nt
            np.square(w, out=w)
            sq[i, rows] = w @ outer[i] / nt
        kappa = (sums[..., 0] - 2.0 * sums[..., 1] / grid) / nt
        sq = sq.reshape(s, g, k, k)
        sq -= mean_scores[..., :, None] * mean_scores[..., None, :]
    in_range = np.isfinite(sq).all(axis=(2, 3))
    sq[~in_range] = 0.0  # keeps slogdet quiet; those c are undefined anyway

    _, log_det_m = np.linalg.slogdet(cross)
    sign_s, log_det_s = np.linalg.slogdet(sq)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 where kappa or M vanish
        log_abs_kappa = np.log(np.abs(kappa))
        log_det_v = np.where(sign_s > 0,
                             log_det_s - 2.0 * (log_det_m[:, None] + k * log_abs_kappa), -np.inf)
    # log|det I(c)| less K log(2/c), against the diagonal of M (see above)
    defined = in_range & _nonsingular(k * log_abs_kappa + log_det_m[:, None],
                                      np.diagonal(cross, axis1=1, axis2=2)[:, None, :])
    return kappa, cross, sq, log_det_v, defined, loss


def esl_cov(panel, beta0, c):
    """Sandwich covariance V_hat(c) = I^{-1} Sigma_tilde I^{-1} at beta0
    (see _esl_sandwich for its terms and the singularity test), with M^-1
    the solve of the identity by panel._solve, as every covariance takes
    its inverse.

    Returns ``(matrix, defined)``; `defined` is False, with a nan matrix,
    when the information factor is numerically singular.
    """
    cp = _as_centered(panel)
    beta0 = _coefficients(beta0, cp.x.shape[1], "beta0")
    e = (cp.y - cp.x @ beta0)[None]
    kappa, cross, s, _, defined, _ = _esl_sandwich(cp.x[None], e, np.array([[float(c)]]),
                                                   np.ones(e.shape, dtype=bool))
    if not defined[0, 0]:
        return np.full(cross.shape[1:], np.nan), False
    inv = _solve(cross, np.identity(len(beta0))[None])[0][0]  # M passes the rule where V does
    return inv @ s[0, 0] @ inv / kappa[0, 0] ** 2, True


@dataclass(frozen=True)
class EslTuningState:
    """Everything the exponential-squared selection step decided, per grid point."""

    sigma_mad: float
    m: int
    xi_values: np.ndarray
    detv_values: np.ndarray  # log det V_hat(c); nan off the feasible set
    c_selected: float


def _esl_search(x, y, beta0, grids):
    """The selection step of esl_select_c for every member of a stack, at
    its coefficients beta0 (S, K) over its grid (a row of grids, (S, G)).

    The whole stack is flagged at once (a member with a MAD of 0 flags
    nothing), and xi and log det V_hat come from one _esl_sandwich pass.
    Returns arrays: each member's selected c and sigma_mad (S,), its xi
    and log det V_hat (nan off the feasible set) over its grid (S, G), and
    its pseudo-outlier count m (S,).  Raises NoValidTuning, with the xi
    range of the first member that has no feasible c, when some member has
    none.
    """
    resid = y - (x @ beta0[:, :, None])[:, :, 0]
    nt = resid.shape[1]
    sigma_mad = _mad(resid.copy())
    spread = sigma_mad[:, None]
    flagged = (spread > 0) & _flagged(resid, spread)
    m = flagged.sum(axis=1)
    _, _, _, log_det_v, defined, loss = _esl_sandwich(x, resid, grids, ~flagged)
    xi_vals = 2.0 * m[:, None] / nt + (2.0 / nt) * loss
    feasible = (xi_vals > 0.0) & (xi_vals <= 1.0) & defined
    detv = np.where(feasible, log_det_v, np.nan)
    best = np.argmin(np.where(feasible, detv, np.inf), axis=1)  # first minimum: smallest c
    tuned = feasible.any(axis=1)
    if not tuned.all():
        first = xi_vals[np.argmin(tuned)]
        raise NoValidTuning(
            "no candidate c gives xi in (0, 1] with a well defined covariance; xi "
            "ranged over [%g, %g] across the grid" % (first.min(), first.max()))
    return grids[np.arange(len(grids)), best], sigma_mad, xi_vals, detv, m


def esl_select_c(panel, beta0, grid):
    """Pick the exponential-squared constant: smallest det(V_hat) over the
    feasible set G = {c in grid : xi(c) in (0, 1], V_hat defined}.
    Determinants are ranked by their logarithms, which neither overflow
    nor underflow; a non-positive det(V_hat) ranks as log 0 = -inf.

    Residuals are taken raw (unstandardized) at beta0; the selected c
    absorbs their scale.  When the residuals have zero median absolute
    deviation no cell is flagged (there is no spread to flag against).
    Raises NoValidTuning when G is empty, reporting the xi range seen, and
    ValueError when the grid is empty or holds a candidate that is not
    positive and finite.
    """
    cp = _as_centered(panel)
    beta0 = _coefficients(beta0, cp.x.shape[1], "beta0")
    grid = _candidates(grid)
    c, sigma_mad, xi_vals, detv, m = _esl_search(cp.x[None], cp.y[None], beta0[None], grid[None])
    return EslTuningState(sigma_mad=float(sigma_mad[0]), m=int(m[0]), xi_values=xi_vals[0],
                          detv_values=detv[0], c_selected=float(c[0]))
