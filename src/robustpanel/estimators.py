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

Every kernel works on a stack of panels of one shape, with a leading
replication axis: (S, NT) centered responses and (S, NT, K) centered
designs.  ``_fit``, the one dispatcher, takes those two arrays and fits
every member at once: the simulation studies hand it the centered arrays
of a chunk of replications, and ``fit_esl``, ``fit_estimator``,
``fit_mestimator``, ``irls_fit`` and ``high_breakdown_init`` are stacks
of one.  ls is a stacked kernel too (``panel._ls``, whose stack of one is
``within_ls``).  Each member runs the steps it would run alone: its start
draws from its own random stream, and IRLS and the esl outer loop set a
member aside once it settles.  No member's numbers depend on its
stack-mates: row sums, and batched matmul, solve and eigh, act member by
member.  A kernel returns one record of arrays per estimator and stack
(``panel._Fits``); a FitResult is built only where one panel is fitted,
as row 0 of a record.  A kernel raises the EstimationError of any member
that meets one, and returns values only; ``_fit`` alone turns a failure
into one panel's result, by fitting a stack that raised again in halves,
row-slice views that keep the start, while the stack keeps the records
it finished (see _fit).

The weighted LS step is one batched K x K solve at weights its caller
computed (see _weighted_solve): every IRLS iterate of tukey and esl, and
the start's polish, is one.  For Huber's convex loss ``_huber_step``
takes a Newton step where the Hessian allows one and the weighted LS step
elsewhere, and one exact line search carries either along its direction
(see _huber_search and _huber_minimizer).  Every loop stops on one
scale-free rule (see _settled).  IRLS evaluates the loss once per step
and cell for its own use: one losses._psi_weight call gives the psi of
the stopping rule and the weights of the next step.  Huber's step
evaluates psi and psi' again at the same residuals; threading psi
through to it would hold one more (S, NT) array through every step of
tukey's and esl's IRLS too, and raise their peak memory.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, EstimationError, SingularWeightedDesign, UnstableCurvature
from .losses import LossSpec, _psi, _psi_prime, _psi_weight, _weight, psi, psi_prime
from .panel import (ESTIMATOR_NAMES, _as_centered, _coefficients, _Fits, _fit_result,
                    _in_float_range, _ls, _xb, within_ls)
from .scale import _mad, _scales
from .tuning import (HUBER_GRID, TUKEY_GRID, _blocks, _esl_grids, _esl_search, _nonsingular,
                     _tau_search)

TUKEY_REFERENCE_C = 4.685  # 95% normal efficiency, used for the start's polish
HB_SUBSAMPLES = 500  # most elemental subsets drawn by high_breakdown_init; see _n_subsets
HB_SCORE_CELLS = 2000  # above this many cells, candidates are ranked on a subsample this size
HB_RESCORE = 10  # best subsample candidates that are scored again on the full sample
IRLS_TOL = 1e-8  # change in fitted values, relative to the bounded residuals, that ends a loop
ESL_MAX_OUTER = 3  # outer passes of fit_esl


@dataclass(frozen=True)
class IrlsConfig:
    max_iter: int = 100

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _rows(live, s):
    """An index that takes the members `live` of a stack of s; a view when
    that is all of them."""
    return slice(None) if len(live) == s else live


def _settled(x, step, bounded, fitted):
    """Which members' coefficient change `step` is negligible: the change in
    fitted values ||X step|| is at most IRLS_TOL times ||bounded||, the
    residuals at beta_new as the loss bounds them, sigma psi(r / sigma), or
    at most 1e-14 ||X beta_new|| (`fitted`) for an exact fit, whose
    residuals are about 0.  sigma psi(r / sigma) is r on the cells the loss
    keeps whole, at most sigma c on a cell that huber clips and 0 on one
    that tukey or esl rejects, so a gross outlier does not loosen the rule
    (the "resid" test of MASS rlm, on psi-residuals).  Neither side depends
    on the units of the regressors or the size of the coefficients.
    """
    # one (S, NT) square at a time: squaring the three stacked would hold six
    moved, bounded, fitted = (np.square(a).sum(axis=1) for a in (_xb(x, step), bounded, fitted))
    return (moved <= IRLS_TOL**2 * bounded) | (moved <= 1e-28 * fitted)


def _weighted_solve(x, y, w):
    """Solve every member's weighted normal equations X'WX b = X'Wy at once.

    A system counts as singular by the one rule of tuning._nonsingular,
    log|det X'WX| against the sum of the logs of its diagonal, and each is
    scaled to a unit diagonal (Jacobi equilibration) before one batched
    solve, so that neither the test nor the conditioning of the solve
    depends on the units of the regressors.  A system that fails the test
    falls back to least squares on that member's sqrt-weighted design,
    which solves it unless the design is rank deficient.  Returns (beta,
    {member: SingularWeightedDesign}).
    """
    xwt = x.transpose(0, 2, 1) * w[:, None, :]
    a = xwt @ x
    diag = np.diagonal(a, axis1=1, axis2=2)  # a view: read before a is scaled
    ok = _nonsingular(np.linalg.slogdet(a)[1], diag)
    inv = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))  # a zero column is singular already
    a *= inv[:, :, None]
    a *= inv[:, None, :]
    if not ok.all():
        a[~ok] = np.identity(x.shape[2])
    beta = np.linalg.solve(a, (xwt @ y[:, :, None]) * inv[:, :, None])[:, :, 0] * inv
    failures = {}
    for i in np.flatnonzero(~ok):
        root = np.sqrt(w[i])
        beta[i], _, rank, _ = np.linalg.lstsq(x[i] * root[:, None], y[i] * root, rcond=None)
        if rank < x.shape[2]:
            failures[i] = SingularWeightedDesign(
                "weighted cross-product is rank %d < %d; the current weights "
                "reject too much of the sample" % (rank, x.shape[2]))
    return beta, failures


def _huber_minimizer(u, v, c, deriv0):
    """The exact minimizer alpha of every member's Huber objective
    phi(alpha) = sum rho(u - alpha v) along the direction v, at its own c,
    from its slope phi'(0) = -sum v psi(u), `deriv0`, which the caller sums
    from the psi it already holds.

    phi is convex and piecewise quadratic: phi'(alpha) = -sum v psi(u -
    alpha v) is piecewise linear and nondecreasing, with a kink where a cell
    crosses +-c, at alpha = u / v -+ c / |v|, and its slope on each piece is
    the sum of v^2 over the cells within +-c.  Each member sorts its kinks
    past 0 and walks phi' from phi'(0) to its root, summing its slope and
    its rise kink by kink: one sort and cumulative sums over (S, 2 NT) (the
    exact line search of the finite Newton methods of Madsen & Nielsen
    1990).  A cell with v = 0 has no kink, and one at u = +-inf none that is
    ever reached.  Returns (alpha, found); found is False, and alpha
    meaningless, where phi'(0) is not negative and finite (no descent
    direction, or one past the float range) or phi' never reaches 0 (phi
    falls without bound, as a cell at u = +-inf can make it).
    """
    c, n = c[:, None], u.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        half, vv = c / np.abs(v), v * v
        kinks = np.tile(u / v, 2)
        kinks[:, :n] -= half  # where a cell enters +-c as alpha grows
        kinks[:, n:] += half  # where it leaves
        slope0 = (vv * ((kinks[:, :n] <= 0.0) & (kinks[:, n:] > 0.0))).sum(axis=1)
        kinks[~(kinks > 0.0)] = np.inf  # behind alpha = 0, or no kink at all
        # a flat gather is several times faster than take_along_axis here
        order = np.argsort(kinks, axis=1) + 2 * n * np.arange(len(u))[:, None]
        kinks = kinks.ravel()[order]
        rises = np.concatenate((vv, -vv), axis=1).ravel()[order]
        del half, vv, order  # the (S, 2 NT) buffers are written in place from here
        # phi's slope on the piece that ends at each kink, and phi' there
        slope = np.cumsum(rises, axis=1)
        slope -= rises
        slope += slope0[:, None]
        deriv = rises
        deriv[:, 0] = kinks[:, 0]
        np.subtract(kinks[:, 1:], kinks[:, :-1], out=deriv[:, 1:])
        deriv *= slope
        np.cumsum(deriv, axis=1, out=deriv)
        deriv += deriv0[:, None]
        # past the last kink every cell with v != 0 is clipped and phi' is flat
        past = (deriv >= 0.0) & (kinks < np.inf)
        k = past.argmax(axis=1)
        at, before = np.arange(len(u)), k > 0
        alpha = (np.where(before, kinks[at, k - 1], 0.0)
                 - np.where(before, deriv[at, k - 1], deriv0) / slope[at, k])
    return alpha, past[at, k] & np.isfinite(deriv0) & (deriv0 < 0.0)


def _huber_search(x, beta, u, sigma, c, step, psi, whole):
    """Every member's Huber step from beta along `step`, at its own c and
    sigma, carried as far as lowers the objective sum rho(r / sigma) most,
    from psi = psi(u) at its standardized residuals u.

    The step moves u by v = X step / sigma, along which the objective's
    slope at 0 is phi'(0) = -v' psi(u).  With `whole` (a Newton step) a
    member takes the whole step where no cell changes side of +-c between
    u and u - v, for there the quadratic model of the step is exact and
    least at it; every other member goes to the exact minimizer along v
    (see _huber_minimizer).  So the objective never rises.  Returns
    (beta_new, found); a member whose step is no descent direction, or
    whose minimizer is not found, keeps beta and reads False.
    """
    def side(w):  # -1, 0 or 1: below -c, within +-c or above c
        return (w > c[:, None]).view(np.int8) - (w < -c[:, None]).view(np.int8)

    with np.errstate(invalid="ignore", over="ignore"):
        v = _xb(x, step) / sigma[:, None]
        deriv0 = -(v * psi).sum(axis=1)
        alpha, found = np.ones(len(u)), np.isfinite(deriv0) & (deriv0 < 0.0)
        rest = np.flatnonzero(found & (side(u) != side(u - v)).any(axis=1) if whole else found)
        if rest.size:
            alpha[rest], found[rest] = _huber_minimizer(u[rest], v[rest], c[rest], deriv0[rest])
        return np.where(found[:, None], beta + alpha[:, None] * step, beta), found


def _huber_step(x, y, c, beta, u, sigma, w):
    """The next Huber iterate of every member from beta, whose standardized
    residuals are u and whose loss weights there are w, at its own c and
    sigma: a Newton step where the Hessian allows one and the weighted LS
    step elsewhere, each searched along its direction (see _huber_search).

    The Hessian is H = X_in' X_in over the cells with |u| <= c and the
    gradient X' psi(u), psi(u) = clip(u, -c, c), evaluated once for g and
    the search.  When H is not singular by the one rule of
    tuning._nonsingular (log|det H| against the sum of the logs of its
    diagonal, which does not depend on the units of the regressors), the
    direction is sigma H^-1 g, formed from H's eigendecomposition, whose
    whole step the search may take.  A member whose H is singular, whose
    Newton direction is no descent or whose minimizer along it is not found
    takes the weighted LS step at w instead (see _weighted_solve), carried
    to the minimizer along it, or whole where that is not found.  Returns
    (beta_new, {member: SingularWeightedDesign}), the latter only from
    members that reach the weighted solve.
    """
    # psi' is 0 or 1, so X' diag(psi') X is X_in' X_in
    inner = _psi_prime("huber", c[:, None], u)
    h = (x.transpose(0, 2, 1) * inner[:, None, :]) @ x
    lam, vec = np.linalg.eigh(h)
    todo = np.flatnonzero(_nonsingular(np.linalg.slogdet(h)[1], np.diagonal(h, axis1=1, axis2=2)))
    new, taken = beta.copy(), np.zeros(len(beta), dtype=bool)
    if todo.size:
        sub = _rows(todo, len(beta))
        xs, us, ss, cs, lam, vec = (a[sub] for a in (x, u, sigma, c, lam, vec))
        with np.errstate(invalid="ignore", over="ignore"):
            clipped = _psi("huber", cs[:, None], us)
            grad = clipped[:, None, :] @ xs @ vec
            step = (vec @ (grad[:, 0, :] * (ss[:, None] / lam))[:, :, None])[:, :, 0]
        new[todo], taken[todo] = _huber_search(xs, beta[sub], us, ss, cs, step, clipped, True)
    rest = np.flatnonzero(~taken)
    if not rest.size:
        return new, {}
    sub = _rows(rest, len(beta))
    xs, bs, us, ss, cs = (a[sub] for a in (x, beta, u, sigma, c))
    irls, failures = _weighted_solve(xs, y[sub], w[sub])
    # the IRLS step's curvature X'WX overstates huber's X_in' X_in, so the
    # minimizer along it often lies past it
    searched, found = _huber_search(xs, bs, us, ss, cs, irls - bs, _psi("huber", cs[:, None], us),
                                    False)
    new[rest] = np.where(found[:, None], searched, irls)
    return new, {rest[i]: err for i, err in failures.items()}


def _irls(x, y, family, c, beta, sigma, max_iter):
    """IRLS at a fixed loss and fixed scale for every member of a stack, at
    its own c and sigma (S,), from beta (S, K).

    Repeats the reweighting step, _huber_step for huber and the weighted
    LS solve (see _weighted_solve) for tukey and esl, at the standardized
    residuals u = (y_it - x_it' beta) / sigma, until a member's
    coefficients settle (see _settled) or max_iter is reached; a settled
    member leaves the active stack, so each runs the iterations it would
    run alone.  Huber's steps end at the minimizer of its convex objective
    along their direction, so the objective never rises.  The loss is
    evaluated once per step and cell: the psi that _settled reads at the
    new iterate and the weights that the next step solves at come from one
    losses._psi_weight call.  Returns the record (see panel._Fits) of each
    member's last iterate at its c and sigma, with its loss weights there;
    raises SingularWeightedDesign when a member's weights leave its design
    singular.
    """
    fits = _Fits(np.array(beta, dtype=float), sigma, np.zeros(len(beta), dtype=int),
                 np.zeros(len(beta), dtype=bool), c, np.zeros(y.shape))
    live = np.arange(len(beta))
    xa, ya, ca, sa, ba = x, y, c, sigma[:, None], fits.beta
    # a residual past the float range once standardized is +-inf, where
    # every weight takes its limit
    with np.errstate(over="ignore"):
        ua = (ya - _xb(xa, ba)) / sa
        wa = _weight(family, ca[:, None], ua)
        for it in range(1, max_iter + 1):
            new, singular = (_huber_step(xa, ya, ca, ba, ua, sa[:, 0], wa) if family == "huber"
                             else _weighted_solve(xa, ya, wa))
            if singular:
                raise next(iter(singular.values()))
            resid = ya - _xb(xa, new)
            ua = resid / sa
            bounded, wa = _psi_weight(family, ca[:, None], ua)
            done = _settled(xa, new - ba, sa * bounded, ya - resid)
            del bounded, resid  # so that the next step does not hold them
            ba = new
            if it < max_iter and not done.any():
                continue
            stop = done | (it == max_iter)
            fits.beta[live[stop]] = ba[stop]
            fits.weights[live[stop]] = wa[stop]
            fits.iterations[live[stop]] = it
            fits.converged[live[stop]] = done[stop]
            keep = ~stop
            live = live[keep]
            if not live.size:
                break
            xa, ya, ca, sa, ba, ua, wa = (a[keep] for a in (xa, ya, ca, sa, ba, ua, wa))
    return fits


def irls_fit(panel, spec, beta_init, sigma, config=IrlsConfig()):
    """Iteratively reweighted LS at a fixed loss and fixed scale.

    Repeats the reweighting step of _irls, at the standardized
    residuals u = (y_it - x_it' beta) / sigma, until the coefficients
    settle (see _settled) or config.max_iter is reached.  Huber's steps end
    at the minimizer of its convex objective along their direction, so the
    objective never rises.  A stack of one of _irls.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    cp = _as_centered(panel)
    beta_init = _coefficients(beta_init, cp.x.shape[1], "beta_init")
    c, sigma = np.array([spec.c]), np.array([float(sigma)])
    fits = _irls(cp.x[None], cp.y[None], spec.family, c, beta_init[None], sigma, config.max_iter)
    return _fit_result(spec.family, fits, cp.shape, None)


def _mestimators(x, y, family, c, beta0):
    """Steps 2-4 of fit_mestimator for every member of a stack, from its
    start beta0: the residual scale, c (the grid search unless c is fixed)
    and IRLS.  Returns their record (see panel._Fits)."""
    resid = y - _xb(x, beta0)
    sigma = _scales(resid.copy(), "initial")
    if c == "auto":
        grid = HUBER_GRID if family == "huber" else TUKEY_GRID
        with np.errstate(over="ignore"):  # +-inf residuals take psi's limits, as in IRLS
            e = resid / sigma[:, None]
        cs = grid[_tau_search(e, family, grid)[2]]
    else:
        cs = np.full(len(beta0), LossSpec(family, c).c)  # LossSpec checks a fixed c
    return _irls(x, y, family, cs, beta0, sigma, IrlsConfig().max_iter)


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
        beta0 = _coefficients(beta_init, cp.x.shape[1], "beta_init")
    return _fit_result(family, _mestimators(cp.x[None], cp.y[None], family, c, beta0[None]),
                       cp.shape, None)


def _n_subsets(k):
    """Solvable elemental subsets to keep at k regressors: the fewest that
    hold at least one clean subset with probability 1 - 1e-6 when half the
    cells are outliers, log(1e-6) / log(1 - 0.5^k) (Rousseeuw & Leroy 1987),
    capped at HB_SUBSAMPLES; 20 at k = 1, 49 at k = 2 and the cap from k = 6.
    The count assumes every subset can be solved, so _starts redraws a
    singular one.
    """
    clean = 0.5**k  # chance that a subset drawn at 50% contamination is clean
    if (1.0 - clean) ** HB_SUBSAMPLES > 1e-6:
        return HB_SUBSAMPLES
    return int(np.ceil(np.log(1e-6) / np.log1p(-clean)))


def _elemental_subsets(rng, nt, k, rows):
    """`rows` rows of k distinct cell indices in [0, nt), by Floyd's
    algorithm: column j draws from [0, nt - k + j] and takes nt - k + j
    itself when the draw repeats an earlier column of its row.  Each row is
    a uniformly random k-subset, and no (rows, nt) array is built.
    """
    idx = np.empty((rows, k), dtype=np.intp)
    for j in range(k):
        top = nt - k + j
        draw = rng.integers(0, top + 1, size=rows)
        repeat = (idx[:, :j] == draw[:, None]).any(axis=1)
        idx[:, j] = np.where(repeat, top, draw)
    return idx


def _mad_rows(betas, x, y):
    """MAD scale of the residuals y - x beta for every candidate of every
    member, (S, G, K) betas on (S, n, K) x and (S, n) y, scored in blocks
    (see _blocks) that _mad overwrites; +inf where any residual or the MAD
    leaves the float range, so that such a candidate never ranks first."""
    mads = np.empty(betas.shape[:2])
    xt = x.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rows in _blocks(len(betas), betas.shape[1], y.shape[1]):
            resid = betas[i, rows] @ xt[i]
            np.subtract(y[i], resid, out=resid)
            finite = np.isfinite(resid).all(axis=1)
            mads[i, rows] = np.where(finite, _mad(resid), np.inf)
    return np.where(np.isfinite(mads), mads, np.inf)


def _starts(x, y, seeds):
    """high_breakdown_init of every member of a stack.  One loop does all
    of a member's random drawing, from default_rng(seed) of its own seed:
    its _n_subsets(K) subsets, rounds that redraw the singular ones until
    all are solvable or HB_SUBSAMPLES have been drawn in all (as FAST-LTS
    does), then the HB_SCORE_CELLS subsample of a larger panel.  Every
    member then holds the same count, so one batched solve, ranking and
    scoring serve the stack; a subset still singular takes an identity
    system and a MAD of +inf, so it never wins.  Returns the starts (S, K);
    raises DegenerateDesign when a member has no usable elemental fit.
    """
    s, nt, k = x.shape
    if nt < k + 1:
        raise DegenerateDesign("need at least K+1 observations, have %d" % nt)
    n = _n_subsets(k)
    idx, ok = np.empty((s, n, k), dtype=np.intp), np.empty((s, n), dtype=bool)
    sub = np.empty((s, HB_SCORE_CELLS), dtype=np.intp) if nt > HB_SCORE_CELLS else None
    for i, seed in enumerate(seeds):
        rng, drawn, redo = np.random.default_rng(seed), 0, np.arange(n)
        while redo.size:  # the first n subsets, then rounds that redraw the singular ones
            idx[i, redo] = _elemental_subsets(rng, nt, k, redo.size)
            subsets = x[i][idx[i, redo]]  # a subset's rows are cells and its columns regressors
            ok[i, redo] = _nonsingular(np.linalg.slogdet(subsets)[1],
                                       np.abs(subsets).max(axis=1))
            drawn += redo.size
            redo = np.flatnonzero(~ok[i])[:HB_SUBSAMPLES - drawn]
        if nt > HB_SCORE_CELLS:
            sub[i] = rng.choice(nt, HB_SCORE_CELLS, replace=False)
    if not ok.any(axis=1).all():
        raise DegenerateDesign("all %d elemental subsets were singular" % HB_SUBSAMPLES)

    at = np.arange(s)[:, None]
    a = x[at[:, :, None], idx]
    a[~ok] = np.eye(k)
    betas = np.linalg.solve(a, y[at[:, :, None], idx][..., None])[..., 0]  # (S, n, K)
    if nt > HB_SCORE_CELLS:
        # a singular subset ranks after every other (nan sorts last)
        ranked = np.argsort(np.where(ok, _mad_rows(betas, x[at, sub], y[at, sub]), np.nan),
                            axis=1, kind="stable")[:, :HB_RESCORE]
        betas = np.take_along_axis(betas, ranked[:, :, None], axis=1)
        ok = np.take_along_axis(ok, ranked, axis=1)
    mads = np.where(ok, _mad_rows(betas, x, y), np.inf)
    best = np.argmin(mads, axis=1)
    starts, sigma = betas[at[:, 0], best], mads[at[:, 0], best]
    if (sigma == np.inf).any():
        raise DegenerateDesign("every elemental fit has residuals past the float range")

    live = np.flatnonzero(sigma > 0)
    if live.size:
        with np.errstate(over="ignore"):  # +-inf residuals take their limit weight
            u = (y[live] - _xb(x[live], starts[live])) / sigma[live, None]
            polished, singular = _weighted_solve(x[live], y[live],
                                                 _weight("tukey", TUKEY_REFERENCE_C, u))
        keep = np.ones(live.size, dtype=bool)
        keep[list(singular)] = False  # a singular polish keeps the elemental winner
        starts[live[keep]] = polished[keep]
    return starts


def high_breakdown_init(panel, seed=0):
    """High-breakdown starting vector from an elemental-subset search.

    Draws _n_subsets(K) random K-point subsets of the centered
    observations (see _elemental_subsets), redrawing each singular one
    (by the rule of tuning._nonsingular, with the largest |entry| of each
    regressor in the subset as its column size) until all are solvable or
    HB_SUBSAMPLES have been drawn in all, solves each exactly and keeps the
    candidate whose residuals have the smallest MAD scale; one with a
    residual past the float range never wins.  Up to HB_SCORE_CELLS cells
    every candidate is scored on the full sample.  On a larger panel every
    candidate is ranked on one random HB_SCORE_CELLS subsample and only the
    best HB_RESCORE are scored on the full sample, as in FAST-LTS and
    fast-S, so time and memory stay linear in the cells.  The winner is
    polished by one weighted LS step (see _weighted_solve) at Tukey's
    weights (c = 4.685) at its MAD scale, unless that scale is 0 or the
    weights leave the design singular.  A subset still singular is
    skipped; if every one is, the panel cannot support even an elemental
    fit and DegenerateDesign is raised.  A stack of one of _starts.
    """
    cp = _as_centered(panel)
    return _starts(cp.x[None], cp.y[None], [seed])[0]


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
    return _fit_one(_as_centered(panel), "esl", "auto", seed)


def _esls(x, y, start, c):
    """The outer loop of fit_esl for every member of a stack, from its
    high-breakdown fit `start`; a fixed `c` (from fit_estimator) skips the
    selection step.  A member leaves the loop at its own pass.  Returns
    their record (see panel._Fits)."""
    s = len(start)
    beta = np.array(start, dtype=float)
    if c == "auto":
        grids = _esl_grids(_scales(y - _xb(x, beta), "mad"))
    prev_c, c_sel, sigma_mad = np.full(s, np.nan), np.zeros(s), np.zeros(s)
    total, inner, outer = np.zeros(s, dtype=int), np.zeros(s, dtype=bool), np.zeros(s, dtype=bool)
    w = np.zeros(y.shape)
    live = np.arange(s)
    for _ in range(ESL_MAX_OUTER):
        sub = _rows(live, s)
        if c == "auto":
            c_sel[live], sigma_mad[live] = _esl_search(x[sub], y[sub], beta[sub], grids[sub])[:2]
        else:
            sigma_mad[live] = _scales(y[sub] - _xb(x[sub], beta[sub]), "mad")
            c_sel[live] = LossSpec("esl", c).c  # LossSpec rejects one that is not positive
        fits = _irls(x[sub], y[sub], "esl", c_sel[sub], beta[sub], np.ones(live.size),
                     IrlsConfig().max_iter)
        step = fits.beta - beta[sub]
        total[live] += fits.iterations
        beta[live], w[live], inner[live] = fits.beta, fits.weights, fits.converged
        again = np.abs(c_sel[live] - prev_c[live]) / c_sel[live] < 0.01  # never on the first pass
        if again.any():
            done = live[again]
            with np.errstate(over="ignore"):  # squares past the float range are inf
                resid = y[done] - _xb(x[done], beta[done])
                outer[done] = _settled(x[done], step[again],
                                       _psi("esl", c_sel[done, None], resid), y[done] - resid)
        prev_c[live] = c_sel[live]
        live = live[~outer[live]]
        if not live.size:
            break
    # the last pass's fit, at the MAD scale of its selection and with every pass's iterations
    return _Fits(beta, sigma_mad, total, inner & outer, c_sel, w)


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


def _fit(y, x, shape, names, c, seeds):
    """Fit each named estimator to every member of a stack of centered
    panels of one (N, T) `shape`, the (S, NT) responses y and (S, NT, K)
    designs x, the member i from seeds[i]: the one name -> procedure map.

    Returns ({name: record}, {member: EstimationError}): each estimator's
    record of the stack (see panel._Fits), and the error that stopped each
    member that failed, whose rows of every record are meaningless.  When
    every member fails, a name may have no record.  The kernels raise at
    any member's EstimationError; a stack that raises is fitted again as
    two halves, recursively, down to the failing member alone (see
    _fit_rest).  No member's numbers depend on its stack-mates, so every
    row is the one the panel gives alone.  Every robust estimator of a
    member starts from its one high_breakdown_init at its seed, drawn once
    (never when every name is ls).  huber and tukey start from it rather
    than the printed LS start: under concentrated contamination the LS
    start leaves the redescending fit in the contaminated local minimum
    (the outliers look like the fit and the clean data like outliers).
    """
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError("unknown estimator %r" % (name,))
    return _fit_rest(y, x, shape, names, c, seeds, None)


def _fit_rest(y, x, shape, names, c, seeds, start):
    """_fit of `names`, at the members' starts `start` (None until drawn).
    A stack that raises keeps the records it finished and hands each half
    its row slices of y, x and the start, so a half fits only the
    estimators from the one that raised onward.  Only then are the halves'
    rows written into records sized for the whole stack; a stack that does
    not split returns its kernels' records as they are."""
    s, fits = len(y), {}
    try:
        for name in names:
            if name != "ls" and start is None:
                start = _starts(x, y, seeds)
            if name == "ls":
                fits[name] = _ls(x, y, shape)
            elif name == "esl":
                fits[name] = _esls(x, y, start, c)
            else:
                fits[name] = _mestimators(x, y, name, c, start)
        return fits, {}
    except EstimationError as err:
        if s == 1:
            return {}, {0: err}
    rest, failures = [name for name in names if name not in fits], {}
    for lo, hi in ((0, s // 2), (s // 2, s)):
        part, failed = _fit_rest(y[lo:hi], x[lo:hi], shape, rest, c, seeds[lo:hi],
                                 None if start is None else start[lo:hi])
        failures.update((lo + i, err) for i, err in failed.items())
        for name, rows in part.items():  # a half whose members all failed has none
            whole = fits.setdefault(name, _Fits(*(
                a if a is None else np.zeros_like(a, shape=(s, *a.shape[1:])) for a in rows)))
            for full, half in zip(whole, rows):
                if full is not None:
                    full[lo:hi] = half
    return fits, failures


def _fit_one(cp, name, c, seed):
    """_fit of one estimator on one centered panel, as a FitResult; raises
    the EstimationError that stopped it."""
    fits, failures = _fit(cp.y[None], cp.x[None], cp.shape, (name,), c, [seed])
    if failures:
        raise failures[0]
    return _fit_result(name, fits[name], cp.shape, None)


def fit_estimator(panel, estimator, c="auto", seed=0):
    """Fit one named estimator and attach its standard errors.

    ls: within_ls, within-group least squares with classical standard
    errors.
    huber / tukey: M-fit started from high_breakdown_init(panel, seed),
    with sandwich standard errors.
    esl: exponential-squared fit with sandwich standard errors.
    """
    cp = _as_centered(panel)
    if estimator == "ls":
        return within_ls(cp)
    fit = _fit_one(cp, estimator, c, seed)
    cov = sandwich_se(cp, fit, LossSpec(estimator, fit.c_selected))
    return dataclasses.replace(fit, std_errors=cov.std_errors)
