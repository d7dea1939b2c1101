"""Loss families for robust M-estimation: Huber, Tukey bisquare, and the
exponential squared loss.

Each family is described by a tuning constant ``c`` and exposes four views:

- ``rho``        the loss itself,
- ``psi``        the estimating-equation kernel (proportional to drho/du),
- ``psi_prime``  its derivative,
- ``weight``     the IRLS weight psi(u)/u, with the u -> 0 limit psi'(0).

The closed forms are::

    huber:  rho = u^2/2                   |u| <= c
                  c|u| - c^2/2            |u| >  c
            psi = clip(u, -c, c)

    tukey:  rho = 1 - (1 - (u/c)^2)^3     |u| <= c, else 1
            psi = u (1 - (u/c)^2)^2       |u| <= c, else 0

    esl:    rho = 1 - exp(-u^2/c)
            psi = u exp(-u^2/c)

psi is proportional to rho' rather than equal to it for the redescending
families: rho' = (6/c^2) psi for tukey and rho' = (2/c) psi for esl. The
common positive factor is immaterial to the estimating equations and drops
out of the efficiency factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HUBER = "huber"
TUKEY = "tukey"
ESL = "esl"

FAMILIES = (HUBER, TUKEY, ESL)


@dataclass(frozen=True)
class LossSpec:
    """A loss family name plus its tuning constant.

    Parameters
    ----------
    family : str
        One of ``"huber"``, ``"tukey"``, ``"esl"``.
    c : float
        Tuning constant, strictly positive and finite.
    """

    family: str
    c: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown loss family {self.family!r}; expected one of {FAMILIES}"
            )
        c = float(self.c)
        if not np.isfinite(c) or c <= 0.0:
            raise ValueError(f"tuning constant must be positive and finite, got {self.c!r}")
        object.__setattr__(self, "c", c)


def _apply(kernel, spec, u):
    """`kernel` at spec's family and constant; a float for a scalar u."""
    arr = np.asarray(u, dtype=float)
    out = kernel(spec.family, spec.c, arr)
    return float(out[()]) if arr.ndim == 0 else out


# The formulas, once each.  `c` is a float or an array that broadcasts
# against u (a column of grid points gives one row per constant); the
# tuning searches and IRLS call these directly, the public views through
# _apply.  A redescender's psi and weight come from _psi_weight, which
# IRLS calls once per step for both.
# The redescenders work from |u| clamped where every view has reached its
# limit, so no residual (even an infinite one) or constant overflows.  The
# clamp is set by the largest c, one pass over u: (u / c)^2 is exact to
# |u| = 2 max(c) and >= 4 beyond, where tukey is flat (|u| / c is |u / c| bit
# for bit); u^2 / c is exact to |u| = 28 sqrt(max(c)) and >= 784 beyond, where
# exp(-u^2 / c) is 0.  Each returns the clamped |u| and that square.


def _tukey_v(c, u):
    top = c.max() if isinstance(c, np.ndarray) else c
    a = np.minimum(np.abs(u), top + top)
    return a, (a / c) ** 2


def _esl_v(c, u):
    top = c.max() if isinstance(c, np.ndarray) else c
    a = np.minimum(np.abs(u), 28.0 * np.sqrt(top))
    return a, a * a / c


def _rho(family, c, u):
    if family == HUBER:
        a = np.abs(u)
        return np.where(a <= c, 0.5 * u * u, c * a - 0.5 * c * c)
    if family == TUKEY:
        v = np.minimum(_tukey_v(c, u)[1], 1.0)
        return 1.0 - (1.0 - v) ** 3
    return 1.0 - np.exp(-_esl_v(c, u)[1])


def _psi_weight(family, c, u):
    """psi and the IRLS weight from one evaluation of the loss: a
    redescender's psi is u times its weight, so tukey's (u / c)^2 and esl's
    exp(-u^2 / c) are computed once for both.  tukey's psi is +0 where it
    rejects a cell, as its closed form is, rather than the product's -0."""
    if family == HUBER:
        return _psi(family, c, u), c / np.maximum(np.abs(u), c)
    if family == TUKEY:
        a, v = _tukey_v(c, u)
        inside = v <= 1.0
        w = np.where(inside, (1.0 - np.minimum(v, 1.0)) ** 2, 0.0)
        return np.where(inside, np.copysign(a, u) * w, 0.0), w
    a, v = _esl_v(c, u)
    w = np.exp(-v)
    return np.copysign(a, u) * w, w


def _psi(family, c, u):
    if family == HUBER:
        return np.clip(u, -c, c)
    return _psi_weight(family, c, u)[0]


def _psi_prime(family, c, u):
    if family == HUBER:
        return (np.abs(u) <= c).astype(float)
    if family == TUKEY:
        v = _tukey_v(c, u)[1]
        return np.where(v <= 1.0, (1.0 - v) * (1.0 - 5.0 * v), 0.0)
    v = _esl_v(c, u)[1]
    return np.exp(-v) * (1.0 - 2.0 * v)


def _weight(family, c, u):
    return _psi_weight(family, c, u)[1]


def rho(spec: LossSpec, u):
    """Loss value at u. Nonnegative; bounded by 1 for tukey and esl."""
    return _apply(_rho, spec, u)


def psi(spec: LossSpec, u):
    """Estimating-equation kernel at u (odd in u)."""
    return _apply(_psi, spec, u)


def psi_prime(spec: LossSpec, u):
    """Derivative of psi at u. The Huber kink |u| == c is assigned the
    inner value 1."""
    return _apply(_psi_prime, spec, u)


def weight(spec: LossSpec, u):
    """IRLS weight psi(u)/u in [0, 1], with weight(0) = psi'(0) = 1."""
    return _apply(_weight, spec, u)
