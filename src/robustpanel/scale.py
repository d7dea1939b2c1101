"""Robust residual scale estimators.

Two median-based estimators are used by the fitting pipelines:

- ``initial_scale``: median absolute residual divided by 0.6745, the
  normal-consistency constant for the median of |e| when e has median zero.
  This is the scale used to standardize residuals in the Huber/Tukey
  pipelines.
- ``mad_scale``: 1.4826 times the median absolute deviation from the median.
  Shift invariant, 50% breakdown point; used by the high-breakdown start and
  the exponential-squared pipeline.

Both raise ``ZeroScale`` when the estimate is exactly zero, which happens
exactly when more than half of the (centered, for mad) residuals coincide.

Every median in the package comes from one kernel, ``_median``, and every
MAD from ``_mad`` on top of it; both work along the last axis, so the
high-breakdown start scores all of its candidate fits in one call.
``_scales`` gives either estimate for every row of a stack of residuals,
as the stacked fits need it; ``initial_scale`` and ``mad_scale`` are its
one-row calls.

The fits do not raise ZeroScale on a collapsed scale (esl's grid still
does where its smallest candidate underflows; see tuning._esl_grids).
They apply one exact-fit rule: a robust scale of the residuals at most
EXACT_FIT times the same scale of the member's centered response counts
as 0 (see _zero_bound).  That bound carries the units of y, so the rule does not depend on them,
and it catches a scale made of rounding noise, which exact arithmetic
would give as 0.  The fits then report the exact fit, as Rousseeuw &
Leroy (1987) describe it: when more than half of the cells lie on a
plane, that plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroScale

MEDIAN_ABS_CONSISTENCY = 0.6745
MAD_CONSISTENCY = 1.4826
EXACT_FIT = 1e-12  # a scale at most this times the same scale of the centered y counts as 0


@dataclass(frozen=True)
class ScaleEstimate:
    """A positive scale value."""

    value: float


def _median(a):
    """Median along the last axis of the float array `a`, which it partitions
    in place.

    Bit for bit numpy.median along the last axis, NaN rows included, but for
    the sign of a zero median when 0.0 and -0.0 tie in the middle: which of
    the tied values lands there depends on the partition points.  One
    partition at h = n // 2 leaves the h smallest values in a[..., :h], so
    the lower middle value of an even length is their maximum.  NaN sorts
    last, into a[..., h:], whose maximum is NaN exactly when the row holds
    one.  numpy.median partitions at the last position too, as its NaN
    check, and that multi-point partition costs several times this one.
    """
    h = a.shape[-1] // 2
    a.partition(h, axis=-1)
    med = a[..., h]
    if a.shape[-1] % 2 == 0:
        med = (a[..., :h].max(axis=-1) + med) / 2
    top = a[..., h:].max(axis=-1)
    return np.where(np.isnan(top), top, med)


def _mad(e):
    """1.4826 times median |e - median(e)| along the last axis of the float
    array `e`, which it overwrites."""
    med = _median(e)
    np.subtract(e, med[..., None], out=e)
    np.abs(e, out=e)
    return MAD_CONSISTENCY * _median(e)


def _as_vector(residuals) -> np.ndarray:
    e = np.asarray(residuals, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("scale estimate needs at least one residual")
    return e


_ZERO = {
    "initial": "median absolute residual is zero: more than half of the residuals vanish",
    "mad": "median absolute deviation is zero: more than half of the residuals coincide",
}


def _scales(e, kind):
    """initial_scale (`kind` "initial") or mad_scale ("mad") of every row of
    the 2-D float array `e`, which it overwrites; 0 where a row's estimate
    collapses.  Raises ValueError when a residual is not finite.
    """
    if not np.all(np.isfinite(e)):
        raise ValueError("residuals must be finite")
    if kind == "mad":
        return _mad(e)
    return _median(np.abs(e, out=e)) / MEDIAN_ABS_CONSISTENCY


def _zero_bound(y, kind):
    """The exact-fit bound of every row of the (S, NT) centered responses
    y: EXACT_FIT times their `kind` scale (see _scales).  A residual scale
    of that kind at or below it counts as 0, and so does a residual within
    it."""
    return EXACT_FIT * _scales(y.copy(), kind)


def _scale(residuals, kind):
    value = float(_scales(_as_vector(residuals)[None].copy(), kind)[0])
    if value == 0.0:
        raise ZeroScale(_ZERO[kind])
    return ScaleEstimate(value)


def initial_scale(residuals) -> ScaleEstimate:
    """Median of |residuals| divided by 0.6745."""
    return _scale(residuals, "initial")


def mad_scale(residuals) -> ScaleEstimate:
    """1.4826 times the median absolute deviation from the median."""
    return _scale(residuals, "mad")
