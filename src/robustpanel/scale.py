"""Robust residual scale estimators.

Two median-based estimators are used by the fitting pipelines:

- ``initial_scale``: median absolute residual divided by 0.6745, the
  normal-consistency constant for the median of |e| when e has median zero.
  This is the scale used to standardize residuals in the Huber/Tukey
  pipelines.
- ``mad_scale``: 1.4826 times the median absolute deviation from the median.
  Shift invariant, 50% breakdown point; used by the high-breakdown start and
  the exponential-squared pipeline.

Both raise ``ZeroScale`` when the estimate collapses to zero, which happens
exactly when more than half of the (centered, for mad) residuals coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroScale

MEDIAN_ABS_CONSISTENCY = 0.6745
MAD_CONSISTENCY = 1.4826


@dataclass(frozen=True)
class ScaleEstimate:
    """A positive scale value."""

    value: float


def _as_vector(residuals) -> np.ndarray:
    e = np.asarray(residuals, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("scale estimate needs at least one residual")
    if not np.all(np.isfinite(e)):
        raise ValueError("residuals must be finite")
    return e


def initial_scale(residuals) -> ScaleEstimate:
    """Median of |residuals| divided by 0.6745."""
    e = _as_vector(residuals)
    value = float(np.median(np.abs(e))) / MEDIAN_ABS_CONSISTENCY
    if value == 0.0:
        raise ZeroScale(
            "median absolute residual is zero: more than half of the residuals vanish"
        )
    return ScaleEstimate(value)


def mad_scale(residuals) -> ScaleEstimate:
    """1.4826 times the median absolute deviation from the median."""
    e = _as_vector(residuals)
    med = float(np.median(e))
    value = MAD_CONSISTENCY * float(np.median(np.abs(e - med)))
    if value == 0.0:
        raise ZeroScale(
            "median absolute deviation is zero: more than half of the residuals coincide"
        )
    return ScaleEstimate(value)
