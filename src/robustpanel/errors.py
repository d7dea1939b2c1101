"""Error taxonomy shared across the library.

Two broad groups matter to callers (and to the CLI exit-code mapping):
``DataError`` for malformed or unusable inputs, and ``EstimationError`` for
procedures that cannot produce a result on valid inputs.
"""


class RobustPanelError(Exception):
    """Base class for every error raised by this library."""


class DataError(RobustPanelError):
    """Input data or configuration is malformed or unusable."""


class EstimationError(RobustPanelError):
    """An estimation procedure could not produce a result."""


class DegeneratePanel(DataError):
    """Panel too small or malformed: needs N >= 2 units, T >= 2 periods,
    consistent shapes, and finite values."""


class UnbalancedPanel(DataError):
    """A (unit, period) pair is missing from the input."""


class DuplicateCell(DataError):
    """A (unit, period) pair appears more than once in the input."""


class MissingColumn(DataError):
    """A required CSV column is absent."""


class NonNumericCell(DataError):
    """A CSV cell that should be numeric failed to parse."""


class ConfigError(DataError):
    """An experiment configuration key is unknown or its value invalid."""


class BlockPolicyError(DataError):
    """A concentrated contamination count m cannot be split into whole
    within-unit blocks."""


class SingularDesign(EstimationError):
    """The centered regressor cross-product X'X is singular: |det X'X| is
    below 1e-12 of the product of its diagonal (panel._nonsingular).  Every
    estimator raises it on such a design, naming a near-null direction
    (panel._gram), and a covariance raises it, naming the covariance, when
    its X'X is singular or a value built on the inverse leaves the float
    range (panel._covariance)."""


class SingularWeightedDesign(EstimationError):
    """The weighted cross-product X'WX of an IRLS step is singular by the one
    rule of every K x K system the fits solve (panel._nonsingular): the
    current weights reject too much of the sample."""


class DegenerateDesign(EstimationError):
    """Every elemental subsample was singular; no initial candidate exists."""


class ZeroScale(EstimationError):
    """A residual scale estimate is exactly zero (more than half of the
    residuals coincide), raised by the public initial_scale and mad_scale,
    or esl's smallest grid candidate underflows to zero.  The fits do not
    raise it for a collapsed scale: a scale that counts as 0 by the
    exact-fit rule (scale._zero_bound) is reported as an exact fit."""


class NoValidTuning(EstimationError):
    """No tuning constant on the search grid was admissible."""


class UnstableCurvature(EstimationError):
    """The mean psi-derivative at the fit is non-positive; sandwich standard
    errors are undefined."""
