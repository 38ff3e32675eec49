"""Exception hierarchy for nistab.

Every error raised on a contract violation derives from :class:`NistabError`,
so callers can catch one base class.  The leaf classes mirror the failure
modes of the individual analysis steps.
"""


class NistabError(ValueError):
    """Base class for all nistab contract violations."""


class DimensionError(NistabError):
    """Matrix dimensions are inconsistent with the operation."""


class NonSymmetricError(NistabError):
    """A matrix declared symmetric has asymmetry above tolerance."""


class NotPSDError(NistabError):
    """A matrix required to be positive semidefinite is not."""


class NotPDError(NistabError):
    """A matrix required to be positive definite is not."""


class SingularAtSError(NistabError):
    """Transfer matrix evaluation requested at (or too close to) a pole."""


class NonFiniteResponseError(NistabError):
    """Transfer matrix evaluated to a non-finite value (overflow) on a sweep."""


class IllPosedError(NistabError):
    """Feedback interconnection is ill posed (I - D*Dbar singular)."""


class NotMinimalError(NistabError):
    """State-space realization is not minimal."""


class NotStrictlyProperError(NistabError):
    """Operation requires a strictly proper model (D = 0)."""


class JordanBlockTooLargeError(NistabError):
    """Zero eigenvalue with a Jordan block of order three or more."""


class IllConditionedTransformError(NistabError):
    """Decoupling of the origin split too ill conditioned to trust."""


class NotAPoleError(NistabError):
    """Requested frequency is not a pole of the model."""


class NotSimplePoleError(NistabError):
    """Imaginary-axis pole has multiplicity greater than one."""


class SingularInnerError(NistabError):
    """Inner matrix Y'XY of the projector is numerically singular."""


class G2ZeroError(NistabError):
    """Hankel construction requires a nonzero double-pole coefficient."""


class LimitDivergentError(NistabError):
    """Numeric Laurent limits failed to settle."""


class NotARootError(NistabError):
    """Frequency is not a modal root of the beam determinant."""


class InsufficientRangeError(NistabError):
    """Fewer modal roots than requested below the frequency cap."""
