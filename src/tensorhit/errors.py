"""Exception hierarchy shared by all tensorhit modules.

Two families matter to callers: plain usage errors (bad arguments, fields
too small for a construction) and promise violations (inputs that break a
rank/sparsity promise, detected during recovery or decoding).  The CLI maps
the former to exit code 2 and the latter to exit code 3.
"""


class TensorhitError(Exception):
    """Base class for all library errors."""


class CompositeCharacteristic(TensorhitError):
    """Requested prime field with a composite characteristic."""


class FieldTooSmall(TensorhitError):
    """The field lacks the order or the distinct points a construction needs.

    Callers should build an extension (``make_extension``) and simulate.
    A missing multiplicative order is the subclass :class:`OrderUnreachable`.
    """


class OrderUnreachable(FieldTooSmall):
    """No element of the requested multiplicative order exists in the field."""


class OrderTooSmall(TensorhitError):
    """A supplied generator has smaller multiplicative order than required."""


class ShapeMismatch(TensorhitError):
    """Tensor dimensions or syndrome counts do not agree."""


class DiagonalOutOfRange(TensorhitError):
    """k-diagonal index outside [0, n+m-2]."""


class NotRank1(TensorhitError):
    """Operation requires rank-1 (factored) measurements."""


class NoNullspace(TensorhitError):
    """Measurement system has full rank; no nonzero annihilated tensor."""


class DuplicatePoints(TensorhitError):
    """Evaluation points for dual Reed-Solomon measurements must be distinct."""


class AdviceTooLarge(TensorhitError):
    """Advice set exceeds twice the sparsity budget."""


class LengthMismatch(TensorhitError):
    """Message length does not match the code dimension."""


class TooLarge(TensorhitError):
    """Brute-force enumeration would exceed the configured cap."""


class PromiseViolation(TensorhitError):
    """Input broke a rank/sparsity promise; result would be garbage."""


class InconsistentSyndrome(PromiseViolation):
    """Syndrome vector is not explained by any vector meeting the promise."""


class OracleFailure(PromiseViolation):
    """Solving one diagonal failed during matrix recovery (not a promise check)."""


class RankPromiseViolated(PromiseViolation):
    """Observed echelon structure is impossible for the promised rank."""


class DecodeFailure(PromiseViolation):
    """Recovered error tensor failed re-verification against the code."""
