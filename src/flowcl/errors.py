"""Exception types shared across the package."""


class FlowclError(Exception):
    """Base class for every error raised by flowcl."""


class InvalidShapeError(FlowclError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class InvalidLabelError(FlowclError, ValueError):
    """A class label lies outside the valid index range."""


class DegenerateVectorError(FlowclError, ValueError):
    """A zero-norm vector was passed where a direction is required."""


class NonFiniteGradientError(FlowclError, FloatingPointError):
    """A NaN or Inf gradient reached the optimizer."""


class InvalidBatchError(FlowclError, ValueError):
    """A contrastive batch does not decompose into view pairs."""


class InsufficientDataError(FlowclError, ValueError):
    """Too few samples to form even one training batch."""


class MissingLabelError(FlowclError, ValueError):
    """An unlabeled sample reached a labels-required operation."""


class SchemaMismatchError(FlowclError, ValueError):
    """Input data does not match the declared dataset schema."""


class RowParseError(FlowclError, ValueError):
    """A CSV row could not be parsed against the schema."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyDatasetError(FlowclError, ValueError):
    """An operation requiring data received an empty dataset."""


class UnknownClassError(FlowclError, ValueError):
    """A class name is not part of the schema's class list."""


class EmptyEvaluationError(FlowclError, ValueError):
    """Metrics were requested for an empty confusion matrix."""


class NoSharedFeaturesError(FlowclError, ValueError):
    """Two schemas share no features, so transfer is meaningless."""


class ConfigError(FlowclError, ValueError):
    """A run configuration is malformed or inconsistent."""


class CheckpointError(FlowclError, ValueError):
    """A checkpoint file is missing, malformed, or of the wrong version."""
