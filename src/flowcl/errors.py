"""Exception types shared across the package, and the checks every reader and config uses."""


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


_NOUNS = {str: "string", int: "int", float: "number", bool: "bool", list: "list", dict: "object"}


def _has_kind(value, kind: type) -> bool:
    return type(value) is kind or (kind is float and type(value) is int)


def checked(value, kind: type, what: str, error: type[FlowclError], of: type | None = None):
    """`value` if a JSON document gave it the declared type, else raise `error`.

    `kind` is str, int, float, bool, list or dict; `of` also types a list's
    items or a dict's values. A bool is neither an int nor a number; an int
    is taken as a float and comes back as one.
    """
    items = () if of is None else (value.values() if type(value) is dict else value)
    if not _has_kind(value, kind) or not all(_has_kind(item, of) for item in items):
        noun = _NOUNS[kind] + ("" if of is None else f" of {_NOUNS[of]}s")
        article = "an" if noun[0] in "aeiou" else "a"
        raise error(f"{what} must be {article} {noun}, got {value!r}")
    return float(value) if kind is float else value


def check_finite(value, name: str, zero_ok: bool = False) -> None:
    """Raise ConfigError unless `value` is a finite int or float > 0 (>= 0 with zero_ok).

    NaN fails, as every comparison with it is false.
    """
    if not (isinstance(value, (int, float)) and (value >= 0 if zero_ok else value > 0)
            and value < float("inf")):
        raise ConfigError(f"{name} must be a finite number {'>=' if zero_ok else '>'} 0, "
                          f"got {value!r}")
