"""Exception types shared across the package."""

from contextlib import contextmanager


class BspError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(BspError):
    pass


class SingularBasisError(BspError):
    pass


class NotSpanningError(BspError):
    pass


class NotFullDimensionalError(BspError):
    pass


class NotTwoLevelError(BspError):
    pass


class BadParameterError(BspError):
    pass


class MalformedSlackError(BspError):
    pass


class NotCubePairError(BspError):
    """A pair of the Theorem 6 equality size (d+1) 2^d whose product
    matrix is not the cube pair's, which the theorem rules out for a valid
    pair."""


class NormalizationFailedError(BspError):
    """Raised when the sign/translation normalization cannot satisfy its
    post-conditions; this signals a bug, not a valid outcome."""


class CheckpointCorruptError(BspError):
    pass


class WorkerDiedError(BspError):
    """A worker process ended before it had sent the results of the tasks
    it took: killed by a signal, by the out-of-memory killer, or exited."""


class MalformedInputError(BspError):
    """An input document lacks a required key or holds a value of the
    wrong type or form."""


@contextmanager
def parsing(what: str):
    """Report a missing key, a mistyped value or a vector of the wrong
    length met while reading the fields of ``what`` from a decoded JSON
    document as a MalformedInputError."""
    try:
        yield
    except KeyError as exc:
        raise MalformedInputError(f"{what}: missing key {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError, DimensionMismatchError) as exc:
        raise MalformedInputError(f"{what}: {exc}") from None
