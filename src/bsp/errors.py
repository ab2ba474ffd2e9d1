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


class NormalizationFailedError(BspError):
    """Raised when the sign/translation normalization cannot satisfy its
    post-conditions; this signals a bug, not a valid outcome."""


class CheckpointCorruptError(BspError):
    pass


class MalformedInputError(BspError):
    """An input document lacks a required key or holds a value of the
    wrong type or form."""


@contextmanager
def parsing(what: str):
    """Report a missing key or a mistyped value met while reading the
    fields of ``what`` from a decoded JSON document as a
    MalformedInputError."""
    try:
        yield
    except KeyError as exc:
        raise MalformedInputError(f"{what}: missing key {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"{what}: {exc}") from None
