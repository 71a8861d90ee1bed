"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation errors exit 2, numeric and
resource errors exit 3, I/O errors (plain OSError) exit 4.
"""

from contextlib import contextmanager


class UltracombError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(UltracombError, ValueError):
    """Invalid input: broken invariants, malformed data, bad parameters."""


class EmptySphereError(ValidationError):
    """A contour never reaches the requested level."""


class NumericError(UltracombError, ArithmeticError):
    """A numerical routine failed (divergence, overflow, non-finite values)."""


class ResourceError(UltracombError, RuntimeError):
    """A retry or size budget was exhausted (e.g. rejection sampling)."""


@contextmanager
def _malformed(what: str):
    """Read an input document: a missing, ill-typed or unparsable value
    raises a ValidationError naming a malformed ``what``; a
    ValidationError raised inside passes through unchanged."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc
