"""Exception taxonomy for the workbench.

Numerical-breakdown signals (PositivityLoss, StepUnderflow, NonFinite) carry
enough context for the run harness to correlate analytic blow-up monitors
with the discrete failure.
"""

from __future__ import annotations


class KortorusError(Exception):
    """Base class for all workbench errors."""


class InvalidField(KortorusError):
    """Field samples are non-finite or structurally inconsistent."""


class NonpositiveDensity(KortorusError):
    """A density sample is at or below the positivity floor."""

    def __init__(self, message: str, location=None, value: float | None = None):
        super().__init__(message)
        self.location = location
        self.value = value


class CoefficientDomainError(KortorusError):
    """A capillarity coefficient law is not evaluable on the density range."""


class DeltaOutOfRange(KortorusError):
    """The weighted-kinetic exponent delta must lie in (0, 2)."""


class PExponentOutOfRange(KortorusError):
    """Integrability / vacuum exponent p outside its admissible range."""


class ScalingPairInvalid(KortorusError):
    """(p, q) does not satisfy the continuation scaling 1/p + N/(2q) = 1/2."""


class PositivityLoss(KortorusError):
    """A time step produced a density sample at or below the floor."""

    def __init__(self, message: str, location=None, time: float | None = None):
        super().__init__(message)
        self.location = location
        self.time = time
        self.trajectory = None  # attached by the run loop on termination


class NonFinite(KortorusError):
    """A time step produced NaN or Inf samples."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time
        self.trajectory = None


class StepUnderflow(KortorusError):
    """Step-size control demanded a dt below dt_min (numerical blow-up signal)."""

    def __init__(self, message: str, required_dt: float | None = None,
                 time: float | None = None):
        super().__init__(message)
        self.required_dt = required_dt
        self.time = time
        self.trajectory = None


class ResolutionTooSmall(KortorusError):
    """Grid supports fewer than three dyadic shells."""


class EmptyTrajectory(KortorusError):
    """A trajectory-consuming operation received no snapshots."""


class IndexConstraintViolated(KortorusError):
    """Besov embedding indices must satisfy p1 <= p2 and r1 <= r2."""


class ExponentOrderViolated(KortorusError):
    """Heat-estimate time exponents must satisfy 1 <= rho2 <= rho1 <= inf."""


class ParseError(KortorusError):
    """Configuration document is not valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ConstraintViolationError(KortorusError, ValueError):
    """Parameters violate one or more of their constraints.

    Carries every violation found, not just the first.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class VariantMismatch(ConstraintViolationError):
    """Model parameters violate the coefficient constraints of the selected variant."""


def require(*checks: tuple[bool, str], error=ConstraintViolationError) -> None:
    """Raise one ``error`` listing the message of every check that fails;
    each check is a (holds, message) pair."""
    violations = [message for holds, message in checks if not holds]
    if violations:
        raise error(violations)


class DumpFormatError(KortorusError):
    """Binary field dump is corrupt or truncated."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
