"""Exception types shared across the library."""


class BarrierFemError(Exception):
    """Base class for all library errors."""


class InvalidGeometry(BarrierFemError):
    """Mesh generator preconditions violated (e.g. r_in >= r_out)."""


class ParseError(BarrierFemError):
    """Malformed mesh or config file.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(BarrierFemError):
    """Mesh invariants violated.  `violations` lists every one found; the
    message names the first three, and their count when there are more."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        shown = "; ".join(self.violations[:3])
        hidden = len(self.violations) - 3
        super().__init__(
            f"{len(self.violations)} violations: {shown}; and {hidden} more" if hidden > 0
            else shown
        )


class NonpositiveState(BarrierFemError):
    """An operation requiring u > 0 was evaluated at a nonpositive state."""


class CoefficientViolation(BarrierFemError):
    """A coefficient field violated its sign constraint at an evaluation point."""


class DimensionMismatch(BarrierFemError):
    """Linear-algebra operands have incompatible shapes."""


class LineSearchFailure(BarrierFemError):
    """Backtracking exhausted its halvings without sufficient decrease."""


class UnknownExample(BarrierFemError):
    """Built-in example id outside 1..4."""


class ConfigError(ParseError):
    """Bad config entry or mesh-gen flag: unknown, not applicable, or invalid.

    Carries the 1-based line number of the offending entry when known.
    """


class InvalidRange(BarrierFemError):
    """Sampling range is empty, not positive or not finite, R is not finite,
    or the integrand is not finite at a sample."""
