"""Exception types shared across the package."""


class RiskFieldsError(Exception):
    """Base class for all package-specific errors."""


class MalformedDocument(RiskFieldsError):
    """Scenario document fails schema validation."""


class DisconnectedFreeSpace(RiskFieldsError):
    """FREE region is empty or splits into multiple 4-connected components."""


class OpenWorkspace(RiskFieldsError):
    """Lattice perimeter is not fully occupied, so the workspace is not enclosed."""


class MalformedGrid(RiskFieldsError):
    """Grid arrays have inconsistent shapes or invalid entries."""


class DegenerateNormal(RiskFieldsError):
    """Both the blurred-indicator gradient and the neighbor-offset fallback vanish."""


class OutOfDomain(RiskFieldsError):
    """Sample point outside the lattice or deeper than one cell into occupied space."""


class NonConvergence(RiskFieldsError):
    """Iterative solve failed to reach the residual target within max_iters."""


class NegativeForcingViolation(RiskFieldsError):
    """Poisson forcing must be strictly negative on every free cell."""


class VanishingGuidance(RiskFieldsError):
    """Constraint violated where the guidance field is too small to correct along."""


class UnmappedLabel(RiskFieldsError):
    """Label id missing from the priority table."""


class UnorderedBoundary(RiskFieldsError):
    """Boundary chain ordering is unavailable for a component that needs it."""


class DegenerateCoefficient(RiskFieldsError):
    """Acceleration constraint violated while its input coefficient vanishes."""


class StartUnsafe(RiskFieldsError):
    """Initial condition lies outside the safe set."""


class GridMismatch(RiskFieldsError):
    """Two fields do not share the same lattice geometry."""


class InvalidTimeStep(RiskFieldsError, ValueError):
    """Time step above the CFL bound, not positive, or not dividing the frame
    period."""


class InvalidParameter(RiskFieldsError, ValueError):
    """Argument out of range: a non-finite state, a non-positive or
    non-finite config value, a malformed motion profile, an unset nominal."""
