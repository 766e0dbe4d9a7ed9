"""Exception types shared across the package.

Everything derives from PolyrigError so callers can catch domain errors
separately from programming errors (ValueError, TypeError stay reserved
for malformed arguments).
"""


class PolyrigError(Exception):
    """Base class for all domain errors raised by this package."""


# --- combinatorics ---------------------------------------------------------

class EulerViolation(PolyrigError):
    """V + F != E + 2 for the given face cycles."""


class DanglingEdge(PolyrigError):
    """An edge is not shared by exactly two faces with opposite orientation,
    or a vertex lies on fewer than three faces."""


class DegenerateFace(PolyrigError):
    """A face cycle has fewer than three vertices or repeats a vertex."""


# --- geometry --------------------------------------------------------------

class NonPlanarFace(PolyrigError):
    """A face's vertices do not fit a single plane within tolerance."""

    def __init__(self, face: int, residual: float):
        super().__init__(f"face {face} is not planar (relative residual {residual:.3e})")
        self.face = face
        self.residual = residual


class DegenerateMeasurement(PolyrigError):
    """A measurement is not defined or not differentiable at this realization
    (coincident points, zero-length ray, parallel planes)."""


# --- rigidity --------------------------------------------------------------

class NoKernelDirection(PolyrigError):
    """The measurement set is sufficient: the stacked Jacobian has no kernel
    direction beyond the trivial motions, so there is nothing to flex."""


class ProjectionDiverged(PolyrigError):
    """Projection of a perturbed realization back onto the constraint set
    did not reach the residual target."""


class NoConvergedRestarts(PolyrigError):
    """No restart of the nonlinear solve reached the residual tolerance."""


# --- generators ------------------------------------------------------------

class UnknownName(PolyrigError):
    """Requested generator name is not in the catalog."""


class OutOfValidityRegion(PolyrigError):
    """Hexahedron family parameters lie outside the region where the
    construction yields a convex hexahedron with planar faces."""


# --- polygon ---------------------------------------------------------------

class InfeasibleRadii(PolyrigError):
    """Circle radii cannot produce the requested configuration."""


class NotConvex(PolyrigError):
    """Constructed polygon is not convex."""


class OracleInconclusive(PolyrigError):
    """A numerical oracle failed to converge on every restart."""


# --- io --------------------------------------------------------------------

class ParseError(PolyrigError):
    """Malformed OFF file or measurement/configuration JSON."""
