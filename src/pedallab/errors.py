"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for geometric failures."""


class DomainError(GeometryError, ValueError):
    """Input violates a documented precondition."""


class EvaluationError(GeometryError):
    """A curve evaluator failed at a specific parameter value."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SingularFamily(GeometryError):
    """The 2x2 envelope system is singular at some parameter."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class DegenerateLine(GeometryError):
    """A line of the family degenerates (zero normal vector)."""


class ZeroTotalWeight(GeometryError):
    """Polygon curvature-centroid weights sum to zero."""


class ZeroRotationIndex(GeometryError):
    """Total curvature vanishes, so the curvature centroid is undefined."""


class CollinearVertices(DomainError):
    """Triangle vertices are collinear; no circumcenter exists."""


class QuadratureError(GeometryError):
    """A quadrature failed a check of its grid: the row of parameters, the
    agreement of an area with its re-run at twice the points, or a total
    curvature that the grid did not resolve."""
