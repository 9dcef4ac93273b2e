"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for geometric failures."""


class DomainError(GeometryError, ValueError):
    """Input violates a documented precondition."""


class EvaluationError(GeometryError):
    """A sampled curve has a non-finite point at the node it names."""

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
    """A polygon repeats a vertex, so an edge there has no direction and the
    vertex no angle (areas.curvature_centroid_polygon)."""


class QuadratureError(GeometryError):
    """A quadrature failed a check of its grid: the row of parameters, the
    agreement of an area with its re-run at twice the points, or a total
    curvature that the grid did not resolve."""
