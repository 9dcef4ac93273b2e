"""pedallab: a numerical laboratory for pedal-type curves of an ellipse.

The package constructs the pedal, contrapedal, rotated, blended, negative
pedal, hybrid, pseudo-Talbot and evolutoid companions of an ellipse,
measures their signed areas both in closed form and by spectral quadrature,
and certifies the area-invariance laws by sweeping the pole over circles
and over the ellipse itself.
"""

from .areas import (
    Polygon,
    area_rule,
    closed_form_area,
    closed_form_areas,
    curvature_centroid_polygon,
    curvature_centroid_samples,
    curvature_centroid_support,
    doubling_rule,
    pedal_polygon,
    polygon_signed_area,
    support_contrapedal_area,
    support_pedal_area,
)
from .curves import (
    Ellipse,
    ParamGrid,
    Point2,
    SampledCurve,
    SupportCurve,
    ellipse_point,
    ellipse_support,
    sample_curve,
)
from .errors import (
    CollinearVertices,
    DegenerateLine,
    DomainError,
    EvaluationError,
    GeometryError,
    QuadratureError,
    SingularFamily,
    ZeroRotationIndex,
    ZeroTotalWeight,
)
from .harness import (
    ConjectureReport,
    IdentityCheck,
    InvarianceReport,
    LocusSpec,
    conjecture_check_contrapedal,
    family_evaluator,
    family_grid,
    identity_suite,
    scan,
)
from .pedal import (
    Crossing,
    evolutoid_point,
    find_cusps,
    self_intersections,
)

__version__ = "0.1.0"
