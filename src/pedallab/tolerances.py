"""The numerical tolerances of the package, in one place.

Each constant names one decision; the modules that make it (curves, pedal,
areas, harness) import it from here, so a value is stated once.  This
module imports nothing, so every other module can import it.
"""

# an area on n points is settled when its re-run on 2n points agrees to this
# relative tolerance (absolute below unit area)
DOUBLING_RTOL = 1e-9

# a pole lies on the ellipse when its implicit value x^2/a^2 + y^2/b^2 is 1
# to this absolute tolerance (curves.pole_on_ellipse): the closed forms of
# the on-ellipse families hold there, and the hybrid and the negative pedal
# take their reduced form
ON_ELLIPSE_TOL = 1e-9

# a quadrature grid is uniform when every step equals the first to this
# tolerance, absolute and relative (np.allclose's rule)
GRID_STEP_TOL = 1e-12

# a quadrature grid covers one period when n * step is 2 pi to this
# absolute tolerance
PERIOD_TOL = 1e-9

# a sampled curve's total signed curvature is resolved when it is a multiple
# of pi to this absolute tolerance (areas.curvature_centroid_samples).  A
# cusp on a grid node misses by 0.13 or more (evolutoid at the cusp-birth
# angle: 4.80, 6.41 and 6.50 at n = 64, 2048 and 512; the evolute and the
# deltoid of a boundary pole: 1e5 to 1e14 off), while on the 2:1 ellipse,
# at n = 64 to 2048 and 100 random grid offsets each, the evolute, the
# evolutoid at 1.2 times that angle, the deltoids of P(0) and P(0.7) and
# the negative pedal of (0.7, -0.4) all stay within 5e-5 of one
TURNING_TOL = 1e-3

# two lines of an envelope's pencil are parallel when their determinant is
# below this fraction of their squared normals
PARALLEL_TOL = 1e-12

# a point of the rational hybrid is singular when its denominator
# 4 (a y0 sin t + b x0 cos t - a b) is below this fraction of 4 a b: the pole
# sits on the tangent line
TANGENT_TOL = 1e-9

# the conjecture check skips a pole within this distance of a symmetry axis,
# where the crossings degenerate
AXIS_TOL = 1e-9
