"""Barycentric coordinates on the unit sphere.

Coordinates of a point inside a spherical polygon are obtained from 3D
barycentric coordinates of the origin inside the polyhedron spanned by the
polygon's vertices together with the point and its antipode; the classical
tangent-plane construction is included as a comparison baseline.
"""

from .errors import SphBaryError
from .geom import (
    DEFAULT_TOL,
    PointLocation,
    SphericalPolygon,
    Tolerances,
    angle_between,
    locate_point,
    normalize,
    triple_product,
    validate_polygon,
)
from .harness import (
    DEFAULT_BANDS,
    compare_methods,
    demo_quadrilateral,
    extended_pair,
    great_circle_ring,
    grid_rows,
    interior_points,
    load_polygon_file,
    octant_triangle,
    oracle_triangle,
    random_polygon,
    save_polygon_file,
)
from .polyhedron import PolyhedronQ, build_q, coords_at_origin, mv_weights, wachspress_weights
from .spherical import (
    METHODS,
    AngleCache,
    CoordinateVector,
    angles,
    closed_form_mv_weights,
    evaluate,
    extended_spherical_coords,
    origin_coords_on_ring,
    reconstruction_residual,
    spherical_coords,
    spherical_coords_classical,
)
from .tangent import TangentPolygon, gnomonic_project, planar_mv, planar_wachspress

__version__ = "0.1.0"

__all__ = [
    "SphBaryError",
    "Tolerances",
    "DEFAULT_TOL",
    "normalize",
    "angle_between",
    "triple_product",
    "SphericalPolygon",
    "PointLocation",
    "validate_polygon",
    "locate_point",
    "PolyhedronQ",
    "build_q",
    "mv_weights",
    "wachspress_weights",
    "coords_at_origin",
    "CoordinateVector",
    "AngleCache",
    "angles",
    "closed_form_mv_weights",
    "spherical_coords",
    "extended_spherical_coords",
    "origin_coords_on_ring",
    "reconstruction_residual",
    "TangentPolygon",
    "gnomonic_project",
    "planar_mv",
    "planar_wachspress",
    "spherical_coords_classical",
    "METHODS",
    "DEFAULT_BANDS",
    "evaluate",
    "random_polygon",
    "interior_points",
    "grid_rows",
    "compare_methods",
    "oracle_triangle",
    "load_polygon_file",
    "save_polygon_file",
    "octant_triangle",
    "demo_quadrilateral",
    "extended_pair",
    "great_circle_ring",
]
