"""Classical spherical coordinates via the tangent-plane route.

The polygon is centrally projected from the sphere's center onto the plane
tangent at x (v -> v / <v, x>), planar mean value or Wachspress coordinates
of the projected evaluation point (the planar origin) are computed there,
and each weight is divided by <v_i, x> to restore linear precision on the
sphere.  The projection exists only while <v_i, x> stays positive, which is
the advertised limitation of this construction; no continuous extension is
attempted at <v_i, x> = 0, and :func:`refuse_unprojected` refuses it.

Each planar formula is one function over (m, n) arrays of what it reads of
the image u_i of the ring, relative to the origin, with its gates:
:func:`mean_value_weights` reads |u_i|, u_i x u_{i+1} and <u_i, u_{i+1}>,
:func:`wachspress_weights` the corner areas A(u_{i-1}, u_i, u_{i+1}) and the
wedges A(0, u_i, u_{i+1}).  Two callers feed them.  The public functions
take the image :func:`gnomonic_project` projects
(:func:`sphbary.geom.gnomonic_images`, at m = 1) and normalize the weights.
The CC_MV and CC_WC kernels of :func:`sphbary.spherical.evaluate` project
nothing: the projection keeps the angles at x and sends theta_i to the
radius tan theta_i, so they read the same quantities off the rays of point
location (see :func:`sphbary.spherical._tangent`).  Both record a per-row
error instead of raising (see :func:`sphbary.errors.refuse`), and a
:class:`TangentPolygon` carries the polygon's band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotConvex, OriginOnBoundary, ProjectionUndefined, refuse, single
from .geom import DEFAULT_TOL, PROJ, UNIT, SphericalPolygon, Tolerances, dot3, gnomonic_images, roll1, unit_row

__all__ = [
    "TangentPolygon",
    "gnomonic_project",
    "planar_mv",
    "planar_wachspress",
]


@dataclass(frozen=True, eq=False)
class TangentPolygon:
    """Gnomonic image of a polygon in the tangent plane at x.

    basis    : (2, 3) orthonormal rows spanning the tangent plane
    points2d : (n, 2) planar coordinates of v_i / <v_i, x> relative to x
    dots     : (n,) the projection scales d_i = <v_i, x>
    tol      : the band of the convexity gate of planar_wachspress
    """

    basis: np.ndarray
    points2d: np.ndarray
    dots: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.points2d.setflags(write=False)
        self.dots.setflags(write=False)


def refuse_unprojected(dots: np.ndarray, errors: list) -> np.ndarray:
    """Refuse with ProjectionUndefined the rows of dots (m, n) = <v_i, x>
    (the rays' cos theta) where some <v_i, x> <= PROJ, naming the first
    least one; returns dots."""
    low = np.argmin(dots, axis=1)
    least = dots[np.arange(len(dots)), low]
    refuse(errors, least <= PROJ, lambda r: ProjectionUndefined(f"<v[{low[r]}], x> = {least[r]:.3e} is not positive"))
    return dots


def gnomonic_project(polygon: SphericalPolygon, x) -> TangentPolygon:
    """Project the polygon's vertices into the tangent plane at the unit
    row of x (see :func:`sphbary.geom.unit_row`); the image carries the
    polygon's band.

    Raises ProjectionUndefined when some <v_i, x> <= PROJ; the radial
    planar distance of a vertex at angle theta from x is tan(theta).
    """
    X = unit_row(x)
    dots = single(refuse_unprojected, dot3(X[:, None], polygon.vertices))   # the rays' cos theta, bit for bit
    (basis,), (points2d,) = gnomonic_images(polygon.vertices, X, dots[None])
    return TangentPolygon(basis=basis, points2d=points2d, dots=dots, tol=polygon.tol)


def mean_value_weights(r: np.ndarray, cross: np.ndarray, dot: np.ndarray, errors: list) -> np.ndarray:
    """Planar mean value weights of the origin (m, n) in the rings u with
    r = |u_i|, cross = u_i x u_{i+1} and dot = <u_i, u_{i+1}>.

    w_i = (tan(g_{i-1}/2) + tan(g_i/2)) / r_i with g_i the signed angle at
    the origin between u_i and u_{i+1}, tan(g_i/2) = cross_i / (r_i r_{i+1} + dot_i).
    """
    refuse(errors, np.any(r <= PROJ, axis=1),
           lambda _: OriginOnBoundary("evaluation point coincides with a projected vertex"))
    denom = r * roll1(r, -1) + dot
    refuse(errors, np.any(denom <= PROJ, axis=1),
           lambda _: OriginOnBoundary("evaluation point lies on a projected edge"))
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_half = cross / denom
        return (tan_half + roll1(tan_half, 1)) / r


def wachspress_weights(corner: np.ndarray, wedge: np.ndarray, tol: Tolerances, errors: list) -> np.ndarray:
    """Planar Wachspress weights of the origin (m, n) from the signed
    triangle areas corner = A(u_{i-1}, u_i, u_{i+1}) and
    wedge = A(0, u_i, u_{i+1}) of the rings u.

    w_i = corner_i / (wedge_{i-1} wedge_i); requires a convex planar polygon
    within the band tol.
    """
    refuse(errors, np.any(corner < -tol.geom, axis=1), lambda _: NotConvex("projected polygon is not convex"))
    refuse(errors, np.any(np.abs(wedge) <= UNIT, axis=1),
           lambda _: OriginOnBoundary("evaluation point lies on a projected edge line"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return corner / (roll1(wedge, 1) * wedge)


def _normalized(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return w / w.sum()


def planar_mv(t: TangentPolygon) -> np.ndarray:
    """Normalized planar mean value coordinates of the origin in the
    projected polygon (see :func:`mean_value_weights`)."""
    u = np.asarray(t.points2d, dtype=float)[None]
    nxt = roll1(u, -1)
    r = np.sqrt(u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1])
    cross = u[..., 0] * nxt[..., 1] - u[..., 1] * nxt[..., 0]
    dot = u[..., 0] * nxt[..., 0] + u[..., 1] * nxt[..., 1]
    return _normalized(single(mean_value_weights, r, cross, dot))


def planar_wachspress(t: TangentPolygon) -> np.ndarray:
    """Normalized planar Wachspress coordinates of the origin in the
    projected polygon (see :func:`wachspress_weights`) within its band;
    requires a convex planar polygon."""
    u = np.asarray(t.points2d, dtype=float)[None]
    prv, nxt = roll1(u, 1), roll1(u, -1)
    corner = 0.5 * ((u[..., 0] - prv[..., 0]) * (nxt[..., 1] - prv[..., 1])
                    - (u[..., 1] - prv[..., 1]) * (nxt[..., 0] - prv[..., 0]))
    wedge = 0.5 * (u[..., 0] * nxt[..., 1] - u[..., 1] * nxt[..., 0])
    return _normalized(single(wachspress_weights, corner, wedge, t.tol))
