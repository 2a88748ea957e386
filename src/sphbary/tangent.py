"""Classical spherical coordinates via the tangent-plane route.

The polygon is centrally projected from the sphere's center onto the plane
tangent at x (v -> v / <v, x>), planar mean value or Wachspress coordinates
of the projected evaluation point (the planar origin) are computed there,
and each weight is divided by <v_i, x> to restore linear precision on the
sphere.  The projection exists only while <v_i, x> stays positive, which is
the advertised limitation of this construction; no continuous extension is
attempted at <v_i, x> = 0.  The CC_MV and CC_WC methods of
:func:`sphbary.spherical.evaluate` are built from these pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConvex, OriginOnBoundary, ProjectionUndefined
from .geom import DEFAULT_TOL, SphericalPolygon, Tolerances, normalize, tangent_basis

__all__ = [
    "TangentPolygon",
    "gnomonic_project",
    "planar_mv",
    "planar_wachspress",
]


@dataclass(frozen=True)
class TangentPolygon:
    """Gnomonic image of a polygon in the tangent plane at x.

    basis    : (2, 3) orthonormal rows spanning the tangent plane
    points2d : (n, 2) planar coordinates of v_i / <v_i, x> relative to x
    dots     : (n,) the projection scales d_i = <v_i, x>
    """

    basis: np.ndarray
    points2d: np.ndarray
    dots: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.points2d.setflags(write=False)
        self.dots.setflags(write=False)


def gnomonic_project(polygon: SphericalPolygon, x, tol: Tolerances | None = None) -> TangentPolygon:
    """Project the polygon's vertices into the tangent plane at x.

    Raises ProjectionUndefined when some <v_i, x> <= tol.proj; the radial
    planar distance of a vertex at angle theta from x is tan(theta).
    """
    tol = tol or polygon.tol
    x = normalize(x, tol)
    dots = polygon.vertices @ x
    if np.any(dots <= tol.proj):
        i = int(np.argmin(dots))
        raise ProjectionUndefined(f"<v[{i}], x> = {dots[i]:.3e} is not positive")
    b1, b2 = tangent_basis(x)
    images = polygon.vertices / dots[:, None] - x
    points2d = np.column_stack([images @ b1, images @ b2])
    return TangentPolygon(basis=np.vstack([b1, b2]), points2d=points2d, dots=dots)


def _polar_angles_about_origin(points2d: np.ndarray, tol: Tolerances):
    r = np.linalg.norm(points2d, axis=1)
    if np.any(r <= tol.proj):
        raise OriginOnBoundary("evaluation point coincides with a projected vertex")
    nxt = np.roll(points2d, -1, axis=0)
    cross = points2d[:, 0] * nxt[:, 1] - points2d[:, 1] * nxt[:, 0]
    dot = np.einsum("ij,ij->i", points2d, nxt)
    return r, cross, dot


def planar_mv(t: TangentPolygon, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Normalized planar mean value coordinates of the origin.

    w_i = (tan(g_{i-1}/2) + tan(g_i/2)) / ||u_i|| with g_i the signed angle
    at the origin between u_i and u_{i+1}.
    """
    r, cross, dot = _polar_angles_about_origin(t.points2d, tol)
    denom = r * np.roll(r, -1) + dot
    if np.any(denom <= tol.proj):
        raise OriginOnBoundary("evaluation point lies on a projected edge")
    tan_half = cross / denom
    w = (tan_half + np.roll(tan_half, 1)) / r
    return w / w.sum()


def planar_wachspress(t: TangentPolygon, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Normalized planar Wachspress coordinates of the origin.

    w_i = A(u_{i-1}, u_i, u_{i+1}) / (A(0, u_{i-1}, u_i) A(0, u_i, u_{i+1}))
    with signed triangle areas A; requires a convex planar polygon.
    """
    u = t.points2d
    prv = np.roll(u, 1, axis=0)
    nxt = np.roll(u, -1, axis=0)
    corner = 0.5 * ((u[:, 0] - prv[:, 0]) * (nxt[:, 1] - prv[:, 1]) - (u[:, 1] - prv[:, 1]) * (nxt[:, 0] - prv[:, 0]))
    if np.any(corner < -tol.geom):
        raise NotConvex("projected polygon is not convex")
    wedge = 0.5 * (u[:, 0] * nxt[:, 1] - u[:, 1] * nxt[:, 0])     # A(0, u_i, u_{i+1})
    if np.any(np.abs(wedge) <= tol.unit):
        raise OriginOnBoundary("evaluation point lies on a projected edge line")
    w = corner / (np.roll(wedge, 1) * wedge)
    return w / w.sum()
