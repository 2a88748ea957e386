"""Classical spherical coordinates via the tangent-plane route.

The polygon is centrally projected from the sphere's center onto the plane
tangent at x (v -> v / <v, x>), planar mean value or Wachspress coordinates
of the projected evaluation point (the planar origin) are computed there,
and each weight is divided by <v_i, x> to restore linear precision on the
sphere.  The projection exists only while <v_i, x> stays positive, which is
the advertised limitation of this construction; no continuous extension is
attempted at <v_i, x> = 0.  The CC_MV and CC_WC methods of
:func:`sphbary.spherical.evaluate` are built from these pieces.

Each piece is batched over m evaluation points (an (m, 3) block of
directions, (m, n, 2) planar rings), the projection being
:func:`sphbary.geom.gnomonic_images`, and records a per-row error instead
of raising (see :func:`sphbary.errors.refuse`); the public functions are
its m = 1 calls, and a :class:`TangentPolygon` carries the polygon's band.
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


@dataclass(frozen=True)
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


def project_batch(V: np.ndarray, X: np.ndarray, dots: np.ndarray, errors: list):
    """:func:`sphbary.geom.gnomonic_images` of the ring V at the unit rows
    of X, given dots (m, n) = <v_i, x> (the rays' cos theta): bases
    (m, 2, 3) and points2d (m, n, 2); rows with some <v_i, x> <= PROJ are
    refused with ProjectionUndefined (the first least <v_i, x>, per block)."""
    low = np.argmin(dots, axis=1)
    least = dots[np.arange(len(dots)), low]
    refuse(errors, least <= PROJ, lambda r: ProjectionUndefined(f"<v[{low[r]}], x> = {least[r]:.3e} is not positive"))
    return gnomonic_images(V, X, dots)


def gnomonic_project(polygon: SphericalPolygon, x) -> TangentPolygon:
    """Project the polygon's vertices into the tangent plane at the unit
    row of x (see :func:`sphbary.geom.unit_row`); the image carries the
    polygon's band.

    Raises ProjectionUndefined when some <v_i, x> <= PROJ; the radial
    planar distance of a vertex at angle theta from x is tan(theta).
    """
    X = unit_row(x)
    dots = dot3(X[:, None, :], polygon.vertices)                 # the rays' cos theta
    basis, points2d = single(project_batch, polygon.vertices, X, dots)
    return TangentPolygon(basis=basis, points2d=points2d, dots=dots[0], tol=polygon.tol)


def planar_mv_batch(u: np.ndarray, errors: list) -> np.ndarray:
    """Normalized planar mean value coordinates of the origin for each
    ring u[r], shape (m, n, 2).

    w_i = (tan(g_{i-1}/2) + tan(g_i/2)) / ||u_i|| with g_i the signed angle
    at the origin between u_i and u_{i+1}.
    """
    r = np.sqrt(u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1])
    refuse(errors, np.any(r <= PROJ, axis=1),
           lambda _: OriginOnBoundary("evaluation point coincides with a projected vertex"))
    nxt = roll1(u, -1)
    cross = u[..., 0] * nxt[..., 1] - u[..., 1] * nxt[..., 0]
    denom = r * roll1(r, -1) + (u[..., 0] * nxt[..., 0] + u[..., 1] * nxt[..., 1])
    refuse(errors, np.any(denom <= PROJ, axis=1),
           lambda _: OriginOnBoundary("evaluation point lies on a projected edge"))
    with np.errstate(divide="ignore", invalid="ignore"):
        tan_half = cross / denom
        w = (tan_half + roll1(tan_half, 1)) / r
        return w / w.sum(axis=1)[:, None]


def planar_wachspress_batch(u: np.ndarray, tol: Tolerances, errors: list) -> np.ndarray:
    """Normalized planar Wachspress coordinates of the origin for each
    ring u[r], shape (m, n, 2).

    w_i = A(u_{i-1}, u_i, u_{i+1}) / (A(0, u_{i-1}, u_i) A(0, u_i, u_{i+1}))
    with signed triangle areas A; requires a convex planar polygon.
    """
    prv = roll1(u, 1)
    nxt = roll1(u, -1)
    corner = 0.5 * ((u[..., 0] - prv[..., 0]) * (nxt[..., 1] - prv[..., 1])
                    - (u[..., 1] - prv[..., 1]) * (nxt[..., 0] - prv[..., 0]))
    refuse(errors, np.any(corner < -tol.geom, axis=1), lambda _: NotConvex("projected polygon is not convex"))
    wedge = 0.5 * (u[..., 0] * nxt[..., 1] - u[..., 1] * nxt[..., 0])     # A(0, u_i, u_{i+1})
    refuse(errors, np.any(np.abs(wedge) <= UNIT, axis=1),
           lambda _: OriginOnBoundary("evaluation point lies on a projected edge line"))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = corner / (roll1(wedge, 1) * wedge)
        return w / w.sum(axis=1)[:, None]


def planar_mv(t: TangentPolygon) -> np.ndarray:
    """Normalized planar mean value coordinates of the origin in the
    projected polygon (see :func:`planar_mv_batch`)."""
    return single(planar_mv_batch, np.asarray(t.points2d, dtype=float)[None])


def planar_wachspress(t: TangentPolygon) -> np.ndarray:
    """Normalized planar Wachspress coordinates of the origin in the
    projected polygon (see :func:`planar_wachspress_batch`) within its
    band; requires a convex planar polygon."""
    return single(planar_wachspress_batch, np.asarray(t.points2d, dtype=float)[None], t.tol)
