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
directions, (m, n, 2) planar rings) and records a per-row error instead of
raising (see :func:`sphbary.errors.refuse`); the public functions are its
m = 1 calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConvex, OriginOnBoundary, ProjectionUndefined, refuse, single
from .geom import DEFAULT_TOL, SphericalPolygon, Tolerances, dot3, normalize, roll1, tangent_frames

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


def project_batch(V: np.ndarray, X: np.ndarray, tol: Tolerances, errors: list):
    """Batched gnomonic projection of the ring V at the unit rows of X:
    bases (m, 2, 3), points2d (m, n, 2) and dots (m, n); rows with some
    <v_i, x> <= tol.proj are refused with ProjectionUndefined."""
    x = X[:, None, :]
    dots = dot3(x, V)
    low = dots <= tol.proj
    refuse(errors, low.any(axis=1), lambda r: ProjectionUndefined(
        f"<v[{np.argmin(dots[r])}], x> = {dots[r].min():.3e} is not positive"))
    B1, B2 = tangent_frames(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        images = V / dots[..., None] - x
    points2d = np.stack([dot3(images, B1[:, None, :]), dot3(images, B2[:, None, :])], axis=-1)
    return np.stack([B1, B2], axis=1), points2d, dots


def gnomonic_project(polygon: SphericalPolygon, x, tol: Tolerances | None = None) -> TangentPolygon:
    """Project the polygon's vertices into the tangent plane at x.

    Raises ProjectionUndefined when some <v_i, x> <= tol.proj; the radial
    planar distance of a vertex at angle theta from x is tan(theta).
    """
    tol = tol or polygon.tol
    basis, points2d, dots = single(project_batch, polygon.vertices, normalize(x, tol)[None], tol)
    return TangentPolygon(basis=basis, points2d=points2d, dots=dots)


def planar_mv_batch(u: np.ndarray, tol: Tolerances, errors: list) -> np.ndarray:
    """Normalized planar mean value coordinates of the origin for each
    ring u[r], shape (m, n, 2).

    w_i = (tan(g_{i-1}/2) + tan(g_i/2)) / ||u_i|| with g_i the signed angle
    at the origin between u_i and u_{i+1}.
    """
    r = np.sqrt(u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1])
    refuse(errors, np.any(r <= tol.proj, axis=1),
           lambda _: OriginOnBoundary("evaluation point coincides with a projected vertex"))
    nxt = roll1(u, -1)
    cross = u[..., 0] * nxt[..., 1] - u[..., 1] * nxt[..., 0]
    denom = r * roll1(r, -1) + (u[..., 0] * nxt[..., 0] + u[..., 1] * nxt[..., 1])
    refuse(errors, np.any(denom <= tol.proj, axis=1),
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
    refuse(errors, np.any(np.abs(wedge) <= tol.unit, axis=1),
           lambda _: OriginOnBoundary("evaluation point lies on a projected edge line"))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = corner / (roll1(wedge, 1) * wedge)
        return w / w.sum(axis=1)[:, None]


def planar_mv(t: TangentPolygon, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Normalized planar mean value coordinates of the origin in the
    projected polygon (see :func:`planar_mv_batch`)."""
    return single(planar_mv_batch, np.asarray(t.points2d, dtype=float)[None], tol)


def planar_wachspress(t: TangentPolygon, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Normalized planar Wachspress coordinates of the origin in the
    projected polygon (see :func:`planar_wachspress_batch`); requires a convex
    planar polygon."""
    return single(planar_wachspress_batch, np.asarray(t.points2d, dtype=float)[None], tol)
