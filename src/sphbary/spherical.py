"""Spherical barycentric coordinates from 3D coordinates of the origin.

For x strictly inside the polygon, the coordinates are

    psi_i(x) = phi_i(0) / (phi_{n+2}(0) - phi_{n+1}(0)),   i = 1..n

where phi are any 3D barycentric coordinates of the origin inside the
polyhedron [v_1..v_n, x, -x] (indices n+1 for x, n+2 for -x).  The psi are
non-negative on convex polygons, reproduce x as sum(psi_i v_i), restrict
linearly to the edges and are the Kronecker delta at the vertices.  The
mean value backend takes phi on the fan triangulation of the polyhedron,
the polar-dual backend on its convex hull.

On an edge the same limit collapses to the two-vertex decomposition
x = a v_j + b v_{j+1}: because x, -x, v_j, v_{j+1} and the origin are all
contained in span(v_j, v_{j+1}), the boundary-extended ratios
phi_j(0)/phi_{n+2}(0) and phi_{j+1}(0)/phi_{n+2}(0) equal exactly the Gram
solution (a, b), which is how the edge case is evaluated here.

For the mean value backend the quotient also has a closed form built from
the angles theta_i = angle(x, v_i) and the signed angles alpha_i between
x cross v_i and x cross v_{i+1}; see :func:`closed_form_mv_weights`.

All five methods share one evaluation path, :func:`evaluate`: it locates x
once, answers the boundary and the exterior the same way for every method
(the Kronecker delta and the edge vector for the NEW_* methods, which
extend to the boundary, OriginOnBoundary for the tangent-plane CC_*
methods, ExteriorPoint for all) and calls the method's interior kernel,
looked up in :data:`KERNELS`, only for interior x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AlphaNearPi,
    AngleDegenerate,
    ExteriorPoint,
    NonPositiveDenominator,
    NotConvexForWC,
    OriginOnBoundary,
    UnknownMethod,
)
from .geom import (
    DEFAULT_TOL,
    PointLocation,
    SphericalPolygon,
    Tolerances,
    angle_between,
    locate_point,
    normalize,
)
from .polyhedron import bipyramid, build_ring_q, coords_at_origin
from .tangent import gnomonic_project, planar_mv, planar_wachspress

__all__ = [
    "CoordinateVector",
    "AngleCache",
    "angles",
    "closed_form_mv_weights",
    "KERNELS",
    "METHODS",
    "evaluate",
    "evaluate_located",
    "spherical_coords",
    "spherical_coords_classical",
    "extended_spherical_coords",
    "reconstruction_residual",
]


@dataclass(frozen=True)
class CoordinateVector:
    """Length-n coordinate values with their method tag and the location
    classification that selected the evaluation formula.  `denom` captures
    the interior-formula denominator phi_{n+2} - phi_{n+1} when one was
    computed (None on the boundary and for the tangent-plane methods)."""

    values: np.ndarray
    method: str
    location: PointLocation
    denom: float | None = None

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def reconstruction_residual(values, vertices, x) -> float:
    """|| sum(values_i * v_i) - x ||, the linear-precision defect."""
    return float(np.linalg.norm(np.asarray(values) @ np.asarray(vertices) - np.asarray(x)))


@dataclass(frozen=True)
class AngleCache:
    """Per-(polygon, x) angles: theta[i] = angle(x, v_i) and
    alpha[i] = angle(x cross v_i, x cross v_{i+1}), cyclic."""

    theta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.theta.setflags(write=False)
        self.alpha.setflags(write=False)


def angles(polygon: SphericalPolygon, x, tol: Tolerances | None = None) -> AngleCache:
    """Angle cache for the closed-form weights; x must not coincide with or
    oppose any vertex (AngleDegenerate otherwise)."""
    tol = tol or polygon.tol
    x = np.asarray(x, dtype=float)
    V = polygon.vertices
    n = polygon.n
    theta = np.empty(n)
    cross = np.empty((n, 3))
    for i in range(n):
        theta[i] = angle_between(x, V[i])
        if theta[i] <= tol.angle or theta[i] >= np.pi - tol.angle:
            raise AngleDegenerate(f"x is aligned with vertex {i} (theta = {theta[i]:.3e})")
        cross[i] = normalize(np.cross(x, V[i]), tol)
    alpha = np.array([angle_between(cross[i], cross[(i + 1) % n]) for i in range(n)])
    return AngleCache(theta=theta, alpha=alpha)


def closed_form_mv_weights(
    polygon: SphericalPolygon, x, tol: Tolerances | None = None
) -> tuple[np.ndarray, float]:
    """Closed-form mean value weights (omega, denom) for interior x.

    omega_i = pi (tan(alpha_i/2) + tan(alpha_{i-1}/2)) / (2 sin theta_i)
    denom   = pi/2 * sum_i cot(theta_i) (tan(alpha_i/2) + tan(alpha_{i-1}/2))

    with alpha_i signed by <x, v_i x v_{i+1}>, so that the weights hold on
    non-convex polygons too.  Without trigonometry, from c_i = x cross v_i:
    tan(alpha_i/2) = <x, c_i x c_{i+1}> / (|c_i||c_{i+1}| + <c_i, c_{i+1}>),
    sin theta_i = |c_i| and cos theta_i = <v_i, x>.  The spherical
    coordinates follow as psi_i = omega_i / denom and agree with the generic
    polyhedral mean value pipeline.
    """
    tol = tol or polygon.tol
    x = np.asarray(x, dtype=float)
    c = np.cross(x, polygon.vertices)
    sin_theta = np.linalg.norm(c, axis=1)
    cos_theta = polygon.vertices @ x
    theta = np.arctan2(sin_theta, cos_theta)
    if np.any((theta <= tol.angle) | (theta >= np.pi - tol.angle)):
        i = int(np.argmin(np.minimum(theta, np.pi - theta)))
        raise AngleDegenerate(f"x is aligned with vertex {i} (theta = {theta[i]:.3e})")
    c_next = np.roll(c, -1, axis=0)
    s = np.cross(c, c_next) @ x                   # |c_i||c_{i+1}| sin(alpha_i)
    d = np.einsum("ij,ij->i", c, c_next)          # |c_i||c_{i+1}| cos(alpha_i)
    # Near |alpha| = pi the tangent genuinely blows up; refuse to evaluate.
    if np.any(np.arctan2(np.abs(s), d) >= np.pi - tol.angle):
        raise AlphaNearPi("some alpha is too close to pi for the closed form")
    cc = sin_theta * np.roll(sin_theta, -1)
    # tan(alpha/2) = s / (cc + d) = (cc - d) / s: the first form cancels
    # for |alpha| > pi/2, the second for |alpha| < pi/2.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(d >= 0.0, s / (cc + d), (cc - d) / s)
    pair = t + np.roll(t, 1)                       # tan(a_i/2) + tan(a_{i-1}/2)
    omega = np.pi * pair / (2.0 * sin_theta)
    denom = float(np.pi / 2.0 * np.sum(pair * cos_theta / sin_theta))
    if not (np.all(np.isfinite(omega)) and np.isfinite(denom)):
        raise AlphaNearPi("the closed form is not finite at x")
    return omega, denom


# --------------------------------------------------------------------------
# interior kernels: (polygon, unit interior x, tol) -> (values, denominator)
# --------------------------------------------------------------------------

def _quotient(phi: np.ndarray, n: int, tol: Tolerances) -> tuple[np.ndarray, float]:
    denom = float(phi[n + 1] - phi[n])
    if denom <= tol.denom:
        raise NonPositiveDenominator(
            f"phi[-x] - phi[x] = {denom:.3e} <= {tol.denom}; invalid input or broken backend"
        )
    return phi[:n] / denom, denom


def _polyhedral(backend: str, polygon: SphericalPolygon, x, tol: Tolerances, *, hull: bool):
    # Mean value weights need only the origin in the kernel and depend on
    # the triangulation, so they keep the fan.  Polar-dual weights are
    # positive only on a convex polyhedron, and the fan over a convex
    # polygon is usually not convex, so they use the hull of the same
    # n+2 points under the strict convexity check.
    q = bipyramid(polygon.vertices, x, tol, hull)
    return _quotient(coords_at_origin(q, backend, tol=tol), polygon.n, tol)


def _closed_form(polygon: SphericalPolygon, x, tol: Tolerances):
    omega, denom = closed_form_mv_weights(polygon, x, tol)
    if denom <= tol.denom:
        raise NonPositiveDenominator(f"closed-form denominator {denom:.3e} <= {tol.denom}")
    return omega / denom, denom


def _tangent(planar: Callable, polygon: SphericalPolygon, x, tol: Tolerances):
    # Planar coordinates of the gnomonic image, divided by <v_i, x> to
    # restore linear precision on the sphere.
    t = gnomonic_project(polygon, x, tol)
    return planar(t, tol) / t.dots, None


class Method(NamedTuple):
    """One row of :data:`KERNELS`."""

    kernel: Callable     # (polygon, unit interior x, tol) -> (values, denom or None)
    boundary: bool       # Lagrange and edge values on the boundary; else OriginOnBoundary
    convex_only: bool    # NotConvexForWC on a non-convex polygon


KERNELS = {
    "NEW_MV": Method(partial(_polyhedral, "MV", hull=False), True, False),
    "NEW_WC": Method(partial(_polyhedral, "WC", hull=True), True, True),
    "NEW_MV_CLOSED": Method(_closed_form, True, False),
    "CC_MV": Method(partial(_tangent, planar_mv), False, False),
    "CC_WC": Method(partial(_tangent, planar_wachspress), False, False),
}
METHODS = tuple(KERNELS)


# --------------------------------------------------------------------------
# the evaluation path
# --------------------------------------------------------------------------

def evaluate(
    polygon: SphericalPolygon, x, method: str, tol: Tolerances | None = None
) -> CoordinateVector:
    """Evaluate one of the five coordinate methods at x."""
    tol = tol or polygon.tol
    return evaluate_located(polygon, normalize(x, tol), method, tol)


def evaluate_located(
    polygon: SphericalPolygon,
    x: np.ndarray,
    method: str,
    tol: Tolerances,
    loc: PointLocation | None = None,
) -> CoordinateVector:
    """:func:`evaluate` at a unit x whose location the caller may already
    hold (a grid row reports it even when the evaluation fails); x is
    located here otherwise, after the method's polygon precondition."""
    if method not in KERNELS:
        raise UnknownMethod(f"unknown method {method!r}; expected one of {METHODS}")
    kernel, boundary, convex_only = KERNELS[method]
    if convex_only and not polygon.convex:
        raise NotConvexForWC("the polar-dual backend requires a convex polygon")
    loc = loc or locate_point(polygon, x, tol)
    if loc.kind == "exterior":
        raise ExteriorPoint("x lies outside the polygon")
    if loc.is_boundary:
        if not boundary:
            raise OriginOnBoundary(f"x is {loc}; the tangent-plane construction needs interior x")
        values = np.zeros(polygon.n)
        if loc.kind == "vertex":
            values[loc.index] = 1.0
        else:
            values[loc.index] = loc.a
            values[(loc.index + 1) % polygon.n] = loc.b
        return CoordinateVector(values=values, method=method, location=loc)
    values, denom = kernel(polygon, x, tol)
    return CoordinateVector(values=values, method=method, location=loc, denom=denom)


def spherical_coords(
    polygon: SphericalPolygon, x, backend: str = "MV", *, tol: Tolerances | None = None
) -> CoordinateVector:
    """Spherical barycentric coordinates of x with the given backend:
    "MV" (mean value, any simple polygon whose polyhedron keeps the origin
    in its kernel) or "WC" (rational polar-dual weights, convex polygons
    only); the NEW_MV and NEW_WC methods of :func:`evaluate`."""
    return evaluate(polygon, x, "NEW_" + backend, tol)


def spherical_coords_classical(
    polygon: SphericalPolygon, x, backend: str = "MV", tol: Tolerances | None = None
) -> CoordinateVector:
    """Classical spherical coordinates: gnomonic projection, planar
    coordinates, then division by <v_i, x>; the CC_MV and CC_WC methods of
    :func:`evaluate`.

    Only defined for strictly interior x with all <v_i, x> positive;
    boundary points raise OriginOnBoundary rather than being patched by a
    continuous extension.
    """
    return evaluate(polygon, x, "CC_" + backend, tol)


def extended_spherical_coords(
    ring, x, backend: str = "MV", tol: Tolerances = DEFAULT_TOL
) -> CoordinateVector:
    """Evaluation mode for configurations outside the default contracts.

    Accepts a raw unit-vector ring (no hemisphere or orientation
    validation) and skips the interior check; the origin-in-kernel
    certificate on the polyhedron is still enforced.  Both backends use the
    fan, since an unvalidated ring has no convex-polygon contract: "WC"
    runs the polar-dual weights in their relaxed mode, which keeps linear
    precision but not the sign.  Returns the quotient coordinates with
    location kind "extended"."""
    ring = np.array([normalize(v, tol) for v in np.asarray(ring, dtype=float)])
    x = normalize(x, tol)
    phi = coords_at_origin(build_ring_q(ring, x, tol), backend, tol=tol, require_convex=False)
    values, denom = _quotient(phi, len(ring), tol)
    return CoordinateVector(
        values=values, method="NEW_" + backend, location=PointLocation(kind="extended"), denom=denom
    )


def origin_coords_on_ring(ring, x, backend: str = "MV", tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """3D barycentric coordinates of the origin in the polyhedron over a raw
    ring (length n+2); the finite object the construction always produces,
    even when the spherical quotient degenerates (e.g. all vertices on a
    great circle, where phi[-x] = phi[x] identically).  Like
    :func:`extended_spherical_coords` it uses the fan, with the polar-dual
    backend in its relaxed mode."""
    ring = np.array([normalize(v, tol) for v in np.asarray(ring, dtype=float)])
    q = build_ring_q(ring, normalize(x, tol), tol)
    return coords_at_origin(q, backend, tol=tol, require_convex=False)
