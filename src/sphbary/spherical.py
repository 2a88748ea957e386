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

All five methods share one evaluation path, :func:`evaluate_batch`, over
an (m, 3) block of directions: it locates the block once, answers the
boundary and the exterior the same way for every method (the Kronecker
delta and the edge vector for the NEW_* methods, which extend to the
boundary, OriginOnBoundary for the tangent-plane CC_* methods,
ExteriorPoint for all) and calls the method's interior kernel, looked up
in :data:`KERNELS`, once on the interior rows.  The kernels are numpy code
over the whole block, with no loop over its rows.  A kernel records per
row the error the single-point call raises (see
:func:`sphbary.errors.refuse`), so one failing row leaves the others
evaluated.  :func:`evaluate` and the public single-point functions are
m = 1 calls of the same code (see :func:`sphbary.errors.single`), and a
row's result does not depend on the batch it came in.
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
    ZeroVector,
    check_row,
    refuse,
    single,
)
from .geom import (
    DEFAULT_TOL,
    DENOM,
    EDGE,
    EXTERIOR,
    INTERIOR,
    VERTEX,
    Locations,
    PointLocation,
    SphericalPolygon,
    Tolerances,
    cross3,
    dot3,
    locate_points,
    normalize,
    roll1,
    unit_rows,
)
from .polyhedron import (
    build_ring_q,
    coords_at_origin,
    fan_faces,
    hull_faces,
    kernel_ok_rows,
    mv_weights_batch,
    normalized_weights,
    stack_bipyramids,
    wachspress_weights_batch,
)
from .tangent import planar_mv_batch, planar_wachspress_batch, project_batch

__all__ = [
    "CoordinateVector",
    "AngleCache",
    "angles",
    "closed_form_mv_weights",
    "KERNELS",
    "METHODS",
    "Evaluations",
    "evaluate_batch",
    "evaluate",
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


def _fan_angles(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    """c_i = x cross v_i (m, n, 3), sin theta_i = |c_i| and cos theta_i =
    <v_i, x> (m, n) for the unit rows of X; rows with x aligned with or
    opposite to some vertex are refused with AngleDegenerate."""
    x = X[:, None, :]
    c = cross3(x, polygon.vertices)
    sin_theta = np.sqrt(dot3(c, c))
    cos_theta = dot3(x, polygon.vertices)
    theta = np.arctan2(sin_theta, cos_theta)
    aligned = (theta <= polygon.tol.angle) | (theta >= np.pi - polygon.tol.angle)
    refuse(errors, aligned.any(axis=1), lambda r: AngleDegenerate(
        f"x is aligned with vertex {np.argmax(aligned[r])} (theta = {theta[r, np.argmax(aligned[r])]:.3e})"))
    return c, sin_theta, cos_theta, theta


def angles(polygon: SphericalPolygon, x) -> AngleCache:
    """Angle cache for the closed-form weights; x must not coincide with or
    oppose any vertex (AngleDegenerate otherwise)."""
    c, _, _, theta = single(_fan_angles, polygon, np.asarray(x, dtype=float).reshape(1, 3))
    c_next = np.roll(c, -1, axis=0)
    s = cross3(c, c_next)
    alpha = np.arctan2(np.sqrt(dot3(s, s)), dot3(c, c_next))
    return AngleCache(theta=theta, alpha=alpha)


def closed_form_batch(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    """Batched closed-form mean value weights (omega (m, n), denom (m,))
    at the unit rows of X; see :func:`closed_form_mv_weights`."""
    c, sin_theta, cos_theta, _ = _fan_angles(polygon, X, errors)
    c_next = roll1(c, -1)
    s = dot3(cross3(c, c_next), X[:, None, :])      # |c_i||c_{i+1}| sin(alpha_i)
    d = dot3(c, c_next)                              # |c_i||c_{i+1}| cos(alpha_i)
    # Near |alpha| = pi the tangent genuinely blows up; refuse to evaluate.
    refuse(errors, np.any(np.arctan2(np.abs(s), d) >= np.pi - polygon.tol.angle, axis=1),
           lambda _: AlphaNearPi("some alpha is too close to pi for the closed form"))
    cc = sin_theta * roll1(sin_theta, -1)
    # tan(alpha/2) = s / (cc + d) = (cc - d) / s: the first form cancels
    # for |alpha| > pi/2, the second for |alpha| < pi/2.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(d >= 0.0, s / (cc + d), (cc - d) / s)
        pair = t + roll1(t, 1)                       # tan(a_i/2) + tan(a_{i-1}/2)
        omega = np.pi * pair / (2.0 * sin_theta)
        denom = np.pi / 2.0 * np.sum(pair * cos_theta / sin_theta, axis=1)
    refuse(errors, ~(np.all(np.isfinite(omega), axis=1) & np.isfinite(denom)),
           lambda _: AlphaNearPi("the closed form is not finite at x"))
    return omega, denom


def closed_form_mv_weights(polygon: SphericalPolygon, x) -> tuple[np.ndarray, float]:
    """Closed-form mean value weights (omega, denom) for interior x.

    omega_i = pi (tan(alpha_i/2) + tan(alpha_{i-1}/2)) / (2 sin theta_i)
    denom   = pi/2 * sum_i cot(theta_i) (tan(alpha_i/2) + tan(alpha_{i-1}/2))

    with alpha_i signed by <x, v_i x v_{i+1}>, so that the weights hold on
    non-convex polygons too.  Without trigonometry, from c_i = x cross v_i:
    tan(alpha_i/2) = <x, c_i x c_{i+1}> / (|c_i||c_{i+1}| + <c_i, c_{i+1}>),
    sin theta_i = |c_i| and cos theta_i = <v_i, x>.  The spherical
    coordinates follow as psi_i = omega_i / denom and agree with the generic
    polyhedral mean value pipeline.  The m = 1 call of the batched kernel
    of NEW_MV_CLOSED.
    """
    omega, denom = single(closed_form_batch, polygon, np.asarray(x, dtype=float).reshape(1, 3))
    return omega, float(denom)


# --------------------------------------------------------------------------
# interior kernels: (polygon, unit interior rows X (m, 3), errors)
# -> (values (m, n), denominators (m,), NaN where a method has none);
# every band comes from polygon.tol
# --------------------------------------------------------------------------

def _quotient(phi: np.ndarray, n: int, errors: list):
    denom = phi[:, n + 1] - phi[:, n]
    refuse(errors, denom <= DENOM, lambda r: NonPositiveDenominator(
        f"phi[-x] - phi[x] = {denom[r]:.3e} <= {DENOM}; invalid input or broken backend"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return phi[:, :n] / denom[:, None], denom


def _mean_value(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    # Mean value weights need only the origin in the kernel and depend on
    # the triangulation; the fan's faces are the same for every x, so the
    # whole block is one stack of polyhedra.
    tol = polygon.tol
    P = stack_bipyramids(polygon.vertices, X, tol, errors)
    faces = fan_faces(polygon.n)
    w = mv_weights_batch(P, faces, kernel_ok_rows(P, faces, tol), errors)
    return _quotient(normalized_weights(w, errors), polygon.n, errors)


def _polar_dual(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    # Polar-dual weights are positive only on a convex polyhedron, and the
    # fan over a convex polygon is usually not convex, so they use the hull
    # of the same n+2 points (per row, x inserted into the polygon's
    # Delaunay triangulation) under the strict convexity check.
    P = stack_bipyramids(polygon.vertices, X, polygon.tol, errors)
    w = wachspress_weights_batch(P, hull_faces(polygon, X, errors), polygon.tol, True, errors)
    return _quotient(normalized_weights(w, errors), polygon.n, errors)


def _closed_form(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    omega, denom = closed_form_batch(polygon, X, errors)
    refuse(errors, denom <= DENOM, lambda r: NonPositiveDenominator(
        f"closed-form denominator {denom[r]:.3e} <= {DENOM}"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return omega / denom[:, None], denom


def _tangent(polygon: SphericalPolygon, X: np.ndarray, errors: list, wachspress: bool):
    # Planar coordinates of the gnomonic image, divided by <v_i, x> to
    # restore linear precision on the sphere.
    _, points2d, dots = project_batch(polygon.vertices, X, errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        planar = (planar_wachspress_batch(points2d, polygon.tol, errors) if wachspress
                  else planar_mv_batch(points2d, errors))
        return planar / dots, np.full(len(X), np.nan)


class Method(NamedTuple):
    """One row of :data:`KERNELS`."""

    kernel: Callable     # (polygon, unit interior rows X, errors) -> (values, denominators)
    boundary: bool       # Lagrange and edge values on the boundary; else OriginOnBoundary
    convex_only: bool    # NotConvexForWC on a non-convex polygon


KERNELS = {
    "NEW_MV": Method(_mean_value, True, False),
    "NEW_WC": Method(_polar_dual, True, True),
    "NEW_MV_CLOSED": Method(_closed_form, True, False),
    "CC_MV": Method(partial(_tangent, wachspress=False), False, False),
    "CC_WC": Method(partial(_tangent, wachspress=True), False, False),
}
METHODS = tuple(KERNELS)


# --------------------------------------------------------------------------
# the evaluation path
# --------------------------------------------------------------------------

class Evaluations(NamedTuple):
    """One method at m directions: locations, values (m, n) and interior
    denominators (m,), NaN where absent, and per row the error its
    single-point evaluation raises (None where it succeeds)."""

    method: str
    locations: Locations
    values: np.ndarray
    denom: np.ndarray
    errors: list

    def result(self, i: int) -> CoordinateVector:
        """Row i as :func:`evaluate` returns it, or its error raised."""
        check_row(self.errors, i)
        d = float(self.denom[i])
        return CoordinateVector(values=self.values[i].copy(), method=self.method,
                                location=self.locations.at(i), denom=None if np.isnan(d) else d)


def evaluate_batch(polygon: SphericalPolygon, X, method: str) -> Evaluations:
    """Evaluate one of the five coordinate methods at the rows of X, an
    (m, 3) block of directions: normalize, locate the whole block once,
    answer the boundary and the exterior for every row, and call the
    method's interior kernel once on the interior rows, all within the
    polygon's band."""
    X, short = unit_rows(X)
    m, n = len(X), polygon.n
    errors = [None] * m
    refuse(errors, short, lambda _: ZeroVector("cannot normalize a vector this short"))
    locations = locate_points(polygon, X)
    values = np.full((m, n), np.nan)
    denom = np.full(m, np.nan)
    if method not in KERNELS:
        refuse(errors, ~short, lambda _: UnknownMethod(f"unknown method {method!r}; expected one of {METHODS}"))
        return Evaluations(method, locations, values, denom, errors)
    kernel, boundary, convex_only = KERNELS[method]
    if convex_only and not polygon.convex:
        refuse(errors, ~short, lambda _: NotConvexForWC("the polar-dual backend requires a convex polygon"))
        return Evaluations(method, locations, values, denom, errors)
    kind = locations.kind
    refuse(errors, kind == EXTERIOR, lambda _: ExteriorPoint("x lies outside the polygon"))
    on_boundary = (kind == VERTEX) | (kind == EDGE)
    if not boundary:
        refuse(errors, on_boundary, lambda r: OriginOnBoundary(
            f"x is {locations.at(r)}; the tangent-plane construction needs interior x"))
    elif on_boundary.any():
        rows = on_boundary.nonzero()[0]
        i, edge = locations.index[rows], kind[rows] == EDGE
        values[rows] = 0.0
        values[rows, i] = np.where(edge, locations.a[rows], 1.0)
        values[rows[edge], (i[edge] + 1) % n] = locations.b[rows[edge]]
    rows = (kind == INTERIOR).nonzero()[0]           # short rows are NaN, never interior
    if len(rows):
        kernel_errors = [None] * len(rows)
        values[rows], denom[rows] = kernel(polygon, X[rows], kernel_errors)
        for r, error in zip(rows, kernel_errors):
            if error is not None:
                errors[r] = error
                values[r] = denom[r] = np.nan
    return Evaluations(method, locations, values, denom, errors)


def evaluate(polygon: SphericalPolygon, x, method: str) -> CoordinateVector:
    """Evaluate one of the five coordinate methods at x: the m = 1 call of
    :func:`evaluate_batch`."""
    return evaluate_batch(polygon, x, method).result(0)


def spherical_coords(polygon: SphericalPolygon, x, backend: str = "MV") -> CoordinateVector:
    """Spherical barycentric coordinates of x with the given backend:
    "MV" (mean value, any simple polygon whose polyhedron keeps the origin
    in its kernel) or "WC" (rational polar-dual weights, convex polygons
    only); the NEW_MV and NEW_WC methods of :func:`evaluate`."""
    return evaluate(polygon, x, "NEW_" + backend)


def spherical_coords_classical(polygon: SphericalPolygon, x, backend: str = "MV") -> CoordinateVector:
    """Classical spherical coordinates: gnomonic projection, planar
    coordinates, then division by <v_i, x>; the CC_MV and CC_WC methods of
    :func:`evaluate`.

    Only defined for strictly interior x with all <v_i, x> positive;
    boundary points raise OriginOnBoundary rather than being patched by a
    continuous extension.
    """
    return evaluate(polygon, x, "CC_" + backend)


def extended_spherical_coords(ring, x, backend: str = "MV", tol: Tolerances = DEFAULT_TOL) -> CoordinateVector:
    """Evaluation mode for configurations outside the default contracts.

    Accepts a raw unit-vector ring (no hemisphere or orientation
    validation) and skips the interior check; the origin-in-kernel
    certificate on the polyhedron is still enforced.  Both backends use the
    fan, since an unvalidated ring has no convex-polygon contract: "WC"
    runs the polar-dual weights in their relaxed mode, which keeps linear
    precision but not the sign.  Returns the quotient coordinates with
    location kind "extended"."""
    phi = origin_coords_on_ring(ring, x, backend, tol)
    values, denom = single(_quotient, phi[None], len(phi) - 2)
    return CoordinateVector(
        values=values, method="NEW_" + backend, location=PointLocation(kind="extended"), denom=float(denom)
    )


def origin_coords_on_ring(ring, x, backend: str = "MV", tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """3D barycentric coordinates of the origin in the polyhedron over a raw
    ring (length n+2); the finite object the construction always produces,
    even when the spherical quotient degenerates (e.g. all vertices on a
    great circle, where phi[-x] = phi[x] identically).  Like
    :func:`extended_spherical_coords` it uses the fan, with the polar-dual
    backend in its relaxed mode."""
    ring = np.array([normalize(v) for v in np.asarray(ring, dtype=float)])
    return coords_at_origin(build_ring_q(ring, normalize(x), tol), backend, require_convex=False)
