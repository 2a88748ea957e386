"""Spherical barycentric coordinates from 3D coordinates of the origin.

For x strictly inside the polygon, the coordinates are

    psi_i(x) = phi_i(0) / (phi_{n+2}(0) - phi_{n+1}(0)),   i = 1..n

where phi are any 3D barycentric coordinates of the origin inside the
polyhedron [v_1..v_n, x, -x] (indices n+1 for x, n+2 for -x).  The psi are
non-negative on convex polygons, reproduce x as sum(psi_i v_i), restrict
linearly to the edges and are the Kronecker delta at the vertices.  The
mean value backend takes phi on the fan triangulation of the polyhedron
(below), the polar-dual backend on its convex hull, from the kernel
(:mod:`sphbary.polyhedron`) that the functions on one polyhedron run too.

On an edge the same limit collapses to the two-vertex decomposition
x = a v_j + b v_{j+1}: because x, -x, v_j, v_{j+1} and the origin are all
contained in span(v_j, v_{j+1}), the boundary-extended ratios
phi_j(0)/phi_{n+2}(0) and phi_{j+1}(0)/phi_{n+2}(0) equal exactly the Gram
solution (a, b), which is how the edge case is evaluated here.

The quotient is unchanged when phi is scaled, so the polyhedral kernels
return raw weights w_1..w_n and w_{-x} - w_x.  The mean value quotient has
a closed form built from the angles theta_i = angle(x, v_i) and the signed
angles alpha_i between c_i and c_{i+1}, the terms whose sum is the winding
that locates x (:func:`closed_form_mv_weights`): its weights omega_i are
the fan's at the ring and its denominator sum_i omega_i cos theta_i is
w_{-x} - w_x, by linear precision, so the weight w_x of x cancels.  NEW_MV
and NEW_MV_CLOSED run this one kernel
(:func:`sphbary.polyhedron.mean_value_ring`), each naming its own errors;
the fan kernel that also forms w_x serves the functions that return 3D weights.

All five methods share one evaluation path, :func:`evaluate_batch`, over
an (m, 3) block of directions: it locates the block once, answers the
boundary and the exterior the same way for every method (the Kronecker
delta and the edge vector for the NEW_* methods, which extend to the
boundary, OriginOnBoundary for the tangent-plane CC_* methods,
ExteriorPoint for all) and calls the method's interior kernel, looked up
in :data:`KERNELS`, once on the interior rows X: kernel(polygon, X, rays,
errors), with those rows of the rays point location read
(:class:`sphbary.geom.Rays`), so no kernel crosses x with the ring again
and its 1/tau terms read the tau the interior decision read.  The
tangent-plane kernels project nothing either: the gnomonic projection keeps
the angles at x and sends theta_i to the radius tan theta_i, so the planar
quantities their formulas read are the rays over products of cos theta_i
(see :func:`_tangent`), and they return w_i / cos theta_i with the planar
weights' sum as denominator.  One stage then divides every kernel's
weights by its denominators, the only one that refuses
NonPositiveDenominator; a block whose rows are all interior (every interior
m = 1 call) takes its quotients as they come, with no scatter into
prefilled outputs.
NEW_WC's kernel needs the convex hull over a convex polygon: on a
non-convex one it refuses every interior row, and only those, with
NotConvexForWC.  The kernels are numpy code over the whole block, with no
loop over its rows.  A kernel records per row, in `errors`, the error the
single-point call raises (see :func:`sphbary.errors.refuse`), so one
failing row leaves the others evaluated.  :func:`evaluate` and the public
single-point functions are m = 1 calls of the same code (see
:func:`sphbary.errors.single`), and a row's result does not depend on the
batch it came in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphaNearPi,
    AngleDegenerate,
    ExteriorPoint,
    KernelViolation,
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
    DEFAULT_TOL, DENOM, EDGE, EXTERIOR, INTERIOR, KINDS, VERTEX, Locations, PointLocation, Rays, SphericalPolygon,
    Tolerances, direction, dot3, locate_points, ray_sines, ring_rays, roll1, unit_row, unit_rows, unit_vertices,
    zero_vector,
)
from .polyhedron import build_ring_q, coords_at_origin, mean_value_ring, on_vertex, polar_dual
from .tangent import mean_value_weights, refuse_unprojected, wachspress_weights

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


@dataclass(frozen=True, eq=False)
class CoordinateVector:
    """Length-n coordinate values with their method tag and the location
    classification that selected the evaluation formula.  `denom` is the
    interior quotient's (None on the boundary and for the tangent-plane
    methods): the raw w_{-x} - w_x of the NEW_* methods' weights, or
    phi_{n+2} - phi_{n+1} of the extended mode's normalized phi."""

    values: np.ndarray
    method: str
    location: PointLocation
    denom: float | None = None

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def reconstruction_residuals(W: np.ndarray, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """|| sum_i W[r, i] v_i - x_r || (m,) for W (m, n), V (n, 3) and X (m, 3), each coordinate summed
    along its own contiguous row of products, not by BLAS, so a row's residual does not depend on its batch."""
    miss = np.multiply(W[:, None, :], V.T, order="C").sum(axis=2) - X
    return np.sqrt(dot3(miss, miss))


def reconstruction_residual(values, vertices, x) -> float:
    """The linear-precision defect || sum(values_i * v_i) - x ||: the m = 1 call of :func:`reconstruction_residuals`."""
    return float(reconstruction_residuals(np.reshape(values, (1, -1)), np.asarray(vertices), np.reshape(x, (1, 3)))[0])


@dataclass(frozen=True, eq=False)
class AngleCache:
    """Per-(polygon, x) angles: theta[i] = angle(x, v_i) and alpha[i] the
    signed angle from x cross v_i to x cross v_{i+1} (signed by
    <x, v_i x v_{i+1}>; the winding terms of point location), cyclic."""

    theta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.theta.setflags(write=False)
        self.alpha.setflags(write=False)


def _angle_degenerate(k: int, theta: float) -> AngleDegenerate:
    return AngleDegenerate(f"x is aligned with vertex {k} (theta = {theta:.3e})")


def angles(polygon: SphericalPolygon, x) -> AngleCache:
    """Angle cache for the closed-form weights at the unit row of x; x must
    not coincide with or oppose any vertex (AngleDegenerate otherwise)."""
    rays = ring_rays(polygon, unit_row(x))
    sin_theta = single(ray_sines, polygon, rays, _angle_degenerate)
    return AngleCache(theta=np.arctan2(sin_theta, rays.cos[0]), alpha=np.arctan2(rays.tau[0], rays.d[0]))


def closed_form_batch(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list,
                      aligned=_angle_degenerate, not_finite=AlphaNearPi):
    """Batched closed-form mean value weights (omega (m, n), denom (m,))
    from the rays of the m unit rows X; see :func:`closed_form_mv_weights`.
    NEW_MV's and NEW_MV_CLOSED's kernel, each with its own errors:
    aligned(k, theta_k) at vertex k (see ray_sines), not_finite."""
    ray_sines(polygon, rays, aligned, errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega, denom = mean_value_ring(rays)
    refuse(errors, ~(np.all(np.isfinite(omega), axis=1) & np.isfinite(denom)),
           lambda _: not_finite("the closed form is not finite at x"))
    return omega, denom


def closed_form_mv_weights(polygon: SphericalPolygon, x) -> tuple[np.ndarray, float]:
    """Closed-form mean value weights (omega, denom) for interior x, taken
    as its unit row (see :func:`sphbary.geom.unit_row`).

    omega_i = pi (tan(alpha_i/2) + tan(alpha_{i-1}/2)) / (2 sin theta_i)
    denom   = pi/2 * sum_i cot(theta_i) (tan(alpha_i/2) + tan(alpha_{i-1}/2))

    with alpha_i signed by <x, v_i x v_{i+1}>, so that the weights hold on
    non-convex polygons too.  Without trigonometry, from c_i = x cross v_i
    and tau_i = <x, v_i x v_{i+1}>, since c_i x c_{i+1} = tau_i x:
    tan(alpha_i/2) = tau_i / (|c_i||c_{i+1}| + <c_i, c_{i+1}>),
    sin theta_i = |c_i| and cos theta_i = <v_i, x>.  The spherical
    coordinates follow as psi_i = omega_i / denom and agree with the generic
    polyhedral mean value pipeline.  The m = 1 call of
    :func:`closed_form_batch`, NEW_MV_CLOSED's kernel.
    """
    X = unit_row(x)
    omega, denom = single(closed_form_batch, polygon, X, ring_rays(polygon, X))
    return omega, float(denom)


# --------------------------------------------------------------------------
# interior kernels: (polygon, unit interior rows X (m, 3), their rays,
# errors) -> (weights (m, n), denominators (m,)), which evaluate_batch
# divides in one stage, _quotient; every band comes from polygon.tol
# --------------------------------------------------------------------------

def _quotient(w: np.ndarray, denom: np.ndarray, errors: list) -> np.ndarray:
    # The one place that divides by a denominator or refuses one.
    with np.errstate(divide="ignore", invalid="ignore"):
        if (failed := ~(denom > DENOM)).any():
            refuse(errors, failed, lambda r: NonPositiveDenominator(
                f"denominator w[-x] - w[x] = {denom[r]:.3e} <= {DENOM}"))
        return w / denom[:, None]


def _polar_dual(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list):
    # Polar-dual weights are positive only on a convex polyhedron, and the
    # fan over a convex polygon is usually not convex, so they are taken on
    # the hull of [v_1..v_n, x, -x], strictly, and only over a convex polygon.
    if not polygon.convex:
        refuse(errors, np.ones(len(X), bool), lambda _: NotConvexForWC(
            "the polar-dual backend requires a convex polygon"))
        return np.full((len(X), polygon.n), np.nan), np.full(len(X), np.nan)
    w, _ = polar_dual(polygon, X, rays, errors, hull=True, strict=True)
    total = w.sum(axis=1)
    refuse(errors, ~(np.isfinite(total) & (total > 0.0)), lambda _: KernelViolation(
        "weight sum is not positive and finite; configuration invalid for this backend"))
    return w[:, :-2], w[:, -1] - w[:, -2]


def _tangent(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list, wachspress: bool):
    # Planar weights w of the gnomonic image u at x, read off the rays: the
    # projection keeps the angles at x and sends theta_i to the radius
    # tan theta_i, so |u_i| = |c_i| / cos theta_i, u_i x u_{i+1} and
    # <u_i, u_{i+1}> are tau_i and d_i over cos theta_i cos theta_{i+1}, and
    # the corner area A(u_{i-1}, u_i, u_{i+1}) is the ring's corner triple
    # over 2 cos theta_{i-1} cos theta_i cos theta_{i+1}.  Divided by
    # <v_i, x> to restore linear precision on the sphere, over their sum.
    cos = refuse_unprojected(rays.cos, errors)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pair = 1.0 / (cos * roll1(cos, -1))
        if wachspress:
            w = wachspress_weights(0.5 * polygon.corners * pair / roll1(cos, 1), 0.5 * rays.tau * pair,
                                   polygon.tol, errors)
        else:
            w = mean_value_weights(rays.sin / cos, rays.tau * pair, rays.d * pair, errors)
        return w / cos, w.sum(axis=1)


# A method tag to its interior kernel, (polygon, unit interior rows X, rays,
# errors) -> (weights, denominators).  The NEW_* methods extend to the
# boundary and report a denominator; the CC_* ones refuse it.
KERNELS = {
    "NEW_MV": partial(closed_form_batch, aligned=on_vertex, not_finite=KernelViolation),
    "NEW_WC": _polar_dual,
    "NEW_MV_CLOSED": closed_form_batch,
    "CC_MV": partial(_tangent, wachspress=False),
    "CC_WC": partial(_tangent, wachspress=True),
}
METHODS = tuple(KERNELS)


# --------------------------------------------------------------------------
# the evaluation path
# --------------------------------------------------------------------------

class Evaluations(NamedTuple):
    """One method at m directions: locations, values (m, n) and the
    denominators (m,) of the interior quotient, NaN where absent, and per
    row the error its single-point evaluation raises (None where it
    succeeds); rows refused with one message may share the error instance."""

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
                                location=self.locations.at(i), denom=None if math.isnan(d) else d)


def _interior(kernel, polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list, boundary: bool):
    """The kernel's quotients (m, n) on m interior rows and their denominators (m,), NaN on the
    rows it refused and, unless boundary (a NEW_* method), every denominator."""
    w, d = kernel(polygon, X, rays, errors)
    values, denom = _quotient(w, d, errors), d if boundary else np.full(len(X), np.nan)
    if failed := [r for r, error in enumerate(errors) if error is not None]:
        values[failed] = denom[failed] = np.nan
    return values, denom


def evaluate_batch(polygon: SphericalPolygon, X, method: str) -> Evaluations:
    """Evaluate one of the five coordinate methods at the rows of X, an
    (m, 3) block of directions: normalize, locate the whole block once,
    answer the boundary and the exterior for every row, and call the
    method's interior kernel once on the interior rows, with those rows of
    the location's rays, all within the polygon's band.  ZeroVector unless
    X's last axis holds 3 numbers."""
    if (raw := np.asarray(X, dtype=float)).shape[-1:] != (3,):
        raise ZeroVector(f"cannot normalize X: expected rows of 3 numbers, got shape {raw.shape}")
    raw = raw.reshape(-1, 3)
    X, short = unit_rows(raw)
    m, n = len(X), polygon.n
    errors = [None] * m
    refuse(errors, short, lambda r: zero_vector(raw[r]))
    locations = locate_points(polygon, X)
    if method not in KERNELS:
        refuse(errors, ~short, lambda _: UnknownMethod(f"unknown method {method!r}; expected one of {METHODS}"))
        return Evaluations(method, locations, np.full((m, n), np.nan), np.full(m, np.nan), errors)
    kernel, boundary = KERNELS[method], method.startswith("NEW_")
    kind = locations.kind
    count = np.bincount(kind, minlength=len(KINDS)).tolist()
    if 0 < count[INTERIOR] == m:
        # Every row interior (every interior m = 1 call): the kernel's rows are the block's.
        return Evaluations(method, locations, *_interior(kernel, polygon, X, locations.rays, errors, boundary),
                           errors)
    values, denom = np.full((m, n), np.nan), np.full(m, np.nan)
    if count[EXTERIOR]:
        exterior = ExteriorPoint("x lies outside the polygon")
        refuse(errors, kind == EXTERIOR, lambda _: exterior)     # one message: the rows share it
    if count[VERTEX] or count[EDGE]:
        on_boundary = (kind == VERTEX) | (kind == EDGE)
        if not boundary:
            refuse(errors, on_boundary, lambda r: OriginOnBoundary(
                f"x is {locations.at(r)}; the tangent-plane construction needs interior x"))
        else:
            rows = on_boundary.nonzero()[0]
            i, edge = locations.index[rows], kind[rows] == EDGE
            values[rows] = 0.0
            values[rows, i] = np.where(edge, locations.a[rows], 1.0)
            values[rows[edge], (i[edge] + 1) % n] = locations.b[rows[edge]]
    if count[INTERIOR]:
        rows = (kind == INTERIOR).nonzero()[0]           # short rows are NaN, never interior
        kernel_errors = [None] * len(rows)
        values[rows], denom[rows] = _interior(kernel, polygon, X[rows], Rays._make(f[rows] for f in locations.rays),
                                              kernel_errors, boundary)
        for r, error in zip(rows.tolist(), kernel_errors):     # no earlier check refused an interior row
            errors[r] = error
    return Evaluations(method, locations, values, denom, errors)


def evaluate(polygon: SphericalPolygon, x, method: str) -> CoordinateVector:
    """Evaluate one of the five coordinate methods at x (see
    :func:`sphbary.geom.direction`): the m = 1 call of :func:`evaluate_batch`."""
    return evaluate_batch(polygon, direction(x).reshape(1, 3), method).result(0)


def spherical_coords(polygon: SphericalPolygon, x, backend: str = "MV") -> CoordinateVector:
    """Spherical barycentric coordinates of x with the given backend:
    "MV" (mean value, any simple polygon) or "WC" (rational polar-dual
    weights, inside convex polygons only); the NEW_MV and NEW_WC methods of
    :func:`evaluate`."""
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
    """Evaluation mode for configurations outside the default contracts: a
    raw unit-vector ring (no hemisphere or orientation validation) and no
    interior check.  Both backends take the fan (see
    :func:`origin_coords_on_ring`): "MV" runs the fan kernel, which needs
    only faces that are not flat, and "WC" keeps linear precision but not
    the sign.  Returns the quotient coordinates with location kind
    "extended"."""
    phi = origin_coords_on_ring(ring, x, backend, tol)
    denom = phi[None, -1] - phi[None, -2]
    return CoordinateVector(values=single(_quotient, phi[None, :-2], denom), method="NEW_" + backend,
                            location=PointLocation(kind="extended"), denom=float(denom[0]))


def origin_coords_on_ring(ring, x, backend: str = "MV", tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """3D barycentric coordinates of the origin in the fan over a raw ring
    (length n+2), from the fan's kernels, the polar-dual one relaxed: the
    finite object the construction always produces, even when the spherical
    quotient degenerates (e.g. all vertices on a great circle, where
    phi[-x] = phi[x] identically)."""
    return coords_at_origin(build_ring_q(unit_vertices(ring), x, tol), backend, require_convex=False)
