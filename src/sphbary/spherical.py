"""Spherical barycentric coordinates from 3D coordinates of the origin.

For x strictly inside the polygon, the coordinates are

    psi_i(x) = phi_i(0) / (phi_{n+2}(0) - phi_{n+1}(0)),   i = 1..n

where phi are any 3D barycentric coordinates of the origin inside the
polyhedron [v_1..v_n, x, -x] (indices n+1 for x, n+2 for -x).  The psi are
non-negative on convex polygons, reproduce x as sum(psi_i v_i), restrict
linearly to the edges and are the Kronecker delta at the vertices.  The
mean value backend takes phi on the fan triangulation of the polyhedron,
the polar-dual backend on its convex hull.  Neither kernel builds the
polyhedron.  Every fan face holds x or -x, so each face edge is a ring
edge, whose normal and angle the polygon caches, or +-(x cross v_i), and
the per-face formula of :func:`sphbary.polyhedron.mv_weights` is
evaluated on (m, n) arrays of those.  The hull is the lower fan, the
triangles of the polygon's cached Delaunay triangulation that x does not
see and x joined to the outline of those it sees; its polar-dual weights
are summed edge by edge, from the rays c_i = x cross v_i and terms cached
with the triangulation.

On an edge the same limit collapses to the two-vertex decomposition
x = a v_j + b v_{j+1}: because x, -x, v_j, v_{j+1} and the origin are all
contained in span(v_j, v_{j+1}), the boundary-extended ratios
phi_j(0)/phi_{n+2}(0) and phi_{j+1}(0)/phi_{n+2}(0) equal exactly the Gram
solution (a, b), which is how the edge case is evaluated here.

For the mean value backend the quotient also has a closed form built from
the angles theta_i = angle(x, v_i) and the signed angles alpha_i between
c_i and c_{i+1}, the terms whose sum is the winding that locates x; see
:func:`closed_form_mv_weights`.

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
kernels are numpy code over the whole block, with no loop over its rows.
A kernel records per row, in `errors`, the error the single-point call
raises (see :func:`sphbary.errors.refuse`), so one failing row leaves the
others evaluated.  :func:`evaluate` and the public single-point functions
are m = 1 calls of the same code (see :func:`sphbary.errors.single`), and
a row's result does not depend on the batch it came in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AlphaNearPi,
    AngleDegenerate,
    DegenerateTriangle,
    ExteriorPoint,
    FaceThroughPoint,
    KernelViolation,
    NonPositiveDenominator,
    NotConvex,
    NotConvexForWC,
    OriginOnBoundary,
    PointOnVertexOrAntipode,
    UnknownMethod,
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
    UNIT,
    VERTEX,
    Locations,
    PointLocation,
    Rays,
    SphericalPolygon,
    Tolerances,
    dot3,
    locate_points,
    normalize,
    ring_rays,
    roll1,
    unit_row,
    unit_rows,
    zero_vector,
)
from .polyhedron import build_ring_q, coords_at_origin, hull_cavity, normalized_weights
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
    """Per-(polygon, x) angles: theta[i] = angle(x, v_i) and alpha[i] the
    signed angle from x cross v_i to x cross v_{i+1} (signed by
    <x, v_i x v_{i+1}>; the winding terms of point location), cyclic."""

    theta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.theta.setflags(write=False)
        self.alpha.setflags(write=False)


def _sines(polygon: SphericalPolygon, rays: Rays, aligned_error: Callable, errors: list) -> np.ndarray:
    """sin theta_i = |c_i| (m, n) from the rays; rows with x aligned with
    or opposite to some vertex k, theta_k within the angle band of 0 or pi,
    are refused with aligned_error(k, theta_k), each kernel with its own
    tag.  That needs sin theta_k <= 2 band |cos theta_k|, so theta =
    arctan2(sin, cos) is taken only when some entry is that close."""
    band = polygon.tol.angle
    sin_theta = np.sqrt(dot3(rays.c, rays.c))
    if np.any(sin_theta <= 2.0 * band * np.abs(rays.cos)):
        theta = np.arctan2(sin_theta, rays.cos)
        aligned = (theta <= band) | (theta >= np.pi - band)
        refuse(errors, aligned.any(axis=1), lambda r: aligned_error(
            int(np.argmax(aligned[r])), theta[r, np.argmax(aligned[r])]))
    return sin_theta


def _angle_degenerate(k: int, theta: float) -> AngleDegenerate:
    return AngleDegenerate(f"x is aligned with vertex {k} (theta = {theta:.3e})")


def _rays_at(polygon: SphericalPolygon, x) -> Rays:
    return ring_rays(polygon.vertices, polygon.edge_normals, unit_row(x))


def angles(polygon: SphericalPolygon, x) -> AngleCache:
    """Angle cache for the closed-form weights at the unit row of x; x must
    not coincide with or oppose any vertex (AngleDegenerate otherwise)."""
    rays = _rays_at(polygon, x)
    sin_theta = single(_sines, polygon, rays, _angle_degenerate)
    return AngleCache(theta=np.arctan2(sin_theta, rays.cos[0]), alpha=rays.alpha[0])


def closed_form_batch(polygon: SphericalPolygon, rays: Rays, errors: list):
    """Batched closed-form mean value weights (omega (m, n), denom (m,))
    from the rays of m unit directions; see :func:`closed_form_mv_weights`."""
    sin_theta = _sines(polygon, rays, _angle_degenerate, errors)
    # c_i x c_{i+1} = tau_i x: tau_i and d_i are |c_i||c_{i+1}| times
    # sin(alpha_i) and cos(alpha_i).
    s, d = rays.tau, rays.d
    cc = sin_theta * roll1(sin_theta, -1)
    # tan(alpha/2) = s / (cc + d) = (cc - d) / s: the first form cancels
    # for |alpha| > pi/2, the second for |alpha| < pi/2.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(d >= 0.0, s / (cc + d), (cc - d) / s)
        pair = t + roll1(t, 1)                       # tan(a_i/2) + tan(a_{i-1}/2)
        omega = np.pi * pair / (2.0 * sin_theta)
        denom = np.pi / 2.0 * np.sum(pair * rays.cos / sin_theta, axis=1)
    refuse(errors, ~(np.all(np.isfinite(omega), axis=1) & np.isfinite(denom)),
           lambda _: AlphaNearPi("the closed form is not finite at x"))
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
    polyhedral mean value pipeline.  The m = 1 call of the batched kernel
    of NEW_MV_CLOSED.
    """
    omega, denom = single(closed_form_batch, polygon, _rays_at(polygon, x))
    return omega, float(denom)


# --------------------------------------------------------------------------
# interior kernels: (polygon, unit interior rows X (m, 3), their rays
# (the fields the kernel's KERNELS row names, None in the others), errors)
# -> (values (m, n), denominators (m,), NaN where a method has none);
# every band comes from polygon.tol
# --------------------------------------------------------------------------

def _quotient(phi: np.ndarray, n: int, errors: list):
    denom = phi[:, n + 1] - phi[:, n]
    refuse(errors, denom <= DENOM, lambda r: NonPositiveDenominator(
        f"phi[-x] - phi[x] = {denom[r]:.3e} <= {DENOM}; invalid input or broken backend"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return phi[:, :n] / denom[:, None], denom


def _mean_value(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list):
    # The mean value weights of the origin in [v_1..v_n, x, -x] on the fan,
    # face by face as in sphbary.polyhedron.mv_weights, from (m, n) arrays:
    # the upper face (x, v_i, v_{i+1}) has edges c_i, N_i and -c_{i+1} at
    # angles theta_i, beta_i and theta_{i+1}, the lower face
    # (-x, v_{i+1}, v_i) has -c_{i+1}, -N_i and c_i at pi - theta_{i+1},
    # beta_i and pi - theta_i, with c_i = x cross v_i and N_i the polygon's
    # unit edge normals.
    c, trips = rays.c, rays.tau
    sin_theta = _sines(polygon, rays, _on_vertex, errors)
    theta = np.arctan2(sin_theta, rays.cos)
    N, beta = polygon.unit_edge_normals, polygon.edge_angles
    c_next, sin_next, theta_next = roll1(c, -1), roll1(sin_theta, -1), roll1(theta, -1)
    # <x, N_i> from the tau_i = <x, v_i x v_{i+1}> that located x: near
    # edge i every term that grows like 1/tau_i then shares its rounding,
    # and they cancel in the quotient.
    h = trips / polygon.edge_sines
    with np.errstate(divide="ignore", invalid="ignore"):
        # Kernel certificate: the face normals are +-(v_i x v_{i+1}) + c_i -
        # c_{i+1}, and both planes lie trips / |normal| from the origin.
        d = c - c_next
        ok = np.ones(len(X), bool)
        for normal in (polygon.edge_normals + d, d - polygon.edge_normals):
            length = np.sqrt(dot3(normal, normal))
            ok &= np.all(length > UNIT, axis=1) & np.all(trips / length > polygon.tol.geom, axis=1)
        refuse(errors, ~ok, lambda _: KernelViolation("polyhedron failed the origin-in-kernel certificate"))
        refuse(errors, np.any(sin_theta <= UNIT, axis=1) | np.any(polygon.edge_sines <= UNIT),
               lambda _: DegenerateTriangle("two rays of a face are collinear"))
        # Twice <e, n> at each corner, against the opposite edge: at x and -x
        # (edge +-N_i), at v_i (edge v_{i+1}, +-x) and at v_{i+1} (edge +-x, v_i).
        h2, h2_i, h2_next = 2.0 * h, 2.0 * trips / sin_next, 2.0 * trips / sin_theta
        refuse(errors, np.any((np.abs(h2) <= UNIT) | (np.abs(h2_i) <= UNIT) | (np.abs(h2_next) <= UNIT), axis=1),
               lambda _: DegenerateTriangle("face is flat as seen from the evaluation point"))
        # Cosines between the edge normals: <c_i, N_i>, <c_{i+1}, N_i> and
        # <c_i, c_{i+1}>, normalized.
        a = dot3(c, N) / sin_theta
        b = dot3(c_next, N) / sin_next
        cc = dot3(c, c_next) / (sin_theta * sin_next)
        up_x = (beta + theta * a - theta_next * b) / h2
        up_i = (theta_next - beta * b - theta * cc) / h2_i
        up_next = (theta + beta * a - theta_next * cc) / h2_next
        low_x = (beta + (np.pi - theta_next) * b - (np.pi - theta) * a) / h2
        low_i = ((np.pi - theta_next) + beta * b - (np.pi - theta) * cc) / h2_i
        low_next = ((np.pi - theta) - beta * a - (np.pi - theta_next) * cc) / h2_next
        w = np.concatenate([up_i + low_i + roll1(up_next + low_next, 1),
                            up_x.sum(axis=1)[:, None], low_x.sum(axis=1)[:, None]], axis=1)
    return _quotient(normalized_weights(w, errors), polygon.n, errors)


def _on_vertex(k: int, _) -> PointOnVertexOrAntipode:
    return PointOnVertexOrAntipode(f"x or -x coincides with vertex {k}")


def _polar_dual(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list):
    # Polar-dual weights are positive only on a convex polyhedron, and the
    # fan over a convex polygon is usually not convex, so they use the hull
    # of [v_1..v_n, x, -x]: the lower fan (-x, v_{i+1}, v_i), the Delaunay
    # triangles x does not see and a face (x, a, b) on each outline
    # half-edge a -> b of the ones it sees.  They are summed edge by edge
    # (the product form): a hull edge p -> q with the face f = (p, q, r) on
    # its left and g = (q, p, s) on its right adds the same
    #     kappa = vol (<p, q> - 1) / (t_f t_g),  vol = det(q - p, r - p, s - p),
    # with t_f = det(p, q, r), to w_p and to w_q; vol > tol.geom times the
    # smaller normal |(q - p) x (r - p)| is a reflex edge.  A face with
    # corners x or -x has t = +-<x, v_a x v_b>, rounded once: both faces
    # on ring edge i have tau_i, so near the edge all the terms that grow
    # like 1 / tau_i cancel in the quotient.
    n, tol, d, V = polygon.n, polygon.tol, polygon.delaunay, polygon.vertices
    m, N = len(X), n + 2
    c, cos_theta, tau = rays.c, rays.cos, rays.tau
    _sines(polygon, rays, _on_vertex, errors)
    rho, seen, outline = hull_cavity(polygon, X, errors)
    x = X[:, None, :]
    lower = c - roll1(c, -1) - polygon.edge_normals       # normals of the lower faces
    size_low = np.sqrt(dot3(lower, lower))
    # The faces (x, a, b), one per outline half-edge: t, normal, its size.
    r, h = np.divmod(np.flatnonzero(outline), outline.shape[1])
    a, b, across = d.tail[h], d.head[h], d.across[h]
    on_ring = across == n - 2
    t = np.where(on_ring, tau[r, a], dot3(X[r], d.cross[h]))
    upper = d.cross[h] + c[r, a] - c[r, b]               # (v_a - x) x (v_b - x)
    size_up = np.sqrt(dot3(upper, upper))
    with np.errstate(divide="ignore", invalid="ignore"):
        refuse(errors, (tau / size_low <= UNIT).any(axis=1) | (np.bincount(r, t / size_up <= UNIT, m) > 0)
               | (~seen[:, :-1] & (d.offsets[:-1] <= UNIT)).any(axis=1),
               lambda _: FaceThroughPoint("a face plane passes through the evaluation point"))
        # Spokes of -x: (-x, v_i, v_{i-1}) on the left, (v_i, -x, v_{i+1}) on
        # the right; vol from the base v_i, with its short edges to v_{i-1}
        # and v_{i+1} crossed once per polygon.
        vol = dot3(d.turns, V + x)
        spoke_low = -vol * (1.0 + cos_theta) / (roll1(tau, 1) * tau)
        reflex = (vol > tol.geom * np.minimum(roll1(size_low, 1), size_low)).any(axis=1)
        # Spokes of x: (x, a, b) on the left, (x, z, a) on the right, z -> a
        # the outline half-edge before.
        into = np.zeros((m, n), np.intp)
        into[r, b] = np.arange(len(h))
        z = into[r, a]
        vol = dot3(upper, V[a[z]] - X[r])
        spoke_up = vol * (cos_theta[r, a] - 1.0) / (t * t[z])
        bent = vol > tol.geom * np.minimum(size_up, size_up[z])
        # Outline edges: on the ring the lower face is across and
        # vol = -2 tau_i, negative on every row the face gate passed, so
        # never reflex; elsewhere an unseen triangle U, vol = its size
        # times the height of x over it.
        offset, size, cos_edge = d.offsets[across], d.sizes[across], d.cosines[h]
        rise = rho[r, across] - offset
        edge_up = np.where(on_ring, 2.0 * (1.0 - cos_edge) / t, rise * (cos_edge - 1.0) / (t * offset))
        bent |= rise * size > tol.geom * np.minimum(size, size_up)
        # A ring edge whose triangle x does not see: its triangle on the
        # left, the lower face on the right, vol = -(height of -x over it).
        unseen, offset, size = ~seen[:, d.rim], d.offsets[d.rim], d.sizes[d.rim]
        fall = rho[:, d.rim] + offset
        ring = np.where(unseen, fall * (1.0 - polygon.edge_cosines) / (offset * tau), 0.0)
        reflex |= (unseen & (-fall * size > tol.geom * np.minimum(size, size_low))).any(axis=1)
        # An edge between two unseen triangles: a per-polygon term.
        both = ~seen[:, d.sides].any(axis=2)
        inner = np.where(both, d.kappa, 0.0)
        reflex |= (both & d.reflex).any(axis=1) | (np.bincount(r, bent, m) > 0)
        refuse(errors, reflex, lambda _: NotConvex("polyhedron has a reflex dihedral angle"))
        # Each term to both ends of its edge, in a fixed order per row.
        row = r * N
        slots = np.concatenate([(np.arange(m)[:, None, None] * N + d.ends).ravel(), row + a, row + b, row + a, row + n])
        w = np.bincount(slots, np.concatenate([np.repeat(inner.ravel(), 2), edge_up, edge_up, spoke_up, spoke_up]),
                        m * N).reshape(m, N)
        w[:, :n] += ring + roll1(ring, 1) + spoke_low
        w[:, n + 1] += spoke_low.sum(axis=1)
        return _quotient(normalized_weights(w, errors), n, errors)


def _closed_form(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list):
    omega, denom = closed_form_batch(polygon, rays, errors)
    refuse(errors, denom <= DENOM, lambda r: NonPositiveDenominator(
        f"closed-form denominator {denom[r]:.3e} <= {DENOM}"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return omega / denom[:, None], denom


def _tangent(polygon: SphericalPolygon, X: np.ndarray, rays: Rays, errors: list, wachspress: bool):
    # Planar coordinates of the gnomonic image, divided by <v_i, x> to
    # restore linear precision on the sphere.
    _, points2d, dots = project_batch(polygon.vertices, X, rays.cos, errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        planar = (planar_wachspress_batch(points2d, polygon.tol, errors) if wachspress
                  else planar_mv_batch(points2d, errors))
        return planar / dots, np.full(len(X), np.nan)


class Method(NamedTuple):
    """One row of :data:`KERNELS`."""

    kernel: Callable     # (polygon, unit interior rows X, rays, errors) -> (values, denominators)
    rays: tuple          # the fields of the rays the kernel reads
    boundary: bool       # Lagrange and edge values on the boundary; else OriginOnBoundary
    convex_only: bool    # NotConvexForWC on a non-convex polygon


KERNELS = {
    "NEW_MV": Method(_mean_value, ("c", "cos", "tau"), True, False),
    "NEW_WC": Method(_polar_dual, ("c", "cos", "tau"), True, True),
    "NEW_MV_CLOSED": Method(_closed_form, ("c", "cos", "tau", "d"), True, False),
    "CC_MV": Method(partial(_tangent, wachspress=False), ("cos",), False, False),
    "CC_WC": Method(partial(_tangent, wachspress=True), ("cos",), False, False),
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
    method's interior kernel once on the interior rows, with the interior
    rows of the rays it reads from the location, all within the polygon's
    band."""
    raw = np.asarray(X, dtype=float).reshape(-1, 3)
    X, short = unit_rows(raw)
    m, n = len(X), polygon.n
    errors = [None] * m
    refuse(errors, short, lambda r: zero_vector(raw[r]))
    locations = locate_points(polygon, X)
    values = np.full((m, n), np.nan)
    denom = np.full(m, np.nan)
    if method not in KERNELS:
        refuse(errors, ~short, lambda _: UnknownMethod(f"unknown method {method!r}; expected one of {METHODS}"))
        return Evaluations(method, locations, values, denom, errors)
    kernel, reads, boundary, convex_only = KERNELS[method]
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
        values[rows], denom[rows] = kernel(polygon, X[rows], locations.rays.take(rows, reads), kernel_errors)
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
