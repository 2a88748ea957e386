"""The polyhedron [v_1..v_n, x, -x] over a ring and a direction x, and two
families of 3D generalized barycentric coordinates of the origin inside it.

A :class:`PolyhedronQ` is the fan or the convex hull of those n+2 points.
The fan has the faces (x, v_i, v_{i+1}) and (-x, v_{i+1}, v_i); it is
usually not convex, even over a convex polygon, and over a non-convex one
the origin need not lie in its kernel, which mean value weights do not ask
for (Ju, Schaefer & Warren 2005).  The hull, over a convex polygon, is the
lower fan and the polygon's Delaunay triangulation with x inserted
(:func:`hull_faces`).

Each face holds x or -x or is a triangle of the cached triangulation, so
the weights are summed from (m, n) arrays of the rays c_i = x cross v_i
(:class:`sphbary.geom.Rays`) and tables cached with the ring.  The
triangulation's planes (polygon.delaunay) tell which triangles x sees;
its half-edge tables (polygon.half_edges) are built on their first read,
by :func:`hull_faces` or by a block with a row that does not see every
triangle, which never happens on a triangle or a cocircular ring.  There
is one kernel per backend, kernel(ring, X, rays, errors) on m unit rows:
mean value weights on the fan, :func:`fan_mv` (Floater, Kos & Reimers
2005), and polar-dual weights, :func:`polar_dual` (Warren, Schaefer, Hirani &
Desbrun 2007), on the fan and, patched where x's cavity in the
triangulation makes the two differ, on the hull.  Each returns raw weights
w (m, n+2) with sum(w_i * p_i) = 0, and records per-row errors (see
:func:`sphbary.errors.refuse`).  :func:`mv_weights`, :func:`wachspress_weights`
and :func:`coords_at_origin` run them on one PolyhedronQ through
:func:`sphbary.errors.single`, as does the extended mode on the fan over an
unvalidated :class:`sphbary.geom.Ring`, and :func:`is_convex` reads the
reflex rows; NEW_WC runs polar_dual, strict, on a block of directions.
NEW_MV needs only the fan's ring weights and w_{-x} - w_x
(:func:`mean_value_ring`), so fan_mv is the kernel of the 3D weights alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateTriangle,
    FaceThroughPoint,
    KernelViolation,
    NotConvex,
    NotInterior,
    PointOnVertexOrAntipode,
    check_row,
    refuse,
    single,
)
from .geom import (
    DEFAULT_TOL, UNIT, Rays, Ring, SphericalPolygon, Tolerances, dot3, locate_points, ray_sines, ring_rays,
    roll1, unit_row,
)

__all__ = [
    "PolyhedronQ",
    "build_q",
    "build_ring_q",
    "is_convex",
    "mv_weights",
    "wachspress_weights",
    "coords_at_origin",
]


@dataclass(frozen=True, eq=False)
class PolyhedronQ:
    """The fan or the convex hull of [v_1..v_n, x, -x] over a ring and a
    unit direction x, as :func:`build_q` and :func:`build_ring_q` build it.

    ring  : the ring (the validated polygon, under build_q), whose band
            its gates read
    X     : (1, 3) the unit row x
    rays  : the rays of x (one row)
    hull  : True for the faces of the convex hull, False for the fan
    """

    ring: Ring
    X: np.ndarray
    rays: Rays = field(repr=False)
    hull: bool = False

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def x(self) -> np.ndarray:
        return self.X[0]

    @property
    def tol(self) -> Tolerances:
        return self.ring.tol

    @cached_property
    def vertices(self) -> np.ndarray:
        """(n+2, 3): rows 0..n-1 are the ring, row n is x, row n+1 is -x."""
        P = np.concatenate([self.ring.vertices, self.X, -self.X])
        P.setflags(write=False)
        return P

    @cached_property
    def faces(self) -> np.ndarray:
        """(2n, 3) int, anti-clockwise viewed from outside, built on their
        first read: the hull's (:func:`hull_faces`, NotConvex where x does
        not see a disc of the triangles) or the fan's, faces[i] =
        (n, i, i+1) upper, (n+1, i+1, i) lower."""
        F = single(hull_faces, self.ring, self.X) if self.hull else fan_faces(self.n)
        F.setflags(write=False)
        return F


def fan_faces(n: int) -> np.ndarray:
    """(2n, 3) fan faces: (n, i, i+1) upper, (n+1, i+1, i) lower."""
    i = np.arange(n)
    upper = np.column_stack([np.full(n, n), i, (i + 1) % n])
    lower = np.column_stack([np.full(n, n + 1), (i + 1) % n, i])
    return np.vstack([upper, lower]).astype(np.intp)


def build_ring_q(ring: np.ndarray, x, tol: Tolerances = DEFAULT_TOL) -> PolyhedronQ:
    """The fan over a raw unit-vector ring and the unit row of x, skipping
    polygon validation and point location.  Used by the extended
    evaluation mode where the ring may not bound a valid hemisphere polygon
    (e.g. all vertices on a great circle)."""
    ring = Ring(np.array(ring, dtype=float), tol)
    X = unit_row(x)
    return PolyhedronQ(ring, X, ring_rays(ring, X))


def build_q(polygon: SphericalPolygon, x, *, hull: bool = False) -> PolyhedronQ:
    """Validated construction at the unit row of x (see
    :func:`sphbary.geom.unit_row`), which must be strictly interior to the
    polygon; the polyhedron carries the polygon's band.

    With hull=True the faces are those of the convex hull of
    [v_1..v_n, x, -x] instead of the fan, built when they are first read
    (:attr:`PolyhedronQ.faces`); the polygon must then be convex
    (NotConvex otherwise)."""
    if hull and not polygon.convex:
        raise NotConvex("the hull faces are built for convex polygons only")
    X = unit_row(x)
    located = locate_points(polygon, X)
    loc = located.at(0)
    if loc.kind == "vertex":
        raise PointOnVertexOrAntipode(f"x coincides with vertex {loc.index}")
    if not loc.is_interior:
        raise NotInterior(f"x is {loc} of the polygon, expected interior")
    return PolyhedronQ(polygon, X, located.rays, hull)


def hull_cavity(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    """The cavity x makes in the polygon's Delaunay triangulation, for the
    unit rows of X over a convex polygon: rho (m, n-1), <normal, x> of each
    triangle plane (and 0 below the ring); seen (m, n-1), the triangles x
    lies more than the polygon's band (the one the triangulation was built
    with) in front of, both from the planes of polygon.delaunay alone;
    and, unless x sees every triangle on every row (the outline is then the
    ring), sides (m, n-3, 2), seen of the triangles left and right of each
    edge between two, the first read of polygon.half_edges, which builds
    the tables.  The seen triangles are one edge-connected disc, bounded by
    its ring vertices in ring order, exactly when one fewer such edge than
    seen triangles joins two seen ones (then the outline, from a seen
    triangle to an unseen one or to the side below, has two more
    half-edges than seen triangles); other rows: NotConvex."""
    d = polygon.delaunay
    p = X.T[:, :, None] * d.normals                    # (3, m, n-1), added in dot3's order
    rho = p[0] + p[1] + p[2]
    seen = rho > d.offsets + polygon.tol.geom
    if seen[:, :-1].all():
        return rho, seen, None
    sides = seen[:, polygon.half_edges.sides]
    refuse(errors, sides.all(axis=2).sum(axis=1) != seen.sum(axis=1) - 1, lambda _: NotConvex(
        "x does not see a disc of the polygon's triangles"))
    return rho, seen, sides


def hull_faces(polygon: SphericalPolygon, X: np.ndarray, errors: list) -> np.ndarray:
    """Faces (m, 2n, 3) of the convex hull of [ring, x, -x] for the unit
    rows of X over a convex polygon: the lower fan (-x, v_{i+1}, v_i), as
    the projection from -x keeps the ring convex around x, the Delaunay
    triangles x does not see, and x joined to each outline half-edge of
    the ones it sees (see :func:`hull_cavity`): a half-edge h of a seen
    triangle h // 3 into an unseen one or into the side below."""
    n, h, seen = polygon.n, polygon.half_edges, hull_cavity(polygon, X, errors)[1]
    faces = np.concatenate([polygon.delaunay.triangles, np.column_stack([np.full(3 * n - 6, n), h.tail, h.head]),
                            np.column_stack([np.full(n, n + 1), np.arange(1, n + 1) % n, np.arange(n)])])
    outline = np.repeat(seen[:, :-1], 3, axis=1) & ~seen[:, h.across]
    drop = np.concatenate([seen[:, :-1], ~outline, np.zeros((len(X), n), bool)], axis=1)
    return faces[np.argsort(drop, axis=1, kind="stable")[:, :2 * n]]


# --------------------------------------------------------------------------
# the weight kernels: (ring, unit rows X (m, 3), their rays, errors) ->
# raw weights (m, n+2) of the origin in [v_1..v_n, x, -x]; every band
# comes from ring.tol
# --------------------------------------------------------------------------

def on_vertex(k: int, _) -> PointOnVertexOrAntipode:
    return PointOnVertexOrAntipode(f"x or -x coincides with vertex {k}")


def mean_value_ring(rays: Rays):
    """The mean value weights omega (m, n) and denominator sum_i omega_i
    cos theta_i (m,) of NEW_MV and NEW_MV_CLOSED, which are also the fan's
    weights at the ring and w_{-x} - w_x (:func:`fan_mv`), from the rays.
    Call under np.errstate."""
    s, d, sin_theta = rays.tau, rays.d, rays.sin
    cc = sin_theta * roll1(sin_theta, -1)
    # tan(alpha/2) = s / (cc + d) = (cc - d) / s: the first form cancels
    # for |alpha| > pi/2, the second for |alpha| < pi/2.
    t = np.where(d >= 0.0, s / (cc + d), (cc - d) / s)
    pair = t + roll1(t, 1)                       # tan(a_i/2) + tan(a_{i-1}/2)
    omega = np.pi * pair / (2.0 * sin_theta)
    return omega, np.pi / 2.0 * np.sum(pair * rays.cos / sin_theta, axis=1)


def fan_mv(ring: Ring, X: np.ndarray, rays: Rays, errors: list) -> np.ndarray:
    """Mean value weights of the origin in the fan: each face (i, j, k)
    adds to its vertex i

        mu = (b_jk + b_ij <n_ij, n_jk> + b_ki <n_ki, n_jk>) / (2 <e_i, n_jk>),

    e_i the unit vector to vertex i, b_rs the angle between e_r and e_s and
    n_rs the unit normal of span(e_r, e_s).  The upper face (x, v_i, v_{i+1})
    has edges c_i, N_i and -c_{i+1} at angles theta_i, beta_i and
    theta_{i+1}, N_i the ring's unit edge normals.  At v_i and v_{i+1} the
    upper and the lower face on edge i share the opposite edge up to sign,
    so their theta and beta parts cancel, and v_i gets the closed form's
    omega_i = pi (tan(alpha_i/2) + tan(alpha_{i-1}/2)) / (2 sin theta_i)
    (:func:`mean_value_ring`).  x gets w_x, summed over the upper faces, and
    -x gets w_x + sum_i omega_i cos theta_i, by linear precision.
    """
    sin_theta = ray_sines(ring, rays, on_vertex, errors)
    theta = np.arctan2(sin_theta, rays.cos)
    with np.errstate(divide="ignore", invalid="ignore"):
        N, beta = ring.unit_edge_normals, ring.edge_angles
        refuse(errors, np.any(sin_theta <= UNIT, axis=1) | np.any(ring.edge_sines <= UNIT),
               lambda _: DegenerateTriangle("two rays of a face are collinear"))
        # Twice <x, N_i>, from the tau_i = <x, v_i x v_{i+1}> that located x:
        # near edge i the terms that grow like 1/tau_i share its rounding.
        h2 = 2.0 * rays.tau / ring.edge_sines
        refuse(errors, np.any(np.abs(h2) <= UNIT, axis=1),
               lambda _: DegenerateTriangle("face is flat as seen from the evaluation point"))
        # Cosines between the edge normals: <c_i, N_i> and <c_{i+1}, N_i>, normalized.
        a = dot3(rays.c, N) / sin_theta
        b = dot3(roll1(rays.c, -1), N) / roll1(sin_theta, -1)
        w_x = np.sum((beta + theta * a - roll1(theta, -1) * b) / h2, axis=1)
        omega, total = mean_value_ring(rays)
        return np.concatenate([omega, w_x[:, None], (w_x + total)[:, None]], axis=1)


# Polar-dual weights in edge product form: an edge p -> q with the face
# f = (p, q, r) on its left and g = (q, p, s) on its right adds the same
#     kappa = vol (<p, q> - 1) / (t_f t_g),  vol = det(q - p, r - p, s - p),
# with t_f = det(p, q, r), to w_p and to w_q; vol > tol.geom times the
# smaller normal |(q - p) x (r - p)| is a reflex edge.  A face with corners
# x or -x has t = +-<x, v_a x v_b>, rounded once: both faces on ring edge i
# have tau_i, so near the edge all the terms that grow like 1 / tau_i
# cancel in the quotient.

def polar_dual(ring: Ring, X: np.ndarray, rays: Rays, errors: list, hull: bool = False, strict: bool = False):
    """Polar-dual weights of the origin (m, n+2) in the fan, or with
    hull=True in the convex hull over a convex polygon, and the rows (m,)
    with a reflex edge (on the hull, also where the polygon's band decided
    the triangulation or x's cavity).  The hull is the lower fan, the
    Delaunay triangles x does not see and a face (x, a, b) on each outline
    half-edge a -> b of the ones it sees (see :func:`hull_cavity`): the
    fan, where x sees every triangle.  Elsewhere the fan's entries are
    patched where the hull differs: x's face on a chord a -> b of the
    outline replaces the fan's face out of v_a, and the spokes of x at a
    and b read it; a ring edge under a triangle x does not see takes that
    triangle's term; a vertex off the outline has no spoke of x; and each
    chord and each edge between two unseen triangles adds its term to its
    ends.  With strict=True, the mode whose weights are all positive, the
    reflex rows are refused with NotConvex after the kernel's own refusals."""
    n, tol, V, c, tau = ring.n, ring.tol, ring.vertices, rays.c, rays.tau
    ray_sines(ring, rays, on_vertex, errors)
    rho, seen, sides = hull_cavity(ring, X, errors) if hull else (None, None, None)
    patched = sides is not None
    # Slot i: x's face on the outline half-edge out of v_i, its t, normal
    # (v_i - x) x (v_j - x) and size, and the t and size of the one into
    # v_i (in the fan, on ring edges i and i-1); and the lower normals.
    after = roll1(c, -1)
    upper = ring.edge_normals + c - after
    lower = c - after - ring.edge_normals
    size_up, size_low = np.sqrt(dot3(upper, upper)), np.sqrt(dot3(lower, lower))
    del after, lower
    t, t_in, size_in, gap = tau, roll1(tau, 1), roll1(size_up, 1), 1.0 - ring.edge_cosines
    with np.errstate(divide="ignore", invalid="ignore"):
        # The spokes to v_i: vol from the base v_i, with its short edges
        # crossed once per ring, T_i; of -x, <v_i + x, T_i>; of x between two
        # ring edges, <x - v_i, T_i>, else from a chord's face.
        v = ring.products_table[:, :, :n]
        p = (v + X.T[:, :, None]) * ring.turns                                   # (3, m, n), as in hull_cavity
        vol = p[0] + p[1] + p[2]
        pair = t_in * tau                                  # the t of a spoke's two faces
        spoke_low = -vol * (1.0 + rays.cos) / pair
        reflex = (vol > tol.geom * np.minimum(roll1(size_low, 1), size_low)).any(axis=1)
        vol = vol + 2.0 * ring.corners                     # <v_i, T_i> = -corners_i
        # Ring edge i, between (v_i, v_{i+1}, x) and (v_{i+1}, v_i, -x), vol = -2 tau_i.
        edge = 2.0 * gap / tau
        flat = -2.0 * tau > tol.geom * np.minimum(size_up, size_low)
        through = ~(tau / size_low > UNIT).all(axis=1)
        if patched:
            # The chords on the outline: a -> b from the seen side of an edge.
            d, half = ring.delaunay, ring.half_edges
            rim = seen[:, half.rim]                        # (m, n) the ring edges on the outline
            r, e = np.nonzero(sides[..., 0] != sides[..., 1])
            h = half.halves[e, sides[r, e, 1].astype(np.intp)]
            a, b, across, cross, xr = half.tail[h], half.head[h], half.across[h], half.cross[h], X[r]
            t_ch, face = dot3(xr, cross), cross + c[r, a] - c[r, b]
            size_ch = np.sqrt(dot3(face, face))
            t = tau.copy()
            t[r, a] = t_in[r, b] = t_ch
            upper[r, a], size_up[r, a], size_in[r, b] = face, size_ch, size_ch
            vol[r, a] = dot3(face, V[a - 1] - xr)
            vol[r, b] = dot3(upper[r, b], V[a] - xr)
            pair = t_in * t
            # A vertex off the outline has no spoke of x to sum or test, and
            # its slot no face to gate.
            on = rim.copy()
            on[r, a] = True
            vol, t = np.where(on, vol, 0.0), np.where(on, t, np.inf)
            through |= (~seen & (d.offsets <= UNIT)).any(axis=1)
            # A ring edge whose triangle x does not see: that triangle and the
            # lower face, vol = -(height of -x over it).  A chord: an unseen
            # triangle on the right, vol = its size times the height of x
            # over it.  An edge between two unseen triangles: a per-polygon
            # term.  Each to both ends, summed at a vertex in a fixed order.
            offset, size = d.offsets[half.rim], d.sizes[half.rim]
            fall = rho[:, half.rim] + offset
            edge = np.where(rim, edge, fall * gap / (offset * tau))
            flat = np.where(rim, flat, -fall * size > tol.geom * np.minimum(size, size_low))
            offset, size = d.offsets[across], d.sizes[across]
            rise = rho[r, across] - offset
            touch = sides.any(axis=2)
            reflex |= (~touch & half.reflex).any(axis=1)
            reflex[r[rise * size > tol.geom * np.minimum(size, size_ch)]] = True
            inner = np.concatenate([np.zeros((len(X), 1)), np.where(touch, 0.0, half.kappa)], axis=1)
            inner[r, 1 + e] = rise * (half.cosines[h] - 1.0) / (t_ch * offset)
            ends = np.add.reduceat(inner[:, half.star], half.starts, axis=1)
        spoke_up = vol * (rays.cos - 1.0) / pair
        reflex |= ((vol > tol.geom * np.minimum(size_in, size_up)) | flat).any(axis=1)
        refuse(errors, through | ~(t / size_up > UNIT).all(axis=1),
               lambda _: FaceThroughPoint("a face plane passes through the evaluation point"))
        if strict:
            refuse(errors, reflex, lambda _: NotConvex("polyhedron has a reflex dihedral angle"))
        w = edge + roll1(edge, 1) + spoke_up + spoke_low
        if patched:
            w += ends
        w = np.concatenate([w, spoke_up.sum(axis=1)[:, None], spoke_low.sum(axis=1)[:, None]], axis=1)
    return w, reflex


def normalized_weights(w: np.ndarray, errors: list) -> np.ndarray:
    """Rows of raw weights (m, N) divided by their sums; rows whose sum is
    not positive are refused with KernelViolation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        total = w.sum(axis=1)
        refuse(errors, ~(total > 0.0), lambda _: KernelViolation(
            "weight sum is not positive; configuration invalid for this backend"))
        return w / total[:, None]


def _weights(q: PolyhedronQ, backend: str, require_convex: bool = True) -> np.ndarray:
    """Raw weights of the origin in q, its kernel at m = 1: "MV" on the
    fan, "WC" on the fan or the hull, strict when require_convex."""
    if backend == "MV" and not q.hull:
        return single(fan_mv, q.ring, q.X, q.rays)
    if backend == "WC":
        return single(polar_dual, q.ring, q.X, q.rays, hull=q.hull, strict=require_convex)[0]
    raise ValueError(f"no {backend!r} weights on the {'hull' if q.hull else 'fan'}")


def mv_weights(q: PolyhedronQ) -> np.ndarray:
    """Mean value weights of the origin in the fan q, from the fan kernel
    :func:`fan_mv`; ValueError on a hull."""
    return _weights(q, "MV")


def is_convex(q: PolyhedronQ) -> bool:
    """True iff every dihedral angle of q is convex: for each pair of faces
    sharing an edge, the apex of each lies at most the band in front of the
    other's plane; the reflex test of q's polar-dual kernel, also where its
    weights meet FaceThroughPoint.  A hull raises the NotConvex of q.faces,
    from x's cavity (:func:`hull_cavity`) without building the faces."""
    if q.hull:
        errors = [None]
        hull_cavity(q.ring, q.X, errors)
        check_row(errors)
    return not polar_dual(q.ring, q.X, q.rays, [None], q.hull)[1][0]


def wachspress_weights(q: PolyhedronQ, require_convex: bool = True) -> np.ndarray:
    """Rational polar-dual weights of the origin in q, from NEW_WC's
    kernel :func:`polar_dual` on the fan or the hull.  Every face
    plane must keep the origin strictly inside (FaceThroughPoint otherwise).
    By default q must be convex (NotConvex otherwise), where all weights are
    positive; with require_convex=False a reflex edge is summed as well, and
    weights may change sign, but sum(w_p p) = 0 survives.  The extended
    mode, whose ring is unvalidated, takes them relaxed on the fan."""
    return _weights(q, "WC", require_convex)


def coords_at_origin(q: PolyhedronQ, backend: str = "MV", require_convex: bool = True) -> np.ndarray:
    """Normalized 3D barycentric coordinates phi of the origin in q (length
    n+2), from the weights of the backend ("MV" or "WC") on q.

    Satisfies sum(phi) = 1 and sum(phi_i * p_i) = 0 up to roundoff.
    """
    return single(normalized_weights, _weights(q, backend, require_convex)[None])
