"""The bipyramid-style polyhedron over a spherical polygon and two families
of 3D generalized barycentric coordinates evaluated at a point inside it.

Given a polygon ring v_1..v_n and an interior direction x, the polyhedron
has vertex list [v_1, ..., v_n, x, -x] and 2n triangular faces.  The
default triangulation is the fan: an upper fan (x, v_i, v_{i+1}) and a
lower fan (-x, v_{i+1}, v_i).  With the ring anti-clockwise, all face
normals point away from the origin, and the origin lies in the kernel (it
sees every face from the inner side) whenever every face plane keeps a
strictly positive distance from it.

The fan is usually not convex, even over a convex polygon.  With
hull=True, :func:`build_q` flips edges of the fan until it is the convex
hull of the same n+2 points (all of them lie on the unit sphere, so each
one is a hull vertex).  The mean value backend uses the fan; the polar-dual
backend of the spherical quotient uses the hull.

Two weight backends are provided:

* mean value weights: per-face angle sums divided by the distance to each
  vertex (valid whenever the evaluation point is in the kernel),
* rational polar-dual weights: per-vertex vector areas of the cells of the
  dual points n_f / <n_f, y_f - at> (positive on convex polyhedra).

Both produce raw weights w with sum(w_i * (p_i - at)) = 0; normalizing by
sum(w) gives the 3D barycentric coordinates of the evaluation point.
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
)
from .geom import DEFAULT_TOL, SphericalPolygon, Tolerances, cross3, dot3, locate_point, normalize

__all__ = [
    "PolyhedronQ",
    "build_q",
    "build_ring_q",
    "bipyramid",
    "is_convex",
    "mv_weights",
    "wachspress_weights",
    "coords_at_origin",
]

ORIGIN = np.zeros(3)


@dataclass(frozen=True)
class PolyhedronQ:
    """Closed oriented triangulated polyhedron [v_1..v_n, x, -x].

    vertices  : (n+2, 3); rows 0..n-1 are the ring, row n is x, row n+1 is -x
    faces     : (2n, 3) int, anti-clockwise viewed from outside; in the fan
                faces[i] = (n, i, i+1) upper, (n+1, i+1, i) lower
    kernel_ok : True iff the origin is strictly inside every face plane
    """

    vertices: np.ndarray
    faces: np.ndarray
    kernel_ok: bool
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.vertices) - 2

    @property
    def x(self) -> np.ndarray:
        return self.vertices[self.n]

    @cached_property
    def twin(self) -> np.ndarray:
        """Directed-edge index table, shape (F, 3).  Edge r of face f runs
        faces[f, r] -> faces[f, r+1]; twin[f, r] = 3 g + s when edge s of
        face g runs the other way.  DegenerateTriangle unless the faces form
        a closed oriented surface."""
        F = self.faces
        m = len(self.vertices)
        tail = F.ravel()
        head = np.roll(F, -1, axis=1).ravel()
        key = tail * m + head
        reverse = head * m + tail
        order = np.argsort(key)
        ordered = key[order]
        pos = np.minimum(np.searchsorted(ordered, reverse), len(key) - 1)
        if np.any(ordered[1:] == ordered[:-1]) or np.any(ordered[pos] != reverse):
            raise DegenerateTriangle("faces do not form a closed oriented surface")
        table = order[pos].reshape(F.shape)
        table.setflags(write=False)
        return table

    def face_normals(self, unit: bool = True) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        nrm = np.cross(b - a, c - a)
        if unit:
            nrm = nrm / np.linalg.norm(nrm, axis=1)[:, None]
        return nrm


def build_ring_q(ring: np.ndarray, x, tol: Tolerances = DEFAULT_TOL) -> PolyhedronQ:
    """Assemble the polyhedron from a raw unit-vector ring, skipping polygon
    validation.  Used by the extended evaluation mode where the ring may not
    bound a valid hemisphere polygon (e.g. all vertices on a great circle).
    """
    return bipyramid(np.asarray(ring, dtype=float), normalize(x, tol), tol)


def fan_faces(n: int) -> np.ndarray:
    """(2n, 3) fan faces: (n, i, i+1) upper, (n+1, i+1, i) lower."""
    i = np.arange(n)
    upper = np.column_stack([np.full(n, n), i, (i + 1) % n])
    lower = np.column_stack([np.full(n, n + 1), (i + 1) % n, i])
    return np.vstack([upper, lower]).astype(np.intp)


def stack_bipyramids(ring: np.ndarray, X: np.ndarray, tol: Tolerances, errors: list) -> np.ndarray:
    """Vertex arrays [ring, x, -x], shape (m, n+2, 3), for the unit rows of
    X; rows where x or -x coincides with a vertex are refused with
    PointOnVertexOrAntipode."""
    m, n = len(X), len(ring)
    c = cross3(X[:, None, :], ring)
    theta = np.arctan2(np.sqrt(dot3(c, c)), dot3(X[:, None, :], ring))
    near = (theta <= tol.angle) | (theta >= np.pi - tol.angle)
    refuse(errors, near.any(axis=1), lambda r: PointOnVertexOrAntipode(
        f"x or -x coincides with vertex {int(np.argmax(near[r]))}"))
    P = np.empty((m, n + 2, 3))
    P[:, :n] = ring
    P[:, n] = X
    P[:, n + 1] = -X
    return P


def _face_planes(P: np.ndarray, faces: np.ndarray):
    """First vertices (m, F, 3), unit normals (m, F, 3) and normal lengths
    (m, F) of the shared faces of each stacked polyhedron P[r]."""
    a = P[:, faces[:, 0]]
    nrm = cross3(P[:, faces[:, 1]] - a, P[:, faces[:, 2]] - a)
    norms = np.sqrt(dot3(nrm, nrm))
    with np.errstate(divide="ignore", invalid="ignore"):
        return a, nrm / norms[..., None], norms


def kernel_ok_rows(P: np.ndarray, faces: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Origin-in-kernel certificate of each stacked polyhedron P[r] with
    the shared faces: every face plane keeps a distance > tol.geom."""
    a, normals, norms = _face_planes(P, faces)
    return np.all(norms > tol.unit, axis=1) & np.all(dot3(normals, a) > tol.geom, axis=1)


def bipyramid(ring: np.ndarray, x: np.ndarray, tol: Tolerances, hull: bool = False) -> PolyhedronQ:
    """[ring, x, -x] for a unit x with the fan faces, or with those of the
    convex hull (see :func:`_flip_to_hull`); no point location, and the
    origin-in-kernel certificate is computed for the returned faces only."""
    errors = [None]
    P = stack_bipyramids(ring, np.asarray(x, dtype=float)[None], tol, errors)
    check_row(errors)
    faces = fan_faces(len(ring))
    if hull:
        faces = _flip_to_hull(P[0], faces, tol)
    return PolyhedronQ(vertices=P[0], faces=faces, kernel_ok=bool(kernel_ok_rows(P, faces, tol)[0]), tol=tol)


def build_q(
    polygon: SphericalPolygon, x, tol: Tolerances | None = None, *, hull: bool = False
) -> PolyhedronQ:
    """Validated construction: x must be strictly interior to the polygon.

    With hull=True the faces are those of the convex hull of
    [v_1..v_n, x, -x] instead of the fan (see :func:`_flip_to_hull`)."""
    tol = tol or polygon.tol
    x = normalize(x, tol)
    loc = locate_point(polygon, x, tol)
    if loc.kind == "vertex":
        raise PointOnVertexOrAntipode(f"x coincides with vertex {loc.index}")
    if not loc.is_interior:
        raise NotInterior(f"x is {loc} of the polygon, expected interior")
    return bipyramid(polygon.vertices, x, tol, hull)


def _flip_to_hull(vertices: np.ndarray, faces: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Lawson edge flips from a triangulation of points on the unit sphere,
    star-shaped about the origin, to the faces of their convex hull.

    An edge (a, b) between faces (a, b, c) and (b, a, d) is flipped to
    (c, a, d), (d, b, c) while either apex lies more than tol.geom in front
    of the other face's plane.  The apex then lies inside the circumcircle
    of the other face, so the quadrilateral is convex and the flip keeps a
    valid triangulation; each flip adds the tetrahedron abcd to the enclosed
    volume, so the flips terminate.  For points on a sphere the resulting
    locally convex triangulation is the convex hull."""
    V = vertices.tolist()
    faces = faces.tolist()
    owner = {}                                    # directed edge -> face
    for fi, (a, b, c) in enumerate(faces):
        owner[a, b] = owner[b, c] = owner[c, a] = fi
    stack = [edge for edge in owner if edge[0] < edge[1]]
    flips_left = len(faces) ** 2
    while stack:
        a, b = stack.pop()
        f = owner.get((a, b))
        if f is None:
            continue                              # flipped away meanwhile
        g = owner[b, a]
        c = sum(faces[f]) - a - b
        d = sum(faces[g]) - a - b
        if not _reflex(V[a], V[b], V[c], V[d], tol.geom):
            continue
        if flips_left == 0:
            raise NotConvex("edge flips did not reach the convex hull")
        flips_left -= 1
        faces[f] = [c, a, d]
        faces[g] = [d, b, c]
        del owner[a, b], owner[b, a]
        owner[a, d] = owner[d, c] = f
        owner[b, c] = owner[c, d] = g
        stack += [(a, d), (d, b), (b, c), (c, a)]
    return np.array(faces, dtype=np.intp)


def _reflex(a, b, c, d, band: float) -> bool:
    """True iff d lies more than `band` in front of the plane of face
    (a, b, c), or c in front of the plane of face (b, a, d)."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    n1 = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
    volume = n1[0] * wx + n1[1] * wy + n1[2] * wz
    if volume <= 0.0:
        return False
    n2 = (wy * uz - wz * uy, wz * ux - wx * uz, wx * uy - wy * ux)
    shorter = min(n1[0] ** 2 + n1[1] ** 2 + n1[2] ** 2, n2[0] ** 2 + n2[1] ** 2 + n2[2] ** 2)
    return volume * volume > band * band * shorter


def mv_weights_batch(
    P: np.ndarray, faces: np.ndarray, at: np.ndarray, tol: Tolerances, kernel_ok: np.ndarray, errors: list
) -> np.ndarray:
    """Mean value weights of `at` in each stacked polyhedron P[r] (shape
    (m, N, 3)) with the shared faces; see :func:`mv_weights`."""
    refuse(errors, ~kernel_ok, lambda _: KernelViolation("polyhedron failed the origin-in-kernel certificate"))
    if not np.array_equal(at, ORIGIN):
        a, normals, _ = _face_planes(P, faces)
        dist = dot3(normals, a - at)
        refuse(errors, np.any(dist <= tol.geom, axis=1), lambda r: KernelViolation(
            f"evaluation point is not strictly inside every face plane (min distance {dist[r].min():.3e})"))
    u = P - at
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(dot3(u, u))
        e = u / r[..., None]

        def unit_cross(p, s):
            cr = cross3(p, s)
            nn = np.sqrt(dot3(cr, cr))
            refuse(errors, np.any(nn <= tol.unit, axis=1),
                   lambda _: DegenerateTriangle("two rays of a face are collinear"))
            return cr / nn[..., None], nn

        mus = []
        for rot in range(3):
            ei, ej, ek = e[:, faces[:, rot]], e[:, faces[:, (rot + 1) % 3]], e[:, faces[:, (rot + 2) % 3]]
            n_ij, s_ij = unit_cross(ei, ej)
            n_jk, s_jk = unit_cross(ej, ek)
            n_ki, s_ki = unit_cross(ek, ei)
            b_ij = np.arctan2(s_ij, dot3(ei, ej))
            b_jk = np.arctan2(s_jk, dot3(ej, ek))
            b_ki = np.arctan2(s_ki, dot3(ek, ei))
            denom = 2.0 * dot3(ei, n_jk)
            refuse(errors, np.any(np.abs(denom) <= tol.unit, axis=1),
                   lambda _: DegenerateTriangle("face is flat as seen from the evaluation point"))
            mus.append((b_jk + b_ij * dot3(n_ij, n_jk) + b_ki * dot3(n_ki, n_jk)) / denom)
        # Sum each vertex's contributions in face order, rotation by rotation.
        m, N = r.shape
        slot = (np.arange(m)[:, None] * N + faces.T.ravel()).ravel()
        accum = np.bincount(slot, weights=np.concatenate(mus, axis=1).ravel(), minlength=m * N)
        return accum.reshape(m, N) / r


def mv_weights(q: PolyhedronQ, at=ORIGIN, tol: Tolerances | None = None) -> np.ndarray:
    """Mean value weights of `at` with respect to q's vertices.

    For each face (i, j, k), taken in its oriented order, the contribution
    to the distinguished vertex i is

        mu = (b_jk + b_ij <n_ij, n_jk> + b_ki <n_ki, n_jk>) / (2 <e_i, n_jk>)

    where e_i is the unit vector from `at` to vertex i, b_rs the angle
    between e_r and e_s and n_rs the unit normal of span(e_r, e_s).  The
    weight of a vertex is the sum of its mu over incident faces divided by
    its distance from `at`.  The m = 1 call of the batched kernel that
    NEW_MV runs over the stacked fans of a whole grid.
    """
    tol = tol or q.tol
    errors = [None]
    at = np.asarray(at, dtype=float)
    w = mv_weights_batch(q.vertices[None], q.faces, at, tol, np.array([q.kernel_ok]), errors)
    check_row(errors)
    return w[0]


def is_convex(q: PolyhedronQ, tol: Tolerances | None = None) -> bool:
    """True iff every dihedral angle of q is convex: for each pair of faces
    sharing an edge, the apex of each lies weakly behind the other's plane."""
    tol = tol or q.tol
    V = q.vertices
    F = q.faces
    normals = q.face_normals(unit=True)
    apex = np.roll(F, -2, axis=1).ravel()         # vertex opposite each edge
    across = apex[q.twin.ravel()]                 # apex of the face across it
    own = np.repeat(np.arange(len(F)), 3)
    height = np.einsum("ij,ij->i", normals[own], V[across] - V[F[own, 0]])
    return bool(np.all(height <= tol.geom))


def wachspress_weights(
    q: PolyhedronQ, at=ORIGIN, tol: Tolerances | None = None, require_convex: bool = True
) -> np.ndarray:
    """Rational polar-dual weights of `at`.

    Every face f contributes a dual point p_f = n_f / <n_f, y_f - at>; the
    weight of a vertex p is twice the signed area of its dual cell, the
    polygon of the dual points of its incident faces in their order around
    p.  Those points all lie on the plane <y, p - at> = 1, so the cell's
    vector area S_p = sum of p_f x p_g over consecutive faces f, g is normal
    to it and the weight is <p - at, S_p> / |p - at|^2.

    By default this is restricted to convex polyhedra (NotConvex otherwise),
    where all weights are positive.  With require_convex=False the same
    formula is evaluated whenever every face plane keeps `at` strictly on
    its inner side; weights may then change sign, but the linear-precision
    identity sum(w_p (p - at)) = sum(S_p) = 0 survives, because each
    oriented dual edge appears twice with opposite signs.  The fan over a
    convex spherical polygon is very often non-convex in the strict
    dihedral sense; the spherical quotient therefore evaluates these
    weights on the hull (build_q(..., hull=True)), and only the extended
    mode, whose ring is unvalidated, uses the relaxed mode on the fan.
    """
    tol = tol or q.tol
    at = np.asarray(at, dtype=float)

    V = q.vertices
    F = q.faces
    normals = q.face_normals(unit=True)
    offsets = np.einsum("ij,ij->i", normals, V[F[:, 0]] - at)
    if np.any(offsets <= tol.unit):
        raise FaceThroughPoint("a face plane passes through the evaluation point")
    if require_convex and not is_convex(q, tol):
        raise NotConvex("polyhedron has a reflex dihedral angle")

    dual = normals / offsets[:, None]
    # Edge r of face g leaves vertex F[g, r]; the face across it precedes g
    # anti-clockwise around that vertex.
    own = np.repeat(np.arange(len(F)), 3)
    area = np.zeros((len(V), 3))
    np.add.at(area, F.ravel(), np.cross(dual[q.twin.ravel() // 3], dual[own]))
    u = V - at
    w = np.einsum("ij,ij->i", u, area) / np.einsum("ij,ij->i", u, u)
    return w


def normalized_weights(w: np.ndarray, errors: list) -> np.ndarray:
    """Rows of raw weights (m, N) divided by their sums; rows whose sum is
    not positive are refused with KernelViolation."""
    total = w.sum(axis=1)
    refuse(errors, total <= 0.0, lambda _: KernelViolation(
        "weight sum is not positive; configuration invalid for this backend"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return w / total[:, None]


def coords_at_origin(
    q: PolyhedronQ,
    backend: str = "MV",
    at=ORIGIN,
    tol: Tolerances | None = None,
    require_convex: bool = True,
) -> np.ndarray:
    """Normalized 3D barycentric coordinates phi of `at` in q (length n+2).

    Satisfies sum(phi) = 1 and sum(phi_i * p_i) = at up to roundoff.
    """
    if backend == "MV":
        weights = mv_weights(q, at, tol)
    elif backend == "WC":
        weights = wachspress_weights(q, at, tol, require_convex=require_convex)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    errors = [None]
    phi = normalized_weights(weights[None], errors)
    check_row(errors)
    return phi[0]
