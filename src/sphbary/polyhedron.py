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
)
from .geom import DEFAULT_TOL, SphericalPolygon, Tolerances, locate_point, normalize

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


def bipyramid(ring: np.ndarray, x: np.ndarray, tol: Tolerances, hull: bool = False) -> PolyhedronQ:
    """[ring, x, -x] for a unit x with the fan faces, or with those of the
    convex hull (see :func:`_flip_to_hull`); no point location, and the
    origin-in-kernel certificate is computed for the returned faces only."""
    n = len(ring)
    theta = np.arctan2(np.linalg.norm(np.cross(ring, x), axis=1), ring @ x)
    near = (theta <= tol.angle) | (theta >= np.pi - tol.angle)
    if np.any(near):
        raise PointOnVertexOrAntipode(f"x or -x coincides with vertex {int(np.argmax(near))}")
    vertices = np.vstack([ring, x, -x])
    upper = np.column_stack([np.full(n, n), np.arange(n), (np.arange(n) + 1) % n])
    lower = np.column_stack([np.full(n, n + 1), (np.arange(n) + 1) % n, np.arange(n)])
    faces = np.vstack([upper, lower]).astype(np.intp)
    if hull:
        faces = _flip_to_hull(vertices, faces, tol)
    return _assemble(vertices, faces, tol)


def _assemble(vertices: np.ndarray, faces: np.ndarray, tol: Tolerances) -> PolyhedronQ:
    """PolyhedronQ with its origin-in-kernel certificate."""
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    nrm = np.cross(b - a, c - a)
    norms = np.linalg.norm(nrm, axis=1)
    if np.any(norms <= tol.unit):
        kernel_ok = False
    else:
        dist = np.einsum("ij,ij->i", nrm / norms[:, None], a)
        kernel_ok = bool(np.all(dist > tol.geom))
    return PolyhedronQ(vertices=vertices, faces=faces, kernel_ok=kernel_ok, tol=tol)


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


def _check_kernel(q: PolyhedronQ, at: np.ndarray, tol: Tolerances) -> None:
    a = q.vertices[q.faces[:, 0]]
    nrm = q.face_normals(unit=True)
    dist = np.einsum("ij,ij->i", nrm, a - at)
    if np.any(dist <= tol.geom):
        raise KernelViolation(
            f"evaluation point is not strictly inside every face plane (min distance {dist.min():.3e})"
        )


def mv_weights(q: PolyhedronQ, at=ORIGIN, tol: Tolerances | None = None) -> np.ndarray:
    """Mean value weights of `at` with respect to q's vertices.

    For each face (i, j, k), taken in its oriented order, the contribution
    to the distinguished vertex i is

        mu = (b_jk + b_ij <n_ij, n_jk> + b_ki <n_ki, n_jk>) / (2 <e_i, n_jk>)

    where e_i is the unit vector from `at` to vertex i, b_rs the angle
    between e_r and e_s and n_rs the unit normal of span(e_r, e_s).  The
    weight of a vertex is the sum of its mu over incident faces divided by
    its distance from `at`.
    """
    tol = tol or q.tol
    at = np.asarray(at, dtype=float)
    if not q.kernel_ok:
        raise KernelViolation("polyhedron failed the origin-in-kernel certificate")
    if not np.array_equal(at, ORIGIN):
        _check_kernel(q, at, tol)

    u = q.vertices - at
    r = np.linalg.norm(u, axis=1)
    e = u / r[:, None]

    accum = np.zeros(len(q.vertices))
    F = q.faces
    for rot in range(3):
        i = F[:, rot]
        j = F[:, (rot + 1) % 3]
        k = F[:, (rot + 2) % 3]
        ei, ej, ek = e[i], e[j], e[k]

        def unit_cross(p, s):
            cr = np.cross(p, s)
            nn = np.linalg.norm(cr, axis=1)
            if np.any(nn <= tol.unit):
                raise DegenerateTriangle("two rays of a face are collinear")
            return cr / nn[:, None], nn

        n_ij, s_ij = unit_cross(ei, ej)
        n_jk, s_jk = unit_cross(ej, ek)
        n_ki, s_ki = unit_cross(ek, ei)
        b_ij = np.arctan2(s_ij, np.einsum("ij,ij->i", ei, ej))
        b_jk = np.arctan2(s_jk, np.einsum("ij,ij->i", ej, ek))
        b_ki = np.arctan2(s_ki, np.einsum("ij,ij->i", ek, ei))

        denom = 2.0 * np.einsum("ij,ij->i", ei, n_jk)
        if np.any(np.abs(denom) <= tol.unit):
            raise DegenerateTriangle("face is flat as seen from the evaluation point")
        mu = (
            b_jk
            + b_ij * np.einsum("ij,ij->i", n_ij, n_jk)
            + b_ki * np.einsum("ij,ij->i", n_ki, n_jk)
        ) / denom
        np.add.at(accum, i, mu)

    return accum / r


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
    total = float(weights.sum())
    if total <= 0.0:
        raise KernelViolation("weight sum is not positive; configuration invalid for this backend")
    return weights / total
