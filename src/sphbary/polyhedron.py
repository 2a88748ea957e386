"""The bipyramid-style polyhedron over a spherical polygon and two families
of 3D generalized barycentric coordinates of the origin inside it.

Given a polygon ring v_1..v_n and an interior direction x, the polyhedron
has vertex list [v_1, ..., v_n, x, -x] and 2n triangular faces.  The
default triangulation is the fan: an upper fan (x, v_i, v_{i+1}) and a
lower fan (-x, v_{i+1}, v_i).  With the ring anti-clockwise, all face
normals point away from the origin, and the origin lies in the kernel (it
sees every face from the inner side) whenever every face plane keeps a
strictly positive distance from it.

The fan is usually not convex, even over a convex polygon.  With
hull=True, :func:`build_q` takes the faces of the convex hull of the same
n+2 points instead (:func:`hull_faces`: the lower fan, and the polygon's
Delaunay triangulation with x inserted).  The mean value backend uses the
fan; the polar-dual backend of the spherical quotient uses the hull.  The
NEW_MV and NEW_WC methods evaluate these weights from the rays
x cross v_i instead (see :mod:`sphbary.spherical`); the kernels here serve
any polyhedron: :func:`mv_weights`, :func:`wachspress_weights` and the
extended mode.

Two weight backends are provided:

* mean value weights: per-face angle sums divided by the distance to each
  vertex (valid whenever the origin is in the kernel),
* rational polar-dual weights: per-vertex vector areas of the cells of the
  dual points n_f / <n_f, y_f> (positive on convex polyhedra).

Both produce raw weights w of the origin with sum(w_i * p_i) = 0;
normalizing by sum(w) gives its 3D barycentric coordinates.

Both are numpy code over one polyhedron, vertices (N, 3) and faces
(F, 3), that raises each error as it finds it.  Only :func:`hull_cavity`,
:func:`hull_faces` and :func:`normalized_weights` take a block of m
directions or weight rows and record per-row errors (see
:func:`sphbary.errors.refuse`), for the NEW_WC and NEW_MV kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .geom import (
    DEFAULT_TOL, UNIT, SphericalPolygon, Tolerances, cross3, dot3, locate_points, normalize,
)

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


@dataclass(frozen=True)
class PolyhedronQ:
    """Closed oriented triangulated polyhedron [v_1..v_n, x, -x].

    vertices  : (n+2, 3); rows 0..n-1 are the ring, row n is x, row n+1 is -x
    faces     : (2n, 3) int, anti-clockwise viewed from outside; in the fan
                faces[i] = (n, i, i+1) upper, (n+1, i+1, i) lower
    kernel_ok : True iff the origin is strictly inside every face plane
    tol       : the band of its kernel gates (the polygon's, under build_q)
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

    def face_normals(self) -> np.ndarray:
        """(F, 3) unit face normals."""
        return _face_planes(self.vertices, self.faces)[1]


def build_ring_q(ring: np.ndarray, x, tol: Tolerances = DEFAULT_TOL) -> PolyhedronQ:
    """Assemble the polyhedron from a raw unit-vector ring, skipping polygon
    validation.  Used by the extended evaluation mode where the ring may not
    bound a valid hemisphere polygon (e.g. all vertices on a great circle).
    """
    return bipyramid(np.asarray(ring, dtype=float), normalize(x), tol)


def fan_faces(n: int) -> np.ndarray:
    """(2n, 3) fan faces: (n, i, i+1) upper, (n+1, i+1, i) lower."""
    i = np.arange(n)
    upper = np.column_stack([np.full(n, n), i, (i + 1) % n])
    lower = np.column_stack([np.full(n, n + 1), (i + 1) % n, i])
    return np.vstack([upper, lower]).astype(np.intp)


def _face_planes(P: np.ndarray, faces: np.ndarray):
    """First vertices (F, 3), unit normals (F, 3) and normal lengths (F,)
    of the faces (F, 3) of the polyhedron with vertices P (N, 3)."""
    a = P[faces[:, 0]]
    nrm = cross3(P[faces[:, 1]] - a, P[faces[:, 2]] - a)
    norms = np.sqrt(dot3(nrm, nrm))
    with np.errstate(divide="ignore", invalid="ignore"):
        return a, nrm / norms[:, None], norms


def bipyramid(ring: np.ndarray, x: np.ndarray, tol: Tolerances, faces: np.ndarray | None = None) -> PolyhedronQ:
    """[ring, x, -x] for a unit x with the given faces (by default the fan)
    and their origin-in-kernel certificate: every face plane keeps a
    distance > tol.geom.  No point location; PointOnVertexOrAntipode where
    x or -x coincides with a vertex."""
    x = np.asarray(x, dtype=float)
    c = cross3(x, ring)
    theta = np.arctan2(np.sqrt(dot3(c, c)), dot3(x, ring))
    near = (theta <= tol.angle) | (theta >= np.pi - tol.angle)
    if near.any():
        raise PointOnVertexOrAntipode(f"x or -x coincides with vertex {int(np.argmax(near))}")
    P = np.concatenate([ring, x[None], -x[None]])
    faces = fan_faces(len(ring)) if faces is None else faces
    a, normals, norms = _face_planes(P, faces)
    kernel_ok = bool(np.all(norms > UNIT) and np.all(dot3(normals, a) > tol.geom))
    return PolyhedronQ(vertices=P, faces=faces, kernel_ok=kernel_ok, tol=tol)


def build_q(polygon: SphericalPolygon, x, *, hull: bool = False) -> PolyhedronQ:
    """Validated construction: x must be strictly interior to the polygon;
    the polyhedron carries the polygon's band.

    With hull=True the faces are those of the convex hull of
    [v_1..v_n, x, -x] instead of the fan (see :func:`hull_faces`); the
    polygon must then be convex (NotConvex otherwise)."""
    if hull and not polygon.convex:
        raise NotConvex("the hull faces are built for convex polygons only")
    x = normalize(x)
    loc = locate_points(polygon, x).at(0)
    if loc.kind == "vertex":
        raise PointOnVertexOrAntipode(f"x coincides with vertex {loc.index}")
    if not loc.is_interior:
        raise NotInterior(f"x is {loc} of the polygon, expected interior")
    errors = [None]
    faces = hull_faces(polygon, x[None], errors)[0] if hull else None
    check_row(errors)
    return bipyramid(polygon.vertices, x, polygon.tol, faces)


def hull_cavity(polygon: SphericalPolygon, X: np.ndarray, errors: list):
    """The cavity x makes in the polygon's Delaunay triangulation, for the
    unit rows of X over a convex polygon: rho (m, n-1), <normal, x> of each
    triangle plane (and 0 below the ring); seen (m, n-1), the triangles x
    lies more than the polygon's band (the one the triangulation was built
    with) in front of; outline (m, 3n-6), the half-edges from a seen
    triangle to an unseen one or to the side below.  The seen triangles are
    one edge-connected disc, bounded by its ring vertices in ring order,
    exactly when there are two more outline half-edges than seen
    triangles; other rows: NotConvex."""
    d = polygon.delaunay
    rho = dot3(X[:, None, :], d.normals)
    seen = rho > d.offsets + polygon.tol.geom
    outline = d.outline(seen)
    refuse(errors, outline.sum(axis=1) != seen.sum(axis=1) + 2, lambda _: NotConvex(
        "x does not see a disc of the polygon's triangles"))
    return rho, seen, outline


def hull_faces(polygon: SphericalPolygon, X: np.ndarray, errors: list) -> np.ndarray:
    """Faces (m, 2n, 3) of the convex hull of [ring, x, -x] for the unit
    rows of X over a convex polygon: the lower fan (-x, v_{i+1}, v_i), as
    the projection from -x keeps the ring convex around x, the Delaunay
    triangles x does not see, and x joined to each outline half-edge of
    the ones it sees (see :func:`hull_cavity`)."""
    n, d = polygon.n, polygon.delaunay
    _, seen, outline = hull_cavity(polygon, X, errors)
    faces = np.concatenate([d.triangles, np.column_stack([np.full(3 * n - 6, n), d.tail, d.head]),
                            np.column_stack([np.full(n, n + 1), np.arange(1, n + 1) % n, np.arange(n)])])
    drop = np.concatenate([seen[:, :-1], ~outline, np.zeros((len(X), n), bool)], axis=1)
    return faces[np.argsort(drop, axis=1, kind="stable")[:, :2 * n]]


def mv_weights(q: PolyhedronQ) -> np.ndarray:
    """Mean value weights of the origin with respect to q's vertices.

    For each face (i, j, k), taken in its oriented order, the contribution
    to the distinguished vertex i is

        mu = (b_jk + b_ij <n_ij, n_jk> + b_ki <n_ki, n_jk>) / (2 <e_i, n_jk>)

    where e_i is the unit vector from the origin to vertex i, b_rs the angle
    between e_r and e_s and n_rs the unit normal of span(e_r, e_s).  The
    weight of a vertex is the sum of its mu over incident faces divided by
    its distance from the origin.  NEW_MV evaluates the same face terms on
    the fan from its rays x cross v_i, without building q.
    """
    if not q.kernel_ok:
        raise KernelViolation("polyhedron failed the origin-in-kernel certificate")
    P, faces = q.vertices, q.faces
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(dot3(P, P))
        e = P / r[:, None]
        # Once per face: the unit rays e[s] to its corners and, per edge
        # s -> s+1, the unit normal n[s] of span(e[s], e[s+1]) and the angle b[s].
        e = [e[faces[:, s]] for s in range(3)]
        n, b = [], []
        for s in range(3):
            cr = cross3(e[s], e[(s + 1) % 3])
            nn = np.sqrt(dot3(cr, cr))
            if np.any(nn <= UNIT):
                raise DegenerateTriangle("two rays of a face are collinear")
            n.append(cr / nn[:, None])
            b.append(np.arctan2(nn, dot3(e[s], e[(s + 1) % 3])))
        mus = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            denom = 2.0 * dot3(e[i], n[j])
            if np.any(np.abs(denom) <= UNIT):
                raise DegenerateTriangle("face is flat as seen from the evaluation point")
            mus.append((b[j] + b[i] * dot3(n[i], n[j]) + b[k] * dot3(n[k], n[j])) / denom)
        # Sum each vertex's contributions in face order, rotation by rotation.
        return np.bincount(faces.T.ravel(), weights=np.concatenate(mus), minlength=len(P)) / r


def _edge_table(P: np.ndarray, faces: np.ndarray, a: np.ndarray, normals: np.ndarray, tol: Tolerances):
    """Twin table (3F,) and dihedral convexity of the faces (F, 3) of the
    polyhedron with vertices P (N, 3), given its face planes: half-edge
    3f + s runs from corner s of face f to corner s+1, and its twin, found
    by one argsort of edge keys tail * N + head, runs the other way.
    DegenerateTriangle unless the faces form a closed oriented surface."""
    e = np.arange(3 * len(faces))
    tail, head = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    key, reverse = tail * len(P) + head, head * len(P) + tail
    order = np.argsort(key)
    twin = order[np.minimum(np.searchsorted(key, reverse, sorter=order), len(key) - 1)]
    # A missing or repeated directed edge leaves some twin pair unreciprocated.
    if not np.all((key[twin] == reverse) & (twin[twin] == e)):
        raise DegenerateTriangle("faces do not form a closed oriented surface")
    across = faces[:, [2, 0, 1]].ravel()[twin]    # apex of the face across each edge
    height = dot3(normals[e // 3], P[across] - a[e // 3])
    return twin, bool(np.all(height <= tol.geom))


def is_convex(q: PolyhedronQ) -> bool:
    """True iff every dihedral angle of q is convex: for each pair of faces
    sharing an edge, the apex of each lies weakly behind the other's plane.
    DegenerateTriangle unless the faces form a closed oriented surface."""
    a, normals, _ = _face_planes(q.vertices, q.faces)
    return _edge_table(q.vertices, q.faces, a, normals, q.tol)[1]


def wachspress_weights(q: PolyhedronQ, require_convex: bool = True) -> np.ndarray:
    """Rational polar-dual weights of the origin.

    Every face f contributes a dual point p_f = n_f / <n_f, y_f>; the
    weight of a vertex p is twice the signed area of its dual cell, the
    polygon of the dual points of its incident faces in their order around
    p.  Those points all lie on the plane <y, p> = 1, so the cell's vector
    area S_p = sum of p_f x p_g over consecutive faces f, g is normal to it
    and the weight is <p, S_p> / |p|^2.

    By default this is restricted to convex polyhedra (NotConvex otherwise),
    where all weights are positive.  With require_convex=False the same
    formula is evaluated whenever every face plane keeps the origin strictly
    on its inner side; weights may then change sign, but the linear-precision
    identity sum(w_p p) = sum(S_p) = 0 survives, because each
    oriented dual edge appears twice with opposite signs.  The fan over a
    convex spherical polygon is very often non-convex in the strict
    dihedral sense; the spherical quotient therefore evaluates these
    weights on the hull (build_q(..., hull=True)), and only the extended
    mode, whose ring is unvalidated, uses the relaxed mode on the fan.
    NEW_WC sums the same weights on the hull edge by edge from its rays
    x cross v_i, without building q.
    """
    P, faces = q.vertices, q.faces
    a, normals, _ = _face_planes(P, faces)
    offsets = dot3(normals, a)
    if np.any(offsets <= UNIT):
        raise FaceThroughPoint("a face plane passes through the evaluation point")
    twin, convex = _edge_table(P, faces, a, normals, q.tol)
    if require_convex and not convex:
        raise NotConvex("polyhedron has a reflex dihedral angle")
    with np.errstate(divide="ignore", invalid="ignore"):
        dual = normals / offsets[:, None]
        # Edge s of face f leaves vertex faces[f, s]; the face across it
        # precedes f anti-clockwise around that vertex.
        cells = cross3(dual[twin // 3], dual[np.arange(len(twin)) // 3])
        area = np.stack([np.bincount(faces.ravel(), weights=cells[:, k], minlength=len(P)) for k in range(3)], axis=-1)
        return dot3(P, area) / dot3(P, P)


def normalized_weights(w: np.ndarray, errors: list) -> np.ndarray:
    """Rows of raw weights (m, N) divided by their sums; rows whose sum is
    not positive are refused with KernelViolation."""
    total = w.sum(axis=1)
    refuse(errors, total <= 0.0, lambda _: KernelViolation(
        "weight sum is not positive; configuration invalid for this backend"))
    with np.errstate(divide="ignore", invalid="ignore"):
        return w / total[:, None]


def coords_at_origin(q: PolyhedronQ, backend: str = "MV", require_convex: bool = True) -> np.ndarray:
    """Normalized 3D barycentric coordinates phi of the origin in q (length
    n+2).

    Satisfies sum(phi) = 1 and sum(phi_i * p_i) = 0 up to roundoff.
    """
    if backend == "MV":
        weights = mv_weights(q)
    elif backend == "WC":
        weights = wachspress_weights(q, require_convex=require_convex)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    total = weights.sum()
    if total <= 0.0:
        raise KernelViolation("weight sum is not positive; configuration invalid for this backend")
    return weights / total
