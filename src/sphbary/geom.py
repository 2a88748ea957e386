"""Vector algebra on the unit sphere, spherical predicates, polygon validation.

All directions are numpy arrays of shape (3,) with unit norm; polygons are
ordered vertex rings on the unit sphere contained in an open hemisphere.
Floating point makes every geometric decision a banded one, so every cutoff
lives in one :class:`Tolerances` record instead of being sprinkled through
the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateEdge,
    NotInHemisphere,
    SelfIntersecting,
    TooFewVertices,
    WrongOrientation,
    ZeroVector,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "normalize",
    "angle_between",
    "triple_product",
    "tangent_basis",
    "winding_angle",
    "PointLocation",
    "SphericalPolygon",
    "validate_polygon",
    "locate_point",
    "edge_coefficients",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs used by the geometric predicates.

    geom     : band on triple products / signed plane distances
    angle    : band on angles (vertex coincidence, winding defect)
    unit     : allowed deviation of a unit vector's norm from 1
    tiny     : smallest vector norm accepted by :func:`normalize`
    edge_fit : allowed reconstruction error for on-edge coefficients
    denom    : positivity threshold for coordinate denominators
    proj     : smallest admissible <v, x> for the gnomonic projection
    """

    geom: float = 1e-10
    angle: float = 1e-9
    unit: float = 1e-12
    tiny: float = 1e-14
    edge_fit: float = 1e-10
    denom: float = 1e-12
    proj: float = 1e-10

    def scaled_to(self, geom: float) -> "Tolerances":
        """Variant with the geometric band replaced and the angle band
        kept one decade wider, for the command-line --tol override."""
        return replace(self, geom=geom, angle=10.0 * geom, edge_fit=geom)


DEFAULT_TOL = Tolerances()


def normalize(v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return v / ||v||. Raises ZeroVector for vanishing input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= tol.tiny:
        raise ZeroVector(f"cannot normalize vector with norm {n!r}")
    return v / n

def angle_between(a, b) -> float:
    """Principal angle between two unit vectors, in [0, pi].

    Uses atan2(||a x b||, <a,b>), which stays accurate near 0 and pi where
    arccos of the dot product loses half the significant digits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.cross(a, b)
    return float(np.arctan2(np.linalg.norm(c), np.dot(a, b)))

def triple_product(a, b, c) -> float:
    """Signed volume <a, b x c> of the parallelepiped spanned by a, b, c."""
    return float(np.dot(np.asarray(a, dtype=float), np.cross(b, c)))


def tangent_basis(x) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis (b1, b2) of the plane tangent at x.

    Gram-Schmidt against the coordinate axis where |x| is smallest, so that
    repeated runs produce bit-identical output.
    """
    x = np.asarray(x, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(x)))] = 1.0
    b1 = normalize(axis - np.dot(axis, x) * x)
    b2 = np.cross(x, b1)
    return b1, b2


def winding_angle(vertices: np.ndarray, x) -> float:
    """Sum of signed turning angles of the ring seen from direction x.

    +2*pi for x strictly inside an anti-clockwise ring, -2*pi for the
    reversed ring, ~0 for x outside. Undefined when x coincides with a
    vertex (the caller is expected to have excluded that).
    """
    x = np.asarray(x, dtype=float)
    cx = np.cross(x, vertices)               # x cross v_i, row-wise
    cx_next = np.roll(cx, -1, axis=0)
    v_next = np.roll(vertices, -1, axis=0)
    sin_terms = np.einsum("ij,ij->i", np.cross(vertices, v_next), np.broadcast_to(x, vertices.shape))
    cos_terms = np.einsum("ij,ij->i", cx, cx_next)
    return float(np.sum(np.arctan2(sin_terms, cos_terms)))


@dataclass(frozen=True)
class PointLocation:
    """Classification of a query direction against a polygon.

    kind is one of "interior", "edge", "vertex", "exterior".  For "edge"
    the point satisfies x = a*v[index] + b*v[index+1] with a, b > 0; for
    "vertex" index is the coinciding vertex.  Indices are 0-based.
    """

    kind: str
    index: int = -1
    a: float = 0.0
    b: float = 0.0

    @property
    def is_interior(self) -> bool:
        return self.kind == "interior"

    @property
    def is_boundary(self) -> bool:
        return self.kind in ("edge", "vertex")

    def __str__(self) -> str:
        if self.kind == "edge":
            return f"edge({self.index})"
        if self.kind == "vertex":
            return f"vertex({self.index})"
        return self.kind


@dataclass(frozen=True)
class SphericalPolygon:
    """Validated anti-clockwise vertex ring contained in an open hemisphere.

    vertices  : (n, 3) unit rows, cyclically indexed (v[i + n] = v[i])
    witness   : direction w with <w, v_i> > 0 for every vertex
    convex    : True iff every consecutive vertex triple turns left
    """

    vertices: np.ndarray
    witness: np.ndarray
    convex: bool
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.witness.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> np.ndarray:
        return self.vertices[i % self.n]

    def edge(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices[j % self.n], self.vertices[(j + 1) % self.n]


def _min_norm_direction(vertices: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Best hemisphere witness via the nearest point of the vertex hull.

    The direction of the minimum-norm point w* of conv{v_i} satisfies
    <w*/||w*||, v_i> >= ||w*|| for every i, so it certifies an open
    hemisphere whenever w* != 0.  w* lies on a face of the hull spanned by
    at most three vertices, so enumerating singles, pairs and triples is an
    exact search.  O(n^3) pairs/triples are fine at polygon scale.
    """
    n = len(vertices)
    best_w, best_margin = None, -np.inf

    def consider(w):
        nonlocal best_w, best_margin
        nw = float(np.linalg.norm(w))
        if nw <= 1e-14:
            return
        w = w / nw
        margin = float(np.min(vertices @ w))
        if margin > best_margin:
            best_w, best_margin = w, margin

    for i in range(n):
        consider(vertices[i])
    for i in range(n):
        for j in range(i + 1, n):
            a, b = vertices[i], vertices[j]
            d = b - a
            dd = float(np.dot(d, d))
            if dd <= 1e-28:
                continue
            t = -float(np.dot(a, d)) / dd
            if 0.0 < t < 1.0:
                consider(a + t * d)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = vertices[i], vertices[j], vertices[k]
                u, v = b - a, c - a
                g = np.array([[np.dot(u, u), np.dot(u, v)], [np.dot(u, v), np.dot(v, v)]])
                rhs = -np.array([np.dot(a, u), np.dot(a, v)])
                det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
                if abs(det) <= 1e-28:
                    continue
                s = (rhs[0] * g[1, 1] - rhs[1] * g[0, 1]) / det
                t = (rhs[1] * g[0, 0] - rhs[0] * g[1, 0]) / det
                if s > 0.0 and t > 0.0 and s + t < 1.0:
                    consider(a + s * u + t * v)
    return best_w, best_margin


def find_hemisphere_witness(vertices: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Direction w with <w, v_i> > 0 for all rows, or NotInHemisphere.

    Fast path: the normalized vertex sum.  Fallback: exact min-norm-point
    search over the vertex hull.
    """
    s = vertices.sum(axis=0)
    ns = float(np.linalg.norm(s))
    if ns > tol.tiny:
        w = s / ns
        if float(np.min(vertices @ w)) > 0.0:
            return w
    w, margin = _min_norm_direction(vertices)
    if w is None or margin <= 0.0:
        raise NotInHemisphere("vertices admit no open hemisphere")
    return w


def _segments_cross(points2d: np.ndarray) -> bool:
    """True iff two edges of the closed planar ring cross properly.

    orient[i, k] is the side of point k relative to edge i; edges i and j
    cross iff each one's endpoints lie strictly on opposite sides of the
    other.  Edges sharing an endpoint get an exact 0 there, so adjacent
    edges never count.
    """
    nxt = np.roll(points2d, -1, axis=0)
    d = nxt - points2d
    rel = points2d[None, :, :] - points2d[:, None, :]          # point k - start of edge i
    orient = d[:, None, 0] * rel[:, :, 1] - d[:, None, 1] * rel[:, :, 0]
    straddles = orient * np.roll(orient, -1, axis=1) < 0.0     # edge j's ends on both sides of edge i
    return bool(np.any(straddles & straddles.T))


def validate_polygon(raw_vertices, tol: Tolerances = DEFAULT_TOL) -> SphericalPolygon:
    """Normalize, certify hemisphere containment and orientation, classify
    convexity; the only constructor of :class:`SphericalPolygon`.

    Raises TooFewVertices, ZeroVector, DegenerateEdge, NotInHemisphere,
    SelfIntersecting or WrongOrientation.
    """
    raw = np.asarray(raw_vertices, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 3:
        raise TooFewVertices("expected an (n, 3) array of vertices")
    if len(raw) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(raw)}")
    vertices = np.array([normalize(v, tol) for v in raw])

    # Hemisphere first: a ring containing an antipodal pair has no witness,
    # and that is the more informative failure than the degenerate edge.
    witness = find_hemisphere_witness(vertices, tol)

    dots = np.einsum("ij,ij->i", vertices, np.roll(vertices, -1, axis=0))
    if np.any(np.abs(dots) >= 1.0 - tol.unit):
        j = int(np.argmax(np.abs(dots)))
        raise DegenerateEdge(f"consecutive vertices {j} and {(j + 1) % len(vertices)} are equal or antipodal")

    # Simplicity and orientation in the gnomonic image at the witness: the
    # projection is defined since every <w, v_i> > 0, maps arcs to segments
    # and keeps orientation, so the ring is simple and anti-clockwise iff
    # its image is, by the sign of the shoelace area.
    b1, b2 = tangent_basis(witness)
    scale = vertices @ witness
    planar = np.column_stack([(vertices @ b1) / scale, (vertices @ b2) / scale])
    if _segments_cross(planar):
        raise SelfIntersecting("two edges of the ring cross")
    nxt = np.roll(planar, -1, axis=0)
    area = 0.5 * float(np.sum(planar[:, 0] * nxt[:, 1] - planar[:, 1] * nxt[:, 0]))
    if area <= 0.0:
        raise WrongOrientation(f"signed area of the ring's gnomonic image is {area:.6e}; the ring is clockwise")

    trips = np.einsum(
        "ij,ij->i",
        vertices,
        np.cross(np.roll(vertices, -1, axis=0), np.roll(vertices, -2, axis=0)),
    )
    convex = bool(np.all(trips >= -tol.geom))
    return SphericalPolygon(vertices=vertices, witness=witness, convex=convex, tol=tol)


def edge_coefficients(vj, vk, x) -> tuple[float, float]:
    """Coefficients (a, b) of x = a*vj + b*vk from the 2x2 Gram system."""
    c = float(np.dot(vj, vk))
    det = 1.0 - c * c
    if det <= 1e-14:
        raise DegenerateEdge("edge endpoints are collinear")
    r1 = float(np.dot(vj, x))
    r2 = float(np.dot(vk, x))
    a = (r1 - c * r2) / det
    b = (r2 - c * r1) / det
    return a, b


def locate_point(polygon: SphericalPolygon, x, tol: Tolerances | None = None) -> PointLocation:
    """Classify x as interior / edge / vertex / exterior for the polygon.

    Vertex and edge bands are checked first so that ambiguous points are
    never classified interior; interior means the signed winding of the
    ring about x is +2*pi.
    """
    tol = tol or polygon.tol
    x = np.asarray(x, dtype=float)
    V = polygon.vertices
    n = polygon.n

    cosines = V @ x
    j = int(np.argmax(cosines))
    if angle_between(V[j], x) <= tol.angle:
        return PointLocation(kind="vertex", index=j)

    for j in range(n):
        vj, vk = V[j], V[(j + 1) % n]
        if abs(triple_product(vj, vk, x)) > tol.geom:
            continue
        a, b = edge_coefficients(vj, vk, x)
        if a <= 0.0 or b <= 0.0:
            continue
        if float(np.linalg.norm(a * vj + b * vk - x)) <= tol.edge_fit:
            return PointLocation(kind="edge", index=j, a=a, b=b)

    if abs(winding_angle(V, x) - 2 * np.pi) <= tol.angle:
        return PointLocation(kind="interior")
    return PointLocation(kind="exterior")
