"""Vector algebra on the unit sphere, spherical predicates, polygon validation.

All directions are numpy arrays of shape (3,) with unit norm; polygons are
ordered vertex rings on the unit sphere contained in an open hemisphere.
Floating point makes every geometric decision a banded one, so every cutoff
lives in one :class:`Tolerances` record instead of being sprinkled through
the code.

Point location is batched: :func:`locate_points` classifies an (m, 3)
block of directions with (m, n) arrays for the vertex band, the edge band
and the winding, and :func:`locate_point` is its m = 1 call.  Row-wise dot
products go through :func:`dot3`, which adds the three products in a fixed
order instead of calling BLAS, so a row's result does not depend on the
batch it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

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
    "dot3",
    "cross3",
    "roll1",
    "unit_rows",
    "tangent_basis",
    "tangent_frames",
    "winding_angle",
    "PointLocation",
    "Locations",
    "SphericalPolygon",
    "validate_polygon",
    "locate_points",
    "locate_point",
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


def dot3(a, b) -> np.ndarray:
    """<a, b> over the last axis (length 3), broadcasting the others; the
    three products are added left to right whatever the batch shape."""
    return np.add.reduce(a * b, axis=-1)


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross3(a, b) -> np.ndarray:
    """a x b over the last axis (length 3), broadcasting the others; the
    same products as np.cross without its per-call axis handling."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def roll1(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift, axis=1) for shift = +1 or -1, without np.roll's
    per-call overhead: row i of the result is a[:, i - shift]."""
    return np.concatenate([a[:, -shift:], a[:, :-shift]], axis=1)


def unit_rows(X, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(X / ||X|| row-wise, mask of rows too short to normalize); those
    rows come back as NaN, for the caller to refuse with ZeroVector."""
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    norms = np.sqrt(dot3(X, X))
    short = ~(norms > tol.tiny)
    if short.any():
        norms[short] = np.nan
    return X / norms[:, None], short


def tangent_frames(X) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (B1, B2), each (m, 3), of the planes tangent at
    the unit rows of X.

    Gram-Schmidt against the coordinate axis where |x| is smallest, so that
    repeated runs produce bit-identical output.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    k = np.argmin(np.abs(X), axis=1)
    B1 = np.eye(3)[k] - X[np.arange(len(X)), k][:, None] * X     # e_k - <e_k, x> x
    B1 /= np.sqrt(dot3(B1, B1))[:, None]
    return B1, cross3(X, B1)


def tangent_basis(x) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (b1, b2) of the plane tangent at the unit x; the
    m = 1 call of :func:`tangent_frames`."""
    B1, B2 = tangent_frames(x)
    return B1[0], B2[0]


def gnomonic_image(vertices: np.ndarray, center) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent basis (b1, b2) at the unit `center` and the (n, 2) planar
    coordinates of v_i / <v_i, center> in it."""
    b1, b2 = tangent_basis(center)
    scale = vertices @ center
    return b1, b2, np.column_stack([(vertices @ b1) / scale, (vertices @ b2) / scale])


def _winding(sin_terms: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Winding sums from <x, v_i x v_{i+1}> and x x v_i, shapes (m, n) and
    (m, n, 3)."""
    cos_terms = dot3(cx, roll1(cx, -1))
    return np.sum(np.arctan2(sin_terms, cos_terms), axis=1)


def winding_angle(vertices: np.ndarray, x) -> float:
    """Sum of signed turning angles of the ring seen from direction x.

    +2*pi for x strictly inside an anti-clockwise ring, -2*pi for the
    reversed ring, ~0 for x outside. Undefined when x coincides with a
    vertex (the caller is expected to have excluded that).
    """
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float).reshape(1, 1, 3)
    normals = cross3(vertices, np.roll(vertices, -1, axis=0))
    return float(_winding(dot3(x, normals), cross3(x, vertices))[0])


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

    def __str__(self) -> str:
        if self.kind == "edge":
            return f"edge({self.index})"
        if self.kind == "vertex":
            return f"vertex({self.index})"
        return self.kind


KINDS = ("interior", "edge", "vertex", "exterior")
INTERIOR, EDGE, VERTEX, EXTERIOR = range(len(KINDS))


@dataclass(frozen=True)
class Locations:
    """:class:`PointLocation` of m directions as arrays: kind (codes into
    KINDS), index (-1 unless edge or vertex) and the edge coefficients a, b
    (0 unless edge)."""

    kind: np.ndarray
    index: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def at(self, i: int) -> PointLocation:
        kind = KINDS[self.kind[i]]
        if kind == "edge":
            return PointLocation(kind, int(self.index[i]), float(self.a[i]), float(self.b[i]))
        if kind == "vertex":
            return PointLocation(kind, int(self.index[i]))
        return PointLocation(kind)


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

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """(n, 3) rows v_j x v_{j+1}."""
        return cross3(self.vertices, np.roll(self.vertices, -1, axis=0))

    @cached_property
    def edge_cosines(self) -> np.ndarray:
        """(n,) Gram cosines <v_j, v_{j+1}>."""
        return dot3(self.vertices, np.roll(self.vertices, -1, axis=0))


def _min_norm_direction(vertices: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Best hemisphere witness via the nearest point of the vertex hull.

    The direction of the minimum-norm point w* of conv{v_i} satisfies
    <w*/||w*||, v_i> >= ||w*|| for every i, so it certifies an open
    hemisphere whenever w* != 0.  w* lies on a face of the hull spanned by
    at most three vertices, so enumerating singles, pairs and triples is an
    exact search.  Candidates are evaluated as arrays, singles first, then
    pairs and then triples in lexicographic order, the triples one first
    vertex at a time to keep memory at O(n^3) per block; the first
    candidate with the largest margin min_i <w, v_i> wins.
    """
    V = vertices
    n = len(V)
    best_w, best_margin = None, -np.inf

    def consider(W):
        nonlocal best_w, best_margin
        nw = np.sqrt(dot3(W, W))
        W = W[nw > 1e-14] / nw[nw > 1e-14, None]
        margins = np.min(dot3(W[:, None, :], V), axis=1)
        margins[np.isnan(margins)] = -np.inf
        if len(W) and margins.max() > best_margin:
            k = int(np.argmax(margins))
            best_w, best_margin = W[k], float(margins[k])

    consider(V)
    i, j = np.triu_indices(n, 1)
    a, d = V[i], V[j] - V[i]
    dd = dot3(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -dot3(a, d) / dd
    keep = (dd > 1e-28) & (0.0 < t) & (t < 1.0)
    consider(a[keep] + t[keep, None] * d[keep])
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        a, u, v = V[i], V[j + i + 1] - V[i], V[k + i + 1] - V[i]
        g00, g01, g11 = dot3(u, u), dot3(u, v), dot3(v, v)
        r0, r1 = -dot3(a, u), -dot3(a, v)
        det = g00 * g11 - g01 * g01
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (r0 * g11 - r1 * g01) / det
            t = (r1 * g00 - r0 * g01) / det
        keep = (np.abs(det) > 1e-28) & (s > 0.0) & (t > 0.0) & (s + t < 1.0)
        consider(a + s[keep, None] * u[keep] + t[keep, None] * v[keep])
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
    _, _, planar = gnomonic_image(vertices, witness)
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


def locate_points(polygon: SphericalPolygon, X, tol: Tolerances | None = None) -> Locations:
    """Classify each row of X, an (m, 3) block of unit directions, as
    interior / edge / vertex / exterior for the polygon.

    Vertex and edge bands are checked first so that ambiguous points are
    never classified interior: a vertex when the angle to the nearest
    vertex is at most tol.angle; an edge j (the lowest such index) when
    |<x, v_j x v_{j+1}>| <= tol.geom and the Gram coefficients of
    x = a v_j + b v_{j+1} have a, b > 0 and reconstruct x to tol.edge_fit;
    interior when the signed winding of the ring about x is 2*pi to
    tol.angle.
    """
    tol = tol or polygon.tol
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    V = polygon.vertices
    m, n = len(X), polygon.n
    rows = np.arange(m)
    x = X[:, None, :]
    cosines = dot3(x, V)                                # (m, n) <v_i, x>
    kind = np.full(m, EXTERIOR)
    index = np.full(m, -1)
    a = np.zeros(m)
    b = np.zeros(m)

    cx = cross3(x, V)                                   # (m, n, 3) x cross v_i
    near = np.argmax(cosines, axis=1)
    c = cx[rows, near]
    vertex = np.arctan2(np.sqrt(dot3(c, c)), cosines[rows, near]) <= tol.angle

    trips = dot3(x, polygon.edge_normals)                # (m, n) <x, v_j x v_{j+1}>
    r, j = np.nonzero((np.abs(trips) <= tol.geom) & ~vertex[:, None])
    if len(r):
        k = (j + 1) % n
        gram = polygon.edge_cosines[j]
        det = 1.0 - gram * gram
        if np.any(det <= 1e-14):
            raise DegenerateEdge("edge endpoints are collinear")
        ea = (cosines[r, j] - gram * cosines[r, k]) / det
        eb = (cosines[r, k] - gram * cosines[r, j]) / det
        miss = ea[:, None] * V[j] + eb[:, None] * V[k] - X[r]
        hit = (ea > 0.0) & (eb > 0.0) & (np.sqrt(dot3(miss, miss)) <= tol.edge_fit)
        r, j, ea, eb = r[hit], j[hit], ea[hit], eb[hit]
        first = np.diff(r, prepend=-1) != 0               # lowest edge index per row
        r = r[first]
        kind[r] = EDGE
        index[r], a[r], b[r] = j[first], ea[first], eb[first]

    kind[vertex] = VERTEX
    index[vertex] = near[vertex]
    rest = kind == EXTERIOR
    winding = _winding(trips[rest], cx[rest])
    kind[rest] = np.where(np.abs(winding - 2 * np.pi) <= tol.angle, INTERIOR, kind[rest])
    return Locations(kind=kind, index=index, a=a, b=b)


def locate_point(polygon: SphericalPolygon, x, tol: Tolerances | None = None) -> PointLocation:
    """Location of one direction x: the m = 1 call of :func:`locate_points`."""
    return locate_points(polygon, x, tol).at(0)
