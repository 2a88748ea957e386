"""Vector algebra on the unit sphere, spherical predicates, polygon validation.

All directions are numpy arrays of shape (3,) with unit norm; polygons are
ordered vertex rings on the unit sphere contained in an open hemisphere.
Floating point makes every geometric decision a banded one.  The one
settable band, :class:`Tolerances` (geom, and the angle band ten times
wider), is carried by the validated polygon, and every predicate and kernel
gate reads it from there; the fixed guards are the constants UNIT, TINY,
DENOM and PROJ.

Each primitive is batched once, and the scalar helpers are its m = 1
calls: :func:`unit_rows` normalizes, :func:`gnomonic_images` projects (at
m = 1 only: :func:`sphbary.tangent.gnomonic_project` and the polygon's
cached image at its witness; the CC_* kernels read the rays instead) and
:func:`locate_points` classifies an (m, 3) block of directions from the
(m, n) arrays of :func:`ring_rays`, which it hands on to the interior kernels
(its vertex band is :func:`vertex_hits`, which validation and the
kernels' refusal of an aligned x call too, and its edge band
:func:`edge_hits`, which validation calls too);
:func:`validate_polygon` reads them, sin theta_i too, of the ring seen
from its own vertices and from the one witness that
:func:`find_hemisphere_witness` finds; what they read of the ring alone is
cached with it, and so are a convex polygon's Delaunay triangulation
(:attr:`SphericalPolygon.delaunay`) and, on their first read, its
half-edge tables (:attr:`SphericalPolygon.half_edges`).  Dot and cross
products go through :func:`dot3` and :func:`cross3`, which add the
products in a fixed order instead of calling BLAS, so a row's bits depend
neither on BLAS nor on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
    "tangent_frames",
    "Rays",
    "ring_rays",
    "ray_sines",
    "PointLocation",
    "Locations",
    "Ring",
    "SphericalPolygon",
    "validate_polygon",
    "locate_points",
    "locate_point",
]


UNIT = 1e-12      # guard at unit scale: cosines this near +-1, sines, lengths and offsets this near 0
TINY = 1e-14      # smallest vector norm accepted by :func:`unit_rows`
DENOM = 1e-12     # positivity threshold for coordinate denominators
PROJ = 1e-10      # smallest admissible <v, x> for the gnomonic projection


@dataclass(frozen=True)
class Tolerances:
    """The one settable band, carried by a validated polygon.

    geom     : band on triple products, plane distances and on-edge fits
    angle    : derived, 10 * geom: band on the angle to a vertex or its antipode
    """

    geom: float = 1e-10

    def __post_init__(self):
        # A band that is 0, negative or not a number turns the predicates'
        # "at most the band" into wrong answers, not into refusals.
        if not 0.0 < self.geom < np.inf:
            raise ValueError(f"the band must be a positive, finite number, got {self.geom!r}")

    @property
    def angle(self) -> float:
        return 10.0 * self.geom


DEFAULT_TOL = Tolerances()


def normalize(v) -> np.ndarray:
    """v / ||v||, the m = 1 call of :func:`unit_rows` (see
    :func:`unit_row`); ZeroVector for vanishing or non-finite input."""
    return unit_row(v)[0]

def angle_between(a, b) -> float:
    """Principal angle between two unit vectors, in [0, pi].

    Uses atan2(||a x b||, <a,b>), which stays accurate near 0 and pi where
    arccos of the dot product loses half the significant digits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = cross3(a, b)
    return float(np.arctan2(np.sqrt(dot3(c, c)), dot3(a, b)))

def triple_product(a, b, c) -> float:
    """Signed volume <a, b x c> of the parallelepiped spanned by a, b, c."""
    return float(dot3(np.asarray(a, dtype=float), cross3(np.asarray(b, dtype=float), np.asarray(c, dtype=float))))


def dot3(a, b) -> np.ndarray:
    """<a, b> over the last axis (length 3), broadcasting the others; the
    three products are added left to right whatever the batch shape (the
    order of np.add.reduce over that axis, without its per-row loop)."""
    p = a * b
    return p[..., 0] + p[..., 1] + p[..., 2]


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


def unit_rows(X) -> tuple[np.ndarray, np.ndarray]:
    """(X / ||X|| row-wise, mask of rows too short to normalize or not
    finite); those rows come back as NaN, for the caller to refuse with
    ZeroVector.  A finite row whose squared norm overflows is first divided
    by its largest |component|."""
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    if not np.abs(X).max(initial=0.0) <= 1e150:    # ||X_r||^2 may overflow, or X is not finite
        with np.errstate(over="ignore"):
            over = dot3(X, X) == np.inf
        finite = np.isfinite(X).all(axis=1)
        X = np.where(finite[:, None], X, np.nan)
        X[over & finite] /= np.abs(X[over & finite]).max(axis=1, keepdims=True)
    norms = np.sqrt(dot3(X, X))
    short = ~(norms > TINY)
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
    rows, k = np.arange(len(X)), np.argmin(np.abs(X), axis=1)
    B1 = 0.0 - X[rows, k][:, None] * X                             # e_k - <e_k, x> x: 0 - p off axis k,
    B1[rows, k] += 1.0                                             # (0 - p) + 1 = 1 - p, bit for bit, on it
    B1 /= np.sqrt(dot3(B1, B1))[:, None]
    return B1, cross3(X, B1)


def gnomonic_images(V: np.ndarray, X: np.ndarray, dots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gnomonic images of the ring V (n, 3) in the planes tangent at the
    unit rows of X (m, 3), given dots (m, n) = <v_i, x>: the frames
    (m, 2, 3) of :func:`tangent_frames` and the coordinates (m, n, 2) of
    v_i / <v_i, x> - x in them; not finite where some <v_i, x> = 0."""
    B1, B2 = tangent_frames(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        images = V / dots[..., None] - X[:, None, :]
    return np.stack([B1, B2], axis=1), np.stack([dot3(images, B1[:, None, :]), dot3(images, B2[:, None, :])], axis=-1)


class Rays(NamedTuple):
    """The rays of a ring seen from m unit directions x, one (m, n) row per direction, formed once
    by :func:`ring_rays`: what validation, point location, the projections and the interior kernels
    all read.  sin and cos are those of theta_i = angle(x, v_i); c_i x c_{i+1} = tau_i x, so tau_i and
    d_i are |c_i||c_{i+1}| times the sine and the cosine of alpha_i, the signed angle from c_i to c_{i+1}."""

    c: np.ndarray        # (m, n, 3) x cross v_i
    cos: np.ndarray      # (m, n) <v_i, x>
    tau: np.ndarray      # (m, n) <x, v_i x v_{i+1}>
    d: np.ndarray        # (m, n) <c_i, c_{i+1}>
    sin: np.ndarray      # (m, n) |c_i|


def ring_rays(ring: "Ring", X: np.ndarray) -> Rays:
    """The rays of the ring from the rows of X (m, 3): the one function
    that crosses directions with the ring; cos and tau in one pass over
    the ring's cached [V; N] columns."""
    p = X.T[:, :, None] * ring.products_table      # (3, m, 2n): dot3's products, in loops of 2n, not of 3
    both = p[0] + p[1] + p[2]                      # added in dot3's order
    c = cross3(X[:, None, :], ring.vertices)
    return Rays(c=c, cos=both[:, :ring.n], tau=both[:, ring.n:], d=dot3(c, roll1(c, -1)), sin=np.sqrt(dot3(c, c)))


def ray_sines(ring: "Ring", rays: Rays, aligned_error, errors: list) -> np.ndarray:
    """sin theta_i (m, n), the rays' own; rows with x in the vertex band
    (:func:`vertex_hits`) of some v_k or of -v_k, theta_k within the ring's
    angle band of 0 or pi, are refused with aligned_error(k, theta_k) for
    the lowest such k, each kernel with its own tag."""
    r, k = vertex_hits(ring, np.abs(rays.cos), rays.sin)
    for i, j in zip(r.tolist(), k.tolist()):              # row-major: a row's lowest k first
        if errors[i] is None:
            errors[i] = aligned_error(j, np.arctan2(rays.sin[i, j], rays.cos[i, j]))
    return rays.sin


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
        return self.kind if self.index < 0 else f"{self.kind}({self.index})"


KINDS = ("interior", "edge", "vertex", "exterior")
INTERIOR, EDGE, VERTEX, EXTERIOR = range(len(KINDS))


@dataclass(frozen=True, eq=False)
class Locations:
    """:class:`PointLocation` of m directions as arrays: kind (codes into
    KINDS), index (-1 unless edge or vertex) and the edge coefficients a, b
    (0 unless edge), with the rays the classification was read from."""

    kind: np.ndarray
    index: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rays: Rays = field(repr=False)

    def __len__(self) -> int:
        return len(self.kind)

    def labels(self) -> list[str]:
        """str(self.at(i)) of every row: index >= 0 only on an edge or a vertex."""
        return [KINDS[k] if i < 0 else f"{KINDS[k]}({i})" for k, i in zip(self.kind.tolist(), self.index.tolist())]

    def at(self, i: int) -> PointLocation:
        kind = KINDS[self.kind[i]]
        if kind == "edge":
            return PointLocation(kind, int(self.index[i]), float(self.a[i]), float(self.b[i]))
        if kind == "vertex":
            return PointLocation(kind, int(self.index[i]))
        return PointLocation(kind)


@dataclass(frozen=True, eq=False)
class Ring:
    """A ring of unit vertices with its band and its cached tables (of its
    edges, and the one :func:`ring_rays` reads), not validated: the
    base of :class:`SphericalPolygon`, and the ring of the extended mode.

    vertices  : (n, 3) unit rows, cyclically indexed (v[i + n] = v[i])
    tol       : the band of every predicate and kernel gate evaluated on it
    """

    vertices: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        self.vertices.setflags(write=False)

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
    def products_table(self) -> np.ndarray:
        """(3, 1, 2n) columns of the rows v_j, then v_j x v_{j+1}, for :func:`ring_rays`."""
        return np.ascontiguousarray(np.concatenate([self.vertices, self.edge_normals]).T)[:, None, :]

    @cached_property
    def edge_cosines(self) -> np.ndarray:
        """(n,) Gram cosines <v_j, v_{j+1}>."""
        return dot3(self.vertices, np.roll(self.vertices, -1, axis=0))

    @cached_property
    def edge_sines(self) -> np.ndarray:
        """(n,) lengths |v_j x v_{j+1}|, the sines of the edges' angles."""
        return np.sqrt(dot3(self.edge_normals, self.edge_normals))

    @cached_property
    def edge_angles(self) -> np.ndarray:
        """(n,) angles between v_j and v_{j+1}."""
        return np.arctan2(self.edge_sines, self.edge_cosines)

    @cached_property
    def unit_edge_normals(self) -> np.ndarray:
        """(n, 3) rows (v_j x v_{j+1}) / |v_j x v_{j+1}|."""
        return self.edge_normals / self.edge_sines[:, None]

    @cached_property
    def turns(self) -> np.ndarray:
        """(3, 1, n) columns of the rows (v_{j-1} - v_j) x (v_{j+1} - v_j)."""
        V = self.vertices
        edges = np.concatenate([V[1:], V[:1]]) - V                      # v_{j+1} - v_j
        return np.ascontiguousarray(cross3(edges, np.concatenate([edges[-1:], edges[:-1]])).T)[:, None, :]

    @cached_property
    def corners(self) -> np.ndarray:
        """(n,) corner triples det(v_{j-1}, v_j, v_{j+1}) = -<v_j, turns_j>:
        from the differences, which keep their digits at a straight corner
        where <v_{j-1}, v_j x v_{j+1}> cancels."""
        return -dot3(self.vertices, self.turns[:, 0].T)


@dataclass(frozen=True, eq=False, kw_only=True)
class SphericalPolygon(Ring):
    """Validated anti-clockwise vertex ring contained in an open hemisphere.

    witness   : direction w with <w, v_i> > 0 for every vertex
    """

    witness: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.witness.setflags(write=False)

    @cached_property
    def convex(self) -> bool:
        """True iff every corner turns left: each of :attr:`corners` is at least -tol.geom."""
        return bool(np.all(self.corners >= -self.tol.geom))

    @cached_property
    def delaunay(self) -> "Delaunay":
        """The spherical Delaunay triangulation of a convex ring (the faces of
        the hull of its vertices that face away from the origin): its
        triangles and their planes, see :class:`Delaunay`.
        A chord recursion from (0, n-1) takes as apex of chord (i, j) the
        lowest chain vertex i < k < j whose plane through v_i, v_k, v_j
        leaves every other chain vertex at most the band in front.  One pass
        takes its first steps, apex i+1 for chord (i, n-1) while that plane
        leaves every vertex so: all of them on a cocircular ring.  Each
        triangle keeps the normal (v_k - v_i) x (v_j - v_i) of the pass that
        chose it, the run's or its chord's."""
        V, n = self.vertices, self.n

        def behind(a, b, c, points):
            """The normals (K, 3) of the planes (a, b, c)[k], and (K, L):
            points[l] at most the band in front of plane k."""
            normals = cross3(b - a, c - a)
            band = self.tol.geom * np.sqrt(dot3(normals, normals))
            return normals, dot3(normals[:, None], points - a[..., None, :]) <= band[:, None]

        fan, ahead = behind(V[:-2], V[1:-1], V[-1], V)
        run = int(np.cumprod(np.all(ahead, axis=1)).sum())
        triangles, normals, chords = [(i, i + 1, n - 1) for i in range(run)], [fan[:run]], [(run, n - 1)]
        while chords:
            i, j = chords.pop()
            if j - i > 1:
                chain = V[i + 1:j]
                apex, ahead = behind(V[i], chain, V[j], chain)
                k = int(np.all(ahead, axis=1).argmax())
                normals.append(apex[k:k + 1])
                k += i + 1
                triangles.append((i, k, j))
                chords += [(i, k), (k, j)]
        return Delaunay.of(V, np.array(triangles, dtype=np.intp), np.concatenate(normals))

    @cached_property
    def half_edges(self) -> "HalfEdges":
        """The half-edge tables of :attr:`delaunay`, built on their first
        read (:func:`half_edge_tables`): by the hull's faces, and where a
        point does not see every triangle, which never happens on a triangle
        or a cocircular ring."""
        return half_edge_tables(self.vertices, self.delaunay, self.tol)

    @cached_property
    def witness_image(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The gnomonic image at the witness that grids and samples are drawn over: the
        tangent basis (2, 3), the (n, 2) planar vertices and their bounding box lo, hi (2,): the
        m = 1 call of :func:`gnomonic_images`, with the <v_i, w> of the rays (bit for bit)."""
        bases, planar = gnomonic_images(self.vertices, self.witness[None], dot3(self.witness, self.vertices)[None])
        return bases[0], planar[0], planar[0].min(axis=0), planar[0].max(axis=0)


class Delaunay(NamedTuple):
    """:attr:`SphericalPolygon.delaunay`: the triangles and their planes,
    which tell the triangles a point sees; triangle n-2, a plane here and
    an index in :class:`HalfEdges`, stands for the side below the ring,
    which nothing lies in front of."""

    triangles: np.ndarray  # (n-2, 3), anti-clockwise seen from outside
    normals: np.ndarray    # (3, 1, n-1) columns of the unit normals of their planes <normal, y> = offset,
    offsets: np.ndarray    # (n-1,) and offsets; a zero normal and an infinite offset below
    sizes: np.ndarray      # (n-1,) lengths of the normals (v_1 - v_0) x (v_2 - v_0); 0 below

    @classmethod
    def of(cls, V: np.ndarray, triangles: np.ndarray, normals: np.ndarray) -> "Delaunay":
        """The triangulation (n-2, 3) of the convex ring V, each triangle
        anti-clockwise seen from outside, from the normals (n-2, 3)
        (v_1 - v_0) x (v_2 - v_0) of its triangles."""
        sizes = np.sqrt(dot3(normals, normals))
        normals = normals / sizes[:, None]
        return cls(triangles, np.ascontiguousarray(np.concatenate([normals, np.zeros((1, 3))]).T)[:, None],
                   np.concatenate([dot3(normals, V[triangles[:, 0]]), [np.inf]]), np.concatenate([sizes, [0.0]]))


class HalfEdges(NamedTuple):
    """:attr:`SphericalPolygon.half_edges`: the tables the hull of the ring
    with a point above it and one below is built from.  Half-edge h = 3t + s
    runs from corner s of triangle t = h // 3 to corner s+1, from v_tail to
    v_head."""

    across: np.ndarray   # (3n-6,) the triangle across it, n-2 on the ring
    tail: np.ndarray     # (3n-6,)
    head: np.ndarray     # (3n-6,)
    cross: np.ndarray    # (3n-6, 3) v_tail x v_head
    cosines: np.ndarray  # (3n-6,) <v_tail, v_head>
    rim: np.ndarray      # (n,) the triangle on the ring edge from v_i to v_{i+1}
    halves: np.ndarray   # (n-3, 2) the half-edges p -> q and q -> p of each edge between two triangles,
    sides: np.ndarray    # (n-3, 2) and their triangles, left and right of p -> q,
    kappa: np.ndarray    # (n-3,) its polar-dual term when both are on the hull,
    reflex: np.ndarray   # (n-3,) and whether an apex lies more than the band in front of the plane across;
    star: np.ndarray     # (3n-6,) per vertex in ring order, 0 and then 1 + each such edge at it,
    starts: np.ndarray   # (n,) where each vertex's run in star begins


def half_edge_tables(V: np.ndarray, delaunay: Delaunay, tol: Tolerances) -> HalfEdges:
    """The half-edge tables of the triangulation of the convex ring V, from
    its triangles and their planes; tol is the band of the reflex test."""
    triangles, n = delaunay.triangles, len(V)
    normals, offsets, sizes = delaunay.normals[:, 0, :-1].T, delaunay.offsets[:-1], delaunay.sizes[:-1]
    corners = V[triangles]
    after = corners[:, [1, 2, 0]]                     # the head of each half-edge
    a = corners[:, 0]
    i, j, e = np.arange(n), np.arange(1, n + 1) % n, np.arange(3 * n - 6)
    tail, head = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    lookup = np.full((n, n), -1)
    lookup[tail, head] = e
    twin = lookup[head, tail]
    cosines = dot3(corners, after).ravel()
    # Each edge between two triangles from both sides, half-edge h and
    # then its twin: the height of the apex across over the own plane,
    # and the edge's polar-dual term on a hull with both triangles.
    h = np.flatnonzero(twin > e)
    both = np.concatenate([h, twin[h]])
    apex = corners[:, [2, 0, 1]].reshape(-1, 3)[twin[both]]
    height = dot3(normals[both // 3], apex - a[both // 3])
    planes = offsets * sizes
    sides = both.reshape(2, -1).T // 3
    at = np.concatenate([i, tail[h], head[h]])
    order = np.argsort(at, kind="stable")
    return HalfEdges(
        across=np.where(twin < 0, n - 2, twin // 3), tail=tail, head=head,
        cross=cross3(corners.reshape(-1, 3), after.reshape(-1, 3)), cosines=cosines, rim=lookup[i, j] // 3,
        halves=both.reshape(2, -1).T, sides=sides,
        kappa=height[:n - 3] * sizes[sides[:, 0]] * (cosines[h] - 1.0) / (planes[sides[:, 0]] * planes[sides[:, 1]]),
        reflex=(height > tol.geom).reshape(2, -1).any(axis=0),
        star=np.concatenate([np.zeros(n, np.intp), np.tile(np.arange(1, n - 2), 2)])[order],
        starts=np.searchsorted(at[order], i))


def find_hemisphere_witness(vertices: np.ndarray) -> np.ndarray:
    """Direction w with <w, v_i> > 0 for every unit row v_i, or NotInHemisphere.

    The normalized vertex sum when it certifies; else the direction of the
    minimum-norm point w* of conv{v_i}, which satisfies <w*/||w*||, v_i> >=
    ||w*|| for every i and so certifies an open hemisphere whenever w* != 0.
    w* lies on a face of the hull spanned by at most three vertices: the
    candidates are the vertices, the pair sums v_i + v_j (a chord between
    unit rows is nearest the origin at its midpoint), then the feet of the
    origin inside the triangles, lexicographically, one first vertex (O(n^2)
    candidates) at a time.  The first with the largest margin
    min_i <w, v_i> wins, if that margin is positive."""
    V, n = vertices, len(vertices)
    s = V.sum(axis=0)
    ns = np.sqrt(dot3(s, s))                 # a sum of n unit rows: no overflow screen
    if ns > TINY:
        w = s / ns
        if dot3(V, w).min() > 0.0:
            return w

    def candidates():
        yield V
        i, j = np.triu_indices(n, 1)
        yield V[i] + V[j]
        for i in range(n - 2):
            j, k = np.triu_indices(n - i - 1, 1)
            a, u, v = V[i], V[j + i + 1] - V[i], V[k + i + 1] - V[i]
            g00, g01, g11 = dot3(u, u), dot3(u, v), dot3(v, v)
            r0, r1 = -dot3(a, u), -dot3(a, v)
            det = g00 * g11 - g01 * g01
            with np.errstate(divide="ignore", invalid="ignore"):   # s + t is inf - inf on a repeated vertex
                s = (r0 * g11 - r1 * g01) / det
                t = (r1 * g00 - r0 * g01) / det
                keep = (np.abs(det) > 1e-28) & (s > 0.0) & (t > 0.0) & (s + t < 1.0)
            yield a + s[keep, None] * u[keep] + t[keep, None] * v[keep]

    best_w, best_margin = None, 0.0
    for W in candidates():
        W, short = unit_rows(W)
        W = W[~short]
        margins = np.min(dot3(W[:, None, :], V), axis=1)
        if len(W) and margins.max() > best_margin:
            k = int(np.argmax(margins))
            best_w, best_margin = W[k], float(margins[k])
    if best_w is None:
        raise NotInHemisphere("vertices admit no open hemisphere")
    return best_w


def validate_polygon(raw_vertices, tol: Tolerances = DEFAULT_TOL) -> SphericalPolygon:
    """Normalize, certify hemisphere containment, orientation and
    simplicity; the only constructor of :class:`SphericalPolygon`, whose
    edge tables the checks read.

    Raises TooFewVertices, ZeroVector (naming the vertex), DegenerateEdge
    (also when the angle band is at least half the shortest edge),
    NotInHemisphere, SelfIntersecting (crossing, then touching edges) or
    WrongOrientation, in that order.
    """
    vertices = unit_vertices(raw_vertices)

    # Hemisphere first: a ring containing an antipodal pair has no witness,
    # and that is the more informative failure than the degenerate edge.
    polygon = SphericalPolygon(vertices=vertices, witness=find_hemisphere_witness(vertices), tol=tol)
    n = polygon.n

    dots = polygon.edge_cosines
    if np.any(np.abs(dots) >= 1.0 - UNIT):
        j = int(np.argmax(np.abs(dots)))
        raise DegenerateEdge(f"consecutive vertices {j} and {(j + 1) % n} are equal or antipodal")
    # Neighbouring vertex bands must not overlap, or they swallow the points
    # between them.
    lengths = polygon.edge_angles
    if 2.0 * tol.angle >= lengths.min():
        j = int(np.argmin(lengths))
        raise DegenerateEdge(
            f"the angle band {tol.angle!r} is at least half of edge {j}, {float(lengths[j])!r} rad long")

    # Simplicity and orientation from the ring seen from its own vertices,
    # tau[k, i] = <v_k, v_i x v_{i+1}>, and from the witness w.  With
    # <a, b x c> w = (a x b)<c, w> + (b x c)<a, w> + (c x a)<b, w>, the side
    # of v_k's gnomonic image at w about edge i's is tau[k, i] over the
    # positive <v_i, w><v_{i+1}, w><v_k, w>, and the image's shoelace area
    # is half the sum of tau_w,i / (<v_i, w><v_{i+1}, w>).  That projection
    # maps arcs to segments and keeps orientation, so the ring is simple
    # and anti-clockwise iff its image is.  Edges i and j cross iff each
    # one's ends lie strictly on opposite sides of the other; edges that
    # share an end never count.
    rays = ring_rays(polygon, np.concatenate([vertices, polygon.witness[None]]))
    cos, tau, sin, cos_w, tau_w = rays.cos[:n], rays.tau[:n], rays.sin[:n], rays.cos[n:], rays.tau[n:]
    step = (np.arange(n)[:, None] - np.arange(n)) % n          # k - i
    apart = (1 < step) & (step < n - 1)
    straddles = tau * np.roll(tau, -1, axis=0) < 0.0           # [j, i]: edge j's ends on both sides of edge i
    if np.any(straddles & straddles.T & apart):
        raise SelfIntersecting("two edges of the ring cross")
    # Touching, the rest of simplicity: v_k within a band of locate_points,
    # of a vertex v_i other than its neighbours (vertex_hits) or of an edge
    # i it is not an end of (edge_hits).
    vertex = vertex_hits(polygon, cos, sin, apart)
    edge = edge_hits(polygon, vertices, cos, tau, 1 < step)[:2]
    for (k, i), what in ((vertex, "vertex"), (edge, "edge")):
        if len(k):
            raise SelfIntersecting(f"vertex {k[0]} lies within the band of {what} {i[0]}")
    area = 0.5 * float(np.sum(tau_w / (cos_w * roll1(cos_w, -1))))
    if area <= 0.0:
        raise WrongOrientation(f"signed area of the ring's gnomonic image is {area:.6e}; the ring is clockwise")
    return polygon


NO_HITS = np.empty(0, np.intp), np.empty(0, np.intp)


def vertex_hits(ring: Ring, cos: np.ndarray, sin: np.ndarray, candidate: np.ndarray | None = None):
    """The (m, n) pairs of row r and vertex k in the vertex band, among the candidate ones (all when
    None), in row-major order: theta = arctan2(sin, cos) <= tol.angle, for cos and sin those of
    theta (the rays', :func:`ring_rays`).  Returns (r, k).  As tol.angle < pi / 2, that needs
    sin <= tan(tol.angle) cos; this filter, with a factor 2 for rounding, spares most pairs the
    arctan2."""
    near = sin <= 2.0 * math.tan(ring.tol.angle) * cos
    if candidate is not None:
        near &= candidate
    if not near.any():
        return NO_HITS
    r, k = np.nonzero(near)
    hit = np.arctan2(sin[r, k], cos[r, k]) <= ring.tol.angle
    return r[hit], k[hit]


def edge_hits(ring: Ring, X: np.ndarray, cos: np.ndarray, tau: np.ndarray, candidate: np.ndarray):
    """The candidate (m, n) pairs of row x = X[r] and edge j in the edge band, in row-major order:
    |tau_j| = |<x, v_j x v_{j+1}>| <= tol.geom, and the Gram coefficients of x = a v_j + b v_{j+1}
    have a, b > 0 and reconstruct x to tol.geom.  Returns (r, j, a, b), four empty index arrays when no
    pair is a candidate; cos and tau are the (m, n) <v_j, x> and tau_j of the rays (:func:`ring_rays`)."""
    r, j = np.nonzero((np.abs(tau) <= ring.tol.geom) & candidate)
    if not len(r):
        return r, j, r, j
    k = (j + 1) % ring.n
    gram = ring.edge_cosines[j]
    det = 1.0 - gram * gram                               # > 1e-12: |gram| < 1 - UNIT on a valid polygon
    a = (cos[r, j] - gram * cos[r, k]) / det
    b = (cos[r, k] - gram * cos[r, j]) / det
    miss = a[:, None] * ring.vertices[j] + b[:, None] * ring.vertices[k] - X[r]
    hit = (a > 0.0) & (b > 0.0) & (np.sqrt(dot3(miss, miss)) <= ring.tol.geom)
    return r[hit], j[hit], a[hit], b[hit]


def locate_points(polygon: SphericalPolygon, X) -> Locations:
    """Classify each row of X, an (m, 3) block of unit directions, as
    interior / edge / vertex / exterior for the polygon; the result carries
    the rays (:func:`ring_rays`) it was read from.

    Vertex and edge bands are checked first so that ambiguous points are
    never classified interior: a vertex k, the lowest that
    :func:`vertex_hits` finds; else an edge j, the lowest that
    :func:`edge_hits` finds; interior when the signed winding of the ring
    about x, the sum of the alpha_i = arctan2(tau_i, d_i), rounds to one
    turn, |sum - 2*pi| < pi (beyond the bands it is a whole turn but for
    roundoff); tol is the polygon's band.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    m = len(X)
    rays = ring_rays(polygon, X)
    kind = np.full(m, EXTERIOR)
    index = np.full(m, -1)
    a = np.zeros(m)
    b = np.zeros(m)

    r, k = vertex_hits(polygon, rays.cos, rays.sin)
    if len(r):
        first = np.diff(r, prepend=-1) != 0               # lowest vertex index per row
        kind[r[first]], index[r[first]] = VERTEX, k[first]

    r, j, ea, eb = edge_hits(polygon, X, rays.cos, rays.tau, (kind == EXTERIOR)[:, None])
    if len(r):
        first = np.diff(r, prepend=-1) != 0               # lowest edge index per row
        r = r[first]
        kind[r] = EDGE
        index[r], a[r], b[r] = j[first], ea[first], eb[first]

    kind[(kind == EXTERIOR) & (np.abs(np.arctan2(rays.tau, rays.d).sum(axis=1) - 2 * np.pi) < np.pi)] = INTERIOR
    return Locations(kind=kind, index=index, a=a, b=b, rays=rays)


def zero_vector(raw: np.ndarray) -> ZeroVector:
    """The error of a raw row that :func:`unit_rows` cannot normalize."""
    return ZeroVector("cannot normalize a vector " + ("this short" if np.isfinite(raw).all() else "that is not finite"))


def direction(x) -> np.ndarray:
    """x as a float array, ZeroVector unless it holds exactly 3 numbers."""
    if (x := np.asarray(x, dtype=float)).size != 3:
        raise ZeroVector(f"cannot normalize x: expected 3 numbers, got {x.size}")
    return x


def unit_row(x) -> np.ndarray:
    """One direction x (see :func:`direction`) as a (1, 3) unit row,
    normalized by :func:`unit_rows` as :func:`sphbary.spherical.evaluate`
    normalizes it; ZeroVector when it cannot be."""
    X, short = unit_rows(x := direction(x))
    if short[0]:
        raise zero_vector(x)
    return X


def unit_vertices(raw) -> np.ndarray:
    """The rows of a raw ring, an (n, 3) array with n >= 3 (TooFewVertices
    otherwise), as unit rows, by one :func:`unit_rows` call; ZeroVector
    naming the first row that cannot be normalized."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 3:
        raise TooFewVertices("expected an (n, 3) array of vertices")
    if len(raw) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(raw)}")
    V, short = unit_rows(raw)
    if short.any():
        k = int(np.argmax(short))
        raise ZeroVector(f"vertex {k}: {zero_vector(raw[k])}")
    return V


def locate_point(polygon: SphericalPolygon, x) -> PointLocation:
    """Location of one direction x (see :func:`unit_row`): the m = 1 call
    of :func:`locate_points`."""
    return locate_points(polygon, unit_row(x)).at(0)
