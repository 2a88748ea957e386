"""Instance I/O, seeded random instances, grid sampling and method comparison.

This is the machinery behind the command-line front end and the test suite:
a tiny JSON polygon file format, a deterministic random-polygon generator,
uniform-looking interior grids built by sampling the tangent-plane image of
the polygon and lifting back to the sphere, a comparison report between two
coordinate methods, and the independent 3x3 elimination oracle used to check
every method on triangles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import GenerationFailed, ResidualTooLarge, SingularMatrix, SphBaryError
from .geom import (
    DEFAULT_TOL,
    INTERIOR,
    SphericalPolygon,
    Tolerances,
    gnomonic_image,
    locate_points,
    normalize,
    tangent_basis,
    unit_rows,
    validate_polygon,
)
from .spherical import evaluate_batch

__all__ = [
    "DEFAULT_BANDS",
    "PolygonFile",
    "load_polygon_file",
    "save_polygon_file",
    "random_polygon",
    "interior_points",
    "grid_directions",
    "GridRow",
    "grid_rows",
    "rows_to_csv",
    "CompareReport",
    "compare_methods",
    "oracle_triangle",
    "octant_triangle",
    "demo_quadrilateral",
    "extended_pair",
    "great_circle_ring",
]

# Contour bands for the per-vertex coordinate maps, normalized to lo <= hi.
DEFAULT_BANDS = (
    (0.09, 0.10),
    (0.11, 0.12),
    (0.17, 0.18),
    (0.23, 0.24),
    (0.29, 0.30),
    (0.35, 0.36),
)

CSV_HEADER = "px,py,pz,location,method,vertex_index,value,residual,band,error"


# --------------------------------------------------------------------------
# polygon files
# --------------------------------------------------------------------------

@dataclass
class PolygonFile:
    """Vertex list plus optional provenance, as stored on disk."""

    vertices: list
    name: str | None = None
    seed: int | None = None

    def validated(self, tol: Tolerances = DEFAULT_TOL) -> SphericalPolygon:
        return validate_polygon(np.asarray(self.vertices, dtype=float), tol)

    def to_json(self) -> str:
        """The file text: name and seed when set, then the vertices."""
        data: dict = {}
        if self.name is not None:
            data["name"] = self.name
        if self.seed is not None:
            data["seed"] = self.seed
        data["vertices"] = [[float(c) for c in v] for v in self.vertices]
        return json.dumps(data, indent=2) + "\n"


def load_polygon_file(path) -> PolygonFile:
    data = json.loads(Path(path).read_text())
    return PolygonFile(
        vertices=data["vertices"],
        name=data.get("name"),
        seed=data.get("seed"),
    )


def save_polygon_file(path, pf: PolygonFile) -> None:
    Path(path).write_text(pf.to_json())


# --------------------------------------------------------------------------
# random instances
# --------------------------------------------------------------------------

def _random_unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def _lift(center, b1, b2, uv) -> np.ndarray:
    return normalize(center + uv[0] * b1 + uv[1] * b2)


def _random_convex_ring(rng, n: int, rho: float) -> np.ndarray:
    """Convex ring by construction: random planar edge vectors sorted by
    direction, chained tip to tail, then lifted through the tangent plane of
    a random cap center (central projection preserves convexity)."""
    center = _random_unit(rng)
    b1, b2 = tangent_basis(center)
    edges = rng.normal(size=(n, 2))
    edges -= edges.mean(axis=0)
    order = np.argsort(np.arctan2(edges[:, 1], edges[:, 0]))
    verts2d = np.cumsum(edges[order], axis=0)
    verts2d -= verts2d.mean(axis=0)
    radius = np.linalg.norm(verts2d, axis=1).max()
    target = np.tan(rho * rng.uniform(0.75, 1.0))
    verts2d *= target / radius
    return np.array([_lift(center, b1, b2, uv) for uv in verts2d])


def _random_star_ring(rng, n: int, rho: float) -> np.ndarray:
    """Star-shaped ring around a random cap center: sorted azimuths, random
    polar angles up to rho."""
    center = _random_unit(rng)
    b1, b2 = tangent_basis(center)
    azimuth = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    if np.min(np.diff(np.concatenate([azimuth, [azimuth[0] + 2 * np.pi]]))) < 0.05:
        return np.empty((0, 3))
    polar = rng.uniform(0.25, 1.0, size=n) * rho
    ring = (
        np.cos(polar)[:, None] * center
        + np.sin(polar)[:, None] * (np.cos(azimuth)[:, None] * b1 + np.sin(azimuth)[:, None] * b2)
    )
    return ring


def random_polygon(
    n: int,
    rho: float,
    seed: int,
    mode: str = "convex",
    tol: Tolerances = DEFAULT_TOL,
    max_tries: int = 1000,
) -> SphericalPolygon:
    """Deterministic seeded polygon generator.

    mode "convex" produces a convex polygon (guaranteed by construction);
    mode "nonconvex" retries star-shaped rings until one with at least one
    reflex vertex validates.  Same seed, same polygon.
    """
    if not 3 <= n <= 64:
        raise GenerationFailed(f"vertex count {n} outside [3, 64]")
    if not 0.0 < rho < np.pi / 2:
        raise GenerationFailed(f"cap radius {rho} outside (0, pi/2)")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        if mode == "convex":
            ring = _random_convex_ring(rng, n, rho)
        elif mode == "nonconvex":
            ring = _random_star_ring(rng, n, rho)
        else:
            raise GenerationFailed(f"unknown mode {mode!r}")
        if len(ring) == 0:
            continue
        try:
            polygon = validate_polygon(ring, tol)
        except SphBaryError:
            continue
        if mode == "convex" and not polygon.convex:
            continue
        if mode == "nonconvex" and polygon.convex:
            continue
        return polygon
    raise GenerationFailed(f"no valid {mode} polygon after {max_tries} tries")


def interior_points(polygon: SphericalPolygon, count: int, rng) -> np.ndarray:
    """Strictly interior sample directions, deterministic given the rng.

    Convex polygons use random convex combinations of the tangent-plane
    vertex images; general polygons use rejection sampling over the image's
    bounding box.  Each round draws as many candidates as are still missing
    and locates them in one batch, so the rng advances exactly as it would
    one candidate at a time.
    """
    b1, b2, planar = gnomonic_image(polygon.vertices, polygon.witness)
    lo, hi = planar.min(axis=0), planar.max(axis=0)
    out = []
    while len(out) < count:
        need = count - len(out)
        if polygon.convex:
            uv = [lam @ planar for lam in rng.dirichlet(np.ones(polygon.n), size=need)]
        else:
            uv = rng.uniform(lo, hi, size=(need, 2))
        candidates = np.array([_lift(polygon.witness, b1, b2, p) for p in uv])
        out += list(candidates[locate_points(polygon, candidates).kind == INTERIOR])
    return np.array(out)


# --------------------------------------------------------------------------
# grids and comparison
# --------------------------------------------------------------------------

def grid_directions(polygon: SphericalPolygon, resolution: int) -> np.ndarray:
    """resolution x resolution directions covering the polygon.

    The polygon is projected into the tangent plane at its spherical
    centroid (witness direction as fallback), a regular grid over the
    image's bounding box is lifted back to the sphere.  Row-major order,
    x fastest; includes points that land outside the polygon.
    """
    center = polygon.vertices.sum(axis=0)
    nc = np.linalg.norm(center)
    if nc > 1e-12:
        center = center / nc
        if np.min(polygon.vertices @ center) <= DEFAULT_TOL.proj:
            center = polygon.witness
    else:
        center = polygon.witness
    b1, b2, planar = gnomonic_image(polygon.vertices, center)
    lo = planar.min(axis=0)
    hi = planar.max(axis=0)
    x = np.tile(np.linspace(lo[0], hi[0], resolution), resolution)[:, None]
    y = np.repeat(np.linspace(lo[1], hi[1], resolution), resolution)[:, None]
    return unit_rows(center + x * b1 + y * b2)[0]


@dataclass
class GridRow:
    """One emitted sample: a direction, the selected vertex coordinate value
    there (when the evaluation succeeded), and diagnostics."""

    point: np.ndarray
    location: str
    method: str
    vertex_index: int
    value: float | None = None
    residual: float | None = None
    band: int | None = None
    error: str | None = None
    values: np.ndarray | None = field(default=None, repr=False)

    def for_vertex(self, vertex_index: int, bands=DEFAULT_BANDS) -> "GridRow":
        """The same sample with vertex_index's value and band selected."""
        if self.values is None:
            return replace(self, vertex_index=vertex_index)
        value = float(self.values[vertex_index])
        return replace(self, vertex_index=vertex_index, value=value, band=_band_index(value, bands))

    def to_csv(self) -> str:
        def f(v):
            return "" if v is None else repr(float(v))

        return ",".join(
            [
                f(self.point[0]),
                f(self.point[1]),
                f(self.point[2]),
                self.location,
                self.method,
                str(self.vertex_index),
                f(self.value),
                f(self.residual),
                "" if self.band is None else str(self.band),
                self.error or "",
            ]
        )


def _band_index(value: float, bands) -> int:
    for i, (lo, hi) in enumerate(bands):
        if lo <= value <= hi:
            return i
    return -1


def grid_rows(
    polygon: SphericalPolygon,
    vertex_index: int,
    resolution: int,
    method: str,
    bands=DEFAULT_BANDS,
    tol: Tolerances | None = None,
) -> list[GridRow]:
    """Evaluate `method` on the grid and classify the chosen vertex
    coordinate into contour bands.  Evaluation failures become rows with an
    error tag; a linear-precision defect above 1e-8 is refused at emission.
    The whole grid is located and evaluated in one batch, and the location
    column comes from that same locate.
    """
    points = grid_directions(polygon, resolution)
    batch = evaluate_batch(polygon, points, method, tol)
    residuals = np.linalg.norm(batch.values @ polygon.vertices - points, axis=1)
    rows = []
    for i, p in enumerate(points):
        row = GridRow(point=p, location=str(batch.locations.at(i)), method=method, vertex_index=vertex_index)
        if batch.errors[i] is not None:
            row.error = batch.errors[i].name
        elif residuals[i] > 1e-8:
            row.error = ResidualTooLarge.__name__
        else:
            row.residual = float(residuals[i])
            row.values = batch.values[i]
        rows.append(row.for_vertex(vertex_index, bands))
    return rows


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


@dataclass
class CompareReport:
    method_a: str
    method_b: str
    points_total: int
    points_compared: int
    coverage_a: float
    coverage_b: float
    max_diff: float
    mean_diff: float
    argmax_point: np.ndarray | None
    argmax_vertex: int
    rows_a: list = field(default_factory=list, repr=False)     # vertex 0 grid rows of method_a
    rows_b: list = field(default_factory=list, repr=False)

    def to_text(self) -> str:
        lines = [
            f"compare {self.method_a} vs {self.method_b}",
            f"grid points: {self.points_total}, compared on both: {self.points_compared}",
            f"coverage: {self.method_a} {self.coverage_a:.4f}, {self.method_b} {self.coverage_b:.4f}",
        ]
        if self.points_compared:
            p = [float(c) for c in self.argmax_point]
            lines.append(f"max |diff| = {self.max_diff!r} at vertex {self.argmax_vertex}")
            lines.append(f"argmax point = ({p[0]!r}, {p[1]!r}, {p[2]!r})")
            lines.append(f"mean |diff| = {self.mean_diff!r}")
        else:
            lines.append("no common successful points")
        return "\n".join(lines)


def compare_methods(
    polygon: SphericalPolygon,
    method_a: str,
    method_b: str,
    resolution: int = 24,
    tol: Tolerances | None = None,
) -> CompareReport:
    """Grid-evaluate two methods and report the largest per-vertex gap over
    the points where both succeed.  The report keeps each method's grid
    rows (see :func:`grid_rows`), one evaluation per point and method."""
    rows_a = grid_rows(polygon, 0, resolution, method_a, tol=tol)
    rows_b = grid_rows(polygon, 0, resolution, method_b, tol=tol)
    ok = 0
    max_diff = 0.0
    sum_diff = 0.0
    count_diff = 0
    argmax_point = None
    argmax_vertex = -1
    for ra, rb in zip(rows_a, rows_b):
        if ra.values is None or rb.values is None:
            continue
        ok += 1
        diff = np.abs(ra.values - rb.values)
        sum_diff += float(diff.sum())
        count_diff += len(diff)
        i = int(np.argmax(diff))
        if diff[i] > max_diff:
            max_diff = float(diff[i])
            argmax_point = ra.point
            argmax_vertex = i
    total = len(rows_a)
    return CompareReport(
        method_a=method_a,
        method_b=method_b,
        points_total=total,
        points_compared=ok,
        coverage_a=sum(r.values is not None for r in rows_a) / total,
        coverage_b=sum(r.values is not None for r in rows_b) / total,
        max_diff=max_diff,
        mean_diff=(sum_diff / count_diff) if count_diff else 0.0,
        argmax_point=argmax_point,
        argmax_vertex=argmax_vertex,
        rows_a=rows_a,
        rows_b=rows_b,
    )


# --------------------------------------------------------------------------
# the triangle oracle
# --------------------------------------------------------------------------

def oracle_triangle(v1, v2, v3, x, pivot_tol: float = 1e-12) -> np.ndarray:
    """Solve sum(psi_i v_i) = x for a spherical triangle by Gaussian
    elimination with partial pivoting.

    Spherical coordinates on a triangle are unique (the vertices are
    linearly independent), so this is the independent reference every
    coordinate method must match for n = 3.
    """
    A = np.column_stack([
        np.asarray(v1, dtype=float),
        np.asarray(v2, dtype=float),
        np.asarray(v3, dtype=float),
    ])
    b = np.asarray(x, dtype=float).copy()
    M = np.hstack([A, b[:, None]])
    perm = [0, 1, 2]
    for col in range(3):
        pivot_row = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[pivot_row, col]) <= pivot_tol:
            raise SingularMatrix("triangle vertices are linearly dependent")
        if pivot_row != col:
            M[[col, pivot_row]] = M[[pivot_row, col]]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        for row in range(col + 1, 3):
            factor = M[row, col] / M[col, col]
            M[row, col:] -= factor * M[col, col:]
    psi = np.zeros(3)
    for col in range(2, -1, -1):
        psi[col] = (M[col, 3] - M[col, col + 1 : 3] @ psi[col + 1 : 3]) / M[col, col]
    return psi


# --------------------------------------------------------------------------
# documented demo instances
# --------------------------------------------------------------------------

def octant_triangle() -> SphericalPolygon:
    """The coordinate octant corner triangle (e1, e2, e3)."""
    return validate_polygon(np.eye(3))


def demo_quadrilateral() -> SphericalPolygon:
    """The shipped convex quadrilateral on which the two Wachspress-style
    constructions visibly disagree (while the two mean value constructions
    coincide).  Vertices sit around the north pole at uneven polar angles
    and azimuths; see data/demo_quad.json for the serialized copy."""
    polar = np.array([0.95, 0.65, 1.05, 0.55])
    azim = np.array([0.30, 1.75, 3.30, 4.90])
    ring = np.column_stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)]
    )
    return validate_polygon(ring)


def extended_pair() -> tuple[SphericalPolygon, np.ndarray]:
    """A polygon/point pair with <x, v_1> < 0: x is interior, but the
    tangent-plane construction cannot project v_1.  Exercises the extended
    evaluation mode of the polyhedral construction."""
    polar = np.full(4, 1.40)
    azim = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    ring = np.column_stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)]
    )
    polygon = validate_polygon(ring)
    x = normalize(np.array([np.sin(1.30) * np.cos(np.pi), np.sin(1.30) * np.sin(np.pi), np.cos(1.30)]))
    return polygon, x


def great_circle_ring() -> tuple[np.ndarray, np.ndarray]:
    """All vertices on the equator (a single great circle) plus an
    off-circle evaluation direction.  No open hemisphere contains the ring,
    so this configuration only exists for the extended evaluation mode."""
    azim = np.array([0.0, 0.4 * np.pi, 0.8 * np.pi, 1.2 * np.pi, 1.6 * np.pi])
    ring = np.column_stack([np.cos(azim), np.sin(azim), np.zeros(5)])
    x = np.array([0.0, 0.0, 1.0])
    return ring, x
