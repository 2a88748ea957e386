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
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GenerationFailed, ResidualTooLarge, SingularMatrix, SphBaryError
from .geom import (
    DEFAULT_TOL,
    INTERIOR,
    SphericalPolygon,
    Tolerances,
    locate_points,
    normalize,
    tangent_frames,
    unit_rows,
    validate_polygon,
)
from .spherical import evaluate_batch, reconstruction_residuals

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

# Rings random_polygon draws before it gives up with GenerationFailed.
MAX_TRIES = 1000

# Largest pivot magnitude oracle_triangle treats as zero (SingularMatrix).
PIVOT = 1e-12


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
    """Read a polygon file.  ValueError (OverflowError past the float range)
    unless its vertices are a list of [x, y, z] rows of finite numbers."""
    data = json.loads(Path(path).read_text())
    rows = data["vertices"]
    if not (isinstance(rows, list) and all(isinstance(v, list) and len(v) == 3 for v in rows)
            and all(type(c) in (int, float) for v in rows for c in v)
            and np.isfinite(np.array(rows, dtype=float)).all()):
        raise ValueError("vertices must be a list of [x, y, z] rows of finite numbers")
    return PolygonFile(
        vertices=rows,
        name=data.get("name"),
        seed=data.get("seed"),
    )


def save_polygon_file(path, pf: PolygonFile) -> None:
    Path(path).write_text(pf.to_json())


# --------------------------------------------------------------------------
# random instances
# --------------------------------------------------------------------------

def _random_convex_ring(rng, n: int, rho: float) -> np.ndarray:
    """Convex ring by construction: random planar edge vectors sorted by
    direction, chained tip to tail, then lifted through the tangent plane of
    a random cap center (central projection preserves convexity)."""
    center = normalize(rng.normal(size=3))
    (b1,), (b2,) = tangent_frames(center)
    edges = rng.normal(size=(n, 2))
    edges -= edges.mean(axis=0)
    order = np.argsort(np.arctan2(edges[:, 1], edges[:, 0]))
    verts2d = np.cumsum(edges[order], axis=0)
    verts2d -= verts2d.mean(axis=0)
    radius = np.linalg.norm(verts2d, axis=1).max()
    target = np.tan(rho * rng.uniform(0.75, 1.0))
    verts2d *= target / radius
    return unit_rows(center + verts2d[:, :1] * b1 + verts2d[:, 1:] * b2)[0]


def _min_azimuth_gap(n: int) -> float:
    """Smallest azimuth gap of a star ring, min(0.05, 30 / n^2) rad: the
    smallest of n uniform gaps is about 2 pi / n^2, so a fixed bound would
    reject almost every draw for large n; 0.05 up to n = 24."""
    return min(0.05, 30.0 / n**2)


def _random_star_ring(rng, n: int, rho: float) -> np.ndarray:
    """Star-shaped ring around a random cap center: sorted azimuths, random
    polar angles up to rho; empty when some azimuth gap is below
    :func:`_min_azimuth_gap`."""
    center = normalize(rng.normal(size=3))
    (b1,), (b2,) = tangent_frames(center)
    azimuth = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    if np.min(np.diff(np.concatenate([azimuth, [azimuth[0] + 2 * np.pi]]))) < _min_azimuth_gap(n):
        return np.empty((0, 3))
    polar = rng.uniform(0.25, 1.0, size=n) * rho
    return (
        np.cos(polar)[:, None] * center
        + np.sin(polar)[:, None] * (np.cos(azimuth)[:, None] * b1 + np.sin(azimuth)[:, None] * b2)
    )


def random_polygon(
    n: int, rho: float, seed: int, mode: str = "convex", tol: Tolerances = DEFAULT_TOL
) -> SphericalPolygon:
    """Deterministic seeded polygon generator.

    mode "convex" produces a convex polygon (guaranteed by construction);
    mode "nonconvex" retries star-shaped rings until one with at least one
    reflex vertex validates (n >= 4).  Same seed, same polygon.
    """
    if not 3 <= n <= 64:
        raise GenerationFailed(f"vertex count {n} outside [3, 64]")
    if not 0.0 < rho < np.pi / 2:
        raise GenerationFailed(f"cap radius {rho} outside (0, pi/2)")
    if mode == "nonconvex" and n == 3:
        raise GenerationFailed("no nonconvex polygon has 3 vertices: a triangle has no reflex vertex")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
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
        if polygon.convex == (mode == "convex"):
            return polygon
    raise GenerationFailed(f"no valid {mode} polygon after {MAX_TRIES} tries")


def interior_points(polygon: SphericalPolygon, count: int, rng) -> np.ndarray:
    """Strictly interior sample directions, deterministic given the rng.

    Convex polygons use random convex combinations of the tangent-plane
    vertex images; general polygons use rejection sampling over the image's
    bounding box (the polygon's cached witness image).  Each round draws as
    many candidates as are still missing and locates them in one batch, so
    the rng advances exactly as it would one candidate at a time.
    """
    (b1, b2), planar, lo, hi = polygon.witness_image
    out = []
    while len(out) < count:
        need = count - len(out)
        if polygon.convex:
            uv = np.array([lam @ planar for lam in rng.dirichlet(np.ones(polygon.n), size=need)])
        else:
            uv = rng.uniform(lo, hi, size=(need, 2))
        candidates = unit_rows(polygon.witness + uv[:, :1] * b1 + uv[:, 1:] * b2)[0]
        out += list(candidates[locate_points(polygon, candidates).kind == INTERIOR])
    return np.array(out).reshape(-1, 3)


# --------------------------------------------------------------------------
# grids and comparison
# --------------------------------------------------------------------------

def grid_directions(polygon: SphericalPolygon, resolution: int) -> np.ndarray:
    """resolution x resolution directions covering the polygon.

    A regular grid over the bounding box of the polygon's gnomonic image at
    its witness (its spherical centroid, unless that leaves the hemisphere;
    projected once, :attr:`sphbary.geom.SphericalPolygon.witness_image`),
    lifted back to the sphere.  Row-major order, x fastest; includes points
    that land outside the polygon.  ValueError for a resolution below 1.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    (b1, b2), _, lo, hi = polygon.witness_image
    steps = np.linspace(lo, hi, resolution)                      # (resolution, 2): x, y
    return unit_rows(polygon.witness + steps[None, :, :1] * b1 + steps[:, None, 1:] * b2)[0]


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

    def to_csv(self) -> str:
        def f(v):
            return "" if v is None else repr(float(v))

        band = "" if self.band is None else str(self.band)
        return ",".join([*map(f, self.point), self.location, self.method, str(self.vertex_index),
                         f(self.value), f(self.residual), band, self.error or ""])


def _band_index(values, bands) -> np.ndarray:
    """Index of the first band holding each value, its bounds in either order, else -1; ValueError
    for a bound that is not a number (+-inf is one)."""
    if not len(bands):                  # argmax over an empty axis raises
        return np.full(np.shape(values), -1)
    if np.isnan(bounds := np.asarray(bands, dtype=float)).any():
        raise ValueError(f"a band bound must be a number or +-inf, got {bands!r}")
    lo, hi = np.sort(bounds, axis=1).T
    values = np.asarray(values)[..., None]
    inside = (lo <= values) & (values <= hi)
    return np.where(inside.any(axis=-1), inside.argmax(axis=-1), -1)


class _Grid(NamedTuple):
    """One method on a grid, per point: direction, location label, values,
    residual, and the error tag of a point that emits no value."""

    method: str
    points: np.ndarray
    labels: list
    values: np.ndarray
    residuals: np.ndarray
    errors: list

    def rows(self, ks, bands=DEFAULT_BANDS) -> list[GridRow]:
        """One GridRow per point for each vertex k of ks in turn, with k's
        value and band selected; the per-point views are made once."""
        method, labels, errors = self.method, self.labels, self.errors
        points, rows, residuals = list(self.points), list(self.values), self.residuals.tolist()
        out = []
        for k in ks:
            value = self.values[:, k]
            out += [
                GridRow(p, label, method, k, None, None, None, e) if e
                else GridRow(p, label, method, k, v, r, b, None, row)
                for p, label, row, v, r, b, e in zip(
                    points, labels, rows, value.tolist(), residuals, _band_index(value, bands).tolist(), errors)
            ]
        return out


def _evaluate_grid(polygon: SphericalPolygon, resolution: int, method: str) -> _Grid:
    """Evaluate `method` at the grid directions in one batch."""
    points = grid_directions(polygon, resolution)
    batch = evaluate_batch(polygon, points, method)
    residuals = reconstruction_residuals(batch.values, polygon.vertices, points)
    errors = [
        error.name if error is not None else ResidualTooLarge.__name__ if r > 1e-8 else None
        for error, r in zip(batch.errors, residuals.tolist())
    ]
    return _Grid(method, points, batch.locations.labels(), batch.values, residuals, errors)


def grid_rows(
    polygon: SphericalPolygon, vertex_index: int, resolution: int, method: str, bands=DEFAULT_BANDS
) -> list[GridRow]:
    """Evaluate `method` on the grid and classify the chosen vertex
    coordinate into contour bands, one row per grid point.  Evaluation
    failures become rows with an error tag; a linear-precision defect above
    1e-8 is refused at emission.  The whole grid is located and evaluated
    in one batch, and the location column comes from that same locate.
    ValueError for a vertex index outside [0, n), a resolution below 1 or
    a band bound that is not a number.
    """
    if not 0 <= vertex_index < polygon.n:
        raise ValueError(f"vertex index {vertex_index} out of range for n={polygon.n}")
    return _evaluate_grid(polygon, resolution, method).rows((vertex_index,), bands)


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
    _grids: tuple = field(default=(), repr=False)     # the two evaluated grids, for to_csv

    def to_text(self) -> str:
        lines = [
            f"compare {self.method_a} vs {self.method_b}",
            f"grid points: {self.points_total}, compared on both: {self.points_compared}",
            f"coverage: {self.method_a} {self.coverage_a:.4f}, {self.method_b} {self.coverage_b:.4f}",
        ]
        if not self.points_compared:
            lines.append("no common successful points")
        elif self.argmax_point is None:                 # every gap is 0: there is no largest one
            lines += [f"max |diff| = {self.max_diff!r}", f"mean |diff| = {self.mean_diff!r}"]
        else:
            p = [float(c) for c in self.argmax_point]
            lines += [f"max |diff| = {self.max_diff!r} at vertex {self.argmax_vertex}",
                      f"argmax point = ({p[0]!r}, {p[1]!r}, {p[2]!r})",
                      f"mean |diff| = {self.mean_diff!r}"]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The rows of `grid_rows` for method_a, then method_b, each for vertex 0, 1, ... in turn."""
        return rows_to_csv([row for grid in self._grids for row in grid.rows(range(grid.values.shape[1]))])


def compare_methods(polygon: SphericalPolygon, method_a: str, method_b: str, resolution: int = 24) -> CompareReport:
    """Grid-evaluate two methods and report the largest per-vertex gap over
    the points where both succeed: the first largest in row-major order,
    none when every gap is 0, and the mean gap.  One evaluation per point
    and method; the report keeps both grids for its CSV.  ValueError for a
    resolution below 1."""
    grids = _evaluate_grid(polygon, resolution, method_a), _evaluate_grid(polygon, resolution, method_b)
    ok_a, ok_b = (np.array([e is None for e in grid.errors], dtype=bool) for grid in grids)
    both = ok_a & ok_b
    diff = np.abs(grids[0].values[both] - grids[1].values[both])
    max_diff, mean_diff, argmax_point, argmax_vertex = 0.0, 0.0, None, -1
    if diff.size:
        # The per-point sums, added in row order.
        mean_diff = float(np.cumsum(diff.sum(axis=1))[-1]) / diff.size
        r, k = divmod(int(np.argmax(diff)), polygon.n)
        if diff[r, k] > 0.0:
            max_diff, argmax_point, argmax_vertex = float(diff[r, k]), grids[0].points[both][r], k
    return CompareReport(
        method_a=method_a,
        method_b=method_b,
        points_total=len(both),
        points_compared=len(diff),
        coverage_a=int(ok_a.sum()) / len(both),
        coverage_b=int(ok_b.sum()) / len(both),
        max_diff=max_diff,
        mean_diff=mean_diff,
        argmax_point=argmax_point,
        argmax_vertex=argmax_vertex,
        _grids=grids,
    )


# --------------------------------------------------------------------------
# the triangle oracle
# --------------------------------------------------------------------------

def oracle_triangle(v1, v2, v3, x) -> np.ndarray:
    """Solve sum(psi_i v_i) = x for a spherical triangle by Gaussian
    elimination with partial pivoting.

    Spherical coordinates on a triangle are unique (the vertices are
    linearly independent), so this is the independent reference every
    coordinate method must match for n = 3.
    """
    M = np.column_stack([v1, v2, v3, x]).astype(float)      # [A | b]
    for col in range(3):
        pivot_row = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[pivot_row, col]) <= PIVOT:
            raise SingularMatrix("triangle vertices are linearly dependent")
        if pivot_row != col:
            M[[col, pivot_row]] = M[[pivot_row, col]]
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
