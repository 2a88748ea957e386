"""Seeded benchmark inputs, made with numpy alone.

The library only ever receives the raw vertex arrays and query directions
built here; nothing comes from `random_polygon` or `interior_points`, so a
change to the library cannot change what the benchmark feeds it.

Every polygon is built in the gnomonic plane of a random centre direction
`c`: vertex i sits at azimuth a_i (sorted, every gap below pi) and polar
angle p_i < pi/2 from `c`.  Such a ring is star-shaped about `c`, so the fan
triangles (c, v_i, v_{i+1}) tile it and give interior points by
construction.  Equal polar angles put the vertices on one small circle,
which makes the polygon strictly convex; unequal ones give star rings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BUCKETS = (("n_le8", 8), ("n_le24", 24), ("n_le64", 64))
EDGE_GAPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)

# polygon_stream: vertex counts 3..64, cubic in the rank so small n dominate;
# every other polygon with n >= 5, a third of all, is a star ring.  The
# schedule does not depend on the seed, so every seed runs the same mix of
# sizes and kinds.
STREAM_POLYGONS = 72
STREAM_N = tuple(3 + int(61 * (k / (STREAM_POLYGONS - 1)) ** 3) for k in range(STREAM_POLYGONS))
STREAM_STAR = tuple(n >= 5 and k % 2 == 1 for k, n in enumerate(STREAM_N))
CAP_MIN, CAP_MAX = 0.3, 1.55          # cap radius, up to just below pi/2

DENSE_N = (12, 48)                    # seeded convex polygons next to the demo quadrilateral
DENSE_CAP = 0.9
DENSE_RESOLUTION = 8


def bucket(n: int) -> str:
    for name, top in BUCKETS:
        if n <= top:
            return name
    raise ValueError(f"no bucket for n={n}")


def tangent_frame(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(c)))] = 1.0
    b1 = axis - (axis @ c) * c
    b1 /= np.linalg.norm(b1)
    return b1, np.cross(c, b1)


def is_convex(vertices: np.ndarray) -> bool:
    """Every consecutive vertex triple turns left (no reflex vertex)."""
    trips = np.einsum(
        "ij,ij->i", vertices, np.cross(np.roll(vertices, -1, axis=0), np.roll(vertices, -2, axis=0))
    )
    return bool(np.all(trips >= -1e-10))


@dataclass
class Query:
    """One query direction and what the checker expects there.

    kind is "interior", "edge" (x at geodesic `gap` from edge `index`,
    whose foot point has edge coefficients `coef`), "vertex" (x is vertex
    `index`) or "exterior"."""

    kind: str
    x: np.ndarray
    index: int = -1
    gap: float = 0.0
    coef: tuple = ()


@dataclass
class Polygon:
    vertices: np.ndarray
    convex: bool
    center: np.ndarray
    azimuth: np.ndarray
    polar: np.ndarray
    queries: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.vertices)


def _ring(rng, n: int, cap: float, star: bool) -> Polygon:
    c = rng.normal(size=3)
    c /= np.linalg.norm(c)
    b1, b2 = tangent_frame(c)
    step = 2.0 * np.pi / n
    for _ in range(1000):
        azimuth = rng.uniform(0, 2 * np.pi) + step * (np.arange(n) + rng.uniform(-0.2, 0.2, size=n))
        polar = cap * (rng.uniform(0.35, 1.0, size=n) if star else np.ones(n))
        ring = (np.cos(polar)[:, None] * c
                + np.sin(polar)[:, None] * (np.cos(azimuth)[:, None] * b1 + np.sin(azimuth)[:, None] * b2))
        convex = is_convex(ring)
        if convex != star:
            return Polygon(ring, convex, c, azimuth, polar)
    raise RuntimeError(f"no {'star' if star else 'convex'} ring with n={n}")


def _lift(p: Polygon, u: np.ndarray) -> np.ndarray:
    b1, b2 = tangent_frame(p.center)
    x = p.center + u[0] * b1 + u[1] * b2
    return x / np.linalg.norm(x)


def _planar(p: Polygon) -> np.ndarray:
    r = np.tan(p.polar)
    return np.column_stack([r * np.cos(p.azimuth), r * np.sin(p.azimuth)])


def interior_query(rng, p: Polygon) -> Query:
    """A point of a random fan triangle (c, v_i, v_i+1), kept off its sides."""
    i = int(rng.integers(p.n))
    lam = np.clip(rng.dirichlet(np.ones(3)), 0.05, None)
    lam /= lam.sum()
    u = _planar(p)
    return Query("interior", _lift(p, lam[1] * u[i] + lam[2] * u[(i + 1) % p.n]))


def edge_query(rng, p: Polygon, gap: float) -> Query:
    """A point at geodesic distance `gap` inside edge j, off its middle half."""
    j = int(rng.integers(p.n))
    vj, vk = p.vertices[j], p.vertices[(j + 1) % p.n]
    length = float(np.arctan2(np.linalg.norm(np.cross(vj, vk)), vj @ vk))
    t = rng.uniform(0.25, 0.75)
    a, b = np.sin((1 - t) * length) / np.sin(length), np.sin(t * length) / np.sin(length)
    foot = a * vj + b * vk
    pole = np.cross(vj, vk)
    pole /= np.linalg.norm(pole)
    x = np.cos(gap) * foot + np.sin(gap) * pole
    return Query("edge", x / np.linalg.norm(x), index=j, gap=gap, coef=(a, b))


def vertex_query(rng, p: Polygon) -> Query:
    j = int(rng.integers(p.n))
    return Query("vertex", p.vertices[j].copy(), index=j)


def exterior_query(rng, p: Polygon) -> Query:
    """Beyond the cap of radius max(p_i) about c, which holds the polygon."""
    polar = float(p.polar.max()) + rng.uniform(0.05, 0.3)
    az = rng.uniform(0, 2 * np.pi)
    b1, b2 = tangent_frame(p.center)
    x = np.cos(polar) * p.center + np.sin(polar) * (np.cos(az) * b1 + np.sin(az) * b2)
    return Query("exterior", x)


def demo_quad(root: Path) -> Polygon:
    verts = np.asarray(json.loads((root / "data" / "demo_quad.json").read_text())["vertices"], dtype=float)
    c = verts.sum(axis=0)
    c /= np.linalg.norm(c)
    return Polygon(verts, is_convex(verts), c, np.zeros(0), np.zeros(0))


def dense_grid(seed: int, root: Path) -> list[Polygon]:
    rng = np.random.default_rng([seed, 1])
    return [demo_quad(root)] + [_ring(rng, n, DENSE_CAP, star=False) for n in DENSE_N]


def polygon_stream(seed: int) -> list[Polygon]:
    rng = np.random.default_rng([seed, 2])
    offset = rng.uniform()
    out = []
    for k, (n, star) in enumerate(zip(STREAM_N, STREAM_STAR)):
        cap = CAP_MIN + (CAP_MAX - CAP_MIN) * ((offset + 0.6180339887 * k) % 1.0)
        p = _ring(rng, n, cap, star)
        p.queries = [
            interior_query(rng, p),
            interior_query(rng, p),
            edge_query(rng, p, EDGE_GAPS[k % len(EDGE_GAPS)]),
            edge_query(rng, p, EDGE_GAPS[(k + 2) % len(EDGE_GAPS)]),
            vertex_query(rng, p),
            exterior_query(rng, p),
        ]
        out.append(p)
    return out


def cli_polygons(seed: int) -> list[Polygon]:
    """The generated files of cli_session: a convex 12-gon and a convex
    32-gon, so that with data/demo_quad.json the session covers every size
    bucket."""
    rng = np.random.default_rng([seed, 3])
    return [_ring(rng, n, DENSE_CAP, star=False) for n in (12, 32)]


def write_polygon(path: Path, p: Polygon) -> None:
    path.write_text(json.dumps({"vertices": p.vertices.tolist()}) + "\n")


def input_hash(polygons: list[Polygon], extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for p in polygons:
        h.update(np.ascontiguousarray(p.vertices).tobytes())
        for q in p.queries:
            h.update(q.kind.encode())
            h.update(np.ascontiguousarray(q.x).tobytes())
    return h.hexdigest()[:16]
