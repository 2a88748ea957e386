import sys
from pathlib import Path

# Allow running the suite from a fresh checkout without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np
import pytest

import sphbary as sb

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def octant():
    return sb.octant_triangle()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation from a QR decomposition, det +1."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def jittered_ring(rng, n: int, cap: float, star: bool):
    """n vertices at jittered, evenly spaced azimuths about the north pole:
    on the circle of polar angle cap (convex), or at random polar angles in
    [0.35 cap, cap] (usually non-convex)."""
    azimuth = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, size=n)) / n
    polar = cap * (rng.uniform(0.35, 1.0, size=n) if star else np.ones(n))
    return sb.validate_polygon(np.column_stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]))


def near_vertex_corpus(seed: int):
    """(polygon, rows) for convex random_polygon rings, n in {3, 5, 8, 16,
    32, 64} and caps {0.3, 1.0, 1.55}, one ring each: an interior sample,
    then rows 1.5e-9, 1e-8 and 1e-7 rad from every vertex towards it,
    inside the vertex band and out of it."""
    rng = np.random.default_rng(seed)
    for n in (3, 5, 8, 16, 32, 64):
        for cap in (0.3, 1.0, 1.55):
            polygon = sb.random_polygon(n, cap, seed=int(rng.integers(0, 2**32)))
            V, s = polygon.vertices, sb.interior_points(polygon, 1, rng)[0]
            u = s - (V @ s)[:, None] * V
            u /= np.linalg.norm(u, axis=1)[:, None]
            yield polygon, np.concatenate([s[None]] + [np.cos(d) * V + np.sin(d) * u for d in (1.5e-9, 1e-8, 1e-7)])


def crossing_hexagon() -> np.ndarray:
    """A six-vertex ring whose edges cross although every vertex turns
    left: azimuths 0, 2, 4, 1, 3, 5.2 rad at polar angle 0.5."""
    azim = np.array([0.0, 2.0, 4.0, 1.0, 3.0, 5.2])
    polar = 0.5
    return np.column_stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.full(6, np.cos(polar))]
    )


def segments_cross(points2d: np.ndarray) -> bool:
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


def planar_verdict(raw) -> str | None:
    """Reference for validate_polygon's last three checks on a ring that
    passes its edge checks, decided in the gnomonic image at the witness
    and by chords: SelfIntersecting when two image segments cross, else
    SelfIntersecting when a vertex v_k lies within the band of a vertex
    other than its neighbours (the chord |v_k - v_i| <= 2 sin(tol.angle / 2))
    or of an edge it is not an end of, else WrongOrientation unless the
    image's shoelace area is positive; None when the ring is valid."""
    V = sb.geom.unit_vertices(raw)
    polygon = sb.SphericalPolygon(vertices=V, witness=sb.geom.find_hemisphere_witness(V))
    _, planar, _, _ = polygon.witness_image
    if segments_cross(planar):
        return "SelfIntersecting"
    n, tol = polygon.n, polygon.tol
    D = V[:, None, :] - V
    chord2 = sb.geom.dot3(D, D)                               # (n, n) |v_k - v_i|^2
    tau = sb.geom.dot3(V[:, None, :], polygon.edge_normals)   # (n, n) <v_k, v_i x v_{i+1}>
    cos, g = 1.0 - 0.5 * chord2, polygon.edge_cosines
    cos_next = np.roll(cos, -1, axis=1)                       # <v_k, v_{i+1}>
    step = (np.arange(n)[:, None] - np.arange(n)) % n        # k - i
    vertex = (chord2 <= (2.0 * np.sin(0.5 * tol.angle)) ** 2) & (1 < step) & (step < n - 1)
    edge = ((np.abs(tau) <= tol.geom * polygon.edge_sines) & (cos - g * cos_next > 0.0)
            & (cos_next - g * cos > 0.0) & (1 < step))
    if (vertex | edge).any():
        return "SelfIntersecting"
    nxt = np.roll(planar, -1, axis=0)
    return "WrongOrientation" if np.sum(planar[:, 0] * nxt[:, 1] - planar[:, 1] * nxt[:, 0]) <= 0.0 else None


def mp_cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def mp_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def mp_mean_value(mp, P, faces):
    """Mean value weights of the origin in the polyhedron P (lists of mpf
    rows) with the given faces, face by face as mv_weights_loop sums
    them."""
    r = [mp.sqrt(mp_dot(p, p)) for p in P]
    E = [[c / length for c in p] for p, length in zip(P, r)]
    spans = {}                      # (a, b), a < b: the unit normal of span(e_a, e_b) and the angle

    def span(a, b):
        if (min(a, b), max(a, b)) not in spans:
            cross = mp_cross(E[min(a, b)], E[max(a, b)])
            size = mp.sqrt(mp_dot(cross, cross))
            spans[min(a, b), max(a, b)] = [c / size for c in cross], mp.atan2(size, mp_dot(E[a], E[b]))
        normal, angle = spans[min(a, b), max(a, b)]
        return (normal if a < b else [-c for c in normal]), angle

    w = [mp.mpf(0)] * len(P)
    for f in faces:
        normals, angles = zip(*(span(f[s], f[(s + 1) % 3]) for s in range(3)))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            w[f[i]] += ((angles[j] + angles[i] * mp_dot(normals[i], normals[j])
                         + angles[k] * mp_dot(normals[k], normals[j])) / (2 * mp_dot(E[f[i]], normals[j])))
    return [wi / ri for wi, ri in zip(w, r)]


@pytest.fixture()
def locate_calls(monkeypatch):
    """Counts the directions located by locate_points, m per batched call
    and 1 per locate_point, from every sphbary module (each module binds
    its own name for it); read the count as locate_calls[0]."""
    count = [0]
    original = sb.geom.locate_points

    def counting(polygon, X, *args, **kwargs):
        count[0] += len(np.asarray(X, dtype=float).reshape(-1, 3))
        return original(polygon, X, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sphbary") and getattr(module, "locate_points", None) is original:
            monkeypatch.setattr(module, "locate_points", counting)
    return count


def _patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace the function `original` in every sphbary module that binds
    it (its own module's calls by name included)."""
    for name, module in list(sys.modules.items()):
        if name.startswith("sphbary") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, replacement)


def count_calls(monkeypatch, original) -> list:
    """Counts the calls of the function `original` from every sphbary
    module that binds it (and from its own module's calls by name); read
    the count as the returned list's [0]."""
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, counting)
    return count


def result_shapes(monkeypatch, original) -> list:
    """Records the shape of each array the function `original` returns,
    called from any sphbary module, in call order."""
    shapes = []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        shapes.append(out.shape)
        return out

    _patch_everywhere(monkeypatch, original, recording)
    return shapes


def recorded_args(monkeypatch, original) -> list:
    """Records the positional arguments of each call of the function
    `original` from any sphbary module, in call order."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, recording)
    return calls
