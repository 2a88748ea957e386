"""Relabelling and rotation: a polygon whose vertices are cyclically
relabelled by k and rotated gives the same coordinates, rolled by k, in
every method and in the general polyhedral route.  Batches: each row of a
permuted block is the single-point evaluation, bit for bit.  Validation:
the ring's own triple products decide as its gnomonic image does."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import sphbary as sb  # noqa: E402
from sphbary.errors import SphBaryError  # noqa: E402
from sphbary.spherical import evaluate, evaluate_batch  # noqa: E402

from conftest import crossing_hexagon, planar_verdict, random_rotation  # noqa: E402

POINTS = 12


@st.composite
def moved_polygons(draw):
    """(polygon, its relabelled and rotated copy, k, rotation, interior
    points of the polygon)."""
    n = draw(st.integers(3, 39))
    cap = draw(st.floats(0.2, 1.45))
    # Star rings up to n = 24, the draws TestRandomPolygon pins byte for byte.
    mode = "nonconvex" if 3 < n <= 24 and draw(st.booleans()) else "convex"
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(0, n - 1))
    polygon = sb.random_polygon(n, cap, seed, mode)
    rng = np.random.default_rng(seed)
    rotation = random_rotation(rng)
    moved = sb.validate_polygon(np.roll(polygon.vertices, -k, axis=0) @ rotation.T)
    return polygon, moved, k, rotation, sb.interior_points(polygon, POINTS, rng)


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except SphBaryError as exc:
        return exc.name


def assert_same(got, expected, tol):
    """The same error tag, or values within tol of each other."""
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
    else:
        assert np.max(np.abs(got - expected)) <= tol


SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@SETTINGS
@given(moved_polygons())
def test_every_method_commutes_with_relabelling_and_rotation(case):
    polygon, moved, k, rotation, X = case
    for method in sb.METHODS:
        before = evaluate_batch(polygon, X, method)
        after = evaluate_batch(moved, X @ rotation.T, method)
        for i in range(POINTS):
            tags = [e if e is None else e.name for e in (before.errors[i], after.errors[i])]
            assert tags[0] == tags[1], method
            if tags[0] is None:
                assert_same(after.values[i], np.roll(before.values[i], -k), 1e-11)


@SETTINGS
@given(moved_polygons())
def test_the_polyhedral_route_commutes_with_relabelling_and_rotation(case):
    polygon, moved, k, rotation, X = case
    n = polygon.n
    order = np.concatenate([(np.arange(n) + k) % n, [n, n + 1]])   # ring rolled, x and -x kept
    routes = [
        lambda p, x: sb.mv_weights(sb.build_q(p, x)),
        lambda p, x: sb.wachspress_weights(sb.build_q(p, x), require_convex=False),
        lambda p, x: sb.wachspress_weights(sb.build_q(p, x, hull=True)),
    ]
    for x in X[:POINTS // 3]:
        for route in routes:
            before = outcome(route, polygon, x)
            after = outcome(route, moved, rotation @ x)
            scale = 0.0 if isinstance(before, str) else np.max(np.abs(before))
            assert_same(after, before if isinstance(before, str) else before[order], 1e-10 * scale)


@st.composite
def permuted_blocks(draw):
    """(polygon, a permuted block of its interior points, vertices, edge
    points, exterior points and one zero row)."""
    n = draw(st.integers(3, 39))
    cap = draw(st.floats(0.2, 1.45))
    mode = "nonconvex" if 3 < n <= 24 and draw(st.booleans()) else "convex"
    seed = draw(st.integers(0, 2**32 - 1))
    polygon = sb.random_polygon(n, cap, seed, mode)
    rng = np.random.default_rng(seed)
    inner = sb.interior_points(polygon, POINTS, rng)
    V = polygon.vertices
    ends = rng.integers(n, size=3)
    on_edges = V[ends] + V[(ends + 1) % n] * rng.uniform(0.2, 5.0, size=(3, 1))
    X = np.vstack([inner, V[ends], on_edges, -inner[:2], np.zeros((1, 3))])
    return polygon, X[rng.permutation(len(X))]


def single_outcome(polygon, x, method):
    """The m = 1 call's error tag and message, or its location and value
    bits."""
    try:
        cv = evaluate(polygon, x, method)
    except SphBaryError as exc:
        return exc.name, str(exc)
    denom = np.float64(np.nan if cv.denom is None else cv.denom)
    return cv.location, cv.values.tobytes(), denom.tobytes()


@SETTINGS
@given(permuted_blocks())
def test_block_rows_are_single_point_calls(case):
    polygon, X = case
    for method in sb.METHODS:
        batch = evaluate_batch(polygon, X, method)
        for i, x in enumerate(X):
            got = (batch.errors[i].name, str(batch.errors[i])) if batch.errors[i] else (
                batch.locations.at(i), batch.values[i].tobytes(), batch.denom[i].tobytes())
            assert got == single_outcome(polygon, x, method), (method, i)


@st.composite
def raw_rings(draw):
    """A convex, star or shuffled ring about the north pole, or the crossing
    hexagon; maybe reversed, maybe with two neighbours swapped, then
    cyclically relabelled and rotated."""
    kind = draw(st.sampled_from(("convex", "star", "shuffled", "hexagon")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "hexagon":
        ring = crossing_hexagon()
    else:
        n, cap = draw(st.integers(3, 40)), draw(st.floats(0.05, 1.5))
        azimuth = np.sort(rng.uniform(0.0, 2 * np.pi, size=n))
        polar = cap * (np.ones(n) if kind == "convex" else rng.uniform(0.3, 1.0, size=n))
        ring = np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])
        if kind == "shuffled":
            ring = ring[rng.permutation(n)]
    n = len(ring)
    if draw(st.booleans()):
        ring = ring[::-1].copy()
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        ring[[i, (i + 1) % n]] = ring[[(i + 1) % n, i]]
    return np.roll(ring, -draw(st.integers(0, n - 1)), axis=0) @ random_rotation(rng).T


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw_rings())
def test_validation_decides_as_the_gnomonic_image(ring):
    try:
        polygon, tag = sb.validate_polygon(ring), None
    except SphBaryError as exc:
        polygon, tag = None, exc.name
    assume(tag not in ("DegenerateEdge", "NotInHemisphere"))
    assert tag == planar_verdict(ring)
    if polygon is not None:
        V, n = polygon.vertices, polygon.n
        turns = [sb.triple_product(V[j], V[(j + 1) % n], V[(j + 2) % n]) for j in range(n)]
        assert polygon.convex == (min(turns) >= -polygon.tol.geom)
