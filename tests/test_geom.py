"""Vector algebra, polygon validation and point classification."""

import dataclasses
import inspect
import io
import tokenize
import warnings

import numpy as np
import pytest

import sphbary as sb
from sphbary.errors import (
    DegenerateEdge,
    NotInHemisphere,
    SelfIntersecting,
    TooFewVertices,
    WrongOrientation,
    ZeroVector,
)
from sphbary.geom import (
    KINDS, Delaunay, HalfEdges, Ring, cross3, find_hemisphere_witness, half_edge_tables, locate_points, ring_rays,
    unit_row, unit_rows,
)
from sphbary.spherical import evaluate_batch

from conftest import SRC, count_calls, crossing_hexagon, random_rotation

E1, E2, E3 = np.eye(3)


class TestNormalize:
    def test_scaling(self):
        np.testing.assert_allclose(sb.normalize([2, 0, 0]), E1)

    def test_diagonal(self):
        np.testing.assert_allclose(sb.normalize([1, 1, 1]), np.full(3, 1 / np.sqrt(3)))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            sb.normalize([0.0, 0.0, 0.0])

    def test_idempotent(self, rng):
        for _ in range(50):
            v = rng.normal(size=3) * rng.uniform(0.1, 100)
            once = sb.normalize(v)
            assert np.max(np.abs(sb.normalize(once) - once)) <= 1e-15

    def test_overflowing_norm(self):
        # The squared norm of 1e308 (1, 1, 1) overflows; the direction does not.
        for v in ([1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.5, -0.25]):
            big = 1e308 * np.array(v)
            assert sb.normalize(big).tobytes() == sb.normalize(v).tobytes()
            assert unit_rows(big)[0].tobytes() == unit_rows(np.array(v))[0].tobytes()

    @pytest.mark.parametrize("v", [[np.inf, 1.0, 1.0], [0.0, -np.inf, 0.0], [np.nan, 0.0, 0.0], [np.inf, np.nan, 1.0]])
    def test_not_finite(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVector, match="not finite"):
                sb.normalize(v)
            X, short = unit_rows([v, [1.0, 2.0, 2.0]])
        assert short.tolist() == [True, False] and np.isnan(X[0]).all()
        assert X[1].tolist() == [1 / 3, 2 / 3, 2 / 3]

    @pytest.mark.parametrize("v", [np.arange(1.0, 7.0), [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], ids=["6", "2", "4"])
    def test_not_three_numbers(self, octant, v):
        # Refused, not read as the unit row of its first three numbers.
        for call in (sb.normalize, unit_row, lambda x: sb.locate_point(octant, x), lambda x: sb.build_q(octant, x),
                     lambda x: sb.gnomonic_project(octant, x), lambda x: sb.evaluate(octant, x, "NEW_MV")):
            with pytest.raises(ZeroVector, match=f"expected 3 numbers, got {np.size(v)}$"):
                call(v)

    def test_one_normalizer_bit_for_bit(self, monkeypatch, rng):
        # normalize, unit_row, validate_polygon and the x that build_q and
        # locate_point read are unit_rows rows, byte for byte, overflowing
        # rows included; the rows unit_rows cannot normalize are ZeroVector.
        rows = np.concatenate([rng.normal(size=(300, 3)) * rng.uniform(1e-3, 1e3, size=(300, 1)),
                               rng.uniform(0.2, 1.7, size=(20, 3)) * 1e308,
                               [[np.inf, 1.0, 1.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]]])
        X, short = unit_rows(rows)
        assert short.sum() == 4
        for v, unit, bad in zip(rows, X, short):
            if bad:
                with pytest.raises(ZeroVector):
                    sb.normalize(v)
                continue
            assert sb.normalize(v).tobytes() == unit.tobytes()
            assert unit_row(v)[0].tobytes() == unit.tobytes()

        polygon = sb.random_polygon(7, 0.9, seed=5)
        raw = polygon.vertices * np.array([1e308, 3.0, 0.25, 1e308, 7.5, 1.0, 1e-3])[:, None]
        assert sb.validate_polygon(raw).vertices.tobytes() == unit_rows(raw)[0].tobytes()
        located = []
        original = sb.geom.locate_points
        monkeypatch.setattr(sb.geom, "locate_points", lambda p, X: located.append(X) or original(p, X))
        for x in sb.interior_points(polygon, 5, rng) * np.array([1.0, 1e308, 3e-5, 7.0, 1e300])[:, None]:
            unit = unit_rows(x)[0]
            assert sb.build_q(polygon, x).X.tobytes() == unit.tobytes()
            sb.locate_point(polygon, x)
            assert located.pop().tobytes() == unit.tobytes()

    @pytest.mark.parametrize("n", [3, 64])
    def test_validate_polygon_normalizes_in_one_call(self, monkeypatch, n):
        ring = sb.random_polygon(n, 0.9, seed=n).vertices * 3.0
        calls = count_calls(monkeypatch, unit_rows)
        sb.validate_polygon(ring)
        assert calls[0] == 1


class TestAngleBetween:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (E1, E2, np.pi / 2),
            (E1, E1, 0.0),
            (E1, np.array([1, 1, 0]) / np.sqrt(2), np.pi / 4),
        ],
    )
    def test_analytic(self, a, b, expected):
        assert sb.angle_between(a, b) == pytest.approx(expected, abs=1e-15)

    def test_symmetry_and_rotation_invariance(self, rng):
        for _ in range(50):
            a = sb.normalize(rng.normal(size=3))
            b = sb.normalize(rng.normal(size=3))
            R = random_rotation(rng)
            assert sb.angle_between(a, b) == pytest.approx(sb.angle_between(b, a), abs=1e-13)
            assert sb.angle_between(R @ a, R @ b) == pytest.approx(sb.angle_between(a, b), abs=1e-12)

    def test_accurate_near_zero(self):
        b = sb.normalize([1.0, 1e-9, 0.0])
        assert sb.angle_between(E1, b) == pytest.approx(1e-9, rel=1e-6)


class TestTripleProduct:
    def test_right_handed_basis(self):
        assert sb.triple_product(E1, E2, E3) == 1.0

    def test_repeated_vector(self):
        assert sb.triple_product(E1, E1, E3) == 0.0

    def test_expansion(self):
        x = np.array([1, 1, 1]) / np.sqrt(3)
        assert sb.triple_product(E1, E2, x) == pytest.approx(1 / np.sqrt(3), abs=1e-15)


class TestValidatePolygon:
    def test_octant(self, octant):
        assert octant.n == 3
        assert octant.convex
        np.testing.assert_allclose(octant.witness, np.full(3, 1 / np.sqrt(3)), atol=1e-12)
        assert np.all(octant.vertices @ octant.witness > 0)

    def test_reversed_ring(self):
        with pytest.raises(WrongOrientation):
            sb.validate_polygon([E1, E3, E2])

    def test_antipodal_pair(self):
        with pytest.raises(NotInHemisphere):
            sb.validate_polygon([E1, -E1, E2])

    def test_duplicate_vertex(self):
        with pytest.raises(DegenerateEdge):
            sb.validate_polygon([E1, E1, E2])

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            sb.validate_polygon([E1, E2])

    def test_angle_band_below_half_the_shortest_edge(self):
        # Wider, the bands of neighbouring vertices overlap.
        quad = sb.demo_quadrilateral().vertices
        with pytest.raises(DegenerateEdge):
            sb.validate_polygon(quad, sb.Tolerances(geom=0.3))
        shortest = min(sb.geom.angle_between(a, b) for a, b in zip(quad, np.roll(quad, -1, axis=0)))
        assert sb.validate_polygon(quad, sb.Tolerances(geom=0.049 * shortest)).n == 4
        with pytest.raises(DegenerateEdge):
            sb.validate_polygon(quad, sb.Tolerances(geom=0.051 * shortest))

    def test_crossing_ring_rejected(self):
        ring = crossing_hexagon()
        for candidate in (ring, ring[::-1]):
            with pytest.raises(SelfIntersecting):
                sb.validate_polygon(candidate)

    @pytest.mark.parametrize("uv", [
        [(0, 0), (0.3, -0.1), (0.3, 0.1), (0, 0), (-0.3, 0.1), (-0.3, -0.1)],    # two triangles sharing vertex 0 = 3
        [(-0.3, 0), (0.3, 0), (0.3, 0.3), (0, 0), (-0.3, 0.3)],                  # vertex 3 on edge 0
    ], ids=["pinched", "T-touch"])
    def test_touching_ring_rejected(self, uv):
        # No two edges cross properly, but a vertex lies on the ring away
        # from its own edges; 1e-6 inside, it is simple.
        ring = np.column_stack([np.array(uv, dtype=float), np.ones(len(uv))])
        with pytest.raises(SelfIntersecting, match="vertex (0|3) lies within the band of (vertex 3|edge 0)"):
            sb.validate_polygon(ring)
        ring[3, 1] += 1e-6
        assert sb.validate_polygon(ring).n == len(uv)

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_pinched_ring_uses_the_vertex_band_of_locate_point(self, factor):
        # Vertex 3 at tol.angle * factor from vertex 0: touching iff
        # locate_point puts it in vertex 0's band.
        theta = sb.DEFAULT_TOL.angle * factor
        ring = np.column_stack([[0, 0.3, 0.3, 0, -0.3, -0.3], [0, -0.1, 0.1, 0, 0.1, -0.1], np.ones(6)])
        ring[3] = [0.0, np.sin(theta), np.cos(theta)]
        triangle = sb.validate_polygon(ring[:3])
        assert sb.geom.angle_between(triangle.vertices[0], sb.normalize(ring[3])) == pytest.approx(theta, rel=1e-6)
        touching = str(sb.locate_point(triangle, ring[3])) == "vertex(0)"
        assert touching == (factor < 1)
        if touching:
            with pytest.raises(SelfIntersecting, match="^vertex 0 lies within the band of vertex 3$"):
                sb.validate_polygon(ring)
        else:
            assert sb.validate_polygon(ring).n == 6

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_t_touch_uses_the_edge_band_of_locate_point(self, factor):
        # Vertex 3 at tol.geom * factor from edge 0: touching iff
        # locate_point puts it in edge 0's band.
        d = sb.DEFAULT_TOL.geom * factor
        ring = np.column_stack([[-0.3, 0.3, 0.3, 0, -0.3], [0, 0, 0.3, 0, 0.3], np.ones(5)])
        ring[3] = [0.0, np.sin(d), np.cos(d)]
        triangle = sb.validate_polygon(ring[:3])
        touching = str(sb.locate_point(triangle, ring[3])) == "edge(0)"
        assert touching == (factor < 1)
        if touching:
            with pytest.raises(SelfIntersecting, match="^vertex 3 lies within the band of edge 0$"):
                sb.validate_polygon(ring)
        else:
            assert sb.validate_polygon(ring).n == 5

    def test_touching_is_decided_before_orientation(self):
        # Vertex 2 is vertex 0: the pinched ring has zero area, and is
        # refused as not simple, not as clockwise.
        with pytest.raises(SelfIntersecting, match="^vertex 0 lies within the band of vertex 2$"):
            sb.validate_polygon([E1, E2, E1, E3])

    def test_records_compare_by_identity(self):
        # The records hold arrays: equality and hashing are by identity,
        # and neither raises.
        quad = sb.demo_quadrilateral().vertices
        a = sb.validate_polygon(quad)
        x = sb.interior_points(a, 1, np.random.default_rng(0))[0]
        for make in (lambda: sb.validate_polygon(quad), lambda: sb.build_q(a, x), lambda: sb.evaluate(a, x, "NEW_MV"),
                     lambda: sb.geom.locate_points(a, x)):
            one, other = make(), make()
            assert one != other and one == one and other == other
            assert len({one, other}) == 2

    def test_decided_on_the_sphere(self, monkeypatch):
        # Crossing, orientation and touching read the ring's own triple
        # products: validation projects nothing.
        counts = [count_calls(monkeypatch, f) for f in (sb.geom.gnomonic_images, sb.geom.tangent_frames)]
        quad = sb.demo_quadrilateral().vertices
        for ring in (quad, quad[::-1], crossing_hexagon(), np.array([E1, E2, E3, (E1 + E2) / 2])):
            try:
                sb.validate_polygon(ring)
            except (SelfIntersecting, WrongOrientation):
                pass
        assert [c[0] for c in counts] == [0, 0]

    @pytest.mark.parametrize("apex", [2e-5, 5e-5])
    def test_thin_triangle_is_simple(self, apex):
        # A 2e-6 rad base: each vertex lies about 2e-6 rad from the plane of
        # the edge it is not an end of, far outside the band tol.geom, while
        # the triple product, that distance times the edge's sine, is at
        # most tol.geom.
        ring = np.array([(-1e-6, 0.0, 1.0), (1e-6, 0.0, 1.0), (0.0, apex, 1.0)])
        polygon = sb.validate_polygon(ring)
        V = polygon.vertices
        assert min(abs(sb.triple_product(V[k], V[k - 2], V[k - 1])) for k in range(3)) <= polygon.tol.geom

    @pytest.mark.parametrize("row,why", [([0.0, 0.0, 0.0], "this short"), ([np.nan, 1.0, 0.0], "that is not finite")])
    def test_zero_vertex_named(self, row, why):
        with pytest.raises(ZeroVector, match=f"^vertex 1: cannot normalize a vector {why}$"):
            sb.validate_polygon([E1, row, E3])

    def test_nonconvex_flagged(self):
        polygon = sb.random_polygon(4, 0.9, seed=7, mode="nonconvex")
        assert not polygon.convex
        trips = [
            sb.triple_product(polygon.vertex(i), polygon.vertex(i + 1), polygon.vertex(i + 2))
            for i in range(polygon.n)
        ]
        assert min(trips) < -1e-9

    def test_witness_holds_on_random_corpus(self, rng):
        for k in range(25):
            polygon = sb.random_polygon(int(rng.integers(3, 13)), 1.0, seed=k)
            assert np.all(polygon.vertices @ polygon.witness > 0)


class TestWitnessSearch:
    def test_sum_fallback(self):
        # Clustered vertices plus one straggler: the vertex-sum direction
        # fails, the exact search still finds a witness.
        cluster = [sb.normalize([1.0, d, 0.0]) for d in (-0.02, 0.0, 0.02)]
        straggler = np.array([np.cos(1.74), np.sin(1.74), 0.0])   # ~99.7 degrees
        vertices = np.array(cluster * 3 + [straggler])
        s = sb.normalize(vertices.sum(axis=0))
        assert np.min(vertices @ s) <= 0.0
        w = find_hemisphere_witness(vertices)
        assert np.min(vertices @ w) > 0.0

    def test_repeated_vertex_raises_no_warning(self):
        # Two vertices 6e-11 apart make a triple's Cramer quotients +-inf;
        # the search skips that triple without a RuntimeWarning.  The
        # vertex q, twice, pulls the vertex sum off v_1, so the search runs.
        V = np.array([[0.5240543186347093, 0.33610892214468036, 0.7825585368360963],
                      [0.8939632681781616, -0.413478570137658, 0.17281535575618978],
                      [0.8939632681917039, -0.4134785701346866, 0.17281535569324483]])
        q = sb.normalize(0.3 * sb.normalize(V[0] + V[1]) - V[1])
        ring = np.concatenate([V, [q, q]])
        assert np.min(ring @ sb.normalize(ring.sum(axis=0))) <= 0.0
        w = find_hemisphere_witness(ring)
        assert np.all(ring @ w > 0.0)

    def test_no_witness_for_spread_ring(self):
        azim = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        equator = np.column_stack([np.cos(azim), np.sin(azim), np.zeros(6)])
        with pytest.raises(NotInHemisphere):
            find_hemisphere_witness(equator)


def dot(a, b) -> float:
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def min_norm_direction_loop(vertices):
    """Reference for the vectorised witness search: singles, pairs and
    triples in order, keeping a candidate only on strict improvement, with
    the dot products summed in the library's fixed order."""
    n = len(vertices)
    best_w, best_margin = None, -np.inf

    def consider(w):
        nonlocal best_w, best_margin
        nw = np.sqrt(dot(w, w))
        if nw <= 1e-14:
            return
        w = w / nw
        margin = min(dot(v, w) for v in vertices)
        if margin > best_margin:
            best_w, best_margin = w, margin

    for i in range(n):
        consider(vertices[i])
    for i in range(n):
        for j in range(i + 1, n):
            consider(vertices[i] + vertices[j])     # the chord's midpoint, scaled by 2
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = vertices[i], vertices[j], vertices[k]
                u, v = b - a, c - a
                g = np.array([[dot(u, u), dot(u, v)], [dot(u, v), dot(v, v)]])
                rhs = -np.array([dot(a, u), dot(a, v)])
                det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
                if abs(det) <= 1e-28:
                    continue
                s = (rhs[0] * g[1, 1] - rhs[1] * g[0, 1]) / det
                t = (rhs[1] * g[0, 0] - rhs[0] * g[1, 0]) / det
                if s > 0.0 and t > 0.0 and s + t < 1.0:
                    consider(a + s * u + t * v)
    return best_w, best_margin


def lopsided_star_ring(rng, n):
    """A star ring about the pole, most vertices bunched on one side and
    near the equator, so that the normalized vertex sum is no witness."""
    azimuth = np.sort(np.concatenate([rng.uniform(-0.6, 0.6, n - 1), [np.pi + rng.uniform(-0.3, 0.3)]]))
    polar = rng.uniform(1.35, 1.55, n)
    return np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])


class TestWitnessFallback:
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 20, 33, 64])
    def test_matches_the_loop(self, n):
        rng = np.random.default_rng(7000 + n)
        for _ in range(2 if n < 64 else 1):
            ring = lopsided_star_ring(rng, n)
            s = sb.normalize(ring.sum(axis=0))
            assert np.min(ring @ s) <= 0.0            # the fast path fails
            w = find_hemisphere_witness(ring)
            margin = float(np.min(sb.geom.dot3(ring, w)))
            w_loop, margin_loop = min_norm_direction_loop(ring)
            assert margin > 0.0
            assert np.max(np.abs(w - w_loop)) <= 1e-15
            assert abs(margin - margin_loop) <= 1e-15


def delaunay_loop(polygon) -> set:
    """The chord recursion one chord at a time, without the one-pass run
    of fan steps: the reference for SphericalPolygon.delaunay."""
    V, n, triangles, chords = polygon.vertices, polygon.n, set(), [(0, polygon.n - 1)]
    while chords:
        i, j = chords.pop()
        ahead = []
        for k in range(i + 1, j):
            normal = np.cross(V[k] - V[i], V[j] - V[i])
            band = polygon.tol.geom * np.linalg.norm(normal)
            ahead.append(all(dot(normal, V[l] - V[i]) <= band for l in range(i + 1, j)))
        k = i + 1 + ahead.index(True)
        triangles.add((i, k, j))
        chords += [c for c in ((i, k), (k, j)) if c[1] - c[0] > 1]
    return triangles


def crossed_delaunay(V, triangles) -> Delaunay:
    """The planes of the triangles (n-2, 3) of the ring V, their normals
    crossed from the triangles' corners."""
    a = V[triangles[:, 0]]
    return Delaunay.of(V, triangles, cross3(V[triangles[:, 1]] - a, V[triangles[:, 2]] - a))


def chord_triangulations(i: int, j: int) -> list:
    """Every triangulation of the chain i..j closed by the chord (i, j)
    that the chord recursion can build, one apex i < k < j per chord: the
    fans, the zig-zags and all the others."""
    if j - i < 2:
        return [[]]
    return [[(i, k, j)] + left + right for k in range(i + 1, j)
            for left in chord_triangulations(i, k) for right in chord_triangulations(k, j)]


def edge_connected(triangles: list) -> bool:
    """Whether the triangles form one set joined through shared edges."""
    if not triangles:
        return False
    reached, todo = {0}, [0]
    while todo:
        t = todo.pop()
        for u, other in enumerate(triangles):
            if u not in reached and len(set(triangles[t]) & set(other)) == 2:
                reached.add(u)
                todo.append(u)
    return len(reached) == len(triangles)


def delaunay_ring(rng, k: int, n: int):
    """Ring k of TestDelaunay, n vertices: a generic convex ring when k % 3
    is 0, else a cocircular one, with polar angles moved by 1e-12 ... 1e-6
    when k % 3 is 2."""
    if k % 3 == 0:
        return sb.random_polygon(n, float(rng.uniform(0.2, 1.5)), seed=int(rng.integers(0, 2**32)))
    azimuth = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, size=n)) / n
    jitter = rng.choice([0.0, 1e-12, 1e-10, 1e-8, 1e-6], size=n) if k % 3 == 2 else np.zeros(n)
    polar = float(rng.uniform(0.2, 1.5)) * (1 + jitter * rng.uniform(-1, 1, size=n))
    return sb.validate_polygon(np.column_stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]))


class TestDelaunay:
    def test_disc_count_and_outline(self):
        # For every triangulation of rings with n <= 9 and every set of seen
        # triangles: there are two more outline half-edges than seen
        # triangles exactly when the seen ones are one edge-connected set,
        # and then the outline joins the cavity's ring vertices in ring
        # order.  NEW_WC's kernel rests on this to build x's faces from the
        # outline without a twin search or a closed-surface check.
        for n in range(3, 10):
            azimuth = 2 * np.pi * np.arange(n) / n
            ring = np.column_stack([np.cos(azimuth), np.sin(azimuth), np.ones(n)]) / np.sqrt(2)
            masks = (np.arange(2 ** (n - 2))[:, None] >> np.arange(n - 2)) & 1 == 1
            seen = np.column_stack([masks, np.zeros(len(masks), bool)])
            for triangles in chord_triangulations(0, n - 1):
                table = half_edge_tables(ring, crossed_delaunay(ring, np.array(triangles)), sb.DEFAULT_TOL)
                outline = np.repeat(seen[:, :-1], 3, axis=1) & ~seen[:, table.across]
                disc = outline.sum(axis=1) == masks.sum(axis=1) + 2
                for mask, edges, is_disc in zip(masks, outline, disc):
                    cavity = [t for t, s in zip(triangles, mask) if s]
                    assert is_disc == edge_connected(cavity)
                    if is_disc:
                        corners = sorted({v for t in cavity for v in t})
                        assert sorted(zip(table.tail[edges], table.head[edges])) == list(
                            zip(corners, corners[1:] + corners[:1]))
            assert len(chord_triangulations(0, n - 1)) == [1, 1, 2, 5, 14, 42, 132, 429][n - 2]

    def test_matches_the_chord_recursion(self):
        # Generic convex rings, cocircular rings, and cocircular rings with
        # polar angles moved by 1e-12 ... 1e-6, where the tie rule decides.
        rng = np.random.default_rng(20261021)
        fans = 0
        for k in range(60):
            n = int(rng.integers(3, 40))
            polygon = delaunay_ring(rng, k, n)
            assert polygon.convex
            triangles = {tuple(t) for t in polygon.delaunay.triangles.tolist()}
            assert triangles == delaunay_loop(polygon)
            fans += triangles == {(i, i + 1, n - 1) for i in range(n - 2)}
        assert 0 < fans < 60

    def test_planes_from_the_apex_pass(self):
        # The planes each triangle keeps from the cross pass that chose it
        # are those crossed from the triangles, bit for bit, and so are the
        # half-edge tables built from them.
        rng = np.random.default_rng(20261020)
        for k in range(36):
            n = 3 if k < 3 else int(rng.integers(4, 40))
            polygon = delaunay_ring(rng, k, n)
            d = polygon.delaunay
            reference = crossed_delaunay(polygon.vertices, d.triangles)
            for name in Delaunay._fields:
                assert getattr(d, name).tobytes() == getattr(reference, name).tobytes(), (k, name)
            tables = half_edge_tables(polygon.vertices, reference, polygon.tol)
            for name in HalfEdges._fields:
                assert getattr(polygon.half_edges, name).tobytes() == getattr(tables, name).tobytes(), (k, name)


class TestLocatePoint:
    def test_interior(self, octant):
        assert sb.locate_point(octant, sb.normalize([1, 1, 1])).kind == "interior"

    def test_edge_midpoint(self, octant):
        loc = sb.locate_point(octant, sb.normalize([1, 1, 0]))
        assert loc.kind == "edge"
        assert loc.index == 0
        assert loc.a == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert loc.b == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_vertex(self, octant):
        loc = sb.locate_point(octant, E1)
        assert (loc.kind, loc.index) == ("vertex", 0)

    def test_antipode_of_interior(self, octant):
        assert sb.locate_point(octant, -sb.normalize([1, 1, 1])).kind == "exterior"

    def test_vertices_classified_everywhere(self, rng):
        for k in range(10):
            polygon = sb.random_polygon(int(rng.integers(3, 10)), 0.9, seed=100 + k)
            for j in range(polygon.n):
                loc = sb.locate_point(polygon, polygon.vertex(j))
                assert (loc.kind, loc.index) == ("vertex", j)

    def test_rotation_invariance(self, rng):
        polygon = sb.random_polygon(6, 0.8, seed=3)
        x = sb.interior_points(polygon, 1, rng)[0]
        for _ in range(10):
            R = random_rotation(rng)
            rotated = sb.validate_polygon(polygon.vertices @ R.T)
            assert sb.locate_point(rotated, R @ x).kind == "interior"

    def test_edge_coefficients_reconstruct(self, rng):
        for k in range(10):
            polygon = sb.random_polygon(5, 1.0, seed=200 + k)
            j = int(rng.integers(polygon.n))
            vj, vk = polygon.edge(j)
            t = rng.uniform(0.15, 0.85)
            length = sb.angle_between(vj, vk)
            x = (np.sin((1 - t) * length) * vj + np.sin(t * length) * vk) / np.sin(length)
            loc = sb.locate_point(polygon, x)
            assert loc.kind == "edge" and loc.index == j
            assert np.linalg.norm(loc.a * vj + loc.b * vk - x) <= 1e-10
            assert loc.a + loc.b >= 1.0 - 1e-12

    def test_point_near_edge_is_interior(self, octant):
        # 1e-5 inside the first edge: must never be classified on-edge.
        mid = sb.normalize([1, 1, 0])
        pole = sb.normalize(np.cross(E1, E2))
        x = np.cos(1e-5) * mid + np.sin(1e-5) * pole
        assert sb.locate_point(octant, x).kind == "interior"

    def test_classifies_what_evaluate_classifies(self, rng):
        # Directions 1e-10 inside an edge, as given (near unit, and scaled):
        # locate_point normalizes them as evaluate does, so both agree.
        for k in range(20):
            polygon = sb.random_polygon(int(rng.integers(3, 12)), 1.0, seed=300 + k)
            poles = polygon.edge_normals / polygon.edge_sines[:, None]
            for j in range(polygon.n):
                vj, vk = polygon.edge(j)
                t, length = rng.uniform(0.25, 0.75), sb.angle_between(vj, vk)
                foot = (np.sin((1 - t) * length) * vj + np.sin(t * length) * vk) / np.sin(length)
                x = np.cos(1e-10) * foot + np.sin(1e-10) * poles[j]
                for scale in (1.0, 2.5):
                    located = evaluate_batch(polygon, scale * x, "CC_MV").locations.at(0)
                    assert sb.locate_point(polygon, scale * x) == located

    @pytest.mark.parametrize("d", [1.5e-9, 3e-9, 1e-8, 2e-8])
    def test_rows_in_the_band_of_one_of_two_close_vertices(self, d):
        # A valid ring whose vertices 0 and 3 lie d, a few tol.angle, apart:
        # the cosines of the two vertices at a row within tol.angle of
        # either round alike, so the nearest cosine does not tell which
        # band holds it.  Each row is located at a vertex whose band holds
        # it (the lower index where both do), where the NEW_* methods give
        # its Kronecker delta and the CC_* methods refuse it.
        rng = np.random.default_rng(int(d * 1e12))
        polygon = sb.validate_polygon(pinched_hexagon(d) @ random_rotation(rng).T)
        V, band = polygon.vertices, polygon.tol.angle
        X = []
        for k in np.repeat([0, 3], 50):
            tangent = sb.normalize(cross3(V[k], rng.normal(size=3)))
            theta = rng.uniform(0.05, 0.95) * band
            X.append(np.cos(theta) * V[k] + np.sin(theta) * tangent)
        X = unit_rows(np.array(X))[0]
        located = locate_points(polygon, X)
        for x, kind, k in zip(X, located.kind, located.index):
            assert KINDS[kind] == "vertex" and sb.angle_between(x, V[k]) <= band
        for method in sb.METHODS:
            batch = evaluate_batch(polygon, X, method)
            if method.startswith("NEW_"):
                assert batch.errors == [None] * len(X)
                assert np.array_equal(batch.values, np.eye(6)[located.index]), method
            else:
                assert {e.name for e in batch.errors} == {"OriginOnBoundary"}

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    @pytest.mark.parametrize("d", [1.5e-9, 3e-9, 1e-8, 2e-8])
    def test_close_vertices_band_agrees_with_validation(self, d, factor):
        # y at tol.angle * factor from vertex 3 of the ring above towards
        # -x, outside vertex 0's band: located at vertex 3 iff the ring with
        # vertex 0 moved to y is refused as touching there.
        R = random_rotation(np.random.default_rng(int(d * 1e12)))
        ring = pinched_hexagon(d)
        polygon = sb.validate_polygon(ring @ R.T)
        theta = sb.DEFAULT_TOL.angle * factor
        ring[0] = np.cos(theta) * ring[3] - np.sin(theta) * E1
        ring = ring @ R.T
        assert sb.angle_between(polygon.vertices[3], ring[0]) == pytest.approx(theta, rel=1e-6)
        touching = str(sb.locate_point(polygon, ring[0])) == "vertex(3)"
        assert touching == (factor < 1)
        if touching:
            with pytest.raises(SelfIntersecting, match="^vertex 0 lies within the band of vertex 3$"):
                sb.validate_polygon(ring)
        else:
            assert sb.validate_polygon(ring).n == 6

    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0], [np.nan, 0.0, 1.0]])
    def test_direction_that_cannot_be_normalized(self, octant, x):
        with pytest.raises(ZeroVector):
            sb.locate_point(octant, x)


def pinched_hexagon(d: float) -> np.ndarray:
    """The pinched hexagon of test_touching_ring_rejected with vertex 3 at
    the angle d from vertex 0 towards +y, as unit rows: valid for d above
    tol.angle."""
    ring = np.column_stack([[0, 0.3, 0.3, 0, -0.3, -0.3], [0, -0.1, 0.1, 0, 0.1, -0.1], np.ones(6)])
    ring[3] = [0.0, np.sin(d), np.cos(d)]
    return unit_rows(ring)[0]


def test_winding_angle_signs(octant):
    """The winding locate_points takes, the sum of the rays' alpha =
    arctan2(tau, d) about x: 2 pi inside an anti-clockwise ring, -2 pi for
    the reversed ring, 0 outside."""
    def winding(V, x):
        rays = ring_rays(Ring(V), sb.normalize(x)[None])
        return float(np.arctan2(rays.tau, rays.d).sum())

    inner = [1, 1, 1]
    assert winding(octant.vertices, inner) == pytest.approx(2 * np.pi, abs=1e-12)
    assert winding(octant.vertices[::-1], inner) == pytest.approx(-2 * np.pi, abs=1e-12)
    assert abs(winding(octant.vertices, [-1, -1, 1])) <= 1e-9


def test_one_band_carried_by_the_polygon():
    """Tolerances has one settable field, and no public function that takes
    a validated polygon or polyhedron takes a band of its own."""
    assert [f.name for f in dataclasses.fields(sb.Tolerances)] == ["geom"]
    assert sb.DEFAULT_TOL.angle == 1e-9 and sb.Tolerances(geom=1e-8).angle == 10.0 * 1e-8
    carriers = 0
    for name in sb.__all__:
        obj = getattr(sb, name)
        params = list(inspect.signature(obj).parameters.values()) if inspect.isfunction(obj) else []
        if params and params[0].annotation in ("SphericalPolygon", "PolyhedronQ"):
            carriers += 1
            assert "tol" not in [p.name for p in params], name
    assert carriers >= 13


@pytest.mark.parametrize("geom", [0.0, -1e-10, np.nan, np.inf])
def test_band_must_be_positive_and_finite(geom):
    """A band of 0, -1e-10 or NaN once validated the octant and then
    located its centroid exterior; no polygon carries such a band."""
    with pytest.raises(ValueError, match="positive, finite"):
        sb.Tolerances(geom=geom)


def test_row_algebra_goes_through_dot3_cross3_unit_rows():
    """No np.cross, np.linalg.norm, np.dot or matmul in the geometry
    modules: a row's bits must depend neither on BLAS nor on its batch."""
    banned = ("np.cross(", "np.linalg.norm(", "np.dot(")
    for name in ("geom.py", "tangent.py", "polyhedron.py"):
        source = (SRC / "sphbary" / name).read_text()
        lines, statement_start = {}, True
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                statement_start = True
            elif tok.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING):
                code = "" if tok.type == tokenize.STRING else tok.string
                if tok.string in ("@", "@=") and not (tok.string == "@" and statement_start):
                    code = "<matmul>"                  # a decorator's @ opens a statement
                lines[tok.start[0]] = lines.get(tok.start[0], "") + code
                statement_start = False
        for number, code in lines.items():
            assert not any(b in code for b in banned + ("<matmul>",)), f"{name}:{number}: {code}"
