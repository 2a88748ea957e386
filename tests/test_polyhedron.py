"""Polyhedron assembly and the two 3D weight backends."""

import numpy as np
import pytest

import sphbary as sb
from sphbary.errors import (
    DegenerateTriangle,
    FaceThroughPoint,
    KernelViolation,
    NotConvex,
    NotInterior,
    PointOnVertexOrAntipode,
    SphBaryError,
)
from sphbary.polyhedron import PolyhedronQ, build_ring_q, is_convex

from conftest import random_rotation

CENTER = sb.normalize([1, 1, 1])


@pytest.fixture(scope="module")
def octant_q():
    return sb.build_q(sb.octant_triangle(), CENTER)


class TestBuildQ:
    def test_octant_shape(self, octant_q):
        assert octant_q.vertices.shape == (5, 3)
        assert octant_q.faces.shape == (6, 3)
        assert octant_q.kernel_ok

    def test_incidence_counts(self, rng):
        polygon = sb.random_polygon(7, 0.9, seed=11)
        x = sb.interior_points(polygon, 1, rng)[0]
        q = sb.build_q(polygon, x)
        n = polygon.n
        counts = np.bincount(q.faces.ravel(), minlength=n + 2)
        assert np.all(counts[:n] == 4)
        assert counts[n] == n and counts[n + 1] == n

    def test_closed_oriented_manifold(self, octant_q):
        directed = set()
        for face in octant_q.faces:
            for r in range(3):
                edge = (int(face[r]), int(face[(r + 1) % 3]))
                assert edge not in directed
                directed.add(edge)
        assert all((b, a) in directed for (a, b) in directed)

    def test_outward_normals(self, octant_q):
        normals = octant_q.face_normals()
        anchors = octant_q.vertices[octant_q.faces[:, 0]]
        assert np.all(np.einsum("ij,ij->i", normals, anchors) > 0)

    def test_x_on_vertex_rejected(self):
        with pytest.raises(PointOnVertexOrAntipode):
            sb.build_q(sb.octant_triangle(), [1, 0, 0])

    def test_exterior_rejected(self):
        with pytest.raises(NotInterior):
            sb.build_q(sb.octant_triangle(), sb.normalize([-1, -1, -1]))

    def test_open_surface_rejected(self, octant_q):
        q = PolyhedronQ(vertices=octant_q.vertices.copy(), faces=octant_q.faces[1:].copy(),
                        kernel_ok=True)
        with pytest.raises(DegenerateTriangle):
            is_convex(q)


class TestHull:
    def test_matches_scipy_convex_hull(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(20261017)
        cases = [(3, 1.5), (64, 1.5), (64, 0.2)]
        cases += [(int(rng.integers(3, 65)), float(rng.uniform(0.2, 1.5))) for _ in range(37)]
        fan_differs = 0
        for n, rho in cases:
            polygon = sb.random_polygon(n, rho, seed=int(rng.integers(0, 2**32)))
            x = sb.interior_points(polygon, 1, rng)[0]
            q = sb.build_q(polygon, x, hull=True)
            assert q.kernel_ok and is_convex(q)
            expected = {tuple(sorted(f)) for f in spatial.ConvexHull(q.vertices).simplices.tolist()}
            assert {tuple(sorted(f)) for f in q.faces.tolist()} == expected
            assert np.all(sb.wachspress_weights(q) > 0)
            fan_differs += not is_convex(sb.build_q(polygon, x))
        assert fan_differs > 0   # the flips really change the triangulation


class TestMeanValueWeights:
    def test_octant_symmetry(self, octant_q):
        w = sb.mv_weights(octant_q)
        assert w[0] == pytest.approx(w[1], abs=1e-12)
        assert w[1] == pytest.approx(w[2], abs=1e-12)

    def test_octant_linear_precision(self, octant_q):
        w = sb.mv_weights(octant_q)
        assert np.linalg.norm(w @ octant_q.vertices) <= 1e-10

    def test_matches_closed_form_weights(self, octant_q):
        # Ring weights computed two independent ways: per-face angle sums
        # versus the trigonometric closed form.
        w = sb.mv_weights(octant_q)
        omega, denom = sb.closed_form_mv_weights(sb.octant_triangle(), CENTER)
        np.testing.assert_allclose(w[:3], omega, atol=1e-9)
        assert w[4] - w[3] == pytest.approx(denom, abs=1e-9)

    def test_kernel_gate(self, octant_q):
        bad = PolyhedronQ(
            vertices=octant_q.vertices.copy(),
            faces=octant_q.faces.copy(),
            kernel_ok=False,
        )
        with pytest.raises(KernelViolation):
            sb.mv_weights(bad)

    def test_degenerate_face_guard(self):
        # A face with two collinear rays from the evaluation point.
        vertices = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
        q = PolyhedronQ(vertices=vertices, faces=faces, kernel_ok=True)
        with pytest.raises(DegenerateTriangle):
            sb.mv_weights(q)

    def test_linear_precision_random(self, rng):
        for k in range(30):
            polygon = sb.random_polygon(int(rng.integers(3, 13)), 1.0, seed=300 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            q = sb.build_q(polygon, x)
            w = sb.mv_weights(q)
            assert np.linalg.norm(w @ q.vertices) <= 1e-9

    def test_movable_evaluation_point(self, octant_q):
        at = np.array([0.05, -0.02, 0.04])
        w = sb.mv_weights(octant_q, at=at)
        assert np.linalg.norm(w @ (octant_q.vertices - at)) <= 1e-9
        outside = 1.2 * sb.normalize([1, 1, 1])
        with pytest.raises(KernelViolation):
            sb.mv_weights(octant_q, at=outside)


def regular_tetrahedron() -> PolyhedronQ:
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return PolyhedronQ(vertices=vertices, faces=faces, kernel_ok=True)


class TestWachspressWeights:
    def test_tetrahedron_symmetry(self):
        w = sb.wachspress_weights(regular_tetrahedron())
        assert np.all(w > 0)
        np.testing.assert_allclose(w, w[0], rtol=1e-12)

    def test_octant_linear_precision(self, octant_q):
        w = sb.wachspress_weights(octant_q)
        assert np.all(w > 0)
        assert np.linalg.norm(w @ octant_q.vertices) <= 1e-10

    def test_nonconvex_polyhedron_rejected(self, rng):
        polygon = sb.random_polygon(4, 0.9, seed=7, mode="nonconvex")
        x = sb.interior_points(polygon, 1, rng)[0]
        q = sb.build_q(polygon, x)
        assert not is_convex(q)
        with pytest.raises(NotConvex):
            sb.wachspress_weights(q)

    def test_relaxed_mode_keeps_linear_precision(self, rng):
        # The polar-dual identity sum(w_p p) = 0 survives without convexity.
        hit = 0
        for k in range(40):
            polygon = sb.random_polygon(int(rng.integers(4, 13)), 1.0, seed=400 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            q = sb.build_q(polygon, x)
            w = sb.wachspress_weights(q, require_convex=False)
            assert np.linalg.norm(w @ q.vertices) / abs(w.sum()) <= 1e-10
            if not is_convex(q):
                hit += 1
        assert hit > 0   # the sample really exercises non-convex polyhedra


class TestCoordsAtOrigin:
    def test_partition_of_unity(self, octant_q):
        for backend in ("MV", "WC"):
            phi = sb.coords_at_origin(octant_q, backend)
            assert abs(phi.sum() - 1.0) <= 1e-12

    def test_origin_reproduced(self, octant_q):
        for backend in ("MV", "WC"):
            phi = sb.coords_at_origin(octant_q, backend)
            assert np.linalg.norm(phi @ octant_q.vertices) <= 1e-9

    def test_positive_on_convex(self, octant_q):
        phi = sb.coords_at_origin(octant_q, "WC")
        assert np.all(phi > 0)

    def test_rotation_equivariance(self, rng):
        polygon = sb.random_polygon(6, 1.0, seed=5)
        x = sb.interior_points(polygon, 1, rng)[0]
        phi = sb.coords_at_origin(sb.build_q(polygon, x), "MV")
        for _ in range(5):
            R = random_rotation(rng)
            rotated = sb.validate_polygon(polygon.vertices @ R.T)
            phi_r = sb.coords_at_origin(sb.build_q(rotated, R @ x), "MV")
            np.testing.assert_allclose(phi_r, phi, atol=1e-9)

    def test_facet_restriction_limit(self):
        # As x drifts toward an edge, the 3D coordinates of the origin
        # concentrate on that edge's vertices and the antipode.
        polygon = sb.random_polygon(6, 1.0, seed=21)
        j = 2
        vj, vk = polygon.edge(j)
        length = sb.angle_between(vj, vk)
        mid = (np.sin(0.5 * length) * vj + np.sin(0.5 * length) * vk) / np.sin(length)
        pole = sb.normalize(np.cross(vj, vk))
        others_prev = None
        n = polygon.n
        keep = {j, (j + 1) % n, n + 1}
        for t in (1e-3, 1e-4, 1e-5):
            x = np.cos(t) * mid + np.sin(t) * pole
            phi = sb.coords_at_origin(sb.build_q(polygon, x), "MV")
            others = max(phi[i] for i in range(n + 2) if i not in keep)
            if others_prev is not None:
                assert others <= 0.5 * others_prev    # clearly decaying with t
            others_prev = others
        assert others_prev <= 1e-3


def test_build_ring_q_skips_validation():
    ring, x = sb.great_circle_ring()
    q = build_ring_q(ring, x)
    assert q.kernel_ok
    assert q.faces.shape == (10, 3)


# --------------------------------------------------------------------------
# reference: the polar-dual weights one polyhedron at a time
# --------------------------------------------------------------------------

def twin_loop(q: PolyhedronQ) -> np.ndarray:
    """Directed-edge table (F, 3): twin[f, r] = 3 g + s when edge s of face
    g runs the other way to edge r of face f."""
    F = q.faces
    m = len(q.vertices)
    tail = F.ravel()
    head = np.roll(F, -1, axis=1).ravel()
    key = tail * m + head
    reverse = head * m + tail
    order = np.argsort(key)
    ordered = key[order]
    pos = np.minimum(np.searchsorted(ordered, reverse), len(key) - 1)
    if np.any(ordered[1:] == ordered[:-1]) or np.any(ordered[pos] != reverse):
        raise DegenerateTriangle("faces do not form a closed oriented surface")
    return order[pos].reshape(F.shape)


def face_normals_loop(q: PolyhedronQ) -> np.ndarray:
    a, b, c = (q.vertices[q.faces[:, k]] for k in range(3))
    nrm = np.cross(b - a, c - a)
    return nrm / np.linalg.norm(nrm, axis=1)[:, None]


def is_convex_loop(q: PolyhedronQ, tol=sb.DEFAULT_TOL) -> bool:
    V, F = q.vertices, q.faces
    normals = face_normals_loop(q)
    apex = np.roll(F, -2, axis=1).ravel()
    across = apex[twin_loop(q).ravel()]
    own = np.repeat(np.arange(len(F)), 3)
    height = np.einsum("ij,ij->i", normals[own], V[across] - V[F[own, 0]])
    return bool(np.all(height <= tol.geom))


def wachspress_weights_loop(q: PolyhedronQ, tol=sb.DEFAULT_TOL, require_convex=True) -> np.ndarray:
    V, F = q.vertices, q.faces
    normals = face_normals_loop(q)
    offsets = np.einsum("ij,ij->i", normals, V[F[:, 0]])
    if np.any(offsets <= tol.unit):
        raise FaceThroughPoint("a face plane passes through the evaluation point")
    if require_convex and not is_convex_loop(q, tol):
        raise NotConvex("polyhedron has a reflex dihedral angle")
    dual = normals / offsets[:, None]
    own = np.repeat(np.arange(len(F)), 3)
    area = np.zeros((len(V), 3))
    np.add.at(area, F.ravel(), np.cross(dual[twin_loop(q).ravel() // 3], dual[own]))
    return np.einsum("ij,ij->i", V, area) / np.einsum("ij,ij->i", V, V)


def jittered_ring(rng, n: int, cap: float, star: bool):
    """n vertices at jittered, evenly spaced azimuths about the north pole:
    on the circle of polar angle cap (convex), or at random polar angles in
    [0.35 cap, cap] (usually non-convex)."""
    azimuth = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, size=n)) / n
    polar = cap * (rng.uniform(0.35, 1.0, size=n) if star else np.ones(n))
    return sb.validate_polygon(np.column_stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]))


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except SphBaryError as exc:
        return exc.name


class TestPolarDualReference:
    def test_batched_kernel_matches_one_polyhedron_code(self):
        # Fan and hull, strict and relaxed, on convex and non-convex rings
        # with n 3..64 and caps up to 1.5: the same convexity verdict, the
        # same error tag, and weights equal up to float64 roundoff.  (Over
        # a non-convex ring the edge flips need not reach a closed surface;
        # both then raise DegenerateTriangle.)
        rng = np.random.default_rng(20261018)
        tags, convex, compared = set(), 0, 0
        for k in range(80):
            polygon = jittered_ring(rng, int(rng.integers(3, 65)), float(rng.uniform(0.2, 1.5)), k % 2 == 1)
            x = sb.interior_points(polygon, 1, rng)[0]
            for hull in (False, True):
                q = sb.build_q(polygon, x, hull=hull)
                verdict = outcome(is_convex, q)
                assert verdict == outcome(is_convex_loop, q)
                convex += verdict is True
                tags.add(verdict)
                for strict in (False, True):
                    expected = outcome(wachspress_weights_loop, q, require_convex=strict)
                    got = outcome(sb.wachspress_weights, q, require_convex=strict)
                    if isinstance(expected, str) or isinstance(got, str):
                        assert got == expected
                        tags.add(got)
                        continue
                    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
                    compared += 1
        assert compared > 200 and 0 < convex < 160
        assert {"NotConvex", "FaceThroughPoint", "DegenerateTriangle"} <= tags

    def test_open_surface_rejected_by_both(self, octant_q):
        q = PolyhedronQ(vertices=octant_q.vertices.copy(), faces=octant_q.faces[1:].copy(), kernel_ok=True)
        for strict in (False, True):
            assert outcome(sb.wachspress_weights, q, require_convex=strict) == "DegenerateTriangle"
            assert outcome(wachspress_weights_loop, q, require_convex=strict) == "DegenerateTriangle"
