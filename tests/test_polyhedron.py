"""Polyhedron assembly and the two 3D weight backends, against references
that sum the weights face by face."""

from types import SimpleNamespace

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
from sphbary.geom import UNIT
from sphbary.polyhedron import build_ring_q, fan_faces, is_convex, normalized_weights

from conftest import count_calls, jittered_ring, mp_mean_value, near_vertex_corpus, random_rotation

CENTER = sb.normalize([1, 1, 1])


@pytest.fixture(scope="module")
def octant_q():
    return sb.build_q(sb.octant_triangle(), CENTER)


class TestBuildQ:
    def test_octant_shape(self, octant_q):
        assert octant_q.vertices.shape == (5, 3)
        assert octant_q.faces.shape == (6, 3)
        assert kernel_ok_loop(octant_q)

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
        normals = face_normals_loop(octant_q)
        anchors = octant_q.vertices[octant_q.faces[:, 0]]
        assert np.all(np.einsum("ij,ij->i", normals, anchors) > 0)

    def test_x_on_vertex_rejected(self):
        with pytest.raises(PointOnVertexOrAntipode):
            sb.build_q(sb.octant_triangle(), [1, 0, 0])

    def test_exterior_rejected(self):
        with pytest.raises(NotInterior):
            sb.build_q(sb.octant_triangle(), sb.normalize([-1, -1, -1]))

    def test_ring_x_and_band(self, octant_q):
        assert octant_q.n == 3 and octant_q.tol is sb.DEFAULT_TOL
        np.testing.assert_array_equal(octant_q.x, CENTER)


@pytest.mark.parametrize("backend", ["MV", "WC"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_x_or_its_antipode_on_a_vertex_of_the_raw_ring(sign, backend):
    # The fan kernels' own vertex check: the raw ring skips point location.
    quad = sb.demo_quadrilateral().vertices
    with pytest.raises(PointOnVertexOrAntipode, match="x or -x coincides with vertex 0"):
        sb.origin_coords_on_ring(quad, sign * quad[0], backend)


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
            assert kernel_ok_loop(q) and is_convex(q)
            expected = {tuple(sorted(f)) for f in spatial.ConvexHull(q.vertices).simplices.tolist()}
            assert {tuple(sorted(f)) for f in q.faces.tolist()} == expected
            assert np.all(sb.wachspress_weights(q) > 0)
            fan_differs += not is_convex(sb.build_q(polygon, x))
        assert fan_differs > 0   # the flips really change the triangulation

    def test_cocircular_ring_gives_the_fan(self):
        # All vertices on one small circle, the convex shape of the
        # benchmark's rings: the ring's triangles share one plane, so the
        # chord recursion decides every apex by its tie rule, and an
        # interior x lies in front of all of them.  The hull is the fan.
        rng = np.random.default_rng(20261019)
        for n in (3, 4, 5, 8, 12, 31, 48, 64):
            polygon = jittered_ring(rng, n, float(rng.uniform(0.2, 1.55)), star=False)
            assert polygon.convex
            for x in sb.interior_points(polygon, 5, rng):
                assert face_set(sb.build_q(polygon, x, hull=True).faces) == face_set(fan_faces(n))

    def test_lower_fan_is_on_the_hull(self):
        # The hull keeps the lower fan (-x, v_{i+1}, v_i) as it is, for x
        # inside a generic convex ring and for x within 1e-4 ... 1e-12 of
        # an edge, against scipy's hull of the same n+2 points.
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(20261020)
        for _ in range(16):
            polygon = sb.random_polygon(int(rng.integers(3, 65)), float(rng.uniform(0.2, 1.55)),
                                        seed=int(rng.integers(0, 2**32)))
            n = polygon.n
            xs = list(sb.interior_points(polygon, 3, rng))
            for gap in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                vj, vk = polygon.edge(int(rng.integers(n)))
                foot = sb.normalize(rng.uniform(0.2, 0.8) * vj + rng.uniform(0.2, 0.8) * vk)
                xs.append(np.cos(gap) * foot + np.sin(gap) * sb.normalize(np.cross(vj, vk)))
            for x in xs:
                hull = spatial.ConvexHull(np.vstack([polygon.vertices, x, -x]))
                assert {tuple(sorted(f)) for f in fan_faces(n)[n:].tolist()} <= {
                    tuple(sorted(f)) for f in hull.simplices.tolist()}


def test_hull_faces_are_built_when_read(monkeypatch):
    # build_q(hull=True) leaves the hull's faces to their first read, so
    # the polyhedron's polar-dual weights find x's cavity once, in their
    # kernel; the faces, when read, find it once more and are kept.
    cavities = count_calls(monkeypatch, sb.polyhedron.hull_cavity)
    q = sb.build_q(sb.demo_quadrilateral(), [0.0, 0.0, 1.0], hull=True)
    sb.wachspress_weights(q)
    assert cavities[0] == 1
    assert q.faces is q.faces and not q.faces.flags.writeable
    assert cavities[0] == 2


def face_set(faces) -> set:
    """Oriented faces as a set, each rotated to start at its lowest index."""
    return {tuple(np.roll(f, -int(np.argmin(f)))) for f in np.asarray(faces).tolist()}


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

    def test_linear_precision_random(self, rng):
        for k in range(30):
            polygon = sb.random_polygon(int(rng.integers(3, 13)), 1.0, seed=300 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            q = sb.build_q(polygon, x)
            w = sb.mv_weights(q)
            assert np.linalg.norm(w @ q.vertices) <= 1e-9


class TestWachspressWeights:
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

    def test_memory_grows_linearly_with_vertices(self):
        # A bipyramid over a regular 5000-gon: an (N, N) table would take
        # 200 MB, the kernel's (1, n) arrays take a few hundred kB.
        import tracemalloc

        n = 5000
        t = 2 * np.pi * np.arange(n) / n
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
        q = build_ring_q(ring, [0.0, 0.0, 1.0])
        tracemalloc.start()
        try:
            assert is_convex(q)
            w = sb.wachspress_weights(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert np.all(w > 0) and np.linalg.norm(w @ q.vertices) <= 1e-10 * w.sum()


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

    def test_nan_weight_sum_is_refused(self):
        # NaN is not a positive sum: its row gets KernelViolation, the other
        # rows of the block are normalized as they are alone.
        w = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, np.nan, 3.0, 4.0, 5.0], [0.5, 0.25, 2.0, 1.0, 3.0]])
        errors = [None] * 3
        phi = normalized_weights(w, errors)
        assert isinstance(errors[1], KernelViolation) and errors[0] is None and errors[2] is None
        for r in (0, 2):
            np.testing.assert_array_equal(phi[r], normalized_weights(w[r:r + 1], [None])[0])
            np.testing.assert_array_equal(phi[r], w[r] / w[r].sum())

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
    assert kernel_ok_loop(q)
    assert q.faces.shape == (10, 3)


# --------------------------------------------------------------------------
# references: the weights of one polyhedron face by face, from any object
# with its vertices (N, 3) and faces (F, 3)
# --------------------------------------------------------------------------

def polyhedron_over(polygon, x, faces) -> SimpleNamespace:
    """[v_1..v_n, x, -x] with the given faces, as it is, without locating
    x; PointOnVertexOrAntipode where x or -x lies within the polygon's
    angle band of a vertex."""
    theta = np.arctan2(np.linalg.norm(np.cross(x, polygon.vertices), axis=1), polygon.vertices @ x)
    near = (theta <= polygon.tol.angle) | (theta >= np.pi - polygon.tol.angle)
    if near.any():
        raise PointOnVertexOrAntipode(f"x or -x coincides with vertex {int(np.argmax(near))}")
    return SimpleNamespace(vertices=np.vstack([polygon.vertices, x, -x]), faces=np.asarray(faces))


def twin_loop(q) -> np.ndarray:
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


def face_normals_loop(q) -> np.ndarray:
    a, b, c = (q.vertices[q.faces[:, k]] for k in range(3))
    nrm = np.cross(b - a, c - a)
    return nrm / np.linalg.norm(nrm, axis=1)[:, None]


def kernel_ok_loop(q, tol=sb.DEFAULT_TOL) -> bool:
    """The origin-in-kernel certificate: every face plane lies more than
    the band from the origin."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return bool(np.all(np.einsum("ij,ij->i", face_normals_loop(q), q.vertices[q.faces[:, 0]]) > tol.geom))


def mv_weights_loop(q) -> np.ndarray:
    """Mean value weights of the origin: for each face (i, j, k) the
    contribution to its vertex i is

        mu = (b_jk + b_ij <n_ij, n_jk> + b_ki <n_ki, n_jk>) / (2 <e_i, n_jk>)

    with e_i the unit vector to vertex i, b_rs the angle between e_r and e_s
    and n_rs the unit normal of span(e_r, e_s); a vertex sums its mu over
    its faces and divides by its distance."""
    V, F = q.vertices, q.faces
    r = np.linalg.norm(V, axis=1)
    e = [(V / r[:, None])[F[:, s]] for s in range(3)]
    cross = [np.cross(e[s], e[(s + 1) % 3]) for s in range(3)]
    size = [np.linalg.norm(c, axis=1) for c in cross]
    if any(np.any(length <= UNIT) for length in size):
        raise DegenerateTriangle("two rays of a face are collinear")
    n = [c / length[:, None] for c, length in zip(cross, size)]
    b = [np.arctan2(size[s], np.einsum("ij,ij->i", e[s], e[(s + 1) % 3])) for s in range(3)]
    w = np.zeros(len(V))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        denom = 2.0 * np.einsum("ij,ij->i", e[i], n[j])
        if np.any(np.abs(denom) <= UNIT):
            raise DegenerateTriangle("face is flat as seen from the evaluation point")
        mu = (b[j] + b[i] * np.einsum("ij,ij->i", n[i], n[j]) + b[k] * np.einsum("ij,ij->i", n[k], n[j])) / denom
        w += np.bincount(F[:, i], mu, len(V))
    return w / r


def is_convex_loop(q, tol=sb.DEFAULT_TOL) -> bool:
    V, F = q.vertices, q.faces
    normals = face_normals_loop(q)
    apex = np.roll(F, -2, axis=1).ravel()
    across = apex[twin_loop(q).ravel()]
    own = np.repeat(np.arange(len(F)), 3)
    height = np.einsum("ij,ij->i", normals[own], V[across] - V[F[own, 0]])
    return bool(np.all(height <= tol.geom))


def wachspress_weights_loop(q, tol=sb.DEFAULT_TOL, require_convex=True) -> np.ndarray:
    """Polar-dual weights of the origin: twice the signed area of each
    vertex's dual cell, the polygon of the dual points n_f / <n_f, y_f> of
    its faces."""
    V, F = q.vertices, q.faces
    normals = face_normals_loop(q)
    offsets = np.einsum("ij,ij->i", normals, V[F[:, 0]])
    if np.any(offsets <= UNIT):
        raise FaceThroughPoint("a face plane passes through the evaluation point")
    if require_convex and not is_convex_loop(q, tol):
        raise NotConvex("polyhedron has a reflex dihedral angle")
    dual = normals / offsets[:, None]
    own = np.repeat(np.arange(len(F)), 3)
    cells = np.cross(dual[twin_loop(q).ravel() // 3], dual[own])
    area = np.column_stack([np.bincount(F.ravel(), cells[:, k], len(V)) for k in range(3)])
    return np.einsum("ij,ij->i", V, area) / np.einsum("ij,ij->i", V, V)


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except SphBaryError as exc:
        return exc.name


class TestMeanValueReference:
    def test_kernel_matches_the_face_sums(self):
        # The fan kernel behind mv_weights against the per-face sum on the
        # same polyhedron: convex and non-convex rings, n 3..64, caps up to
        # 1.5; the same error tag as the float64 sum mv_weights_loop, and
        # weights within 1e-13 of the largest of the per-face sum's taken
        # in 50 digits (the float64 sum itself misses that bound where a
        # weight reaches 1e3).
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261021)
        compared = 0
        with mpmath.workdps(50):
            for k in range(40):
                polygon = jittered_ring(rng, int(rng.integers(3, 65)), float(rng.uniform(0.2, 1.5)), k % 2 == 1)
                for x in sb.interior_points(polygon, 2, rng):
                    q = sb.build_q(polygon, x)
                    expected, got = outcome(mv_weights_loop, q), outcome(sb.mv_weights, q)
                    if isinstance(expected, str) or isinstance(got, str):
                        assert got == expected
                        continue
                    P = [[mpmath.mpf(float(c)) for c in p] for p in q.vertices]
                    exact = np.array([float(w) for w in mp_mean_value(mpmath, P, q.faces.tolist())])
                    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
                    compared += 1
        assert compared > 40

    def test_hull_has_no_mean_value_weights(self, octant_q):
        with pytest.raises(ValueError):
            sb.mv_weights(sb.build_q(sb.octant_triangle(), CENTER, hull=True))
        with pytest.raises(ValueError):
            sb.coords_at_origin(octant_q, "XX")


class TestPolarDualReference:
    def test_batched_kernel_matches_one_polyhedron_code(self):
        # Fan and hull, strict and relaxed, on convex and non-convex rings
        # with n 3..64 and caps up to 1.5: the edge-form kernels against
        # the dual-cell sums on the same polyhedron, with the same
        # convexity verdict, the same error tag, and weights equal up to
        # float64 roundoff.  The hull is built over convex rings only; a
        # non-convex one is refused.
        rng = np.random.default_rng(20261018)
        tags, convex, judged, compared = set(), 0, 0, 0
        for k in range(80):
            polygon = jittered_ring(rng, int(rng.integers(3, 65)), float(rng.uniform(0.2, 1.5)), k % 2 == 1)
            x = sb.interior_points(polygon, 1, rng)[0]
            for hull in (False, True):
                if hull and not polygon.convex:
                    assert outcome(sb.build_q, polygon, x, hull=True) == "NotConvex"
                    continue
                q = sb.build_q(polygon, x, hull=hull)
                verdict = outcome(is_convex, q)
                assert verdict == outcome(is_convex_loop, q)
                convex += verdict is True
                judged += 1
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
        assert compared > 170 and 0 < convex < judged
        assert {"NotConvex", "FaceThroughPoint"} <= tags

    def test_is_convex_raises_where_the_hull_cannot_be_built(self):
        # Rows 1.5e-9 to 1e-7 rad from every vertex of convex rings: where
        # x does not see a disc of the triangles, is_convex raises the
        # NotConvex of q.faces, as the reference does; elsewhere it agrees
        # with the reference's verdict.  It is never True where q.faces or
        # the strict weights refuse the polyhedron as not convex.
        verdicts = []
        for polygon, X in near_vertex_corpus(0):
            for x in X:
                if isinstance(q := outcome(sb.build_q, polygon, x, hull=True), str):
                    continue
                verdict = outcome(is_convex, q)
                assert verdict == outcome(is_convex_loop, q)
                if verdict is True:
                    assert outcome(lambda: q.faces) is q.faces
                    weights = outcome(sb.wachspress_weights, q)
                    assert not isinstance(weights, str) or weights != "NotConvex"
                verdicts.append(verdict)
        assert len(verdicts) > 1000 and verdicts.count("NotConvex") > 0 and verdicts.count(True) > 0
