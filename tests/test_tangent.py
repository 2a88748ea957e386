"""The tangent-plane (gnomonic) baseline construction."""

import numpy as np
import pytest

import sphbary as sb
from sphbary.errors import NotConvex, OriginOnBoundary, ProjectionUndefined, SphBaryError
from sphbary.spherical import evaluate_batch
from sphbary.tangent import TangentPolygon

from conftest import count_calls

CENTER = sb.normalize([1, 1, 1])
POLE = np.array([0.0, 0.0, 1.0])


def areal_coordinates(points2d: np.ndarray, p=np.zeros(2)) -> np.ndarray:
    """2x2 solve oracle: planar barycentric coordinates in a triangle."""
    a, b, c = points2d
    M = np.column_stack([b - a, c - a])
    lam = np.linalg.solve(M, p - a)
    return np.array([1 - lam.sum(), lam[0], lam[1]])


def ring_about_pole(polar, azim) -> sb.SphericalPolygon:
    polar, azim = np.asarray(polar, float), np.asarray(azim, float)
    return sb.validate_polygon(
        np.column_stack([np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)])
    )


class TestGnomonicProject:
    def test_radial_distance_is_tan(self):
        polygon = ring_about_pole([np.pi / 4] * 3, [0.0, 2.0, 4.0])
        t = sb.gnomonic_project(polygon, POLE)
        np.testing.assert_allclose(np.linalg.norm(t.points2d, axis=1), 1.0, atol=1e-12)

    def test_undefined_at_quarter_turn(self):
        polygon = ring_about_pole([np.pi / 2, 0.6, 0.6], [0.0, 1.2, 4.0])
        with pytest.raises(ProjectionUndefined):
            sb.gnomonic_project(polygon, POLE)

    def test_octant_radii(self, octant):
        t = sb.gnomonic_project(octant, CENTER)
        np.testing.assert_allclose(np.linalg.norm(t.points2d, axis=1), np.sqrt(2), atol=1e-12)

    def test_reconstruction(self, rng):
        for k in range(10):
            polygon = sb.random_polygon(int(rng.integers(3, 9)), 0.8, seed=1000 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            t = sb.gnomonic_project(polygon, x)
            lifted = x + t.points2d @ t.basis
            np.testing.assert_allclose(
                lifted, polygon.vertices / t.dots[:, None], atol=1e-10
            )

    def test_kernel_reads_the_rays(self, monkeypatch, rng):
        # The CC_* kernels project nothing: they read the gnomonic image's
        # planar quantities off the rays of point location.  Each row
        # agrees with gnomonic_project and planar_* to 1e-12 of its max
        # |psi|, or fails with the same error; the caps up to 1.45 and the
        # non-convex rings leave some rows unprojected or not convex.
        inputs = []
        for k in range(6):
            n, mode = int(rng.integers(5, 13)), "nonconvex" if k % 2 else "convex"
            polygon = sb.random_polygon(n, (0.9, 1.2, 1.45)[k % 3], seed=1400 + k, mode=mode)
            inputs.append((polygon, sb.interior_points(polygon, 6, rng) * rng.uniform(0.5, 4.0, size=(6, 1))))
        counts = [count_calls(monkeypatch, f) for f in (sb.geom.gnomonic_images, sb.geom.tangent_frames)]
        batches = [(polygon, X, planar, evaluate_batch(polygon, X, method)) for polygon, X in inputs
                   for method, planar in (("CC_MV", sb.planar_mv), ("CC_WC", sb.planar_wachspress))]
        assert [c[0] for c in counts] == [0, 0]
        outcomes = set()
        for polygon, X, planar, batch in batches:
            for x, values, error in zip(X, batch.values, batch.errors):
                try:
                    t = sb.gnomonic_project(polygon, x)
                    expected = planar(t) / t.dots
                except SphBaryError as exc:
                    assert (type(error), str(error)) == (type(exc), str(exc))
                    outcomes.add(exc.name)
                    continue
                assert error is None
                assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
                outcomes.add(None)
        assert outcomes == {None, "ProjectionUndefined", "NotConvex"}

    def test_image_carries_the_polygon_band(self):
        # Convex within the polygon's band of 1e-6, not within the default.
        uv = np.array([(-0.3, -0.3), (0.0, -0.3 + 1e-8), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3)])
        polygon = sb.validate_polygon(np.column_stack([uv, np.ones(5)]), sb.Tolerances(geom=1e-6))
        t = sb.gnomonic_project(polygon, POLE)
        assert t.tol == polygon.tol
        expected = sb.planar_wachspress(t) / t.dots
        values = sb.evaluate(polygon, POLE, "CC_WC").values
        assert np.max(np.abs(values - expected)) <= 1e-14 * np.max(np.abs(expected))


def square_tangent() -> TangentPolygon:
    pts = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    return TangentPolygon(basis=np.eye(3)[:2], points2d=pts, dots=np.ones(4))


class TestPlanarBackends:
    def test_mv_square(self):
        np.testing.assert_allclose(sb.planar_mv(square_tangent()), 0.25, atol=1e-14)

    def test_wachspress_square(self):
        np.testing.assert_allclose(sb.planar_wachspress(square_tangent()), 0.25, atol=1e-14)

    def test_triangle_equals_areal(self, rng):
        def cross2(u, v):
            return u[0] * v[1] - u[1] * v[0]

        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(3, 2))
            if abs(cross2(pts[1] - pts[0], pts[2] - pts[0])) < 0.2:
                continue
            if cross2(pts[1] - pts[0], pts[2] - pts[0]) < 0:
                pts = pts[::-1]
            lam = areal_coordinates(pts)
            if np.min(lam) < 0.05:
                continue       # keep the origin inside, away from edges
            t = TangentPolygon(basis=np.eye(3)[:2], points2d=pts, dots=np.ones(3))
            np.testing.assert_allclose(sb.planar_mv(t), lam, atol=1e-12)
            np.testing.assert_allclose(sb.planar_wachspress(t), lam, atol=1e-12)

    def test_regular_ngon(self):
        for n in (5, 8, 12):
            ang = 2 * np.pi * np.arange(n) / n
            t = TangentPolygon(
                basis=np.eye(3)[:2],
                points2d=np.column_stack([np.cos(ang), np.sin(ang)]),
                dots=np.ones(n),
            )
            np.testing.assert_allclose(sb.planar_mv(t), 1 / n, atol=1e-14)
            np.testing.assert_allclose(sb.planar_wachspress(t), 1 / n, atol=1e-14)

    def test_wachspress_nonconvex_rejected(self):
        pts = np.array([[1.0, 0.0], [0.1, 0.05], [0.0, 1.0], [-1.0, -1.0]])
        t = TangentPolygon(basis=np.eye(3)[:2], points2d=pts, dots=np.ones(4))
        with pytest.raises(NotConvex):
            sb.planar_wachspress(t)

    def test_origin_on_vertex_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        t = TangentPolygon(basis=np.eye(3)[:2], points2d=pts, dots=np.ones(3))
        with pytest.raises(OriginOnBoundary):
            sb.planar_mv(t)


class TestClassicalCoordinates:
    def test_octant_center(self, octant):
        for backend in ("MV", "WC"):
            cv = sb.spherical_coords_classical(octant, CENTER, backend)
            np.testing.assert_allclose(cv.values, 1 / np.sqrt(3), atol=1e-12)

    def test_linear_precision_and_unity_bound(self, rng):
        for k in range(20):
            polygon = sb.random_polygon(int(rng.integers(3, 10)), 0.7, seed=1100 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            for backend in ("MV", "WC"):
                cv = sb.spherical_coords_classical(polygon, x, backend)
                assert sb.reconstruction_residual(cv.values, polygon.vertices, x) <= 1e-8
                assert cv.total >= 1.0 - 1e-10

    def test_vertex_rejected(self, octant):
        with pytest.raises(OriginOnBoundary):
            sb.spherical_coords_classical(octant, octant.vertex(0), "MV")

    def test_projection_failure_is_an_error(self):
        polygon, x = sb.extended_pair()
        with pytest.raises(ProjectionUndefined):
            sb.spherical_coords_classical(polygon, x, "MV")

    def test_mv_agrees_with_quotient_construction(self, rng):
        # The two mean value routes coincide whenever the projection exists.
        for k in range(20):
            polygon = sb.random_polygon(int(rng.integers(3, 10)), 0.9, seed=1200 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            if np.min(polygon.vertices @ x) <= 1e-10:
                continue
            a = sb.spherical_coords(polygon, x, "MV").values
            b = sb.spherical_coords_classical(polygon, x, "MV").values
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_wc_routes_differ_on_demo_quad(self):
        polygon = sb.demo_quadrilateral()
        report = sb.compare_methods(polygon, "NEW_WC", "CC_WC", resolution=16)
        assert report.max_diff > 1e-4

    def test_triangle_uniqueness_all_methods(self, rng):
        for k in range(25):
            polygon = sb.random_polygon(3, 1.0, seed=1300 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            expected = sb.oracle_triangle(*polygon.vertices, x)
            for method in sb.METHODS:
                got = sb.evaluate(polygon, x, method).values
                assert np.max(np.abs(got - expected)) <= 1e-8
