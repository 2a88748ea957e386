"""File round trips, random generation, grids, comparison, the oracle."""

import json

import numpy as np
import pytest

import sphbary as sb
from sphbary.errors import GenerationFailed, SingularMatrix, UnknownMethod
from sphbary.harness import (
    CSV_HEADER,
    PolygonFile,
    _band_index,
    grid_directions,
    load_polygon_file,
    rows_to_csv,
    save_polygon_file,
)


class TestPolygonFiles:
    def test_round_trip_losslessly(self, tmp_path, rng):
        polygon = sb.random_polygon(6, 1.0, seed=77)
        path = tmp_path / "p.json"
        save_polygon_file(path, PolygonFile(
            vertices=[[float(c) for c in v] for v in polygon.vertices],
            name="round trip",
            seed=77,
        ))
        back = load_polygon_file(path)
        assert back.name == "round trip"
        assert back.seed == 77
        assert np.array_equal(np.array(back.vertices), polygon.vertices)

    def test_optional_fields(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        pf = load_polygon_file(path)
        assert pf.name is None and pf.seed is None
        assert pf.validated().n == 3


class TestRandomPolygon:
    def test_deterministic(self):
        a = sb.random_polygon(5, 0.8, seed=42)
        b = sb.random_polygon(5, 0.8, seed=42)
        assert np.array_equal(a.vertices, b.vertices)

    def test_convex_by_default(self):
        for seed in range(20):
            polygon = sb.random_polygon(int(3 + seed % 10), 1.0, seed=seed)
            assert polygon.convex

    def test_nonconvex_has_reflex_vertex(self):
        polygon = sb.random_polygon(4, 0.9, seed=7, mode="nonconvex")
        trips = [
            sb.triple_product(polygon.vertex(i), polygon.vertex(i + 1), polygon.vertex(i + 2))
            for i in range(polygon.n)
        ]
        assert min(trips) < 0
        assert not polygon.convex

    def test_bad_sizes_rejected(self):
        with pytest.raises(GenerationFailed):
            sb.random_polygon(2, 0.8, seed=1)
        with pytest.raises(GenerationFailed):
            sb.random_polygon(5, 2.0, seed=1)

    def test_vertices_within_cap(self):
        rho = 0.7
        polygon = sb.random_polygon(8, rho, seed=13)
        # every vertex within rho of some cap center: use the witness side
        best = polygon.vertices @ polygon.witness
        assert np.all(np.arccos(np.clip(best, -1, 1)) <= np.pi / 2)


class TestInteriorPoints:
    def test_all_interior(self, rng):
        for mode, seed in (("convex", 3), ("nonconvex", 31)):
            polygon = sb.random_polygon(5, 1.0, seed=seed, mode=mode)
            for x in sb.interior_points(polygon, 15, rng):
                assert sb.locate_point(polygon, x).kind == "interior"


class TestGrid:
    def test_row_count_octant(self, octant):
        rows = sb.grid_rows(octant, 0, 16, "NEW_MV")
        assert len(rows) == 256

    def test_grid_point_count(self, octant):
        assert grid_directions(octant, 9).shape == (81, 3)

    def test_successful_rows_pass_reload_residual(self, octant):
        rows = sb.grid_rows(octant, 0, 12, "NEW_MV")
        csv_text = rows_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        checked = 0
        for line in lines[1:]:
            cells = line.split(",")
            if cells[9]:            # error column
                continue
            p = np.array([float(cells[0]), float(cells[1]), float(cells[2])])
            cv = sb.evaluate(octant, p, cells[4])
            assert sb.reconstruction_residual(cv.values, octant.vertices, p) <= 1e-8
            assert float(cells[6]) == cv.values[int(cells[5])]
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("method", sb.METHODS)
    def test_one_locate_per_grid_point(self, method, locate_calls):
        sb.grid_rows(sb.demo_quadrilateral(), 0, 16, method)
        assert locate_calls[0] == 16 * 16

    def test_error_rows_recorded_not_fatal(self, octant):
        rows = sb.grid_rows(octant, 0, 12, "CC_MV")
        errors = {r.error for r in rows if r.error}
        assert "ExteriorPoint" in errors
        assert any(r.value is not None for r in rows)

    def test_default_bands(self):
        assert len(sb.DEFAULT_BANDS) == 6
        assert all(lo <= hi for lo, hi in sb.DEFAULT_BANDS)
        assert _band_index(0.095, sb.DEFAULT_BANDS) == 0
        assert _band_index(0.295, sb.DEFAULT_BANDS) == 4
        assert _band_index(0.5, sb.DEFAULT_BANDS) == -1


class TestCompare:
    def test_mv_routes_agree(self, octant):
        report = sb.compare_methods(octant, "NEW_MV", "CC_MV", resolution=10)
        assert report.points_compared > 0
        assert report.max_diff <= 1e-8

    def test_closed_form_agrees(self, octant):
        report = sb.compare_methods(octant, "NEW_MV", "NEW_MV_CLOSED", resolution=10)
        assert report.max_diff <= 1e-9

    def test_report_text(self, octant):
        text = sb.compare_methods(octant, "NEW_MV", "CC_MV", resolution=10).to_text()
        assert "max |diff|" in text and "coverage" in text


class TestOracle:
    def test_octant_center(self):
        psi = sb.oracle_triangle(*np.eye(3), sb.normalize([1, 1, 1]))
        np.testing.assert_allclose(psi, 1 / np.sqrt(3), atol=1e-15)

    def test_vertex(self):
        psi = sb.oracle_triangle(*np.eye(3), [1, 0, 0])
        np.testing.assert_allclose(psi, [1, 0, 0], atol=1e-15)

    def test_edge_point(self):
        psi = sb.oracle_triangle(*np.eye(3), [0.6, 0.8, 0.0])
        np.testing.assert_allclose(psi, [0.6, 0.8, 0.0], atol=1e-15)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            sb.oracle_triangle([1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 1])

    def test_pivoting_handles_zero_leading_entry(self, rng):
        v = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        x = sb.normalize([0.2, 0.3, 0.9])
        psi = sb.oracle_triangle(*v, x)
        assert np.linalg.norm(psi[0] * v[0] + psi[1] * v[1] + psi[2] * v[2] - x) <= 1e-14

    def test_agrees_with_methods_on_random_triangles(self, rng):
        for k in range(100):
            polygon = sb.random_polygon(3, 1.1, seed=2000 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            expected = sb.oracle_triangle(*polygon.vertices, x)
            got = sb.evaluate(polygon, x, "NEW_MV").values
            assert np.max(np.abs(got - expected)) <= 1e-8


def test_unknown_method(octant):
    with pytest.raises(UnknownMethod):
        sb.evaluate(octant, sb.normalize([1, 1, 1]), "NOPE")
