"""File round trips, random generation, grids, comparison, the oracle."""

import dataclasses
import functools
import json

import numpy as np
import pytest

import sphbary as sb
from sphbary.errors import GenerationFailed, SelfIntersecting, SingularMatrix, UnknownMethod
from sphbary.harness import (
    CSV_HEADER,
    CompareReport,
    GridRow,
    PolygonFile,
    _band_index,
    grid_directions,
    load_polygon_file,
    rows_to_csv,
    save_polygon_file,
)
from sphbary.spherical import evaluate_batch

from conftest import DATA_DIR, count_calls, jittered_ring


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

    @pytest.mark.parametrize("n", [28, 32, 40, 48, 64])
    def test_nonconvex_for_large_n(self, n):
        for seed in range(10):
            polygon = sb.random_polygon(n, 1.0, seed, mode="nonconvex")
            assert polygon.n == n and not polygon.convex

    def test_small_star_rings_keep_the_fixed_gap(self, monkeypatch):
        # Up to n = 24 the azimuth gap bound is 0.05 rad, as it was before it
        # scaled with n, so the rings the property tests draw keep their bytes.
        def drawn():
            return [sb.random_polygon(n, cap, seed, mode="nonconvex").vertices.tobytes()
                    for n in range(4, 25) for seed in range(3) for cap in (0.3, 1.2)]

        scaled = drawn()
        monkeypatch.setattr(sb.harness, "_min_azimuth_gap", lambda n: 0.05)
        assert scaled == drawn()

    def test_bad_sizes_rejected(self):
        with pytest.raises(GenerationFailed):
            sb.random_polygon(2, 0.8, seed=1)
        with pytest.raises(GenerationFailed):
            sb.random_polygon(5, 2.0, seed=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(GenerationFailed, match="unknown mode 'x'"):
            sb.random_polygon(5, 0.8, seed=1, mode="x")

    def test_gives_up_after_max_tries(self, monkeypatch):
        # Every draw fails validation: the generator stops after 1000 of them.
        calls = [0]

        def refuse_every_ring(ring, tol):
            calls[0] += 1
            raise SelfIntersecting("refused")

        monkeypatch.setattr(sb.harness, "validate_polygon", refuse_every_ring)
        with pytest.raises(GenerationFailed, match="no valid convex polygon after 1000 tries"):
            sb.random_polygon(5, 0.5, seed=1)
        assert calls[0] == 1000

    def test_no_nonconvex_triangle_is_drawn(self, monkeypatch):
        # A triangle never has a reflex vertex: refused before any draw.
        calls = count_calls(monkeypatch, sb.harness.validate_polygon)
        with pytest.raises(GenerationFailed, match="no nonconvex polygon has 3 vertices"):
            sb.random_polygon(3, 0.5, seed=1, mode="nonconvex")
        assert calls[0] == 0
        assert sb.random_polygon(3, 0.5, seed=1).n == 3

    def test_vertices_within_cap(self):
        rho = 0.7
        polygon = sb.random_polygon(8, rho, seed=13)
        # every vertex within rho of some cap center: use the witness side
        best = polygon.vertices @ polygon.witness
        assert np.all(np.arccos(np.clip(best, -1, 1)) <= np.pi / 2)


def interior_points_loop(polygon, count, rng):
    """The sampler one candidate at a time: a Dirichlet combination of the
    gnomonic vertex images (convex) or a uniform point of their bounding
    box, lifted to the sphere and kept when located interior."""
    (b1, b2), planar, _, _ = polygon.witness_image
    out = []
    while len(out) < count:
        if polygon.convex:
            uv = rng.dirichlet(np.ones(polygon.n)) @ planar
        else:
            uv = rng.uniform(planar.min(axis=0), planar.max(axis=0))
        p = sb.normalize(polygon.witness + uv[0] * b1 + uv[1] * b2)
        if sb.locate_point(polygon, p).kind == "interior":
            out.append(p)
    return np.array(out).reshape(-1, 3)


class TestInteriorPoints:
    def test_all_interior(self, rng):
        for mode, seed in (("convex", 3), ("nonconvex", 31)):
            polygon = sb.random_polygon(5, 1.0, seed=seed, mode=mode)
            for x in sb.interior_points(polygon, 15, rng):
                assert sb.locate_point(polygon, x).kind == "interior"

    @pytest.mark.parametrize("mode", ["convex", "nonconvex"])
    def test_same_points_and_rng_state_as_one_at_a_time(self, mode):
        # Batched rounds draw exactly the missing count, so the points and
        # the rng's next draw equal those of the one-candidate loop.
        for seed, (n, rho) in enumerate([(4, 0.3), (5, 1.0), (8, 1.4), (12, 0.9), (24, 1.2)]):
            polygon = sb.random_polygon(n, rho, seed=500 + seed, mode=mode)
            for count in (0, 1, 7, 40):
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                points = sb.interior_points(polygon, count, rng_a)
                assert np.array_equal(points, interior_points_loop(polygon, count, rng_b))
                assert rng_a.uniform() == rng_b.uniform()

    def test_no_points_are_rows_of_three(self):
        # Count 0 draws nothing and still returns rows of 3.
        for polygon in (sb.demo_quadrilateral(), sb.random_polygon(6, 0.9, seed=3, mode="nonconvex")):
            rng, fresh = np.random.default_rng(1), np.random.default_rng(1)
            assert sb.interior_points(polygon, 0, rng).shape == (0, 3)
            assert rng.bit_generator.state == fresh.bit_generator.state


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

    def test_witness_image_is_projected_once_per_polygon(self, monkeypatch, rng):
        # Grids, comparisons and interior samples all read the gnomonic image
        # at the witness that the polygon caches.
        polygon = sb.random_polygon(9, 1.0, seed=5)
        count = count_calls(monkeypatch, sb.geom.gnomonic_images)
        sb.grid_rows(polygon, 0, 8, "NEW_MV")
        assert count[0] == 1
        sb.grid_rows(polygon, 1, 12, "NEW_MV_CLOSED")
        sb.compare_methods(polygon, "NEW_MV", "NEW_WC", 6)
        assert len(sb.interior_points(polygon, 5, rng)) == 5
        assert count[0] == 1

    @pytest.mark.parametrize("method", sb.METHODS)
    def test_residual_of_a_grid_row_is_its_own(self, method):
        # A row's residual depends neither on BLAS nor on the grid around it.
        for polygon in (sb.demo_quadrilateral(), sb.random_polygon(12, 0.9, seed=4)):
            rows = [row for row in sb.grid_rows(polygon, 0, 16, method) if row.error is None]
            assert rows
            for row in rows:
                assert row.residual == sb.reconstruction_residual(row.values, polygon.vertices, row.point)

    @pytest.mark.parametrize("method", sb.METHODS)
    def test_one_locate_per_grid_point(self, method, locate_calls):
        sb.grid_rows(sb.demo_quadrilateral(), 0, 16, method)
        assert locate_calls[0] == 16 * 16

    def test_new_mv_builds_no_stacked_polyhedra(self, monkeypatch):
        # NEW_MV runs the fan's ring term once per block, on (m, n) arrays,
        # and never the fan kernel, whose w_x cancels in the quotient;
        # mv_weights on one polyhedron runs the fan kernel, and with it the
        # same ring term, at m = 1.
        polygon = sb.demo_quadrilateral()
        calls = count_calls(monkeypatch, sb.polyhedron.fan_mv)
        ring = count_calls(monkeypatch, sb.polyhedron.mean_value_ring)
        sb.grid_rows(polygon, 0, 16, "NEW_MV")
        evaluate_batch(polygon, grid_directions(polygon, 16), "NEW_MV")
        sb.evaluate(polygon, [0.0, 0.0, 1.0], "NEW_MV")
        assert (calls[0], ring[0]) == (0, 3)
        sb.mv_weights(sb.build_q(polygon, [0.0, 0.0, 1.0]))
        assert (calls[0], ring[0]) == (1, 4)

    def test_new_wc_builds_no_stacked_hulls(self, monkeypatch):
        # NEW_WC runs the one polar-dual kernel once per block, on the fan's
        # (m, n) arrays patched by x's cavity in the polygon's cached
        # triangulation; wachspress_weights, is_convex and coords_at_origin
        # on one polyhedron run the same kernel at m = 1, and only the first
        # read of q.faces builds the hull's faces.
        polygon = sb.demo_quadrilateral()
        calls = count_calls(monkeypatch, sb.polyhedron.polar_dual)
        faces = count_calls(monkeypatch, sb.polyhedron.hull_faces)
        sb.grid_rows(polygon, 0, 16, "NEW_WC")
        evaluate_batch(polygon, grid_directions(polygon, 16), "NEW_WC")
        sb.evaluate(polygon, [0.0, 0.0, 1.0], "NEW_WC")
        assert (calls[0], faces[0]) == (3, 0)
        q = sb.build_q(polygon, [0.0, 0.0, 1.0], hull=True)
        assert (calls[0], faces[0]) == (3, 0)
        q.faces
        assert (calls[0], faces[0]) == (3, 1)
        sb.wachspress_weights(q)
        sb.polyhedron.is_convex(q)
        sb.coords_at_origin(q, "WC")
        sb.extended_spherical_coords(polygon.vertices, [0.0, 0.0, 1.0], "WC")
        assert (calls[0], faces[0]) == (7, 1)

    def test_error_rows_recorded_not_fatal(self, octant):
        rows = sb.grid_rows(octant, 0, 12, "CC_MV")
        errors = {r.error for r in rows if r.error}
        assert "ExteriorPoint" in errors
        assert any(r.value is not None for r in rows)

    @pytest.mark.parametrize("vertex", [-1, 3, 4])
    def test_vertex_index_out_of_range(self, octant, vertex):
        # -1 was read as vertex n - 1's values, labelled -1.
        with pytest.raises(ValueError, match=f"vertex index {vertex} out of range for n=3"):
            sb.grid_rows(octant, vertex, 8, "NEW_MV")

    @pytest.mark.parametrize("resolution", [0, -2])
    def test_resolution_below_one(self, octant, resolution):
        for call in (lambda: sb.grid_rows(octant, 0, resolution, "NEW_MV"),
                     lambda: grid_directions(octant, resolution)):
            with pytest.raises(ValueError, match=f"resolution must be at least 1, got {resolution}"):
                call()

    def test_default_bands(self):
        assert len(sb.DEFAULT_BANDS) == 6
        assert all(lo <= hi for lo, hi in sb.DEFAULT_BANDS)
        assert _band_index(0.095, sb.DEFAULT_BANDS) == 0
        assert _band_index(0.295, sb.DEFAULT_BANDS) == 4
        assert _band_index(0.5, sb.DEFAULT_BANDS) == -1

    def test_no_bands(self):
        assert _band_index([0.1, 0.5], ()).tolist() == [-1, -1]

    def test_a_band_bound_that_is_not_a_number(self, octant):
        # A NaN bound holds no value, so it would band nothing without a
        # word; it is refused, as the CLI's --levels refuses it, and +-inf
        # stay bounds.
        demo = sb.demo_quadrilateral()
        for bands in (((np.nan, 0.9),), ((0.1, 0.2), (0.3, np.nan))):
            with pytest.raises(ValueError, match=r"^a band bound must be a number or \+-inf, got "):
                sb.grid_rows(demo, 0, 8, "NEW_MV", bands=bands)
        rows = sb.grid_rows(demo, 0, 8, "NEW_MV", bands=((-np.inf, 0.25), (0.25, np.inf)))
        assert {r.band for r in rows if r.error is None} == {0, 1}

    def test_band_bounds_in_either_order(self, octant):
        # A band hi:lo is the band lo:hi, in the library as on the CLI.
        ordered = sb.grid_rows(octant, 0, 8, "NEW_MV", bands=((0.1, 0.2), (0.3, np.inf)))
        reversed_ = sb.grid_rows(octant, 0, 8, "NEW_MV", bands=((0.2, 0.1), (np.inf, 0.3)))
        assert rows_to_csv(reversed_) == rows_to_csv(ordered)
        assert {r.band for r in ordered} >= {0, 1}


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

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one(self, octant, resolution):
        # 0 died with ZeroDivisionError on the empty grid's coverage.
        with pytest.raises(ValueError, match=f"resolution must be at least 1, got {resolution}"):
            sb.compare_methods(octant, "NEW_MV", "CC_MV", resolution)


# --------------------------------------------------------------------------
# reference: grids and comparisons one grid point at a time
# --------------------------------------------------------------------------

def band_index_loop(value, bands):
    for i, (lo, hi) in enumerate(bands):
        if lo <= value <= hi:
            return i
    return -1


def for_vertex_loop(row, k, bands=sb.DEFAULT_BANDS):
    """A copy of the row with vertex k's value and band selected."""
    if row.values is None:
        return dataclasses.replace(row, vertex_index=k)
    value = float(row.values[k])
    return dataclasses.replace(row, vertex_index=k, value=value, band=band_index_loop(value, bands))


def grid_rows_loop(polygon, vertex_index, resolution, method, bands=sb.DEFAULT_BANDS):
    """One batch, then one row per point, copied with the vertex selected;
    each residual from its row alone."""
    points = grid_directions(polygon, resolution)
    batch = evaluate_batch(polygon, points, method)
    rows = []
    for i, p in enumerate(points):
        row = GridRow(point=p, location=str(batch.locations.at(i)), method=method, vertex_index=vertex_index)
        residual = sb.reconstruction_residual(batch.values[i], polygon.vertices, p)
        if batch.errors[i] is not None:
            row.error = batch.errors[i].name
        elif residual > 1e-8:
            row.error = "ResidualTooLarge"
        else:
            row.residual = residual
            row.values = batch.values[i]
        rows.append(for_vertex_loop(row, vertex_index, bands))
    return rows


def compare_loop(polygon, method_a, method_b, resolution):
    """The report from a loop over the points of both grids, and the CSV of
    every vertex's rows of both methods, copied row by row."""
    rows_a = grid_rows_loop(polygon, 0, resolution, method_a)
    rows_b = grid_rows_loop(polygon, 0, resolution, method_b)
    ok, max_diff, sum_diff, count_diff, argmax_point, argmax_vertex = 0, 0.0, 0.0, 0, None, -1
    for ra, rb in zip(rows_a, rows_b):
        if ra.values is None or rb.values is None:
            continue
        ok += 1
        diff = np.abs(ra.values - rb.values)
        sum_diff += float(diff.sum())
        count_diff += len(diff)
        i = int(np.argmax(diff))
        if diff[i] > max_diff:
            max_diff, argmax_point, argmax_vertex = float(diff[i]), ra.point, i
    total = len(rows_a)
    report = CompareReport(
        method_a, method_b, total, ok,
        sum(r.values is not None for r in rows_a) / total, sum(r.values is not None for r in rows_b) / total,
        max_diff, (sum_diff / count_diff) if count_diff else 0.0, argmax_point, argmax_vertex)
    csv = rows_to_csv([for_vertex_loop(row, k) for rows in (rows_a, rows_b) for k in range(polygon.n) for row in rows])
    return report, csv


@functools.cache
def reference_polygon(name):
    """demo_quad, the octant (whose grids have tied largest gaps), seeded
    convex rings ("convex<n>") and star rings ("star<n>")."""
    if name == "demo_quad":
        return load_polygon_file(DATA_DIR / "demo_quad.json").validated()
    if name == "octant":
        return sb.octant_triangle()
    n = int(name.lstrip("convexstar"))
    if name.startswith("convex"):
        return sb.random_polygon(n, 1.2, seed=600 + n)
    polygon = jittered_ring(np.random.default_rng(600 + n), n, 1.2, star=True)
    assert not polygon.convex
    return polygon


REFERENCE_POLYGONS = ["demo_quad", "octant", "convex3", "convex7", "convex48", "star6", "star48"]
# Overlapping and zero-width bands: a value takes the first band holding it.
CUSTOM_BANDS = ((0.0, 0.1), (0.05, 0.3), (0.25, 0.25), (0.2, 1.0))


def row_fields(row):
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in dataclasses.astuple(row)]


def report_fields(report):
    return [v.tobytes() if isinstance(v, np.ndarray) else v
            for v in (getattr(report, f.name) for f in dataclasses.fields(report)) if not isinstance(v, tuple)]


class TestAgainstPerPointLoops:
    """grid_rows, compare_methods and the compare CSV build from the two
    batches what the loops above build point by point: the same rows (every
    field, values bit for bit), report and CSV text."""

    @pytest.mark.parametrize("bands", [sb.DEFAULT_BANDS, CUSTOM_BANDS], ids=["default_bands", "custom_bands"])
    @pytest.mark.parametrize("resolution", [8, 24])
    @pytest.mark.parametrize("name", REFERENCE_POLYGONS)
    def test_grid_rows(self, name, resolution, bands):
        polygon = reference_polygon(name)
        for method in sb.METHODS:
            k = resolution % polygon.n
            got = sb.grid_rows(polygon, k, resolution, method, bands)
            expected = grid_rows_loop(polygon, k, resolution, method, bands)
            assert len(got) == resolution * resolution
            assert [row_fields(r) for r in got] == [row_fields(r) for r in expected]

    # The 48-gons' CSVs at 24 x 24 (55,296 rows each) are left out for time;
    # test_grid_rows covers their grids at that resolution.
    @pytest.mark.parametrize("pair", [("NEW_MV", "CC_MV"), ("NEW_WC", "CC_WC"), ("NEW_MV", "NEW_MV_CLOSED")],
                             ids="-".join)
    @pytest.mark.parametrize("name, resolution", [
        (name, resolution) for name in REFERENCE_POLYGONS for resolution in (8, 24)
        if not (name.endswith("48") and resolution == 24)])
    def test_compare(self, name, resolution, pair):
        polygon = reference_polygon(name)
        report = sb.compare_methods(polygon, *pair, resolution)
        expected, csv = compare_loop(polygon, *pair, resolution)
        assert report_fields(report) == report_fields(expected)
        assert report.to_text() == expected.to_text()
        assert report.to_csv() == csv

    @pytest.mark.parametrize("resolution", [8, 24])
    def test_no_argmax_when_every_gap_is_zero(self, resolution):
        polygon = reference_polygon("demo_quad")
        report = sb.compare_methods(polygon, "NEW_MV_CLOSED", "NEW_MV_CLOSED", resolution)
        expected, csv = compare_loop(polygon, "NEW_MV_CLOSED", "NEW_MV_CLOSED", resolution)
        assert report.points_compared > 0
        assert (report.max_diff, report.argmax_point, report.argmax_vertex) == (0.0, None, -1)
        assert report_fields(report) == report_fields(expected)
        assert report.to_csv() == csv
        assert report.to_text() == expected.to_text()
        assert report.to_text().splitlines()[3:] == ["max |diff| = 0.0", "mean |diff| = 0.0"]


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
