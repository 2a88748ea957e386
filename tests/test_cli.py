"""Command-line front end: output formats, exit codes, determinism."""

import json

import numpy as np
import pytest

import sphbary as sb
from sphbary.cli import main
from sphbary.harness import CSV_HEADER, PolygonFile, save_polygon_file

from conftest import DATA_DIR, crossing_hexagon


@pytest.fixture()
def octant_file(tmp_path):
    path = tmp_path / "octant.json"
    save_polygon_file(path, PolygonFile(vertices=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    return str(path)


def write_polygon(tmp_path, vertices, name="poly.json"):
    path = tmp_path / name
    save_polygon_file(path, PolygonFile(vertices=vertices))
    return str(path)


def parse_psi(stdout: str) -> np.ndarray:
    values = {}
    for line in stdout.splitlines():
        if line.startswith("psi["):
            idx = int(line.split("[")[1].split("]")[0])
            values[idx] = float(line.split("=")[1])
    return np.array([values[i] for i in range(len(values))])


class TestValidate:
    def test_valid_octant(self, octant_file, capsys):
        assert main(["validate", octant_file]) == 0
        out = capsys.readouterr().out
        assert "valid, convex, n=3" in out
        assert "hemisphere witness" in out

    def test_wrong_orientation(self, tmp_path, capsys):
        path = write_polygon(tmp_path, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert main(["validate", path]) == 1
        assert "WrongOrientation" in capsys.readouterr().err

    def test_self_intersecting(self, tmp_path, capsys):
        path = write_polygon(tmp_path, crossing_hexagon().tolist())
        assert main(["validate", path]) == 1
        assert "error: SelfIntersecting" in capsys.readouterr().err

    def test_not_in_hemisphere(self, tmp_path, capsys):
        path = write_polygon(tmp_path, [[1, 0, 0], [-1, 0, 0], [0, 1, 0]])
        assert main(["validate", path]) == 1
        assert "NotInHemisphere" in capsys.readouterr().err


class TestCoords:
    def test_center_new_mv(self, octant_file, capsys):
        assert main(["coords", octant_file, "--point", "1", "1", "1", "--method", "NEW_MV"]) == 0
        out = capsys.readouterr().out
        psi = parse_psi(out)
        np.testing.assert_allclose(psi, 0.5773502691896258, atol=1e-12)
        assert "sum = 1.7320508075688" in out
        residual = float([l for l in out.splitlines() if l.startswith("residual")][0].split("=")[1])
        assert residual < 1e-12

    @pytest.mark.parametrize("method", ["NEW_MV", "NEW_WC", "NEW_MV_CLOSED"])
    def test_vertex_kronecker(self, octant_file, method, capsys):
        assert main(["coords", octant_file, "--point", "1", "0", "0", "--method", method]) == 0
        psi = parse_psi(capsys.readouterr().out)
        np.testing.assert_array_equal(psi, [1.0, 0.0, 0.0])

    def test_classical_errors_at_vertex(self, octant_file, capsys):
        assert main(["coords", octant_file, "--point", "1", "0", "0", "--method", "CC_MV"]) == 1
        assert "OriginOnBoundary" in capsys.readouterr().err

    def test_closed_matches_generic_to_nine_digits(self, octant_file, capsys):
        main(["coords", octant_file, "--point", "0.3", "0.5", "0.9", "--method", "NEW_MV"])
        a = parse_psi(capsys.readouterr().out)
        main(["coords", octant_file, "--point", "0.3", "0.5", "0.9", "--method", "NEW_MV_CLOSED"])
        b = parse_psi(capsys.readouterr().out)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_exterior_is_domain_error(self, octant_file, capsys):
        assert main(["coords", octant_file, "--point", "-1", "-1", "-1"]) == 1
        assert "ExteriorPoint" in capsys.readouterr().err

    def test_tol_override(self, octant_file):
        assert main(["--tol", "1e-8", "coords", octant_file, "--point", "1", "1", "1"]) == 0

    def test_band_wider_than_half_an_edge_is_refused(self, capsys):
        # A 3-rad angle band would swallow the pole as vertex(3).
        assert main(["--tol", "0.3", "coords", str(DATA_DIR / "demo_quad.json"), "--point", "0", "0", "1"]) == 1
        assert "error: DegenerateEdge" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["NEW_MV", "NEW_WC", "NEW_MV_CLOSED"])
    def test_tol_band_reaches_point_location(self, method, capsys):
        # The midpoint arc of edge 0 of the demo quadrilateral, moved 5e-9 rad
        # inward: interior in the default band, on the edge in a 1e-8 band.
        quad = str(DATA_DIR / "demo_quad.json")
        point = ["0.38351905645425516", "0.47903138612489254", "0.789583475285357"]
        assert main(["coords", quad, "--point", *point, "--method", method]) == 0
        assert "location: interior" in capsys.readouterr().out
        assert main(["--tol", "1e-8", "coords", quad, "--point", *point, "--method", method]) == 0
        assert "location: edge(0)" in capsys.readouterr().out


def assert_usage_error(argv, capsys):
    """argv exits with code 2 and a one-line argparse error, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("sphbary") and "error: argument" in err.splitlines()[-1]
    return err


class TestUnparseableInput:
    @pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf", "abc"])
    def test_tol_must_be_positive_and_finite(self, eps, capsys):
        assert_usage_error(["--tol", eps, "validate", str(DATA_DIR / "demo_quad.json")], capsys)

    @pytest.mark.parametrize("levels", ["abc", "0.1", "0.1:x"])
    def test_malformed_levels(self, octant_file, levels, capsys):
        assert_usage_error(["grid", octant_file, "--levels", levels], capsys)

    @pytest.mark.parametrize("levels", ["nan:0.5,0.5:1", "0:0.5,0.5:NaN"])
    def test_nan_level_bound(self, octant_file, levels, capsys):
        # A NaN band matches no value; it is refused as --tol refuses NaN.
        assert_usage_error(["grid", octant_file, "--resolution", "8", "--levels", levels], capsys)

    @pytest.mark.parametrize("point", [["nan", "1", "1"], ["1", "inf", "1"], ["0", "NaN", "-1"], ["1e400", "0", "1"],
                                       ["x", "0", "1"]])
    @pytest.mark.parametrize("command", [["coords"], ["oracle"], ["--extended", "coords"]], ids=" ".join)
    def test_point_must_be_finite(self, octant_file, command, point, capsys):
        assert_usage_error([*command, octant_file, "--point", *point], capsys)

    def test_missing_polygon_file(self, tmp_path, capsys):
        assert_usage_error(["validate", str(tmp_path / "missing.json")], capsys)

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [[1, 0, 0],')
        assert_usage_error(["validate", str(path)], capsys)

    @pytest.mark.parametrize("text", ['{"name": "empty"}', "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"])
    def test_no_vertices_key(self, tmp_path, text, capsys):
        path = tmp_path / "novertices.json"
        path.write_text(text + "\n")
        assert_usage_error(["coords", str(path), "--point", "0", "0", "1"], capsys)

    @pytest.mark.parametrize("vertices", [
        "[[1, 0], [0, 1, 0], [0, 0, 1]]",
        "[[1, 0], [0, 1], [1, 1]]",
        '[[1, 0, 0], [0, "a", 0], [0, 0, 1]]',
        '[[1, 0, 0], [0, "1", 0], [0, 0, 1]]',
        "[[1, 0, 0], [0, true, 0], [0, 0, 1]]",
        "[[1, 0, 0], [0, null, 0], [0, 0, 1]]",
        "[[1, 0, 0], [0, NaN, 0], [0, 0, 1]]",
        "[[1%s, 0, 0], [0, 1, 0], [0, 0, 1]]" % ("0" * 400),
        "[1, 0, 0]",
        "5",
    ], ids=["ragged", "columns2", "string", "numeric_string", "bool", "null", "nan", "overflow", "flat", "scalar"])
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["coords", "--point", "0", "0", "1"],
        ["grid"],
        ["compare", "--methods", "NEW_MV", "CC_MV"],
        ["oracle", "--point", "1", "1", "1"],
    ], ids=lambda c: c[0])
    def test_vertices_not_an_n_by_3_number_array(self, tmp_path, vertices, command, capsys):
        path = tmp_path / "malformed.json"
        path.write_text('{"vertices": %s}\n' % vertices)
        assert_usage_error([command[0], str(path), *command[1:]], capsys)

    def test_fewer_than_three_vertices_stay_a_domain_error(self, tmp_path, capsys):
        path = write_polygon(tmp_path, [[1, 0, 0], [0, 1, 0]])
        assert main(["validate", path]) == 1
        assert "error: TooFewVertices" in capsys.readouterr().err


class TestExtendedFlag:
    def test_negative_dot_pair(self, tmp_path, capsys):
        polygon, x = sb.extended_pair()
        path = write_polygon(tmp_path, [[float(c) for c in v] for v in polygon.vertices])
        point = [repr(float(c)) for c in x]
        assert main(["coords", path, "--point", *point, "--method", "CC_MV"]) == 1
        assert "ProjectionUndefined" in capsys.readouterr().err
        assert main(["--extended", "coords", path, "--point", *point]) == 0
        out = capsys.readouterr().out
        assert "location: extended" in out
        residual = float([l for l in out.splitlines() if l.startswith("residual")][0].split("=")[1])
        assert residual <= 1e-8

    def test_near_edge_point_of_the_demo_quad(self, capsys):
        # A point next to an edge of the shipped quadrilateral, where the
        # extended mode once summed the fan face by face and missed x by 4.8e-8.
        point = ["0.19190957228871533", "0.5427662849576953", "0.8176646476258982"]
        assert main(["--extended", "coords", str(DATA_DIR / "demo_quad.json"), "--point", *point]) == 0
        out = capsys.readouterr().out
        residual = float([l for l in out.splitlines() if l.startswith("residual")][0].split("=")[1])
        assert residual <= 1e-8

    def test_great_circle_denominator_error(self, tmp_path, capsys):
        ring, x = sb.great_circle_ring()
        path = write_polygon(tmp_path, [[float(c) for c in v] for v in ring])
        assert main(["validate", path]) == 1            # no hemisphere witness
        capsys.readouterr()
        assert main(["--extended", "coords", path, "--point", "0", "0", "1"]) == 1
        assert "NonPositiveDenominator" in capsys.readouterr().err

    @pytest.mark.parametrize("vertices, code", [("[]", 1), ("[[1, 0, 0]]", 1), ("[[1, 0, 0], [0, 1, 0]]", 1),
                                                ("[1, 0, 0, 0, 1, 0]", 2)], ids=["empty", "one", "two", "flat"])
    def test_fewer_than_three_vertices(self, tmp_path, vertices, code, capsys):
        # As validate answers: TooFewVertices, or a usage error when the
        # file's vertices are not rows of three.
        path = tmp_path / "few.json"
        path.write_text('{"vertices": %s}\n' % vertices)
        for argv in (["validate", str(path)], ["--extended", "coords", str(path), "--point", "0", "0", "1"]):
            if code == 2:
                assert_usage_error(argv, capsys)
            else:
                assert main(argv) == 1
                assert "error: TooFewVertices" in capsys.readouterr().err

    def test_extended_limited_to_new_mv(self, octant_file, capsys):
        code = main(["--extended", "coords", octant_file, "--point", "1", "1", "1",
                     "--method", "CC_MV"])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["validate", "{file}"],
        ["grid", "{file}", "--resolution", "8", "--method", "NEW_WC", "--output", "{out}"],
        ["compare", "{file}", "--methods", "NEW_MV", "CC_MV", "--csv", "{out}"],
        ["random", "--n", "5", "--output", "{out}"],
        ["oracle", "{file}", "--point", "1", "1", "1"],
    ], ids=lambda c: c[0])
    def test_extended_refused_outside_coords(self, octant_file, tmp_path, command, capsys):
        # The global flag once did nothing outside coords: grid wrote the
        # validated grid and validate validated, both with exit 0.
        out = tmp_path / "out"
        argv = [a.format(file=octant_file, out=out) for a in command]
        err = assert_usage_error(["--extended", *argv], capsys)
        assert f"argument --extended: applies to coords only, not to {command[0]}" in err
        assert not out.exists()
        assert main(argv) == 0

    def test_extended_after_coords(self, octant_file, capsys):
        argv = [octant_file, "--point", "0.3", "0.5", "0.9"]
        assert main(["coords", "--extended", *argv]) == 0
        after = capsys.readouterr().out
        assert main(["--extended", "coords", *argv]) == 0
        assert capsys.readouterr().out == after
        assert "location: extended" in after


class TestGrid:
    def test_row_count_and_header(self, octant_file, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["grid", octant_file, "--vertex", "0", "--resolution", "16",
                     "--method", "NEW_MV", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 257

    def test_vertex_out_of_range_usage_error(self, octant_file, capsys):
        assert main(["grid", octant_file, "--vertex", "99"]) == 2
        assert "out of range for n=3" in capsys.readouterr().err

    def test_stdout_without_output(self, octant_file, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        assert main(["grid", octant_file, "--output", str(path)]) == 0
        assert main(["grid", octant_file]) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_low_resolution_usage_error(self, octant_file):
        with pytest.raises(SystemExit) as exc:
            main(["grid", octant_file, "--resolution", "4"])
        assert exc.value.code == 2

    def test_custom_levels(self, octant_file, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["grid", octant_file, "--resolution", "8", "--levels", "0.5:0.6,0.7:0.6",
                     "--output", str(out)]) == 0
        assert out.exists()

    def test_infinite_levels(self, octant_file, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["grid", octant_file, "--resolution", "8", "--levels=-inf:0.5,0.5:inf",
                     "--output", str(out)]) == 0
        assert out.exists()


class TestCompare:
    def test_mv_equivalence_on_pentagon(self, tmp_path, capsys):
        polygon = sb.random_polygon(5, 0.6, seed=9)
        path = write_polygon(tmp_path, [[float(c) for c in v] for v in polygon.vertices])
        assert main(["compare", path, "--methods", "NEW_MV", "CC_MV"]) == 0
        out = capsys.readouterr().out
        max_diff = float([l for l in out.splitlines() if l.startswith("max |diff|")][0]
                         .split("=")[1].split("at")[0])
        assert max_diff <= 1e-8

    def test_wachspress_divergence_on_demo_quad(self, capsys):
        assert main(["compare", str(DATA_DIR / "demo_quad.json"),
                     "--methods", "NEW_WC", "CC_WC"]) == 0
        out = capsys.readouterr().out
        max_diff = float([l for l in out.splitlines() if l.startswith("max |diff|")][0]
                         .split("=")[1].split("at")[0])
        assert max_diff > 1e-4

    def test_method_against_itself(self, capsys):
        # Every gap is 0, so there is no largest one to locate.
        assert main(["compare", str(DATA_DIR / "demo_quad.json"), "--methods", "CC_MV", "CC_MV",
                     "--resolution", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "grid points: 64, compared on both: 16"
        assert lines[3:] == ["max |diff| = 0.0", "mean |diff| = 0.0"]

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_low_resolution_usage_error(self, resolution):
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(DATA_DIR / "demo_quad.json"), "--methods", "NEW_WC", "CC_WC",
                  "--resolution", resolution])
        assert exc.value.code == 2

    def test_csv_reuses_the_grid_evaluations(self, tmp_path, locate_calls):
        # One evaluation per method and grid point; the CSV holds the rows
        # of `grid --vertex k` for both methods and every k.
        quad = str(DATA_DIR / "demo_quad.json")
        res, n = 8, 4
        csv_path = tmp_path / "compare.csv"
        assert main(["compare", quad, "--methods", "NEW_WC", "CC_WC", "--resolution", str(res),
                     "--csv", str(csv_path)]) == 0
        assert locate_calls[0] == 2 * res * res
        expected = CSV_HEADER + "\n"
        for method in ("NEW_WC", "CC_WC"):
            for k in range(n):
                grid_path = tmp_path / f"grid_{method}_{k}.csv"
                assert main(["grid", quad, "--vertex", str(k), "--resolution", str(res),
                             "--method", method, "--output", str(grid_path)]) == 0
                header, body = grid_path.read_text().split("\n", 1)
                assert header == CSV_HEADER
                expected += body
        assert csv_path.read_bytes() == expected.encode()


class TestRandom:
    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["random", "--n", "5", "--seed", "42", "--output", str(a)]) == 0
        assert main(["random", "--n", "5", "--seed", "42", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["seed"] == 42 and len(data["vertices"]) == 5

    def test_usage_error_small_n(self, capsys):
        assert main(["random", "--n", "2", "--seed", "1"]) == 2

    def test_usage_error_rho(self, capsys):
        assert main(["random", "--n", "5", "--rho", "2"]) == 2
        assert "rho must be in (0, pi/2)" in capsys.readouterr().err

    def test_stdout_without_output(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["random", "--n", "5", "--seed", "3", "--output", str(path)]) == 0
        assert main(["random", "--n", "5", "--seed", "3"]) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_nonconvex_flag(self, tmp_path, capsys):
        path = tmp_path / "nc.json"
        assert main(["random", "--n", "4", "--seed", "7", "--nonconvex",
                     "--output", str(path)]) == 0
        assert main(["validate", str(path)]) == 0
        assert "non-convex" in capsys.readouterr().out


class TestOracleCommand:
    def test_octant(self, octant_file, capsys):
        assert main(["oracle", octant_file, "--point", "1", "1", "1"]) == 0
        psi = parse_psi(capsys.readouterr().out)
        np.testing.assert_allclose(psi, 0.5773502691896258, atol=1e-15)

    def test_requires_triangle(self, tmp_path, capsys):
        polygon = sb.random_polygon(4, 0.6, seed=2)
        path = write_polygon(tmp_path, [[float(c) for c in v] for v in polygon.vertices])
        assert main(["oracle", path, "--point", "1", "1", "1"]) == 2
