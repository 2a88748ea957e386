"""The quotient construction: interior formula, boundary behavior, closed form."""

import warnings

import numpy as np
import pytest

import sphbary as sb
from sphbary.errors import (
    AngleDegenerate,
    DegenerateTriangle,
    ExteriorPoint,
    FaceThroughPoint,
    NonPositiveDenominator,
    NotConvexForWC,
    NotInterior,
    PointOnVertexOrAntipode,
    ProjectionUndefined,
    SphBaryError,
    TooFewVertices,
    ZeroVector,
    single,
)
from sphbary.geom import INTERIOR, Rays, locate_points, ring_rays, unit_rows
from sphbary.polyhedron import build_ring_q, fan_faces, hull_cavity, hull_faces, normalized_weights
from sphbary.spherical import KERNELS, _quotient, evaluate_batch, reconstruction_residuals

from conftest import jittered_ring, mp_cross, mp_dot, mp_mean_value, near_vertex_corpus, random_rotation, result_shapes
from test_polyhedron import mv_weights_loop, polyhedron_over, wachspress_weights_loop

CENTER = sb.normalize([1, 1, 1])
INV_SQRT3 = 1 / np.sqrt(3)
NEW_METHODS = ("NEW_MV", "NEW_WC", "NEW_MV_CLOSED")


def edge_point(polygon, j, t):
    vj, vk = polygon.edge(j)
    length = sb.angle_between(vj, vk)
    return (np.sin((1 - t) * length) * vj + np.sin(t * length) * vk) / np.sin(length)


def assert_edge_limit(polygon, x, loc):
    """The Gram edge solution equals the boundary limit of the 3D
    construction, via planar barycentric coordinates of the origin in the
    triangle (-x, v_j, v_{j+1})."""
    assert loc.kind == "edge"
    vj, vk = polygon.edge(loc.index)
    base = -np.asarray(x, dtype=float)
    u, v = vj - base, vk - base
    g11, g12, g22 = np.dot(u, u), np.dot(u, v), np.dot(v, v)
    r1, r2 = np.dot(-base, u), np.dot(-base, v)
    det = g11 * g22 - g12 * g12
    lam2 = (r1 * g22 - r2 * g12) / det
    lam3 = (r2 * g11 - r1 * g12) / det
    lam1 = 1.0 - lam2 - lam3
    assert abs(lam2 / lam1 - loc.a) <= 1e-10 and abs(lam3 / lam1 - loc.b) <= 1e-10, (
        "edge coefficients disagree with the planar boundary limit: "
        f"({lam2 / lam1}, {lam3 / lam1}) vs ({loc.a}, {loc.b})"
    )


class TestOctantValues:
    @pytest.mark.parametrize("method", NEW_METHODS)
    def test_center(self, octant, method):
        cv = sb.evaluate(octant, CENTER, method)
        np.testing.assert_allclose(cv.values, INV_SQRT3, atol=1e-12)
        assert cv.total == pytest.approx(np.sqrt(3), abs=1e-12)
        assert cv.total >= 1.0

    @pytest.mark.parametrize("method", NEW_METHODS)
    def test_kronecker_at_vertices(self, octant, method):
        for j in range(3):
            cv = sb.evaluate(octant, octant.vertex(j), method)
            expected = np.zeros(3)
            expected[j] = 1.0
            np.testing.assert_array_equal(cv.values, expected)

    @pytest.mark.parametrize("method", NEW_METHODS)
    def test_edge_midpoint(self, octant, method):
        cv = sb.evaluate(octant, sb.normalize([1, 1, 0]), method)
        np.testing.assert_allclose(cv.values, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12)

    def test_square_about_pole(self):
        # Four vertices at polar angle 45 degrees: by symmetry all psi are
        # equal and linear precision forces psi = 1 / (4 cos 45deg).
        azim = np.arange(4) * np.pi / 2
        s = np.sin(np.pi / 4)
        ring = np.column_stack([s * np.cos(azim), s * np.sin(azim), np.full(4, np.cos(np.pi / 4))])
        polygon = sb.validate_polygon(ring)
        cv = sb.spherical_coords(polygon, [0, 0, 1], "MV")
        np.testing.assert_allclose(cv.values, 0.35355339059327373, atol=1e-12)
        assert sb.reconstruction_residual(cv.values, polygon.vertices, [0, 0, 1]) <= 1e-12


class TestAngles:
    def test_octant_cache(self, octant):
        cache = sb.angles(octant, CENTER)
        np.testing.assert_allclose(cache.theta, np.arccos(INV_SQRT3), atol=1e-12)
        np.testing.assert_allclose(cache.alpha, 2 * np.pi / 3, atol=1e-12)
        assert cache.alpha.sum() == pytest.approx(2 * np.pi, abs=1e-12)

    def test_volume_identity_analytic(self, octant):
        # <e1, e2 x center> = 1/sqrt(3) equals sin^2(theta) sin(alpha).
        lhs = float(np.dot(octant.vertex(0), np.cross(octant.vertex(1), CENTER)))
        assert lhs == pytest.approx(INV_SQRT3, abs=1e-15)
        assert (2 / 3) * np.sin(2 * np.pi / 3) == pytest.approx(INV_SQRT3, abs=1e-15)

    def test_law_of_cosines_analytic(self):
        # cos angle(e1, e2) = 0 = sin^2(theta) cos(alpha) + cos^2(theta).
        assert (2 / 3) * np.cos(2 * np.pi / 3) + 1 / 3 == pytest.approx(0.0, abs=1e-15)

    def test_identities_random(self, rng):
        for k in range(20):
            polygon = sb.random_polygon(int(rng.integers(3, 10)), 1.0, seed=500 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            cache = sb.angles(polygon, x)
            V = polygon.vertices
            n = polygon.n
            if polygon.convex:
                assert cache.alpha.sum() == pytest.approx(2 * np.pi, abs=1e-9)
            for i in range(n):
                vol = float(np.dot(V[i], np.cross(V[(i + 1) % n], x)))
                rhs = np.sin(cache.theta[i]) * np.sin(cache.theta[(i + 1) % n]) * np.sin(cache.alpha[i])
                assert abs(vol - rhs) <= 1e-10
                lhs = np.cos(sb.angle_between(V[i], V[(i + 1) % n]))
                rhs2 = (
                    np.sin(cache.theta[i]) * np.sin(cache.theta[(i + 1) % n]) * np.cos(cache.alpha[i])
                    + np.cos(cache.theta[i]) * np.cos(cache.theta[(i + 1) % n])
                )
                assert abs(lhs - rhs2) <= 1e-10

    def test_degenerate_at_vertex(self, octant):
        with pytest.raises(AngleDegenerate):
            sb.angles(octant, octant.vertex(1))


class TestClosedForm:
    def test_octant_analytic(self, octant):
        omega, denom = sb.closed_form_mv_weights(octant, CENTER)
        expected = np.pi * 2 * np.tan(np.pi / 3) / (2 * np.sqrt(2 / 3))
        np.testing.assert_allclose(omega, expected, atol=1e-12)
        assert denom > 0
        np.testing.assert_allclose(omega / denom, INV_SQRT3, atol=1e-12)

    def test_direction_taken_as_its_unit_row(self, octant):
        # As evaluate takes it: the weights of 2.5 x are those of x.
        omega, denom = sb.closed_form_mv_weights(octant, 2.5 * CENTER)
        assert omega / denom == pytest.approx(sb.evaluate(octant, 2.5 * CENTER, "NEW_MV_CLOSED").values, abs=1e-15)
        with pytest.raises(ZeroVector):
            sb.closed_form_mv_weights(octant, [0.0, 0.0, 0.0])

    def test_agrees_with_generic_pipeline(self, rng):
        for k in range(30):
            polygon = sb.random_polygon(int(rng.integers(3, 13)), 1.0, seed=600 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            a = sb.spherical_coords(polygon, x, "MV").values
            b = sb.evaluate(polygon, x, "NEW_MV_CLOSED").values
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_denominator_positive(self, rng):
        for k in range(50):
            polygon = sb.random_polygon(int(rng.integers(3, 13)), 1.1, seed=700 + k)
            x = sb.interior_points(polygon, 1, rng)[0]
            _, denom = sb.closed_form_mv_weights(polygon, x)
            assert denom > 1e-12

    def test_signed_on_nonconvex_polygons(self):
        # Signed alphas make the closed form the mean value coordinate on
        # non-convex polygons as well.
        rng = np.random.default_rng(20261018)
        evaluated = against_cc = 0
        for k in range(30):
            polygon = sb.random_polygon(8, 1.0, seed=3000 + k, mode="nonconvex")
            for x in sb.interior_points(polygon, 28, rng):
                closed = sb.evaluate(polygon, x, "NEW_MV_CLOSED").values
                assert sb.reconstruction_residual(closed, polygon.vertices, x) <= 1e-8
                evaluated += 1
                try:
                    cc = sb.evaluate(polygon, x, "CC_MV").values
                except ProjectionUndefined:
                    continue
                assert np.max(np.abs(closed - cc)) <= 1e-9
                against_cc += 1
        assert evaluated == 30 * 28 and against_cc > evaluated // 2

    def test_alpha_near_pi_evaluated(self, octant):
        # Points the edge band leaves interior, with alpha_0 within 3 t of
        # pi: the closed form reproduces x and agrees with NEW_WC.
        mid = sb.normalize([1, 1, 0])
        pole = sb.normalize(np.cross(octant.vertex(0), octant.vertex(1)))
        for t in (1.5e-10, 2e-10, 4e-10, 1e-9, 1e-8):
            x = np.cos(t) * mid + np.sin(t) * pole
            assert sb.locate_point(octant, x).kind == "interior"
            assert np.pi - abs(sb.angles(octant, x).alpha[0]) <= 3 * t
            cv = sb.evaluate(octant, x, "NEW_MV_CLOSED")
            assert sb.reconstruction_residual(cv.values, octant.vertices, x) <= 1e-8
            assert np.max(np.abs(cv.values - sb.evaluate(octant, x, "NEW_WC").values)) <= 1e-12


class TestBoundaryBehavior:
    def test_edge_linearity(self, rng):
        for k in range(15):
            polygon = sb.random_polygon(int(rng.integers(3, 9)), 1.0, seed=800 + k)
            j = int(rng.integers(polygon.n))
            x = edge_point(polygon, j, rng.uniform(0.1, 0.9))
            cv = sb.spherical_coords(polygon, x, "MV")
            assert_edge_limit(polygon, sb.normalize(x), cv.location)
            vj, vk = polygon.edge(j)
            n = polygon.n
            assert np.linalg.norm(cv.values[j] * vj + cv.values[(j + 1) % n] * vk - x) <= 1e-10
            mask = np.ones(n, dtype=bool)
            mask[[j, (j + 1) % n]] = False
            assert np.all(cv.values[mask] == 0.0)

    def test_interior_converges_to_edge_formula(self, rng):
        for k in range(8):
            polygon = sb.random_polygon(5, 1.0, seed=900 + k)
            j = int(rng.integers(polygon.n))
            y = edge_point(polygon, j, 0.5)
            vj, vk = polygon.edge(j)
            pole = sb.normalize(np.cross(vj, vk))
            x = np.cos(1e-5) * y + np.sin(1e-5) * pole
            edge_values = sb.spherical_coords(polygon, y, "MV").values
            for method in NEW_METHODS:
                interior_values = sb.evaluate(polygon, x, method).values
                assert np.max(np.abs(interior_values - edge_values)) <= 1e-4

    def test_lagrange_continuity(self):
        polygon = sb.random_polygon(6, 1.0, seed=23)
        j = 1
        vj = polygon.vertex(j)
        inward = sb.normalize(CENTER_OF(polygon) - np.dot(CENTER_OF(polygon), vj) * vj)
        values = {}
        for t in (1e-3, 1e-4):
            x = np.cos(t) * vj + np.sin(t) * inward
            values[t] = sb.spherical_coords(polygon, x, "MV").values
        c_fit = abs(values[1e-3][j] - 1.0) / 1e-3
        assert abs(values[1e-4][j] - 1.0) <= 2.0 * c_fit * 1e-4
        assert np.max(np.abs(np.delete(values[1e-4], j))) <= 2.0 * c_fit * 1e-4

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_kernels_use_the_vertex_band_of_locate_point(self, factor):
        # x at tol.angle * factor from vertex 0, towards the interior: each
        # kernel refuses x, and -x, as aligned with vertex 0 iff locate_point
        # puts x in vertex 0's band, and otherwise answers at x (at -x, far
        # outside the ring, a fan face plane passes through the point).
        polygon = sb.demo_quadrilateral()
        v0, center = polygon.vertex(0), CENTER_OF(polygon)
        theta = sb.DEFAULT_TOL.angle * factor
        x = np.cos(theta) * v0 + np.sin(theta) * sb.normalize(center - np.dot(center, v0) * v0)
        aligned = str(sb.locate_point(polygon, x)) == "vertex(0)"
        assert aligned == (factor < 1)
        calls = [
            ("AngleDegenerate", lambda y: sb.closed_form_mv_weights(polygon, y)),
            ("AngleDegenerate", lambda y: sb.angles(polygon, y)),
            ("PointOnVertexOrAntipode", lambda y: sb.mv_weights(build_ring_q(polygon.vertices, y))),
            ("PointOnVertexOrAntipode",
             lambda y: sb.wachspress_weights(build_ring_q(polygon.vertices, y), require_convex=False)),
        ]
        for y in (x, -x):
            for tag, call in calls:
                try:
                    call(y)
                    refused = None
                except SphBaryError as error:
                    refused = error.name
                assert (refused == tag) == aligned
                assert aligned or y is not x or refused is None


def CENTER_OF(polygon):
    return sb.normalize(polygon.vertices.sum(axis=0))


class TestContracts:
    def test_exterior_raises(self, octant):
        with pytest.raises(ExteriorPoint):
            sb.spherical_coords(octant, sb.normalize([-1, -1, -1]), "MV")

    def test_wc_requires_convex_polygon(self, rng):
        polygon = sb.random_polygon(4, 0.9, seed=7, mode="nonconvex")
        x = sb.interior_points(polygon, 1, rng)[0]
        with pytest.raises(NotConvexForWC):
            sb.spherical_coords(polygon, x, "WC")

    def test_wc_answers_the_boundary_and_exterior_of_a_nonconvex_polygon(self, rng):
        # Only the interior needs the convex hull: at the vertices and on the
        # edges NEW_WC gives NEW_MV's values, outside it raises ExteriorPoint.
        polygon = sb.random_polygon(6, 0.9, seed=3, mode="nonconvex")
        x = sb.interior_points(polygon, 1, rng)[0]
        for j in range(polygon.n):
            for p in (polygon.vertices[j], edge_point(polygon, j, 0.5)):
                wc, mv = sb.evaluate(polygon, p, "NEW_WC"), sb.evaluate(polygon, p, "NEW_MV")
                assert wc.location == mv.location and wc.location.kind in ("vertex", "edge")
                np.testing.assert_array_equal(wc.values, mv.values)
        with pytest.raises(ExteriorPoint):
            sb.evaluate(polygon, -x, "NEW_WC")
        with pytest.raises(NotConvexForWC):
            sb.evaluate(polygon, x, "NEW_WC")

    def test_mv_on_nonconvex_polygons_matches_closed_and_classical(self):
        # The two spherical mean value coordinates coincide on non-convex
        # polygons too: NEW_MV answers at every interior point, reproduces
        # x, and equals NEW_MV_CLOSED and CC_MV wherever those answer.
        rng = np.random.default_rng(20261019)
        together = 0
        for seed in range(24):
            n, cap = int(rng.integers(5, 25)), float(rng.uniform(0.4, 1.4))
            polygon = sb.random_polygon(n, cap, seed=seed, mode="nonconvex")
            X = sb.interior_points(polygon, 25, rng)
            mv = evaluate_batch(polygon, X, "NEW_MV")
            assert all(error is None for error in mv.errors)
            assert np.max(np.linalg.norm(mv.values @ polygon.vertices - X, axis=1)) <= 1e-8
            answered = np.ones(len(X), bool)
            for method in ("NEW_MV_CLOSED", "CC_MV"):
                other = evaluate_batch(polygon, X, method)
                ok = np.array([error is None for error in other.errors])
                assert np.max(np.abs(other.values[ok] - mv.values[ok]), initial=0.0) <= 1e-9
                answered &= ok
            together += int(answered.sum())
        assert together >= 400

    def test_denominator_reported(self, octant):
        cv = sb.spherical_coords(octant, CENTER, "MV")
        assert cv.denom is not None and cv.denom > 1e-12

    @pytest.mark.parametrize("method", sb.METHODS)
    def test_overflowing_direction_is_its_unit_vector(self, octant, method):
        big, unit = sb.evaluate(octant, 1e308 * np.ones(3), method), sb.evaluate(octant, np.ones(3), method)
        assert str(big.location) == str(unit.location) == "interior"
        assert big.values.tobytes() == unit.values.tobytes() and big.denom == unit.denom

    @pytest.mark.parametrize("method", sb.METHODS)
    @pytest.mark.parametrize("x", [[np.inf, 1.0, 1.0], [1.0, 1.0, -np.inf], [np.nan, 0.0, 0.0]])
    def test_non_finite_direction_refused(self, octant, method, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVector, match="not finite"):
                sb.evaluate(octant, x, method)


# Two samples of the acceptance corpus (criterion 3) where polar-dual
# weights on the fan gave psi down to -3.16e-4 and -4.75e-5.
FAN_NEGATIVE_POLYGON = (5, 1.1996316263088271, 2316719796)
FAN_NEGATIVE_POINTS = (
    [0.43576915494765844, 0.024397444334116235, 0.8997277412118443],
    [0.3979528645966426, -0.0799737103266593, 0.9139134112244516],
)


class TestPolarDualOnHull:
    @pytest.mark.parametrize("x", FAN_NEGATIVE_POINTS)
    def test_nonnegative_where_the_fan_was_not(self, x):
        from sphbary.polyhedron import build_q, is_convex

        polygon = sb.random_polygon(*FAN_NEGATIVE_POLYGON)
        assert polygon.convex
        cv = sb.evaluate(polygon, x, "NEW_WC")
        assert float(cv.values.min()) >= -1e-10
        assert sb.reconstruction_residual(cv.values, polygon.vertices, sb.normalize(x)) <= 1e-8

        assert not is_convex(build_q(polygon, x))
        q = build_q(polygon, x, hull=True)
        assert is_convex(q)
        # The values are the quotient of the strict polar-dual coordinates
        # on exactly this polyhedron.
        n = polygon.n
        phi = sb.coords_at_origin(q, "WC")
        np.testing.assert_allclose(cv.values, phi[:n] / (phi[n + 1] - phi[n]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", range(5))
    def test_denominator_is_the_raw_weight_difference(self, case):
        # NEW_WC reports the raw polar-dual w_{-x} - w_x on the hull, as
        # NEW_MV reports its own, and its values are the ring weights over it.
        rng = np.random.default_rng(9700 + case)
        polygon = (sb.demo_quadrilateral(), sb.random_polygon(12, 0.9, seed=4), jittered_ring(rng, 5, 1.4, False),
                   jittered_ring(rng, 16, 0.6, False), jittered_ring(rng, 64, 1.5, False))[case]
        n = polygon.n
        X = unit_rows(np.vstack([[0.0, 0.0, 1.0], sb.interior_points(polygon, 20, rng)]))[0]
        batch = evaluate_batch(polygon, X, "NEW_WC")
        assert all(error is None for error in batch.errors)
        for x, values, denom in zip(X, batch.values, batch.denom):
            w = sb.wachspress_weights(sb.build_q(polygon, x, hull=True))
            assert denom == pytest.approx(w[n + 1] - w[n], rel=1e-12, abs=0)
            np.testing.assert_allclose(values * denom, w[:n], rtol=0, atol=1e-12 * np.abs(w[:n]).max())

    def test_strict_hull_weights_and_new_wc_refuse_the_same_rows(self):
        # NEW_WC and the strict polar-dual weights on the hull are one
        # strict mode: at interior samples and rows 1.5e-9 to 1e-7 rad from
        # every vertex of convex rings, evaluate raises the tag the weights
        # raise, and where they answer, evaluate returns their quotient bit
        # for bit or refuses by its own later gates.
        tally = {}
        for polygon, X in near_vertex_corpus(1):
            n = polygon.n
            for x in X:
                try:
                    w = sb.wachspress_weights(sb.build_q(polygon, x, hull=True))
                except (NotInterior, PointOnVertexOrAntipode):
                    continue                    # located on the boundary: the Kronecker delta or the edge
                except SphBaryError as exc:
                    assert single_outcome(polygon, x, "NEW_WC")[:2] == (exc.name, str(exc))
                    tally[exc.name] = tally.get(exc.name, 0) + 1
                    continue
                tag, _, values, _ = single_outcome(polygon, x, "NEW_WC")
                if tag is None:
                    assert values == (w[:n] / (w[n + 1] - w[n])).tobytes()
                    tally[None] = tally.get(None, 0) + 1
                else:
                    assert tag in ("KernelViolation", "NonPositiveDenominator")
        assert tally.get(None, 0) > 1000 and tally.get("NotConvex", 0) > 0


# (n, cap radius, mode): convex and star polygons, n 3..64, caps up to 1.5.
BATCH_POLYGONS = (
    (3, 1.5, "convex"), (4, 0.6, "nonconvex"), (6, 1.2, "convex"), (9, 1.5, "nonconvex"),
    (16, 0.9, "convex"), (24, 1.4, "nonconvex"), (40, 1.5, "convex"), (64, 1.2, "convex"),
)


def batch_points(polygon, rng):
    """Interior points, points at geodesic gaps 1e-4 ... 1e-12 inside an
    edge, two vertices, exterior points and a zero vector, shuffled."""
    inner = sb.interior_points(polygon, 4, rng)
    near = []
    for gap in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        j = int(rng.integers(polygon.n))
        vj, vk = polygon.edge(j)
        pole = sb.normalize(np.cross(vj, vk))
        near.append(np.cos(gap) * edge_point(polygon, j, rng.uniform(0.2, 0.8)) + np.sin(gap) * pole)
    points = np.vstack([inner, near, polygon.vertices[:2], -inner[:2], np.zeros((1, 3))])
    return points[rng.permutation(len(points))]


def row_outcome(batch, i):
    """A row's error tag and message (the CLI prints both), or its location
    and value bits."""
    error = batch.errors[i]
    if error is not None:
        return error.name, str(error), None, None
    return None, batch.locations.at(i), batch.values[i].tobytes(), batch.denom[i].tobytes()


def single_outcome(polygon, x, method):
    try:
        cv = sb.evaluate(polygon, x, method)
    except SphBaryError as exc:
        return exc.name, str(exc), None, None
    denom = np.float64(np.nan if cv.denom is None else cv.denom)
    return None, cv.location, cv.values.tobytes(), denom.tobytes()


class TestBatchInvariance:
    @pytest.mark.parametrize("case", range(len(BATCH_POLYGONS)))
    def test_rows_equal_single_point_calls(self, case):
        # Each row of a batch: the same location, error tag and message and
        # bits as the m = 1 call, also with the rows permuted, rotated
        # copies included.
        rng = np.random.default_rng(20261018 + case)
        n, rho, mode = BATCH_POLYGONS[case]
        polygon = sb.random_polygon(n, rho, seed=4000 + case, mode=mode)
        R = random_rotation(rng)
        rotated = sb.validate_polygon(polygon.vertices @ R.T)
        points = batch_points(polygon, rng)
        for poly, X in ((polygon, points), (rotated, points @ R.T)):
            for method in sb.METHODS:
                batch = evaluate_batch(poly, X, method)
                perm = rng.permutation(len(X))
                permuted = evaluate_batch(poly, X[perm], method)
                for i, x in enumerate(X):
                    if np.any(x):
                        assert batch.locations.at(i) == sb.locate_point(poly, x)
                    assert row_outcome(batch, i) == single_outcome(poly, x, method)
                for k, i in enumerate(perm):
                    assert row_outcome(permuted, k) == row_outcome(batch, i)
                # The zero row raises and the rows beside it still evaluate.
                assert batch.errors[np.flatnonzero(~np.any(X, axis=1))[0]].name == "ZeroVector"
                if poly.convex:
                    assert any(e is None for e in batch.errors)
                elif method == "NEW_WC":
                    # Only the interior is refused; every other row as NEW_MV answers it.
                    mv, interior = evaluate_batch(poly, X, "NEW_MV"), batch.locations.kind == INTERIOR
                    assert all(batch.errors[i].name == "NotConvexForWC" if interior[i]
                               else row_outcome(batch, i) == row_outcome(mv, i) for i in range(len(X)))

    @pytest.mark.parametrize("method", sb.METHODS)
    def test_one_ray_pass(self, method, monkeypatch):
        # Point location crosses x with the ring once for the whole block;
        # the kernel reads those rays instead of crossing again.
        polygon = sb.random_polygon(7, 1.0, seed=31)
        polygon.delaunay                                 # cached per polygon
        rng = np.random.default_rng(31)
        inner = sb.interior_points(polygon, 9, rng)
        X = np.vstack([inner, polygon.vertices[:2], edge_point(polygon, 3, 0.4), -inner[:1], np.zeros(3)])
        shapes = result_shapes(monkeypatch, sb.geom.cross3)
        batch = evaluate_batch(polygon, X, method)
        assert sum(e is None for e in batch.errors) >= 9
        assert [s for s in shapes if len(s) == 3] == [(len(X), polygon.n, 3)]

    @pytest.mark.parametrize("method", sb.METHODS)
    def test_empty_batch(self, octant, method):
        batch = evaluate_batch(octant, np.empty((0, 3)), method)
        assert batch.values.shape == (0, 3) and batch.denom.shape == (0,)
        assert batch.errors == [] and len(batch.locations) == 0

    def test_batch_needs_rows_of_three(self, octant):
        # A block is never reshaped into made-up directions; one direction
        # to evaluate may still come as a column.
        with pytest.raises(ZeroVector, match=r"^cannot normalize X: expected rows of 3 numbers, got shape \(3, 2\)$"):
            evaluate_batch(octant, np.zeros((3, 2)), "NEW_MV")
        x = np.array([1.0, 2.0, 3.0])
        column, row = sb.evaluate(octant, x[:, None], "NEW_MV"), sb.evaluate(octant, x, "NEW_MV")
        assert column.values.tobytes() == row.values.tobytes() and str(column.location) == "interior"


def near_edge_points(polygon, gap, rng):
    """One unit direction per edge at geodesic distance gap inside it, with
    its foot in the edge's middle half."""
    poles = polygon.edge_normals / np.linalg.norm(polygon.edge_normals, axis=1)[:, None]
    feet = np.array([edge_point(polygon, j, rng.uniform(0.25, 0.75)) for j in range(polygon.n)])
    return unit_rows(np.cos(gap) * feet + np.sin(gap) * poles)[0]


def quotient_of(w, n):
    """psi from raw weights w (n+2): the quotient of the normalized
    weights, with the errors of the evaluation path."""
    return coords_quotient(single(normalized_weights, w[None]), n)


def coords_quotient(phi, n):
    """psi from 3D coordinates phi (n+2): the evaluation path's quotient
    of phi[:n] over phi[n+1] - phi[n], its errors raised."""
    return single(_quotient, phi[None, :n], phi[None, n + 1] - phi[None, n])


def general_mv_outcome(polygon, x):
    """NEW_MV face by face: the fan polyhedron, the mean value weights of the
    origin in it summed per face (mv_weights_loop), the quotient; (error
    tag, psi)."""
    try:
        return None, quotient_of(mv_weights_loop(sb.build_q(polygon, x)), polygon.n)
    except SphBaryError as exc:
        return exc.name, None


# (n, cap, star): seeded jittered rings, n 3..64, caps up to 1.5.
FAN_RINGS = (
    (3, 1.5, False), (4, 0.4, False), (5, 1.2, True), (7, 0.9, True), (8, 1.4, False), (12, 1.5, True),
    (16, 0.7, False), (24, 1.1, True), (32, 1.5, False), (48, 1.3, True), (64, 1.0, False), (64, 1.5, True),
)


class TestFanKernel:
    @pytest.mark.parametrize("case", range(len(FAN_RINGS)))
    def test_matches_the_general_route(self, case):
        # Every interior row gets the same error tag from NEW_MV's fan kernel
        # and from the per-face sum, and where both succeed the same psi
        # to 1e-12 at points at least 1e-4 from the boundary; nearer to it
        # the per-face sum loses accuracy, so only the tags are compared.
        n, cap, star = FAN_RINGS[case]
        rng = np.random.default_rng(7100 + case)
        polygon = jittered_ring(rng, n, cap, star)
        R = random_rotation(rng)
        for poly in (polygon, sb.validate_polygon(polygon.vertices @ R.T)):
            X = np.vstack([sb.interior_points(poly, 40, rng)]
                          + [near_edge_points(poly, gap, rng) for gap in (1e-3, 1e-5, 1e-7, 1e-9, 4e-10, 2e-10)])
            poles = poly.edge_normals / np.linalg.norm(poly.edge_normals, axis=1)[:, None]
            far = np.min(np.abs(X @ poles.T), axis=1) >= 1e-4      # sin of a lower bound on the distance
            batch = evaluate_batch(poly, X, "NEW_MV")
            compared = 0
            for i in np.flatnonzero(batch.locations.kind == INTERIOR):
                tag, psi = general_mv_outcome(poly, X[i])
                assert (None if batch.errors[i] is None else batch.errors[i].name) == tag
                if tag is None and far[i]:
                    np.testing.assert_allclose(batch.values[i], psi, rtol=0, atol=1e-12)
                    compared += 1
            assert compared >= 40

    def test_each_mean_value_method_names_its_own_errors(self, octant):
        # NEW_MV and NEW_MV_CLOSED run one kernel and differ only in the
        # errors they name: for x on a vertex, for weights that are not
        # finite (a NaN tau) and for a denominator that is not positive (all
        # cos theta_i = 0).  The row that succeeds gets the same bits from
        # both and from its single-row call.
        X = unit_rows(np.vstack([CENTER, octant.vertices[0], CENTER + [0.1, 0, 0], CENTER - [0.1, 0, 0]]))[0]
        c, cos, tau, d, sin = ring_rays(octant, X)
        cos, tau = cos.copy(), tau.copy()
        tau[2, 0], cos[3] = np.nan, 0.0
        rays = Rays(c, cos, tau, d, sin)
        expected = {"NEW_MV": ("PointOnVertexOrAntipode", "KernelViolation", "NonPositiveDenominator"),
                    "NEW_MV_CLOSED": ("AngleDegenerate", "AlphaNearPi", "NonPositiveDenominator")}
        values = []
        for method, tags in expected.items():
            errors = [None] * 4
            w, denom = KERNELS[method](octant, X, rays, errors)
            psi = _quotient(w, denom, errors)
            assert errors[0] is None and tuple(e.name for e in errors[1:]) == tags
            assert str(errors[3]).startswith("denominator w[-x] - w[x] = 0.000e+00 <= ")
            assert psi[0].tobytes() == sb.evaluate(octant, X[0], method).values.tobytes()
            values.append((psi[0].tobytes(), denom[0]))
        assert values[0] == values[1]

    def test_matches_50_digit_face_sums(self):
        # The paper's theorem against an independent computation: NEW_MV's
        # psi, from the ring term alone, against the per-face mean value
        # sums over the whole fan, w_x included, in 50 digits at the same
        # unit row x, psi_j = w_j / (w_{-x} - w_x); within 1e-12 of the
        # row's largest |psi| at interior samples of convex and non-convex
        # rings.
        mpmath = pytest.importorskip("mpmath")
        convex, compared = set(), 0
        with mpmath.workdps(50):
            for case, (n, cap, star) in enumerate(FAN_RINGS):
                rng = np.random.default_rng(7500 + case)
                polygon = jittered_ring(rng, n, cap, star)
                convex.add(polygon.convex)
                X = unit_rows(sb.interior_points(polygon, 4, rng))[0]
                batch = evaluate_batch(polygon, X, "NEW_MV")
                V = [[mpmath.mpf(float(c)) for c in v] for v in polygon.vertices]
                for i, x in enumerate(X):
                    assert batch.errors[i] is None
                    P = V + [[mpmath.mpf(float(c)) for c in x], [-mpmath.mpf(float(c)) for c in x]]
                    w = mp_mean_value(mpmath, P, fan_faces(n).tolist())
                    exact = np.array([float(w[j] / (w[n + 1] - w[n])) for j in range(n)])
                    assert np.max(np.abs(batch.values[i] - exact)) <= 1e-12 * np.max(np.abs(exact))
                    compared += 1
        assert convex == {True, False} and compared == 4 * len(FAN_RINGS)


def general_wc_outcome(polygon, x):
    """NEW_WC face by face at the unit x: the convex hull of
    [v_1..v_n, x, -x] with the faces build_q(polygon, x, hull=True) takes
    (here without normalizing and locating x again, which can move a point
    near a vertex onto an edge), the strict polar-dual weights of the
    origin in it summed per dual cell (wachspress_weights_loop), the
    quotient; (error tag, psi, whether a face (x, a, b) stands on a
    diagonal, that is, x sees a proper sub-disc of the triangulation)."""
    n = polygon.n
    try:
        q = polyhedron_over(polygon, x, single(hull_faces, polygon, x[None]))
        psi = quotient_of(wachspress_weights_loop(q, polygon.tol), n)
    except SphBaryError as exc:
        return exc.name, None, False
    ends = np.array([np.roll(f, -int(np.argmax(f == n)))[1:] for f in q.faces if n in f])
    return None, psi, bool(np.any((ends[:, 1] - ends[:, 0]) % n != 1))


def nudged_ring(rng, n: int, cap: float):
    """A cocircular ring with some polar angles moved by 1e-12 ... 1e-8,
    where the band decides the triangulation and x's cavity."""
    azimuth = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, size=n)) / n
    polar = cap * (1 + rng.choice([0.0, 1e-12, 1e-10, 1e-8], size=n) * rng.uniform(-1, 1, size=n))
    return sb.validate_polygon(np.column_stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]))


# (n, cap, kind): seeded convex rings, n 3..64, caps up to 1.5.  x sees every
# triangle of a cocircular ring; near an edge of a generic one it sees a
# proper sub-disc, so triangles and their diagonals stay on the hull; near
# a vertex of a nudged one the cavity or the hull's convexity is refused.
HULL_RINGS = (
    (3, 1.5, "cocircular"), (4, 1.2, "generic"), (5, 1.5, "generic"), (6, 0.9, "cocircular"),
    (8, 1.5, "generic"), (12, 1.4, "generic"), (16, 0.7, "cocircular"), (24, 1.5, "generic"),
    (32, 1.5, "cocircular"), (40, 1.1, "generic"), (64, 1.0, "cocircular"), (64, 1.5, "generic"),
    (30, 0.5, "nudged"), (24, 0.8, "nudged"), (33, 1.1, "nudged"),
)


class TestPolarDualKernel:
    @pytest.mark.parametrize("case", range(len(HULL_RINGS)))
    def test_matches_the_general_route(self, case):
        # Every interior row gets the same error tag from NEW_WC's edge-form
        # kernel and from the dual-cell sum over the hull, and
        # where both succeed the same psi to 1e-12 at points at least 1e-4
        # from the boundary.
        n, cap, kind = HULL_RINGS[case]
        rng = np.random.default_rng(7300 + case)
        polygon = (sb.random_polygon(n, cap, seed=7300 + case) if kind == "generic"
                   else jittered_ring(rng, n, cap, star=False) if kind == "cocircular" else nudged_ring(rng, n, cap))
        R = random_rotation(rng)
        diagonal, refusals = 0, set()
        for poly in (polygon, sb.validate_polygon(polygon.vertices @ R.T)):
            assert poly.convex
            centre = sb.normalize(poly.vertices.sum(axis=0))
            X = unit_rows(np.vstack(
                [sb.interior_points(poly, 40, rng)]
                + [near_edge_points(poly, gap, rng) for gap in (1e-3, 1e-5, 1e-7, 1e-9, 4e-10, 2e-10)]
                + [poly.vertices + t * (centre - poly.vertices) for t in (1e-8, 3e-8)]))[0]
            poles = poly.edge_normals / np.linalg.norm(poly.edge_normals, axis=1)[:, None]
            far = np.min(np.abs(X @ poles.T), axis=1) >= 1e-4      # sin of a lower bound on the distance
            batch = evaluate_batch(poly, X, "NEW_WC")
            compared = 0
            for i in np.flatnonzero(batch.locations.kind == INTERIOR):
                tag, psi, on_diagonal = general_wc_outcome(poly, X[i])
                assert (None if batch.errors[i] is None else batch.errors[i].name) == tag
                if tag is None and far[i]:
                    np.testing.assert_allclose(batch.values[i], psi, rtol=0, atol=1e-12)
                    compared += 1
                diagonal += on_diagonal
                refusals.add(None if tag is None else str(batch.errors[i]))
            assert compared >= 40
        assert kind != "generic" or diagonal >= 10
        assert kind != "nudged" or {"x does not see a disc of the polygon's triangles",
                                    "polyhedron has a reflex dihedral angle"} <= refusals

    @pytest.mark.parametrize("n", [3, 6, 16, 64])
    def test_hull_is_the_fan_where_x_sees_every_triangle(self, n):
        # Where x sees every Delaunay triangle of a convex polygon, the hull
        # of [v_1..v_n, x, -x] is the fan, so NEW_WC equals the relaxed
        # polar-dual route on the fan; where the outline has a chord, the
        # hull is not the fan and the two differ.
        def fan_route(polygon, x):
            phi = sb.coords_at_origin(sb.build_q(polygon, x), "WC", require_convex=False)
            return coords_quotient(phi, polygon.n)

        rng = np.random.default_rng(9400 + n)
        polygon = jittered_ring(rng, n, float(rng.uniform(0.3, 1.4)), star=False)
        X = unit_rows(np.vstack([sb.interior_points(polygon, 30, rng)]
                                + [near_edge_points(polygon, gap, rng) for gap in (1e-4, 1e-8, 1e-11)]))[0]
        X = X[locate_points(polygon, X).kind == INTERIOR]
        batch = evaluate_batch(polygon, X, "NEW_WC")
        _, seen, _ = hull_cavity(polygon, X, [None] * len(X))
        compared = 0
        for i in np.flatnonzero(seen[:, :-1].all(axis=1)):
            if batch.errors[i] is None:
                np.testing.assert_allclose(batch.values[i], fan_route(polygon, X[i]), rtol=0, atol=1e-14)
                compared += 1
        assert compared >= 30
        for polygon in (sb.demo_quadrilateral(), sb.random_polygon(12, 0.9, seed=4)):
            X = sb.interior_points(polygon, 40, rng)
            batch = evaluate_batch(polygon, X, "NEW_WC")
            _, _, sides = hull_cavity(polygon, X, [None] * len(X))
            chord = (sides[..., 0] != sides[..., 1]).any(axis=1)
            gaps = [np.max(np.abs(batch.values[i] - fan_route(polygon, X[i])))
                    for i in np.flatnonzero(chord) if batch.errors[i] is None]
            assert max(gaps) > 1e-6


    def test_half_edge_tables_are_built_when_read(self, monkeypatch):
        # x sees every Delaunay triangle of a triangle or of a cocircular
        # ring, so NEW_WC reads their planes alone and never builds the
        # half-edge tables; demo_quad's cavities read them, and they are
        # built once per polygon.  Whether they were read before a batch or
        # are built inside it, every row comes out the same.
        builds = []
        build = sb.geom.half_edge_tables
        monkeypatch.setattr(sb.geom, "half_edge_tables", lambda V, d, tol: builds.append(d) or build(V, d, tol))
        rng = np.random.default_rng(9500)
        for n in (3, 12, 64):
            azimuth = 2 * np.pi * np.arange(n) / n
            polygon = sb.validate_polygon(np.column_stack([np.cos(azimuth), np.sin(azimuth), np.ones(n)]))
            X = np.vstack([sb.interior_points(polygon, 10, rng)]
                          + [near_edge_points(polygon, gap, rng) for gap in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)])
            assert np.count_nonzero([sb.evaluate(polygon, x, "NEW_WC").denom is not None
                                     for x in X[locate_points(polygon, X).kind == INTERIOR]]) >= 10 + 3 * n
            sb.grid_rows(polygon, 0, 8, "NEW_WC")
        assert builds == []
        quad = sb.demo_quadrilateral()
        sb.grid_rows(quad, 0, 8, "NEW_WC")
        sb.grid_rows(quad, 1, 8, "NEW_WC")
        assert builds == [quad.delaunay]
        refusals = set()
        for polygon in (quad, sb.random_polygon(12, 0.9, seed=4), nudged_ring(np.random.default_rng(9501), 30, 0.5)):
            centre = sb.normalize(polygon.vertices.sum(axis=0))
            corners = [polygon.vertices + t * (centre - polygon.vertices) for t in (1e-9, 1e-8, 3e-8)]
            near = [near_edge_points(polygon, gap, rng) for gap in (1e-4, 1e-8, 1e-12)]
            X = unit_rows(np.vstack([sb.interior_points(polygon, 30, rng)] + near + corners))[0]
            read = sb.validate_polygon(polygon.vertices)
            read.half_edges
            built = sb.validate_polygon(polygon.vertices)
            before, inside = evaluate_batch(read, X, "NEW_WC"), evaluate_batch(built, X, "NEW_WC")
            assert "half_edges" in vars(built)
            assert [row_outcome(before, i) for i in range(len(X))] == [row_outcome(inside, i) for i in range(len(X))]
            refusals |= {str(e) for e in inside.errors if e is not None}
        assert {"x does not see a disc of the polygon's triangles",
                "polyhedron has a reflex dihedral angle"} <= refusals


def band_convex_pentagon(corner: float, cap: float = 1.3) -> np.ndarray:
    """A cocircular pentagon at the polar angle cap, with vertex 1's polar
    angle reduced, by bisection, until its corner triple is `corner`."""
    azimuth = 2 * np.pi * np.arange(5) / 5

    def ring(polar1):
        polar = np.full(5, cap)
        polar[1] = polar1
        return np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])

    lo, hi = 0.5 * cap, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sb.geom.Ring(unit_rows(ring(mid))[0]).corners[1] < corner else (lo, mid)
    return ring(hi)


@pytest.mark.parametrize("corner, convex", [(5e-11, True), (-5e-11, True), (-1.5e-10, False)])
def test_wachspress_routes_on_rings_convex_within_the_band(corner, convex):
    # A corner triple within tol.geom below 0 leaves the ring convex, and
    # NEW_WC answers every row; beyond it NEW_WC refuses them all.  CC_WC
    # gates each row's projected corners, the triple over products of cos
    # theta, which these rows scale past the band, and refuses them with
    # NotConvex: read from polygon.convex instead, it answered 11 rows of
    # the -5e-11 ring with psi down to -1.66e-10.  Every answer is
    # non-negative to 1e-10 and reproduces x to 1e-8.
    polygon = sb.validate_polygon(band_convex_pentagon(corner))
    assert polygon.convex == convex and polygon.corners[1] == pytest.approx(corner, rel=1e-4)
    X = sb.interior_points(polygon, 200, np.random.default_rng(0))
    for method, refusals in (("NEW_WC", {"NotConvexForWC"}), ("CC_WC", {"ProjectionUndefined", "NotConvex"})):
        batch = evaluate_batch(polygon, X, method)
        ok = np.array([e is None for e in batch.errors])
        assert {e.name for e in batch.errors if e is not None} <= refusals
        assert method != "NEW_WC" or ok.all() == convex and ok.any() == convex
        assert np.all(batch.values[ok] >= -1e-10), method
        assert np.all(reconstruction_residuals(batch.values[ok], polygon.vertices, X[ok]) <= 1e-8), method


# ROADMAP item 1's sweep.
SWEEP_GAPS = tuple(10.0 ** -k for k in range(4, 14))


# The public functions on one polyhedron, at one direction x (m = 1): psi
# of x, or its error raised.
Q_ROUTES = {
    "q:MV": lambda p, x: coords_quotient(sb.coords_at_origin(sb.build_q(p, x), "MV"), p.n),
    "q:WC": lambda p, x: coords_quotient(sb.coords_at_origin(sb.build_q(p, x, hull=True), "WC"), p.n),
    "extended:MV": lambda p, x: sb.extended_spherical_coords(p.vertices, x, "MV").values,
    "extended:WC": lambda p, x: sb.extended_spherical_coords(p.vertices, x, "WC").values,
}


def sweep_rows(method, polygon, X) -> tuple[np.ndarray, list]:
    """Values (m, n) and errors of one method or q-route at the rows of X."""
    if method in sb.METHODS:
        batch = evaluate_batch(polygon, X, method)
        return batch.values, batch.errors
    values, errors = np.full((len(X), polygon.n), np.nan), [None] * len(X)
    for i, x in enumerate(X):
        try:
            values[i] = Q_ROUTES[method](polygon, x)
        except SphBaryError as exc:
            errors[i] = exc
    return values, errors


def edge_line_points(polygon, gap, rng):
    """Points on each edge's great circle past either end, by 0.1 ... 1.0
    times the edge's angle, moved gap off the circle to both sides: the
    unit directions among them that locate_points calls interior (the
    circle enters the polygon only past a reflex vertex)."""
    V, lengths = polygon.vertices, polygon.edge_angles
    poles = polygon.edge_normals / polygon.edge_sines[:, None]
    t = rng.uniform(0.1, 1.0, size=(2, polygon.n))
    phi = np.concatenate([(1.0 + t[0]) * lengths, -t[1] * lengths])[:, None]    # from v_j towards v_{j+1}
    on_circle = np.cos(phi) * np.vstack([V, V]) + np.sin(phi) * np.vstack([np.cross(poles, V)] * 2)
    off = np.sin(gap) * np.vstack([poles, poles])
    X = unit_rows(np.vstack([np.cos(gap) * on_circle + off, np.cos(gap) * on_circle - off]))[0]
    return X[locate_points(polygon, X).kind == INTERIOR]


class TestNearBoundarySweep:
    @pytest.mark.parametrize("method", ["NEW_MV", "NEW_WC", "NEW_MV_CLOSED", "CC_MV", "CC_WC", *Q_ROUTES])
    def test_small_residual_or_named_error(self, method):
        # Seeded convex and star rings, at each gap from 1e-4 to 1e-13 one
        # point per edge that far inside it, and the interior points that
        # far off each edge's great circle past its ends (at least 1000 in
        # all, from the star rings): each row is within 1e-8 of x or a
        # named error.  The mean value quotients refuse no edge-line row.
        wrong, refused, edge_line = [], [], 0
        for k in range(20):
            rng, line_rng = np.random.default_rng(8300 + k), np.random.default_rng(8600 + k)
            polygon = jittered_ring(rng, int(rng.integers(3, 20)), rng.uniform(0.3, 1.4), star=k % 2 == 1)
            for gap in SWEEP_GAPS:
                line = edge_line_points(polygon, gap, line_rng)
                X = np.vstack([near_edge_points(polygon, gap, rng), line])
                edge_line += len(line)
                values, errors = sweep_rows(method, polygon, X)
                residual = np.linalg.norm(values @ polygon.vertices - X, axis=1)
                wrong += [(k, gap, i, residual[i]) for i, error in enumerate(errors)
                          if not (isinstance(error, SphBaryError) or residual[i] <= 1e-8)]
                refused += [(k, gap, i, error.name) for i, error in enumerate(errors)
                            if i >= len(X) - len(line) and error is not None]
        assert wrong == [] and edge_line >= 1000
        assert method not in ("NEW_MV", "NEW_MV_CLOSED") or refused == []


def mp_polar_dual(mp, P, faces):
    """Polar-dual weights of the origin in the polyhedron P with the given
    faces, per dual cell as wachspress_weights_loop sums them."""
    dual = []
    for a, b, c in ([P[v] for v in f] for f in faces):
        normal = mp_cross([b[k] - a[k] for k in range(3)], [c[k] - a[k] for k in range(3)])
        offset = mp_dot(normal, a)
        dual.append([v / offset for v in normal])
    face_of = {(f[s], f[(s + 1) % 3]): g for g, f in enumerate(faces) for s in range(3)}
    area = [[mp.mpf(0)] * 3 for _ in P]
    for g, f in enumerate(faces):
        for s in range(3):
            cell = mp_cross(dual[face_of[f[(s + 1) % 3], f[s]]], dual[g])
            area[f[s]] = [area[f[s]][k] + cell[k] for k in range(3)]
    return [mp_dot(p, S) / mp_dot(p, p) for p, S in zip(P, area)]


def mp_classical(mp, V, x, wachspress: bool):
    """psi of CC_MV or CC_WC at the unit row x (mpf, as V's rows): the
    planar mean value or Wachspress weights of the origin in the gnomonic
    image u_i = v_i / <v_i, x> - x, in the plane normal to x, over their
    sum and over <v_i, x>."""
    n = len(V)
    cos = [mp_dot(v, x) for v in V]
    u = [[v[k] / c - x[k] for k in range(3)] for v, c in zip(V, cos)]

    def area(a, b, c):          # signed, seen from x
        return mp_dot(x, mp_cross([b[k] - a[k] for k in range(3)], [c[k] - a[k] for k in range(3)])) / 2

    if wachspress:
        origin = [mp.mpf(0)] * 3
        w = [area(u[i - 1], u[i], u[(i + 1) % n]) / (area(origin, u[i - 1], u[i]) * area(origin, u[i], u[(i + 1) % n]))
             for i in range(n)]
    else:
        r = [mp.sqrt(mp_dot(a, a)) for a in u]
        half = [mp_dot(x, mp_cross(u[i], u[(i + 1) % n])) / (r[i] * r[(i + 1) % n] + mp_dot(u[i], u[(i + 1) % n]))
                for i in range(n)]
        w = [(half[i - 1] + half[i]) / r[i] for i in range(n)]
    total = sum(w)
    return np.array([float(w[i] / total / cos[i]) for i in range(n)])


class TestHighPrecisionOracle:
    def test_near_edge_rows_match_50_digits(self):
        # Convex rings with n <= 8, one point per edge at gaps 1e-7 ... 1e-13:
        # NEW_MV, NEW_WC and the q-route against the per-face mean value sum
        # on the fan and the dual-cell polar-dual sum on the hull (the faces
        # build_q(..., hull=True) takes), both in 50-digit arithmetic at the
        # same unit row x; every row that returns values is within 1e-8.
        mpmath = pytest.importorskip("mpmath")
        rows, compared, far = 0, {}, []
        with mpmath.workdps(50):
            for k, (n, cap) in enumerate(((3, 1.4), (5, 0.6), (8, 1.5))):
                rng = np.random.default_rng(8700 + k)
                polygon = jittered_ring(rng, n, cap, star=False)
                X = unit_rows(np.vstack([near_edge_points(polygon, gap, rng) for gap in (1e-7, 1e-9, 1e-11, 1e-13)]))[0]
                rows += len(X)
                routes = {method: sweep_rows(method, polygon, X)
                          for method in ("NEW_MV", "NEW_WC", "q:MV", "q:WC", "extended:MV")}
                V = [[mpmath.mpf(float(c)) for c in v] for v in polygon.vertices]
                for i, x in enumerate(X):
                    P = V + [[mpmath.mpf(float(c)) for c in x], [-mpmath.mpf(float(c)) for c in x]]
                    oracle = {}
                    for backend, weights, faces in (
                            ("MV", mp_mean_value, fan_faces(n)),
                            ("WC", mp_polar_dual, single(hull_faces, polygon, x[None]))):
                        w = weights(mpmath, P, faces.tolist())
                        oracle[backend] = np.array([float(w[j] / (w[n + 1] - w[n])) for j in range(n)])
                    for method, (values, errors) in routes.items():
                        if errors[i] is None:
                            gap = np.max(np.abs(values[i] - oracle[method[-2:]]))
                            compared[method] = compared.get(method, 0) + 1
                            if not gap <= 1e-8:
                                far.append((k, i, method, gap))
        assert rows <= 300 and far == []
        assert min(compared.values()) >= 20 and len(compared) == 5

    def test_classical_rows_match_50_digits(self):
        # CC_MV and CC_WC at interior samples of convex rings, n 3 ... 16 and
        # caps 0.3 ... 1.55, and CC_MV on star rings too, against the planar
        # formulas of the gnomonic image of the same float vertices at the
        # same unit row x in 50-digit arithmetic: every row that returns
        # values is within 1e-12 of its max |psi|.
        mpmath = pytest.importorskip("mpmath")
        compared, far = {"CC_MV": 0, "CC_WC": 0}, []
        with mpmath.workdps(50):
            for k, (n, cap) in enumerate(zip((3, 4, 5, 6, 8, 10, 12, 16, 4, 7, 9, 13), np.linspace(0.3, 1.55, 12))):
                rng = np.random.default_rng(8900 + k)
                star = k >= 8
                polygon = jittered_ring(rng, n, cap, star=star)
                X = unit_rows(sb.interior_points(polygon, 4, rng))[0]
                V = [[mpmath.mpf(float(c)) for c in v] for v in polygon.vertices]
                for method in ("CC_MV",) if star else ("CC_MV", "CC_WC"):
                    batch = evaluate_batch(polygon, X, method)
                    for i, x in enumerate(X):
                        if batch.errors[i] is None:
                            oracle = mp_classical(mpmath, V, [mpmath.mpf(float(c)) for c in x], method == "CC_WC")
                            compared[method] += 1
                            if not np.max(np.abs(batch.values[i] - oracle)) <= 1e-12 * np.max(np.abs(oracle)):
                                far.append((k, i, method))
        assert far == []
        assert compared["CC_MV"] >= 30 and compared["CC_WC"] >= 20


class TestExtendedDomain:
    @pytest.mark.parametrize("backend, error", [("MV", DegenerateTriangle), ("WC", FaceThroughPoint)])
    @pytest.mark.parametrize("neighbour", ["repeated", "antipodal"])
    def test_repeated_or_antipodal_neighbour_is_refused(self, neighbour, backend, error):
        # The quadrilateral with its last vertex repeated, or with the
        # antipode of its first appended: a zero edge normal is 0/0 in the
        # edge tables and in the face gates, and each route raises a named
        # error, with no RuntimeWarning (an error in this suite) and no NaN.
        V = sb.demo_quadrilateral().vertices
        ring, x = np.vstack([V, V[-1:] if neighbour == "repeated" else -V[:1]]), sb.normalize(V.sum(axis=0))
        with pytest.raises(error):
            sb.extended_spherical_coords(ring, x, backend)
        with pytest.raises(error):
            sb.origin_coords_on_ring(ring, x, backend)

    @pytest.mark.parametrize("backend", ["MV", "WC"])
    @pytest.mark.parametrize("ring", [[], [[1, 0, 0]], [[1, 0, 0], [0, 1, 0]], [1, 0, 0, 0, 1, 0]],
                             ids=["empty", "one", "two", "flat"])
    def test_fewer_than_three_rows_are_too_few_vertices(self, ring, backend):
        # Validation's shape checks: an (n, 3) array with n >= 3.
        with pytest.raises(TooFewVertices):
            sb.extended_spherical_coords(ring, [0, 0, 1], backend)
        with pytest.raises(TooFewVertices):
            sb.origin_coords_on_ring(ring, [0, 0, 1], backend)

    def test_negative_dot_pair(self):
        polygon, x = sb.extended_pair()
        assert float(np.min(polygon.vertices @ x)) < 0.0
        cv = sb.extended_spherical_coords(polygon.vertices, x)
        assert np.all(np.isfinite(cv.values))
        assert sb.reconstruction_residual(cv.values, polygon.vertices, x) <= 1e-8

    def test_extended_matches_default_when_interior(self):
        polygon, x = sb.extended_pair()
        assert sb.locate_point(polygon, x).kind == "interior"
        a = sb.extended_spherical_coords(polygon.vertices, x).values
        b = sb.spherical_coords(polygon, x, "MV").values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nan_denominator_is_refused(self):
        # NaN is not above the denominator's threshold: its row gets
        # NonPositiveDenominator, the other rows of the block are divided as
        # they are alone.
        phi = np.array([[0.2, 0.3, 0.1, 0.4], [0.2, 0.3, np.nan, 0.4], [0.1, 0.1, 0.3, 0.5]])
        errors = [None] * 3
        denom = phi[:, 3] - phi[:, 2]
        values = _quotient(phi[:, :2], denom, errors)
        assert isinstance(errors[1], NonPositiveDenominator) and errors[0] is None and errors[2] is None
        assert np.isnan(denom[1])
        for r in (0, 2):
            np.testing.assert_array_equal(values[r], coords_quotient(phi[r], 2))
            np.testing.assert_array_equal(values[r], phi[r, :2] / (phi[r, 3] - phi[r, 2]))

    def test_great_circle_ring(self):
        ring, x = sb.great_circle_ring()
        phi = sb.origin_coords_on_ring(ring, x)
        assert np.all(np.isfinite(phi))
        vertices = np.vstack([ring, x, -x])
        assert np.linalg.norm(phi @ vertices) <= 1e-8
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)
        # The spherical quotient degenerates: both apex coordinates agree by
        # the in-plane constraint, so the denominator vanishes identically.
        with pytest.raises(NonPositiveDenominator):
            sb.extended_spherical_coords(ring, x)


def lifted(planar, rho):
    """The planar points (m, 2) at scale rho on the plane z = 1, as unit
    directions: a cap of radius about rho about the pole."""
    return unit_rows(np.column_stack([rho * planar, np.ones(len(planar))]))[0]


class TestPlanarLimit:
    def test_wachspress_tends_to_the_classical_one(self):
        # Seeded convex shapes, n 4..12 (a triangle has one set of
        # coordinates), affine images of sorted unit-circle angles, lifted
        # at caps rho = 0.2 / 2^k with 4 interior points scaled along: both
        # NEW_WC and CC_WC flatten to the planar Wachspress coordinates, so
        # their gap falls like rho^2, 4x per halving, while NEW_WC stays as
        # far from NEW_MV as the planar coordinates are apart.
        for seed, n in enumerate((4, 5, 6, 7, 8, 10, 12)):
            rng = np.random.default_rng(9100 + seed)
            A = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
            A[:, 0] *= np.sign(np.linalg.det(A))                    # anti-clockwise
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, n))
            ring = np.column_stack([np.cos(angles), np.sin(angles)]) @ A.T
            ring -= ring.mean(axis=0)
            ring /= np.max(np.linalg.norm(ring, axis=1))
            inner = rng.dirichlet(np.ones(n), size=4) @ ring
            to_classical, to_mv = [], []
            for rho in 0.2 * 2.0 ** -np.arange(6):
                polygon = sb.validate_polygon(lifted(ring, rho))
                assert polygon.convex
                X = lifted(inner, rho)
                wc, cc, mv = (evaluate_batch(polygon, X, m).values for m in ("NEW_WC", "CC_WC", "NEW_MV"))
                to_classical.append(np.max(np.abs(wc - cc)))
                to_mv.append(np.max(np.abs(wc - mv)))
            ratios = np.array(to_classical[:-1]) / np.array(to_classical[1:])
            assert np.all(np.abs(ratios - 4.0) <= 0.3), (n, ratios)
            assert min(to_mv) >= 0.5 * to_mv[0], (n, to_mv)
