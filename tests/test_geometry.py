import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from dampedwave.features import (_interior_points, find_critical_radius, find_hot_spots,
                                 trace_null_radius)
from dampedwave.geometry import (_BLOCK, _BUFFER, ConvexPolytope, NormalPoint,
                                 _ball_cloud, _probe_directions,
                                 fibonacci_sphere, hull_of_balls,
                                 hull_of_points, inscribed_ball_containment,
                                 phi_map, sample_normal_bundle)
from dampedwave.initial_data import load_datum
from dampedwave.oracles import OracleRun
from dampedwave.solution import (RadialField, eval_dir2_u, eval_grad_u,
                                 eval_principal_general_n, eval_u, heat_eval)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def random_polygon(rng):
    count = rng.integers(4, 12)
    pts = rng.normal(size=(count, 2)) * rng.uniform(0.5, 3.0)
    return hull_of_points(pts, 2)


def test_phi_roundtrip_random_polygons():
    # Round-trip through the annulus chart: 1000 (xi, nu, rho) samples
    # across 20 random polygons reproduce x and rho to 1e-9.
    rng = np.random.default_rng(10)
    for _ in range(20):
        body = random_polygon(rng)
        points = sample_normal_bundle(body, 50)
        for point in points:
            rho = float(rng.uniform(0.05, 10.0))
            x = phi_map(point, rho)
            rho_back, xi, nu = body.distance(x)
            assert abs(rho_back - rho) <= 1e-9
            assert np.linalg.norm(phi_map(NormalPoint(xi, nu), rho_back) - x) <= 1e-9


def _face_samples(body, steps):
    """Points on every face of the body: a barycentric grid of spacing
    1/steps on each face (the end itself in 1D), and the grid's spacing."""
    k = body.faces.shape[1]
    grid = [c for c in itertools.product(range(steps + 1), repeat=k - 1) if sum(c) <= steps]
    grid = np.array(grid, dtype=float).reshape(len(grid), k - 1) / steps
    weights = np.column_stack([1.0 - grid.sum(axis=1), grid])
    corners = body.vertices[body.faces]
    spacing = float(np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2).max()) / steps
    return np.einsum("sk,fkn->fsn", weights, corners).reshape(-1, body.dimension), spacing


def test_distance_matches_brute_force():
    # Polygons, intervals and 3D hulls against the nearest of dense samples
    # on their faces. The sample nearest to the true nearest point lies
    # within the grid spacing h of it, along the face, so the brute-force
    # distance lies in [rho, hypot(rho, h)].
    rng = np.random.default_rng(11)
    for dimension in (2,) * 5 + (1,) * 3 + (3,) * 3:
        if dimension == 2:
            body = random_polygon(rng)
        else:
            body = hull_of_points(rng.normal(size=(12, dimension)) * 2.0, dimension)
        dense, spacing = _face_samples(body, 400 if dimension < 3 else 40)
        for _ in range(20):
            x = rng.normal(size=dimension) * 4.0
            rho, xi, nu = body.distance(x)
            brute = float(np.min(np.linalg.norm(dense - x, axis=1)))
            if rho == 0.0:
                assert body.contains(x)
                continue
            assert rho - 1e-12 <= brute <= math.hypot(rho, spacing) + 1e-12
            assert np.linalg.norm(xi - x) == pytest.approx(rho, rel=1e-12)
            assert np.linalg.norm(nu) == pytest.approx(1.0, rel=1e-12)
            assert body.distance(xi)[0] == 0.0


def test_distance_1d_interval():
    body = ConvexPolytope(np.array([[-1.0], [2.0]]), 1)
    rho, xi, nu = body.distance(np.array([3.5]))
    assert (rho, xi[0], nu[0]) == (1.5, 2.0, 1.0)
    rho, xi, nu = body.distance(np.array([-4.0]))
    assert (rho, xi[0], nu[0]) == (3.0, -1.0, -1.0)
    rho, xi, nu = body.distance(np.array([0.5]))
    assert rho == 0.0 and nu is None


def test_normal_bundle_properties():
    rng = np.random.default_rng(12)
    body = random_polygon(rng)
    points = sample_normal_bundle(body, 64)
    assert len(points) == 64
    for point in points:
        assert np.linalg.norm(point.nu) == pytest.approx(1.0, rel=1e-12)
        # The boundary point attains the support maximum in its direction.
        assert float(point.xi @ point.nu) == pytest.approx(
            float(body.support(point.nu)[0]), rel=1e-12)


def test_support_halfspaces_contain_body():
    rng = np.random.default_rng(13)
    body = random_polygon(rng)
    for point in sample_normal_bundle(body, 32):
        h = float(point.xi @ point.nu)
        assert np.all(body.vertices @ point.nu <= h + 1e-12)


def test_fibonacci_sphere_unit_norms():
    pts = fibonacci_sphere(128)
    assert pts.shape == (128, 3)
    assert np.linalg.norm(pts, axis=1) == pytest.approx(np.ones(128), rel=1e-12)
    # Quasi-uniform: centroid close to the origin.
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05


def test_hull_of_balls_dimensions(two_1d, two_2d, single_3d):
    assert two_1d.hull.vertices.min() == pytest.approx(-1.2, abs=1e-12)
    assert two_1d.hull.vertices.max() == pytest.approx(1.3, abs=1e-12)
    # 2-D hull encloses both ball centers and extreme points near tolerance.
    hull = two_2d.hull
    assert hull.contains(np.array([0.0, -1.0]), tol=hull.hull_tol * 2)
    assert hull.contains(np.array([1.6, 1.45 - 2e-4]), tol=hull.hull_tol * 2)
    assert single_3d.hull.contains(np.array([0.0, 0.0, 0.99]), tol=5e-3)


@pytest.mark.parametrize("name", ["two_1d", "two_2d", "two_3d"])
def test_inside_matches_delaunay(name, request):
    # Vectorized membership against an independent test: the point lies in
    # a simplex of the Delaunay triangulation of the hull's vertices, or in
    # 1D between the interval's ends. The box around the vertices has a
    # margin of 0.5, so that some points lie outside the interval.
    hull = request.getfixturevalue(name).hull
    lo, hi = hull.vertices.min(axis=0) - 0.5, hull.vertices.max(axis=0) + 0.5
    pts = lo + (hi - lo) * np.random.default_rng(12).random((2000, hull.dimension))
    if hull.dimension == 1:
        want = (pts[:, 0] >= hull.vertices.min()) & (pts[:, 0] <= hull.vertices.max())
    else:
        want = Delaunay(hull.vertices).find_simplex(pts) >= 0
    assert 0 < want.sum() < len(pts)
    np.testing.assert_array_equal(hull.inside(pts), want)


def test_hull_tol_formula_2d():
    body = hull_of_balls(np.array([[0.0, 0.0]]), [2.0], 2)
    # Inscribed 256-gon support deficiency for radius 2.
    assert body.hull_tol <= 2.0 * (1.0 - math.cos(math.pi / 256)) + 2e-6


def test_diameter_3d_is_pairwise_maximum():
    # A two-ball 3D hull: the cached diameter equals a brute-force maximum
    # over all vertex pairs, is stored after the first read, and lies
    # within the hull's discretization slack of the exact span.
    centers = np.array([[0.0, 0.0, 0.0], [1.5, -0.4, 0.8]])
    body = hull_of_balls(centers, [1.0, 0.6], 3)
    verts = body.vertices
    brute = max(float(np.linalg.norm(verts - v, axis=1).max()) for v in verts)
    assert body.diameter == pytest.approx(brute, rel=1e-15)
    assert vars(body)["diameter"] == body.diameter
    exact = float(np.linalg.norm(centers[1] - centers[0])) + 1.6
    assert exact - 2.0 * body.hull_tol <= body.diameter <= exact


def test_inscribed_ball_containment_bundled(single_1d, two_1d, two_2d,
                                            single_3d):
    for datum in (single_1d, two_1d, two_2d, single_3d):
        assert inscribed_ball_containment(datum.hull, datum.incenter,
                                          datum.inradius)


def test_inscribed_ball_containment_rejects_oversized(two_2d):
    assert not inscribed_ball_containment(two_2d.hull, two_2d.incenter,
                                          10.0 * two_2d.inradius)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -0.1])
def test_inscribed_ball_containment_refuses_bad_radius(two_2d, rho):
    with pytest.raises(ValueError, match="finite and non-negative"):
        inscribed_ball_containment(two_2d.hull, two_2d.incenter, rho)


@pytest.mark.parametrize("dimension", [0, 4])
def test_hulls_refuse_dimensions_outside_1_to_3(dimension):
    # The facet form searches its faces as triangles.
    cloud = np.random.default_rng(5).normal(size=(40, dimension))
    for call in (lambda: hull_of_points(cloud, dimension),
                 lambda: hull_of_balls(cloud[:2], [1.0, 0.5], dimension)):
        with pytest.raises(ValueError, match="dimensions 1-3"):
            call()


@pytest.mark.parametrize("count", [0, -3])
def test_normal_bundle_rejects_count_below_one(two_2d, single_1d, count):
    for datum in (two_2d, single_1d):
        with pytest.raises(ValueError, match="at least 1"):
            sample_normal_bundle(datum.hull, count)


def _disc_sets():
    """(centers, radii) of 2D ball unions: every bundled 2D datum, then 120
    seeded sets of one to five discs: scattered, overlapping (centres
    squeezed together) and nested (a smaller disc inside another)."""
    sets = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))["datum"]
        if spec["dimension"] == 2:
            sets.append((np.array([b["center"] for b in spec["bumps"]], dtype=float),
                         np.array([b["radius"] for b in spec["bumps"]], dtype=float)))
    assert sets
    for seed in range(120):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 6))
        centers = rng.uniform(-3.0, 3.0, size=(count, 2)) * (0.15, 1.0, 3.0)[seed % 3]
        radii = rng.uniform(0.05, 2.5, size=count)
        if seed % 4 == 0:
            centers[-1] = centers[0] + rng.uniform(-0.1, 0.1, size=2)
            radii[-1] = 0.5 * radii[0]
        sets.append((centers, radii))
    return sets


def test_hull_2d_matches_qhull():
    # qhull is the reference: the same vertices in the same counterclockwise
    # cycle (only the start vertex may differ), and a bit-equal hull_tol.
    probes = _probe_directions(2)
    for centers, radii in _disc_sets():
        cloud = _ball_cloud(centers, radii, 2)
        want = cloud[ConvexHull(cloud).vertices]
        body = hull_of_balls(centers, radii, 2)
        got = body.vertices
        assert got.shape == want.shape
        start = np.flatnonzero((want == got[0]).all(axis=1))
        assert len(start) == 1
        np.testing.assert_array_equal(np.roll(want, -start[0], axis=0), got)
        exact = ((probes @ centers.T) + radii[None, :]).max(axis=1)
        deficiency = float(np.clip(exact - (probes @ want.T).max(axis=1), 0.0, None).max())
        assert body.hull_tol == deficiency + 1e-6


@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
    [[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [3.0, 0.0]],
    [[1.0, 2.0]] * 5,
    [[0.0, 0.0], [1.0, 0.0]],
    [[0.5, -0.5]],
], ids=["diagonal", "axis-with-duplicate", "one-point-repeated", "two-points",
        "one-point"])
def test_hull_2d_rejects_fewer_than_three_vertices(points):
    with pytest.raises(ValueError, match="three points not on one line"):
        hull_of_points(np.array(points), 2)


def _dense_support(dirs, verts):
    return (dirs @ verts.T).max(axis=1)


def _dense_diameter(verts):
    diff = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).max())


def _dense_hull_tol(verts, centers, radii):
    probes = _probe_directions(verts.shape[1])
    exact = ((probes @ centers.T) + radii[None, :]).max(axis=1)
    return float(np.clip(exact - _dense_support(probes, verts), 0.0, None).max()) + 1e-6


def _dot_error_bound(dirs, verts):
    # Two roundings of the same n-term dot product differ by at most
    # 2 * gamma_n * sum |d_i v_i|, about n * eps of it.
    n = verts.shape[1]
    return 1.01 * n * np.finfo(float).eps * (np.abs(dirs) @ np.abs(verts).T).max(axis=1)


@pytest.mark.parametrize("dimension,count", [(2, 5), (2, 1000), (3, 700), (3, 701), (3, 1200)])
def test_blocked_geometry_matches_dense(dimension, count):
    # Support rows _BLOCK // V leave a partial last block for every size
    # here, and every size but the smallest takes several support blocks.
    # The diameter takes _BUFFER // 2V rows a block: several blocks for all
    # but the smallest, and 701 vertices leave one remainder row. Each
    # check runs on the cloud and on the cloud offset by 1e6.
    rng = np.random.default_rng(100 + count)
    cloud = rng.normal(size=(count, dimension)) * rng.uniform(0.5, 5.0, size=dimension)
    rows = _BLOCK // count
    dirs = rng.normal(size=(3 * rows + 7 if count > 5 else 40, dimension))
    centers = rng.normal(size=(3, dimension))
    radii = rng.uniform(0.2, 1.5, size=3)
    pts = rng.normal(size=(3 * _BUFFER // 1000 + 7, dimension)) * 1.5
    for shift in (0.0, 1e6):
        body = ConvexPolytope(cloud + shift, dimension)
        # The diameter is elementwise arithmetic in the dense order: bit-equal.
        assert body.diameter == _dense_diameter(body.vertices)
        # BLAS may round a dot product on a tile edge of one product
        # differently from the same dot product inside a tile of the other,
        # so a support value may differ from the dense one in its last bits,
        # never by more than the rounding bound of the dot product.
        got = body.support(dirs)
        want = _dense_support(dirs, body.vertices)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= _dot_error_bound(dirs, body.vertices))
        balls = hull_of_balls(centers + shift, radii, dimension)
        probes = _probe_directions(dimension)
        assert balls.diameter == _dense_diameter(balls.vertices)
        assert abs(balls.hull_tol - _dense_hull_tol(balls.vertices, centers + shift, radii)) <= \
            _dot_error_bound(probes, balls.vertices).max()
        if dimension == 3:
            # inside runs _BUFFER // F rows at a time against the F facets
            # (about 1,000 here, so 8 rows and a remainder of 7); no point
            # here lies within rounding of a facet.
            eqs = balls.equations
            assert len(pts) % (_BUFFER // len(eqs)) > 0
            slack = 1e-12 * max(balls.diameter, 1.0)
            want = np.all((pts + shift) @ eqs[:, :3].T + eqs[:, 3] <= slack, axis=1)
            assert want.any() and not want.all()
            np.testing.assert_array_equal(balls.inside(pts + shift), want)


def test_support_of_no_directions(two_2d, single_3d):
    for datum in (two_2d, single_3d):
        assert datum.hull.support(np.zeros((0, datum.dimension))).shape == (0,)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_hull_tol_and_diameter_bit_equal_dense(path):
    spec = json.loads(path.read_text(encoding="utf-8"))["datum"]
    body = load_datum(spec).hull
    if body.dimension == 1:
        assert body.hull_tol == 1e-6
        assert body.diameter == float(body.vertices.max() - body.vertices.min())
        return
    centers = np.array([b["center"] for b in spec["bumps"]], dtype=float)
    radii = np.array([b["radius"] for b in spec["bumps"]], dtype=float)
    assert body.hull_tol == _dense_hull_tol(body.vertices, centers, radii)
    assert body.diameter == _dense_diameter(body.vertices)


def test_3d_hull_memory_is_bounded():
    # A dense probe product of single_bump_3d would hold 32 MiB and dense
    # pairwise differences for its diameter 14 MiB; a support block holds
    # 512 KiB, and the diameter and `inside` reuse one 64 KiB buffer. The
    # tracemalloc high-waters of loading it and of its diameter (the hull
    # included) are 0.89 and 0.20 MiB, rounded up, and `_interior_points`
    # peaks 0.14 MiB above what is live before it (in 512 KiB blocks the
    # diameter's was 1.57 MiB and _interior_points' 0.57 MiB). The 2D
    # `inside` goes through the same buffer: on two_bump_2d's 258 edges a
    # warm `_interior_points` peaks at 0.13 MiB, against 2.09 MiB for the
    # dense (m, V, 2) product of its edge cross products.
    spec_2d = json.loads((CONFIG_DIR / "two_bump_2d.json").read_text(encoding="utf-8"))["datum"]
    hull_2d = load_datum(spec_2d).hull
    _interior_points(hull_2d, 64, 0)  # facets and diameter, outside the measurement
    spec = json.loads((CONFIG_DIR / "single_bump_3d.json").read_text(encoding="utf-8"))["datum"]
    load_datum(spec)  # imports and cached rules, outside the measurement
    tracemalloc.start()
    try:
        body = load_datum(spec).hull
        datum_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        body.diameter
        diameter_peak = tracemalloc.get_traced_memory()[1]
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _interior_points(body, 64, 0)
        interior_peak = tracemalloc.get_traced_memory()[1] - live
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _interior_points(hull_2d, 64, 0)
        interior_peak_2d = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert datum_peak <= 0.89 * 2**20
    assert diameter_peak <= 0.20 * 2**20
    assert interior_peak <= 0.14 * 2**20
    assert interior_peak_2d <= 0.20 * 2**20


def test_polygon_faces_follow_either_orientation():
    # The outward normals follow the sign of the area, so a clockwise list
    # is the same body as its counterclockwise reversal; a closed list,
    # whose last vertex repeats its first, too. A list that encloses no
    # area has no outward side.
    ccw = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
    pts = np.random.default_rng(14).uniform(-2.0, 2.0, size=(500, 2))
    want = np.all(np.abs(pts) <= 1.0, axis=1)
    for verts in (ccw, ccw[::-1], np.vstack([ccw, ccw[:1]]), np.vstack([ccw[::-1], ccw[-1:]])):
        body = ConvexPolytope(verts, 2)
        np.testing.assert_array_equal(body.inside(pts), want)
        assert body.distance(np.zeros(2))[0] == 0.0
        rho, xi, nu = body.distance(np.array([3.0, 0.5]))
        assert (rho, *xi, *nu) == (2.0, 1.0, 0.5, 1.0, 0.0)
    for flat in ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[1.0, 2.0]] * 3):
        with pytest.raises(ValueError, match="enclose an area"):
            ConvexPolytope(np.array(flat), 2).inside(np.zeros((1, 2)))


def test_3d_polytope_without_faces_names_hull_of_points():
    # A 3D body's facets are qhull's; without them only the vertex
    # functions work, and membership says where the facets come from.
    body = ConvexPolytope(fibonacci_sphere(64), 3)
    assert body.diameter > 1.9
    for call in (lambda: body.inside(np.zeros((1, 3))), lambda: body.distance(np.zeros(3))):
        with pytest.raises(ValueError, match="hull_of_points"):
            call()


def test_hull_3d_faces_index_the_qhull_simplices():
    cloud = _ball_cloud(np.zeros((1, 3)), np.ones(1), 3)
    body = hull_of_points(cloud, 3)
    hull = ConvexHull(cloud)
    np.testing.assert_array_equal(body.vertices[body.faces], cloud[hull.simplices])


@pytest.mark.parametrize("points", [
    np.c_[np.random.default_rng(3).normal(size=(20, 2)), np.zeros(20)],
    [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [0.0, 1.0, 1.0], [3.0, 0.5, 1.0]],
    [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
], ids=["plane-z0", "plane-z1", "line", "three-points"])
def test_hull_3d_rejects_flat_clouds(points):
    with pytest.raises(ValueError, match="four points not on one plane"):
        hull_of_points(np.array(points, dtype=float), 3)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hull_rejects_non_finite_points(dimension, bad):
    points = np.random.default_rng(4).normal(size=(12, dimension))
    points[5, -1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        hull_of_points(points, dimension)


def _grid_run(n):
    axis = np.linspace(-2.0, 2.0, 5)
    return OracleRun("grid", (axis,) * n, 2.0, None, 1.0, np.zeros((5,) * n), False)


def _axis(datum):
    return np.eye(datum.dimension)[0]


# Every public entry that takes query points, called on a datum and x; each
# reads x through the one reader, geometry._point_rows.
POINT_ENTRIES = {
    "eval_u": lambda d, x: eval_u(d, x, 2.0, order=8),
    "eval_grad_u": lambda d, x: eval_grad_u(d, x, 2.0, order=8),
    "eval_dir2_u": lambda d, x: eval_dir2_u(d, x, 2.0, _axis(d), order=8),
    "eval_principal_general_n": lambda d, x: eval_principal_general_n(d, x, 2.0, order=8),
    "heat_eval": lambda d, x: heat_eval(d, x, 2.0, order=8),
    "RadialField.u": lambda d, x: RadialField(d, 10.0, 8).u(x),
    "RadialField.grad": lambda d, x: RadialField(d, 10.0, 8).grad(x),
    "RadialField.dir2": lambda d, x: RadialField(d, 10.0, 8).dir2(x, _axis(d)),
    "InitialDatum.value": lambda d, x: d.value(x),
    "InitialDatum.gradient": lambda d, x: d.gradient(x),
    "InitialDatum.dir2": lambda d, x: d.dir2(x, _axis(d)),
    "SmoothBump.value": lambda d, x: d.bumps[0].value(x),
    "SmoothBump.gradient": lambda d, x: d.bumps[0].gradient(x),
    "SmoothBump.dir2": lambda d, x: d.bumps[0].dir2(x, _axis(d)),
    "SmoothBump.dir3": lambda d, x: d.bumps[0].dir3(x, _axis(d), _axis(d)),
    "SmoothBump.hvp": lambda d, x: d.bumps[0].hvp(x, _axis(d)),
    "ConvexPolytope.inside": lambda d, x: d.hull.inside(x),
    "ConvexPolytope.distance": lambda d, x: d.hull.distance(x),
    "ConvexPolytope.contains": lambda d, x: d.hull.contains(x),
    "inscribed_ball_containment": lambda d, x: inscribed_ball_containment(d.hull, x, 0.1),
    "OracleRun.interpolate": lambda d, x: _grid_run(d.dimension).interpolate(x),
}
# Malformed query points by dimension, with the start of the message every
# entry gives. In 1D a flat (3,) array is one point of three coordinates,
# and a number is one point.
MALFORMED_POINTS = {
    "coordinate_count": ({1: np.zeros(3), 2: np.array([0.0, 0.0, 5.0, 5.0])},
                         "point has {k} coordinates, expected {n}"),
    "three_axes": ({1: np.zeros((2, 1, 1)), 2: np.zeros((1, 2, 2))},
                   "a block of points has shape (m, {n}), got {shape}"),
    "block_width": ({1: np.array([[0.0, 1.0]]), 2: np.array([[0.0]])},
                    "a block of points has shape (m, {n}), got {shape}"),
    "nan": ({1: np.array([math.nan]), 2: np.array([math.nan, 0.0])},
            "point has a non-finite coordinate"),
    "inf": ({1: np.array(math.inf), 2: np.array([0.3, -math.inf])},
            "point has a non-finite coordinate"),
}


@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
@pytest.mark.parametrize("case", sorted(MALFORMED_POINTS))
@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_point_entries_refuse_malformed_points(entry, case, name, request):
    datum = request.getfixturevalue(name)
    points, message = MALFORMED_POINTS[case]
    x = points[datum.dimension]
    want = message.format(k=x.size, n=datum.dimension, shape=x.shape)
    with pytest.raises(ValueError, match="^" + re.escape(want)):
        POINT_ENTRIES[entry](datum, x)


def _ray_stage(stage):
    """A ray stage at t = 400 on the ray from the point x along omega, its
    result as an array: a radius (NaN for None), or each hot spot and its
    value."""
    def entry(datum, x, omega):
        point = NormalPoint(np.reshape(x, -1), omega)
        if stage is find_hot_spots:
            return np.array([np.append(spot, value)
                             for spot, value in stage(datum, 400.0, [point], order=8)])
        rho = stage(datum, 400.0, point, order=8)
        return np.array([math.nan if rho is None else rho])
    return entry


# Every entry that takes a direction, called on a datum, x and omega; each
# reads omega through the one reader, geometry._as_directions. A ray stage
# reads its normal nu there and takes one point x.
RAY_STAGES = {"trace_null_radius": trace_null_radius,
              "find_critical_radius": find_critical_radius,
              "find_hot_spots": find_hot_spots}
DIRECTION_ENTRIES = {
    "eval_dir2_u": lambda d, x, w: eval_dir2_u(d, x, 2.0, w, order=8),
    "RadialField.dir2": lambda d, x, w: RadialField(d, 10.0, 8).dir2(x, w),
    "InitialDatum.dir2": lambda d, x, w: d.dir2(x, w),
    "SmoothBump.dir2": lambda d, x, w: d.bumps[0].dir2(x, w),
    "SmoothBump.dir3": lambda d, x, w: d.bumps[0].dir3(x, w, _axis(d)),
    **{name: _ray_stage(stage) for name, stage in RAY_STAGES.items()},
}
# Malformed directions by dimension, with the start of the message every
# entry gives.
MALFORMED_DIRECTIONS = {
    "length": ({1: np.zeros(2), 2: np.zeros(3)},
               "{name} has shape {shape}, expected ({n},) or ("),
    "three_axes": ({1: np.ones((1, 1, 1)), 2: np.ones((1, 1, 2))},
                   "{name} has shape {shape}, expected ({n},) or ("),
    "nan": ({1: np.array([math.nan]), 2: np.array([math.nan, 1.0])},
            "{name} must be finite and nonzero"),
    "inf": ({1: np.array([math.inf]), 2: np.array([0.0, -math.inf])},
            "{name} must be finite and nonzero"),
    "zero": ({1: np.zeros(1), 2: np.zeros(2)}, "{name} must be finite and nonzero"),
}


def _direction_points(entry, datum):
    """Three points near the bumps, or for a ray stage one boundary point of
    the hull, as a block."""
    if entry in RAY_STAGES:
        return sample_normal_bundle(datum.hull, 4)[0].xi[None, :]
    return {1: np.array([[-0.4], [0.1], [0.95]]),
            2: np.array([[0.1, 0.2], [0.5, -0.3], [1.5, 0.8]])}[datum.dimension]


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRIES))
@pytest.mark.parametrize("case", sorted(MALFORMED_DIRECTIONS))
@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_direction_entries_refuse_malformed_directions(entry, case, name, request):
    datum = request.getfixturevalue(name)
    directions, message = MALFORMED_DIRECTIONS[case]
    omega = directions[datum.dimension]
    want = message.format(name="nu" if entry in RAY_STAGES else "omega",
                          shape=omega.shape, n=datum.dimension)
    with pytest.raises(ValueError, match="^" + re.escape(want)):
        DIRECTION_ENTRIES[entry](datum, _direction_points(entry, datum), omega)


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRIES))
@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_direction_entries_read_a_scaled_direction_as_the_unit_one(entry, name, request):
    # omega -> omega / |omega|, bit for bit: the scale 4 is exact.
    datum = request.getfixturevalue(name)
    x = _direction_points(entry, datum)
    omega = np.random.default_rng(11).normal(size=datum.dimension)
    unit = DIRECTION_ENTRIES[entry](datum, x, omega / np.linalg.norm(omega))
    assert np.array_equal(DIRECTION_ENTRIES[entry](datum, x, 4.0 * omega), unit,
                          equal_nan=True)
    assert np.array_equal(DIRECTION_ENTRIES[entry](datum, x, -0.25 * omega),
                          DIRECTION_ENTRIES[entry](datum, x, -omega / np.linalg.norm(omega)),
                          equal_nan=True)


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRIES))
@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_direction_entries_take_one_direction_per_row(entry, name, request):
    # One (scaled) direction a row gives each row's single-point value, and
    # a bad row is named.
    datum = request.getfixturevalue(name)
    x = _direction_points(entry, datum)
    omegas = np.random.default_rng(12).normal(size=x.shape) * [[1.0], [3.0], [0.5]][:len(x)]
    rows = np.concatenate([np.atleast_1d(DIRECTION_ENTRIES[entry](datum, p, w))
                           for p, w in zip(x, omegas)])
    assert np.array_equal(DIRECTION_ENTRIES[entry](datum, x, omegas), rows, equal_nan=True)
    if len(x) > 1:
        omegas[1] = math.nan
        with pytest.raises(ValueError, match="^omega row 1 must be finite and nonzero"):
            DIRECTION_ENTRIES[entry](datum, x, omegas)
        # One point has no row to name, whichever layer reads it.
        with pytest.raises(ValueError, match="^omega must be finite and nonzero"):
            DIRECTION_ENTRIES[entry](datum, x[1], omegas[1:2])


@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_bump_vectors_are_read_not_normalised(name, request):
    # hvp's vecs and dir3's zeta are vectors: one for every point or one per
    # point, finite, and taken as they are.
    datum = request.getfixturevalue(name)
    bump, x = datum.bumps[0], _direction_points("eval_dir2_u", datum)
    v = np.random.default_rng(13).normal(size=x.shape)
    for vector, call in (("vecs", lambda z: bump.hvp(x, z)),
                         ("zeta", lambda z: bump.dir3(x, _axis(datum), z))):
        assert np.array_equal(call(4.0 * v), 4.0 * call(v))
        assert np.array_equal(call(v)[1], call(v[1])[1])
        v_bad = v.copy()
        v_bad[2, 0] = math.nan
        with pytest.raises(ValueError, match=f"^{vector} row 2 must be finite, got"):
            call(v_bad)
        with pytest.raises(ValueError, match=f"^{vector} has shape"):
            call(v[:2])
