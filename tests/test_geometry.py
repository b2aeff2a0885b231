import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from dampedwave.geometry import (_BLOCK, ConvexPolytope, _ball_cloud,
                                 _probe_directions, fibonacci_sphere,
                                 hull_of_balls, hull_of_points,
                                 inscribed_ball_containment, phi_inverse,
                                 phi_map, sample_normal_bundle)
from dampedwave.initial_data import load_datum

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
            back, rho_back = phi_inverse(body, x)
            assert abs(rho_back - rho) <= 1e-9
            assert np.linalg.norm(phi_map(back, rho_back) - x) <= 1e-9


def test_phi_inverse_rejects_interior():
    body = hull_of_balls(np.array([[0.0, 0.0]]), [1.0], 2)
    with pytest.raises(ValueError):
        phi_inverse(body, np.array([0.1, 0.0]))


def test_distance_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(5):
        body = random_polygon(rng)
        verts = body.vertices
        edges = np.concatenate([verts, verts[:1]], axis=0)
        dense = np.concatenate([
            edges[i] + np.linspace(0.0, 1.0, 400)[:, None]
            * (edges[i + 1] - edges[i])
            for i in range(len(verts))])
        for _ in range(20):
            x = rng.normal(size=2) * 4.0
            rho, xi, nu = body.distance(x)
            brute = float(np.min(np.linalg.norm(dense - x, axis=1)))
            if rho == 0.0:
                assert body.contains(x)
                continue
            assert rho == pytest.approx(brute, abs=1e-3)
            assert np.linalg.norm(xi - x) == pytest.approx(rho, rel=1e-12)
            assert np.linalg.norm(nu) == pytest.approx(1.0, rel=1e-12)


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


@pytest.mark.parametrize("name", ["two_2d", "two_3d"])
def test_inside_matches_delaunay(name, request):
    # Vectorized membership against an independent test: the point lies in
    # a simplex of the Delaunay triangulation of the hull's vertices.
    hull = request.getfixturevalue(name).hull
    lo, hi = hull.vertices.min(axis=0), hull.vertices.max(axis=0)
    pts = lo + (hi - lo) * np.random.default_rng(12).random((2000, hull.dimension))
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


@pytest.mark.parametrize("dimension,count", [(2, 5), (2, 1000), (3, 700), (3, 1200)])
def test_blocked_geometry_matches_dense(dimension, count):
    # Block rows _BLOCK // V leave a partial last block for every size here,
    # and every size but the smallest takes several support blocks; the
    # 1,200-vertex cloud also takes several diameter blocks.
    rng = np.random.default_rng(100 + count)
    verts = rng.normal(size=(count, dimension)) * rng.uniform(0.5, 5.0, size=dimension)
    body = ConvexPolytope(verts, dimension)
    rows = _BLOCK // count
    dirs = rng.normal(size=(3 * rows + 7 if count > 5 else 40, dimension))
    # The diameter is elementwise arithmetic in the dense order: bit-equal.
    assert body.diameter == _dense_diameter(body.vertices)
    # BLAS may round a dot product on a tile edge of one product differently
    # from the same dot product inside a tile of the other, so a support
    # value may differ from the dense one in its last bits, never by more
    # than the rounding bound of the dot product.
    got = body.support(dirs)
    want = _dense_support(dirs, body.vertices)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _dot_error_bound(dirs, body.vertices))
    centers = rng.normal(size=(3, dimension))
    radii = rng.uniform(0.2, 1.5, size=3)
    balls = hull_of_balls(centers, radii, dimension)
    probes = _probe_directions(dimension)
    assert balls.diameter == _dense_diameter(balls.vertices)
    assert abs(balls.hull_tol - _dense_hull_tol(balls.vertices, centers, radii)) <= \
        _dot_error_bound(probes, balls.vertices).max()


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
    # pairwise differences for its diameter 14 MiB; a block holds 4 MiB.
    spec = json.loads((CONFIG_DIR / "single_bump_3d.json").read_text(encoding="utf-8"))["datum"]
    load_datum(spec)  # imports and cached rules, outside the measurement
    tracemalloc.start()
    try:
        body = load_datum(spec).hull
        datum_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        body.diameter
        diameter_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert datum_peak < 8 * 2**20
    assert diameter_peak < 8 * 2**20


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
