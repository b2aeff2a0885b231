import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from dampedwave.geometry import (ConvexPolytope, _ball_cloud, _probe_directions,
                                 fibonacci_sphere, hull_of_balls, hull_of_points,
                                 inscribed_ball_containment, phi_inverse,
                                 phi_map, sample_normal_bundle)

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
