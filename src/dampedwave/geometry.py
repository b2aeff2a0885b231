"""Convex hulls of ball unions, normal bundles, and annulus parametrization.

Hulls are polytopal: each ball boundary is discretized (256 circle points in
two dimensions, a 512-point Fibonacci covering in three) and the point cloud
is hulled. The support deficiency of that approximation is measured against
the exact ball supports over a dense direction probe and stored as hull_tol,
so every downstream region test can widen its annuli by a certified amount.
In one dimension the polytope degenerates to an interval and everything is
analytic.

The 2D hull is Andrew's monotone chain (A. M. Andrew, Inf. Process. Lett. 9,
1979), so 2D data load no SciPy. The 3D hull is qhull, through
scipy.spatial, imported at the first 3D hull.

The dense products over the vertices (the support over thousands of probe
directions, the pairwise vertex distances of the diameter) run in row blocks
of at most _BLOCK float64 entries, 4 MiB, so neither builds a matrix larger
than that. The diameter adds its squares in the dense order, and a max is
exact, so it keeps every bit. A support entry is the same dot product as in
one dense product, but BLAS may round one that lies on a tile edge in one
product and inside a tile in the other differently in its last bit; every
bundled datum keeps its hull_tol bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ConvexPolytope",
    "NormalPoint",
    "fibonacci_sphere",
    "hull_of_balls",
    "hull_of_points",
    "phi_map",
    "phi_inverse",
    "sample_normal_bundle",
    "inscribed_ball_containment",
]

Array = np.ndarray

CIRCLE_POINTS = 256
SPHERE_POINTS = 512
# Entries per row block of the dense vertex products: 4 MiB of float64.
# Not smaller: glibc's malloc raises its mmap threshold to the largest
# mmapped block freed so far, and trims the heap above twice that (see
# mallopt(3)). Until a block of 2 MiB or more has been freed, the
# evaluators' arrays of about 1 MiB are mapped, and page-faulted, afresh on
# every pass. A freed 4 MiB block lifts the threshold above them; with 1 MiB
# blocks the run phase of grid-2d took about 43,300 minor page faults
# instead of under 900, and ran markedly slower.
_BLOCK = 1 << 19


def fibonacci_sphere(count: int) -> Array:
    """Quasi-uniform unit vectors from the spherical Fibonacci lattice."""
    k = np.arange(count)
    golden = 0.5 * (1.0 + np.sqrt(5.0))
    z = 1.0 - (2.0 * k + 1.0) / count
    azimuth = 2.0 * np.pi * k / golden
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(azimuth), s * np.sin(azimuth), z], axis=1)


@dataclass(frozen=True, eq=False)
class NormalPoint:
    """Boundary point xi with unit outward normal nu; the half space
    {y : (y - xi) . nu <= 0} contains the polytope."""
    xi: Array
    nu: Array


class ConvexPolytope:
    """Immutable convex body: interval (1-D), CCW polygon (2-D), or a
    triangulated vertex/face hull (3-D)."""

    def __init__(self, vertices: Array, dimension: int,
                 faces: Optional[Array] = None,
                 equations: Optional[Array] = None,
                 hull_tol: float = 1e-6) -> None:
        self.dimension = int(dimension)
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, dimension)
        self.faces = None if faces is None else np.asarray(faces, dtype=int)
        self.equations = None if equations is None else np.asarray(equations, dtype=float)
        self.hull_tol = float(hull_tol)
        self.vertices.setflags(write=False)

    @cached_property
    def diameter(self) -> float:
        """Largest distance between two vertices.

        The vertices are read-only, so the O(V^2) pairwise scan runs once. It
        takes _BLOCK // V rows at a time and adds the squared coordinate
        differences one coordinate after the other, in the order of a sum
        over the last axis. The square root is taken once, of the largest
        square: it is monotone and correctly rounded, so that equals the
        largest root."""
        v = self.vertices
        if self.dimension == 1:
            return float(v.max() - v.min())
        rows = max(1, _BLOCK // len(v))
        widest = 0.0
        for start in range(0, len(v), rows):
            block = v[start:start + rows]
            total = np.zeros((len(block), len(v)))
            gap = np.empty_like(total)
            for axis in range(self.dimension):
                np.subtract.outer(block[:, axis], v[:, axis], out=gap)
                gap *= gap
                total += gap
            widest = max(widest, float(total.max()))
        return float(np.sqrt(widest))

    def support(self, directions: Array) -> Array:
        """Support function h(d) = max_v v . d, vectorized over rows.

        The rows go through the product _BLOCK // V at a time; each entry is
        the same dot product as in one dense product, up to the rounding of
        BLAS tile edges."""
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        vt = self.vertices.T
        rows = max(1, _BLOCK // vt.shape[1])
        out = np.empty(len(dirs))
        for start in range(0, len(dirs), rows):
            out[start:start + rows] = (dirs[start:start + rows] @ vt).max(axis=1)
        return out

    def contains(self, x: Array, tol: float = 0.0) -> bool:
        return self.distance(x)[0] <= tol

    def inside(self, points: Array) -> Array:
        """Row-wise membership of an (m, n) array, without the nearest-point
        problem: the rows `distance` puts at 0 (boundary slack included).
        In 3-D it reads the facet `equations`."""
        x = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        v = self.vertices
        if self.dimension == 1:
            return (x[:, 0] >= v.min()) & (x[:, 0] <= v.max())
        slack = 1e-12 * max(self.diameter, 1.0)
        if self.dimension == 2:
            edge = np.roll(v, -1, axis=0) - v
            rel = x[:, None, :] - v[None, :, :]
            # CCW polygon: non-negative cross products for every edge.
            cross = edge[:, 0] * rel[:, :, 1] - edge[:, 1] * rel[:, :, 0]
            return np.all(cross >= -slack, axis=1)
        eqs = self.equations
        return np.all(x @ eqs[:, :3].T + eqs[:, 3] <= slack, axis=1)

    def distance(self, x: Array) -> Tuple[float, Array, Optional[Array]]:
        """Distance to the body with nearest boundary point and outward unit
        direction; direction is None (and the point is x itself) inside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.dimension == 1:
            lo, hi = float(self.vertices.min()), float(self.vertices.max())
            pos = float(x[0])
            if pos < lo:
                return lo - pos, np.array([lo]), np.array([-1.0])
            if pos > hi:
                return pos - hi, np.array([hi]), np.array([1.0])
            return 0.0, x.copy(), None
        if self.dimension == 2:
            return self._distance_polygon(x)
        return self._distance_polyhedron(x)

    def _distance_polygon(self, x: Array) -> Tuple[float, Array, Optional[Array]]:
        if self.inside(x)[0]:
            return 0.0, x.copy(), None
        v = self.vertices
        edge = np.roll(v, -1, axis=0) - v
        rel = x[None, :] - v
        seg_len2 = np.maximum((edge * edge).sum(axis=1), 1e-300)
        frac = np.clip((rel * edge).sum(axis=1) / seg_len2, 0.0, 1.0)
        candidate = v + frac[:, None] * edge
        gap = x[None, :] - candidate
        dist = np.sqrt((gap * gap).sum(axis=1))
        best = int(np.argmin(dist))
        rho = float(dist[best])
        xi = candidate[best]
        return rho, xi, (x - xi) / rho

    def _distance_polyhedron(self, x: Array) -> Tuple[float, Array, Optional[Array]]:
        if self.equations is not None and self.inside(x)[0]:
            return 0.0, x.copy(), None
        xi = _nearest_on_triangles(x, self.vertices, self.faces)
        gap = x - xi
        rho = float(np.linalg.norm(gap))
        if rho == 0.0:
            return 0.0, x.copy(), None
        return rho, xi, gap / rho


def _nearest_on_triangles(x: Array, verts: Array, faces: Array) -> Array:
    """Closest point to x over a triangle soup (vectorized per-region rules)."""
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    ab, ac = b - a, c - a
    ap = x[None, :] - a
    d1 = (ab * ap).sum(axis=1)
    d2 = (ac * ap).sum(axis=1)
    bp = x[None, :] - b
    d3 = (ab * bp).sum(axis=1)
    d4 = (ac * bp).sum(axis=1)
    cp = x[None, :] - c
    d5 = (ab * cp).sum(axis=1)
    d6 = (ac * cp).sum(axis=1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num: Array, den: Array, mask: Array) -> Array:
        return num / np.where(mask, np.where(den == 0.0, 1.0, den), 1.0)

    result = a.copy()
    done = (d1 <= 0.0) & (d2 <= 0.0)

    m = ~done & (d3 >= 0.0) & (d4 <= d3)
    result[m] = b[m]
    done |= m

    m = ~done & (d6 >= 0.0) & (d5 <= d6)
    result[m] = c[m]
    done |= m

    m = ~done & (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    frac = safe_div(d1, d1 - d3, m)
    result[m] = a[m] + frac[m, None] * ab[m]
    done |= m

    m = ~done & (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    frac = safe_div(d2, d2 - d6, m)
    result[m] = a[m] + frac[m, None] * ac[m]
    done |= m

    m = ~done & (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)
    frac = safe_div(d4 - d3, (d4 - d3) + (d5 - d6), m)
    result[m] = b[m] + frac[m, None] * (c[m] - b[m])
    done |= m

    m = ~done
    denom = safe_div(np.ones_like(va), va + vb + vc, m)
    result[m] = (a[m] + ab[m] * (vb * denom)[m, None]
                 + ac[m] * (vc * denom)[m, None])

    gap = x[None, :] - result
    best = int(np.argmin((gap * gap).sum(axis=1)))
    return result[best]


def _ball_cloud(centers: Array, radii: Array, dimension: int) -> Array:
    if dimension == 2:
        ang = np.arange(CIRCLE_POINTS) * (2.0 * np.pi / CIRCLE_POINTS)
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return (centers[:, None, :] + radii[:, None, None] * ring[None, :, :]).reshape(-1, 2)
    shell = fibonacci_sphere(SPHERE_POINTS)
    return (centers[:, None, :] + radii[:, None, None] * shell[None, :, :]).reshape(-1, 3)


def _probe_directions(dimension: int) -> Array:
    if dimension == 2:
        ang = (np.arange(4096) + 0.37) * (2.0 * np.pi / 4096)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return fibonacci_sphere(8192)


def hull_of_balls(centers: Array, radii: Sequence[float],
                  dimension: int) -> ConvexPolytope:
    """Polytopal hull of a union of balls with a measured support deficiency."""
    centers = np.asarray(centers, dtype=float).reshape(-1, dimension)
    radii = np.asarray(radii, dtype=float)
    if dimension == 1:
        lo = float((centers[:, 0] - radii).min())
        hi = float((centers[:, 0] + radii).max())
        return ConvexPolytope(np.array([[lo], [hi]]), 1, hull_tol=1e-6)
    body = hull_of_points(_ball_cloud(centers, radii, dimension), dimension)
    probes = _probe_directions(dimension)
    exact = ((probes @ centers.T) + radii[None, :]).max(axis=1)
    deficiency = float(np.clip(exact - body.support(probes), 0.0, None).max())
    body.hull_tol = deficiency + 1e-6
    return body


def _monotone_chain(points: Array) -> List[int]:
    """Row indices of the hull vertices of a 2D cloud, counterclockwise from
    the lexicographically smallest point. Points on an edge are dropped, as
    qhull drops them."""
    order = np.lexsort((points[:, 1], points[:, 0])).tolist()
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()

    def half(indices) -> List[int]:
        chain: List[int] = []
        for k in indices:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                turn = ((xs[a] - xs[o]) * (ys[k] - ys[o])
                        - (ys[a] - ys[o]) * (xs[k] - xs[o]))
                if turn > 0.0:
                    break
                chain.pop()
            chain.append(k)
        return chain

    lower, upper = half(order), half(reversed(order))
    return lower[:-1] + upper[:-1]


def hull_of_points(points: Array, dimension: int) -> ConvexPolytope:
    """Exact polytope of a point cloud (no discretization slack).

    A cloud with a non-finite coordinate raises ValueError. So does a 2D
    cloud whose hull has fewer than three vertices (all points collinear or
    equal), and a 3D cloud with no four points off one plane: neither has
    a body."""
    points = np.asarray(points, dtype=float).reshape(-1, dimension)
    if not np.isfinite(points).all():
        raise ValueError("hull points must be finite")
    if dimension == 1:
        return ConvexPolytope(np.array([[points.min()], [points.max()]]), 1)
    if dimension == 2:
        chain = _monotone_chain(points)
        if len(chain) < 3:
            raise ValueError(f"a 2D hull needs three points not on one line, "
                             f"got {len(chain)} hull vertices")
        return ConvexPolytope(points[chain], 2)
    # Imported here so that only 3D data load scipy.spatial (and with it
    # scipy.special).
    from scipy.spatial import ConvexHull, QhullError
    try:
        hull = ConvexHull(points)
    except QhullError as err:
        raise ValueError("a 3D hull needs four points not on one plane") from err
    remap = np.empty(len(points), dtype=int)
    remap[hull.vertices] = np.arange(len(hull.vertices))
    faces = remap[hull.simplices]
    return ConvexPolytope(points[hull.vertices], dimension, faces=faces,
                          equations=hull.equations)


def sample_normal_bundle(body: ConvexPolytope, count: int) -> List[NormalPoint]:
    """Normal points with quasi-uniform outward directions.

    The boundary point for each direction is the vertex attaining the support
    maximum, first index on ties, so repeated calls are reproducible. In 1D
    the two normals are the whole bundle, whatever the count.
    """
    if count < 1:
        raise ValueError(f"direction count must be at least 1, got {count}")
    if body.dimension == 1:
        lo, hi = float(body.vertices.min()), float(body.vertices.max())
        return [NormalPoint(np.array([hi]), np.array([1.0])),
                NormalPoint(np.array([lo]), np.array([-1.0]))]
    if body.dimension == 2:
        ang = np.arange(count) * (2.0 * np.pi / count)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = fibonacci_sphere(count)
    scores = dirs @ body.vertices.T
    picks = np.argmax(scores, axis=1)
    return [NormalPoint(body.vertices[int(i)].copy(), d.copy())
            for i, d in zip(picks, dirs)]


def phi_map(point: NormalPoint, rho: float) -> Array:
    """Annulus chart: the point at distance rho along the outward normal."""
    return point.xi + rho * point.nu


def phi_inverse(body: ConvexPolytope, x: Array) -> Tuple[NormalPoint, float]:
    """Nearest-point decomposition of an exterior point; rejects interior x."""
    rho, xi, nu = body.distance(x)
    if nu is None:
        raise ValueError("point lies inside the body; no normal decomposition")
    return NormalPoint(xi, nu), rho


def inscribed_ball_containment(body: ConvexPolytope, center: Array, rho: float,
                               count: Optional[int] = None) -> bool:
    """Check that the half-radius ball B_{rho/2}(center) stays rho/2 deep
    inside every sampled supporting half space."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if count is None:
        count = {1: 2, 2: 256, 3: 1024}[body.dimension]
    tol = body.hull_tol + 1e-9 * max(body.diameter, 1.0)
    for point in sample_normal_bundle(body, count):
        if float(center @ point.nu) + 0.5 * rho > float(point.xi @ point.nu) - 0.5 * rho + tol:
            return False
    return True
