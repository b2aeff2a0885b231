"""Convex hulls of ball unions, normal bundles, and annulus parametrization.

Every hull is a ConvexPolytope in facet form: vertices, boundary faces of n
vertex indices, and one unit outward facet equation per face, the form of
qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996). So membership is one
facet test, and distance one nearest-point search over the faces, in 1D-3D.

A ball hull hulls unit_directions on each ball boundary: the two ends in
1D, where the hull is exact and hull_tol is 1e-6, 256 circle points in 2D
and a 512-point Fibonacci covering in 3D. The support deficiency of that
cloud is measured against the exact ball supports over a dense direction
probe and stored as hull_tol, so every downstream region test can widen its
annuli by a certified amount. The 2D hull is Andrew's monotone chain (A. M.
Andrew, Inf. Process. Lett. 9, 1979), so 2D data load no SciPy; the 3D
hull is qhull, through scipy.spatial, imported at the first 3D hull.

The dense products run in row blocks: the support over the probe in blocks
of _BLOCK entries, and the diameter's pairwise squares and the membership
test against the facets through one reused buffer of _BUFFER entries. The
diameter adds its squares in the dense order, and a max is exact, so it
keeps every bit. BLAS may round a support entry on a tile edge differently
from one dense product in its last bit; every bundled datum keeps its
hull_tol bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "sample_normal_bundle",
    "inscribed_ball_containment",
    "unit_directions",
]

Array = np.ndarray

# Directions per ball of the hulled cloud, and of the probe that measures
# the cloud hull's support deficiency.
_CLOUD_DIRECTIONS = {1: 2, 2: 256, 3: 512}
_PROBE_DIRECTIONS = {1: 2, 2: 4096, 3: 8192}
# Entries per row block of the support's probe product: 512 KiB of float64.
# A block is the largest array a hull builds, so it bounds the memory of
# loading a datum: a dense probe product of single_bump_3d would hold
# 32 MiB. With blocks of 4 MiB a fresh process that loads two_bump_2d
# peaked at 36.9 MB of RSS instead of 34.0 MB, and was no faster. With
# blocks of 64 KiB a fresh process that runs the grid-2d benchmark workload
# peaked at 34.07-34.23 MB instead of 32.35-32.69 MB (ten processes each).
_BLOCK = 1 << 16
# Entries of the one buffer that the diameter's pairwise squares and the
# membership test reuse for every block: 64 KiB of float64. In the spots-3d
# benchmark the first `inside` of `certify_signs` computes the diameter,
# and 512 KiB blocks there set the peak RSS of the run.
_BUFFER = _BLOCK // 8


def _point_rows(x: Array, n: int, block: bool = True) -> Tuple[Array, bool]:
    """x as an (m, n) block of finite points, and whether x was one point (a
    point, or a number in 1D, is one row); without `block`, a block is
    refused. Every entry that takes query points reads them here, and a
    contiguous float64 block is not copied."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim <= 1
    if single and arr.size != n:
        raise ValueError(f"point has {arr.size} coordinates, expected {n}")
    if not single and (arr.ndim != 2 or arr.shape[1] != n):
        raise ValueError(f"a block of points has shape (m, {n}), got {arr.shape}")
    if not (single or block):
        raise ValueError(f"expected one point, got a block of shape {arr.shape}")
    rows = np.ascontiguousarray(arr.reshape(1, n) if single else arr)
    if not np.isfinite(rows).all():
        row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        where = "point" if single else f"row {row}"
        raise ValueError(f"{where} has a non-finite coordinate: {rows[row]}")
    return rows, single


def _as_directions(omega: Array, m: int, n: int, single: bool, name: str = "omega",
                   unit: bool = True) -> Array:
    """omega, one (n,) row for every point or one row per point, as m finite
    rows (`single`: the points were one point). Every entry that takes a
    direction reads it here: a `unit` row must be nonzero, and is divided by
    its norm unless that is 1 to 1e-12; a vector that is not one is only read."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if om.shape not in ((n,), (m, n)):
        raise ValueError(f"{name} has shape {om.shape}, expected ({n},) or ({m}, {n})")
    shared = om.ndim == 1
    om = np.array(np.broadcast_to(om, (m, n)), order="C")
    norm = np.sqrt(_row_dots(om, om)) if unit else 1.0
    bad = np.flatnonzero(~(np.isfinite(om).all(axis=1) & (norm > 0.0)))
    if bad.size:
        where = name if single or shared else f"{name} row {bad[0]}"
        need = "finite and nonzero" if unit else "finite"
        raise ValueError(f"{where} must be {need}, got {om[bad[0]]}")
    if unit:
        off = np.abs(norm - 1.0) > 1e-12
        om[off] /= norm[off, None]
    return om


def _row_dots(a: Array, b: Array) -> Array:
    """a[i] @ b[i] for each row. The stacked product takes the same dot
    product as `a[i] @ b[i]` and `np.linalg.norm`, bit for bit, where a
    sum of the products per row rounds differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def fibonacci_sphere(count: int) -> Array:
    """Quasi-uniform unit vectors from the spherical Fibonacci lattice."""
    k = np.arange(count)
    golden = 0.5 * (1.0 + np.sqrt(5.0))
    z = 1.0 - (2.0 * k + 1.0) / count
    azimuth = 2.0 * np.pi * k / golden
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(azimuth), s * np.sin(azimuth), z], axis=1)


def unit_directions(n: int, count: int, phase: float = 0.0) -> Array:
    """Quasi-uniform unit vectors in R^n: the two of 1D whatever the count,
    count equally spaced angles (k + phase) 2 pi / count in 2D, and the
    Fibonacci lattice in 3D."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = (np.arange(count) + phase) * (2.0 * np.pi / count)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        return fibonacci_sphere(count)
    raise ValueError(f"unit directions cover dimensions 1-3, got {n}")


@dataclass(frozen=True, eq=False)
class NormalPoint:
    """Boundary point xi with unit outward normal nu; the half space
    {y : (y - xi) . nu <= 0} contains the polytope."""
    xi: Array
    nu: Array


class ConvexPolytope:
    """Immutable convex body in facet form: its vertices, boundary `faces`
    of n vertex indices each, and one unit outward facet equation per face,
    a row (normal, offset) with normal . x + offset <= 0 inside.

    The faces of an interval are its two ends, and those of a polygon are
    the edges of its vertex cycle, counterclockwise or clockwise; both are
    derived from the vertices at their first use. A 3D body carries qhull's
    triangles and equations, which `hull_of_points` passes in."""

    def __init__(self, vertices: Array, dimension: int,
                 faces: Optional[Array] = None,
                 equations: Optional[Array] = None,
                 hull_tol: float = 1e-6) -> None:
        self.dimension = int(dimension)
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, dimension)
        self.hull_tol = float(hull_tol)
        self.vertices.setflags(write=False)
        # Given faces and equations shadow the derived cached_property.
        if faces is not None:
            self.faces = np.asarray(faces, dtype=int)
        if equations is not None:
            self.equations = np.asarray(equations, dtype=float)

    @cached_property
    def faces(self) -> Array:
        return _derived_facets(self.vertices, self.dimension)[0]

    @cached_property
    def equations(self) -> Array:
        return _derived_facets(self.vertices, self.dimension)[1]

    @cached_property
    def diameter(self) -> float:
        """Largest distance between two vertices.

        The vertices are read-only, so the O(V^2) pairwise scan runs once. It
        takes _BUFFER // 2V rows at a time, into the two halves of one
        buffer, and adds the squared coordinate differences one coordinate
        after the other, in the order of a sum over the last axis. The
        square root is taken once, of the largest square: it is monotone and
        correctly rounded, so that equals the largest root (in 1D,
        sqrt(fl(d^2)) = |d|)."""
        v = self.vertices
        rows = max(1, _BUFFER // (2 * len(v)))
        pair = np.empty((2, min(rows, len(v)), len(v)))
        widest = 0.0
        for start in range(0, len(v), rows):
            block = v[start:start + rows]
            total, gap = pair[:, :len(block)]
            total.fill(0.0)
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
        problem: the rows `distance` puts at 0. A row is inside when no
        facet equation exceeds 1e-12 * max(diameter, 1), the boundary slack.
        The rows go _BUFFER // F at a time against the F facets, in one
        buffer."""
        x = _point_rows(points, self.dimension)[0]
        normals, offsets = self.equations[:, :-1].T, self.equations[:, -1]
        slack = 1e-12 * max(self.diameter, 1.0)
        rows = max(1, _BUFFER // len(offsets))
        buffer = np.empty((min(rows, len(x)), len(offsets)))
        out = np.empty(len(x), dtype=bool)
        for start in range(0, len(x), rows):
            part = x[start:start + rows]
            block = np.matmul(part, normals, out=buffer[:len(part)])
            block += offsets
            out[start:start + rows] = np.all(block <= slack, axis=1)
        return out

    def distance(self, x: Array) -> Tuple[float, Array, Optional[Array]]:
        """Distance to the body with nearest boundary point and outward unit
        direction; direction is None (and the point is x itself) inside.
        Outside, the nearest point is sought over the faces as triangles, a
        face of fewer than three vertices repeating its last vertex."""
        x = _point_rows(x, self.dimension, block=False)[0][0]
        if self.inside(x)[0]:
            return 0.0, x.copy(), None
        faces = self.faces
        triangles = np.pad(faces, ((0, 0), (0, 3 - faces.shape[1])), mode="edge")
        xi = _nearest_on_triangles(x, self.vertices, triangles)
        gap = x - xi
        rho = float(np.linalg.norm(gap))
        if rho == 0.0:
            return 0.0, x.copy(), None
        return rho, xi, gap / rho


def _derived_facets(vertices: Array, dimension: int) -> Tuple[Array, Array]:
    """Faces and unit outward facet equations of an interval or of a
    polygon's vertex cycle; a 3D body has qhull's."""
    v = vertices
    if dimension == 1:
        faces = np.array([[np.argmin(v[:, 0])], [np.argmax(v[:, 0])]])
        normals = np.array([[-1.0], [1.0]])
    elif dimension == 2:
        after = np.roll(np.arange(len(v)), -1)
        # Twice the signed area (shoelace): positive for a CCW cycle, whose
        # outward normals are the edges turned clockwise, negative for a CW one.
        area = float(np.sum(v[:, 0] * v[after, 1] - v[after, 0] * v[:, 1]))
        if not abs(area) > 0.0:
            raise ValueError("a 2D ConvexPolytope needs vertices that enclose "
                             f"an area, got signed area {0.5 * area}")
        # A repeated vertex, as in a closed list, makes no face.
        faces = np.stack([np.arange(len(v)), after], axis=1)[np.any(v[after] != v, axis=1)]
        edge = v[faces[:, 1]] - v[faces[:, 0]]
        normals = np.sign(area) * np.stack([edge[:, 1], -edge[:, 0]], axis=1)
        normals /= np.hypot(edge[:, 0], edge[:, 1])[:, None]
    else:
        raise ValueError("a 3D ConvexPolytope needs qhull's faces and "
                         "equations: build it with hull_of_points")
    offsets = -(normals * v[faces[:, 0]]).sum(axis=1)
    return faces, np.column_stack([normals, offsets])


def _nearest_on_triangles(x: Array, verts: Array, faces: Array) -> Array:
    """Closest point to x over a triangle soup (vectorized per-region rules).
    A segment (a, b, b) or a point (a, a, a) ends in its vertex and edge rules."""
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
    shell = unit_directions(dimension, _CLOUD_DIRECTIONS[dimension])
    return (centers[:, None, :] + radii[:, None, None] * shell[None, :, :]).reshape(-1, dimension)


def _probe_directions(dimension: int) -> Array:
    return unit_directions(dimension, _PROBE_DIRECTIONS[dimension], phase=0.37)


def hull_of_balls(centers: Array, radii: Sequence[float],
                  dimension: int) -> ConvexPolytope:
    """Polytopal hull of a union of balls with a measured support deficiency
    (none in 1D, whose cloud c +- r is exact: hull_tol is 1e-6)."""
    _check_dimension(dimension)
    centers = np.asarray(centers, dtype=float).reshape(-1, dimension)
    radii = np.asarray(radii, dtype=float)
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


def _check_dimension(dimension: int) -> None:
    if dimension not in (1, 2, 3):
        raise ValueError(f"hulls cover dimensions 1-3, got {dimension}")


def hull_of_points(points: Array, dimension: int) -> ConvexPolytope:
    """Exact polytope of a point cloud (no discretization slack).

    A dimension outside 1-3 raises ValueError (the faces are searched as
    triangles), and so does a cloud with a non-finite coordinate. So does a
    2D cloud whose hull has fewer than three vertices (all points collinear
    or equal), and a 3D cloud with no four points off one plane: neither has
    a body."""
    _check_dimension(dimension)
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
    dirs = unit_directions(body.dimension, count)
    picks = np.argmax(dirs @ body.vertices.T, axis=1)
    return [NormalPoint(body.vertices[int(i)].copy(), d.copy())
            for i, d in zip(picks, dirs)]


def phi_map(point: NormalPoint, rho: float) -> Array:
    """Annulus chart: the point at distance rho along the outward normal."""
    return point.xi + rho * point.nu


def inscribed_ball_containment(body: ConvexPolytope, center: Array, rho: float,
                               count: Optional[int] = None) -> bool:
    """Check that the half-radius ball B_{rho/2}(center) stays rho/2 deep
    inside every sampled supporting half space; rho must be finite and
    non-negative."""
    center = _point_rows(center, body.dimension, block=False)[0][0]
    if not (np.isfinite(rho) and rho >= 0.0):
        raise ValueError(f"containment radius must be finite and non-negative, got {rho}")
    if count is None:
        count = {1: 2, 2: 256, 3: 1024}[body.dimension]
    tol = body.hull_tol + 1e-9 * max(body.diameter, 1.0)
    for point in sample_normal_bundle(body, count):
        if float(center @ point.nu) + 0.5 * rho > float(point.xi @ point.nu) - 0.5 * rho + tol:
            return False
    return True
