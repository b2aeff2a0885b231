"""Product Gauss-Legendre rules over balls, spheres, and ray-clipped regions.

Every integrand handled here is smooth and supported on finitely many closed
balls, so rules are built per support ball. The clipped-ball rule serves the
two-dimensional evaluator alone (odd dimensions use the per-bump radial rule
in `solution`): angular nodes restricted to the cone of rays from the
evaluation point that meet the ball, radial nodes on the clipped chord. The
radial variable is mapped through r = t*sin(phi), which keeps factors
analytic in sqrt(t**2 - r**2) well behaved up to the rim r = t.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
    "gauss_legendre",
    "interval_nodes",
    "periodic_nodes",
    "unit_sphere_nodes",
    "ball_nodes",
    "clipped_ball_nodes",
    "with_refinement",
]

Array = np.ndarray


class QuadratureConvergenceError(RuntimeError):
    """Doubling the rule order moved the result more than the tolerance."""


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> Tuple[Array, Array]:
    """Nodes and weights on [-1, 1], cached per order."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def interval_nodes(a: float, b: float, order: int) -> Tuple[Array, Array]:
    base, weights = gauss_legendre(order)
    half = 0.5 * (b - a)
    return a + half * (base + 1.0), half * weights


def periodic_nodes(count: int) -> Tuple[Array, Array]:
    """Trapezoidal rule on [0, 2*pi); spectrally accurate for periodic data."""
    step = 2.0 * np.pi / count
    return np.arange(count) * step, np.full(count, step)


def unit_sphere_nodes(order: int) -> Tuple[Array, Array]:
    """Product rule on the unit sphere; weights sum to 4*pi."""
    mu, wmu = interval_nodes(-1.0, 1.0, order)
    phi, wphi = periodic_nodes(2 * order)
    sin_theta = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
    dirs = np.empty((order, 2 * order, 3))
    dirs[:, :, 0] = sin_theta[:, None] * np.cos(phi)[None, :]
    dirs[:, :, 1] = sin_theta[:, None] * np.sin(phi)[None, :]
    dirs[:, :, 2] = mu[:, None]
    weights = wmu[:, None] * wphi[None, :]
    return dirs.reshape(-1, 3), weights.ravel()


def ball_nodes(center: Array, radius: float, dimension: int,
               order: int) -> Tuple[Array, Array]:
    """Nodes and volume weights for the full ball of the given radius."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if dimension == 1:
        pts, w = interval_nodes(center[0] - radius, center[0] + radius, order)
        return pts[:, None], w
    if dimension == 2:
        rad, wrad = interval_nodes(0.0, radius, order)
        ang, wang = periodic_nodes(2 * order)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        points = center[None, None, :] + rad[:, None, None] * dirs[None, :, :]
        weights = (wrad * rad)[:, None] * wang[None, :]
        return points.reshape(-1, 2), weights.ravel()
    if dimension == 3:
        rad, wrad = interval_nodes(0.0, radius, order)
        dirs, wdir = unit_sphere_nodes(order)
        points = center[None, None, :] + rad[:, None, None] * dirs[None, :, :]
        weights = (wrad * rad * rad)[:, None] * wdir[None, :]
        return points.reshape(-1, 3), weights.ravel()
    raise ValueError(f"unsupported dimension {dimension}")


def _cone_directions(x: Array, center: Array, radius: float,
                     order: int) -> Tuple[Array, Array]:
    """Directions in the plane from x whose rays can meet the ball, with
    arc weights; two dimensions only.

    When x lies inside the ball the full circle is returned.
    """
    if x.size != 2:
        raise ValueError(f"unsupported dimension {x.size}")
    offset = center - x
    dist = float(np.linalg.norm(offset))
    if dist <= radius:
        ang, wang = periodic_nodes(2 * order)
    else:
        span = float(np.arcsin(min(radius / dist, 1.0)))
        base = float(np.arctan2(offset[1], offset[0]))
        ang, wang = interval_nodes(base - span, base + span, 2 * order)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1), wang


def clipped_ball_nodes(x: Array, t: float, center: Array, radius: float,
                       order: int) -> Tuple[Array, Array, Array, Array]:
    """Nodes for the region B_t(x) intersected with the ball (center, radius).

    Two dimensions only; the odd-dimensional evaluator reduces each bump to
    a radial and an angular rule of its own.

    Returns (points, radii, weights, rim_cosines) where radii = |point - x|
    and rim_cosines = sqrt(1 - (radii / t)**2) evaluated without cancellation.
    Weights carry the full volume element. Arrays are empty when the region is.

    The (m, n) points are the transpose of one contiguous (n, m) block of
    coordinate rows. Every pass over them (building them, the offsets from
    a bump centre, their squared norms, the offsets from x) then runs along
    m contiguous values per coordinate instead of m rows of length n; the
    values are the same either way.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dimension = x.size
    empty = (np.zeros((0, dimension)), np.zeros(0), np.zeros(0), np.zeros(0))
    if t <= 0.0:
        return empty
    omegas, sigma_w = _cone_directions(x, center, radius, order)
    offset = center - x
    along = omegas @ offset
    dist2 = float(offset @ offset)
    disc = radius * radius - (dist2 - along * along)
    hit = disc > 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    lo = np.clip(along - root, 0.0, None)
    hi = np.minimum(along + root, t)
    keep = hit & (hi > lo)
    if not np.any(keep):
        return empty
    omegas, sigma_w = omegas[keep], sigma_w[keep]
    lo, hi = lo[keep], hi[keep]

    phi_lo = np.arcsin(np.clip(lo / t, 0.0, 1.0))
    phi_hi = np.arcsin(np.clip(hi / t, 0.0, 1.0))
    base, wbase = gauss_legendre(order)
    half = 0.5 * (phi_hi - phi_lo)
    phi = phi_lo[:, None] + half[:, None] * (base[None, :] + 1.0)
    wphi = half[:, None] * wbase[None, :]
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)
    rad = t * sin_phi
    weights = sigma_w[:, None] * wphi * t * cos_phi * rad ** (dimension - 1)
    coords = x[:, None, None] + omegas.T[:, :, None] * rad[None, :, :]
    return (coords.reshape(dimension, -1).T, rad.ravel(), weights.ravel(),
            cos_phi.ravel())


Value = Union[float, Array]


def with_refinement(evaluate: Callable[[int], Tuple[Value, float]], order: int,
                    rtol: float = 1e-6, label: str = "integral") -> Value:
    """Evaluate at the given order and at twice it; insist they agree.

    evaluate(order) returns (value, scale) where scale is the magnitude the
    discrepancy is measured against (callers typically pass the larger of the
    result magnitude and a floor tied to the absolute node mass, so values
    that vanish by symmetry do not trip the check).
    """
    coarse, _ = evaluate(order)
    fine, scale = evaluate(2 * order)
    fine_arr = np.asarray(fine, dtype=float)
    coarse_arr = np.asarray(coarse, dtype=float)
    gap = float(np.max(np.abs(fine_arr - coarse_arr))) if fine_arr.size else 0.0
    if gap > rtol * max(float(scale), 1e-300):
        raise QuadratureConvergenceError(
            f"{label}: orders {order} and {2 * order} differ by {gap:.3e} "
            f"against scale {float(scale):.3e} (rtol {rtol:.1e})")
    return fine
