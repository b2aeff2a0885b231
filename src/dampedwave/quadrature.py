"""Gauss-Legendre rules on intervals, the clipped-ball rule for the 2D wave
terms, and the order-doubling check.

Every integrand handled here is smooth and supported on finitely many closed
balls, and every bump is radial, so `solution` and `initial_data` reduce
their integrals to rules in one distance built from `interval_nodes`. The
clipped-ball rule serves only the wave-weighted and damped interior terms of
the two-dimensional evaluator: angular nodes restricted to the cone of rays
from the evaluation point that meet the ball, radial nodes on the clipped
chord. The radial variable is mapped through r = t*sin(phi), which keeps
factors analytic in sqrt(t**2 - r**2) well behaved up to the rim r = t.
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

    Two dimensions only, and there only for the wave-weighted and damped
    interior terms; the principal ball integrals, and every term in odd
    dimensions, reduce each bump to a radial and an angular rule of its own.

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
    # The region is empty when t is not positive or the ball lies beyond
    # the radius-t circle; then no cone direction is worth building.
    if t <= 0.0 or float(np.linalg.norm(center - x)) - radius >= t:
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


def with_refinement(evaluate: Callable[[int], Tuple[Value, Value]], order: int,
                    rtol: float = 1e-6, label: str = "integral") -> Value:
    """Evaluate at the given order and at twice it; insist they agree.

    evaluate(order) returns (value, scale) where scale is the magnitude the
    discrepancy is measured against (callers typically pass the larger of the
    result magnitude and a floor tied to the absolute node mass, so values
    that vanish by symmetry do not trip the check). A scale with one entry
    per row of the value holds each row to its own test, and an error names
    the first row that fails.
    """
    coarse, _ = evaluate(order)
    fine, scale = evaluate(2 * order)
    fine_arr = np.asarray(fine, dtype=float)
    coarse_arr = np.asarray(coarse, dtype=float)
    scale_arr = np.asarray(scale, dtype=float)
    gap = np.abs(fine_arr - coarse_arr)
    gap = gap.max(axis=tuple(range(scale_arr.ndim, gap.ndim)), initial=0.0)
    bad = np.flatnonzero(gap > rtol * np.maximum(scale_arr, 1e-300))
    if bad.size:
        i = bad[0]
        where = f" (row {i})" if scale_arr.ndim else ""
        raise QuadratureConvergenceError(
            f"{label}{where}: orders {order} and {2 * order} differ by "
            f"{gap.flat[i]:.3e} against scale {scale_arr.flat[i]:.3e} (rtol {rtol:.1e})")
    return fine
