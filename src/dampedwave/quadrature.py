"""Gauss-Legendre rules on intervals, the clipped-ball rule for u's 2D
wave-weighted integrals, and the order-doubling check.

Every integrand handled here is smooth and supported on finitely many closed
balls, and every bump is radial, so `solution` and `initial_data` reduce
their integrals to rules in one distance built from `interval_nodes`. The
clipped-ball rule serves only the two wave-weighted integrals of u in the
two-dimensional evaluator, for a block of points at once: angular nodes
restricted to the cone of rays from each point that meet the disc, and
radial nodes on each clipped chord. The radial variable is mapped through
r = t*sin(phi), which keeps factors analytic in sqrt(t**2 - r**2) well
behaved up to the rim r = t. The rule returns chords and radii, not node
points.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
    "gauss_legendre",
    "interval_nodes",
    "clipped_ball_nodes",
    "with_refinement",
]

Array = np.ndarray


class QuadratureConvergenceError(RuntimeError):
    """Doubling the rule order moved the result more than the tolerance."""


# The largest rule order. leggauss(order) builds a dense order x order
# companion matrix, so its memory grows as order^2: an order of 10**5 would
# ask for about 75 GiB. The wave rules and the order-doubling check double
# an order, and the tests reach 1024 after that.
_MAX_ORDER = 4096


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> Tuple[Array, Array]:
    """Nodes and weights on [-1, 1], cached per order; the order is at most
    _MAX_ORDER."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    if order > _MAX_ORDER:
        raise ValueError(f"quadrature order must be at most {_MAX_ORDER}, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def interval_nodes(a: float, b: float, order: int) -> Tuple[Array, Array]:
    base, weights = gauss_legendre(order)
    half = 0.5 * (b - a)
    return a + half * (base + 1.0), half * weights


def clipped_ball_nodes(x: Array, t: float, center: Array, radius: float,
                       order: int) -> Tuple[Array, Array, Array, Array, Array]:
    """Chords and nodes for the regions B_t(x) intersected with the disc
    (center, radius), for each row x of an (m, 2) block (or one point).

    Two dimensions only, and there for u's wave-weighted integrals only;
    every other term reduces each bump to a radial and an angular rule of
    its own.

    The directions from x are a Gauss rule of 2 * order nodes on the cone of
    rays that meet the disc, or the 2 * order-point trapezoid on the full
    circle when x lies in the disc. A direction theta whose ray meets the
    disc inside B_t(x) is a chord; on it the radius is r = t * sin(phi) with
    `order` Gauss nodes in phi. Returns (r, weights, theta, s, rows):

    - r and weights, one entry per node, chord by chord (chord j owns
      entries j * order to (j + 1) * order). The weights are the area
      element sigma * w_phi * t * cos(phi) * r divided by the rim cosine
      cos(phi) = sqrt(1 - (r / t)**2), which every 2D wave term divides by.
    - theta (k, 2), s = theta . (center - x) and the row of x, one per
      chord; the chords of a row are consecutive, rows ascending.

    No node point is built: a node is x + r * theta. Arrays are empty when
    no region is.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"the clipped-ball rule is 2D only, got points of shape {pts.shape}")
    offset = np.asarray(center, dtype=float) - pts
    dist2 = offset[:, 0] * offset[:, 0] + offset[:, 1] * offset[:, 1]
    dist = np.sqrt(dist2)
    # A row's region is empty when t is not positive or the disc lies
    # beyond its radius-t circle; then no direction is worth building.
    rows = np.flatnonzero(dist - radius < t) if t > 0.0 else np.zeros(0, dtype=int)
    if not rows.size:
        return (np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros(0),
                np.zeros(0, dtype=int))
    offset, dist2, dist = offset[rows], dist2[rows], dist[rows]
    count = 2 * order
    base, wbase = gauss_legendre(count)
    step = 2.0 * np.pi / count
    inside = (dist <= radius)[:, None]
    # Outside the disc the cone is the arc of half-width asin(radius / dist)
    # around the direction to the centre.
    span = np.arcsin(radius / np.maximum(dist, radius))
    mid = np.arctan2(offset[:, 1], offset[:, 0])
    lo_ang, hi_ang = mid - span, mid + span
    half = (0.5 * (hi_ang - lo_ang))[:, None]
    ang = np.where(inside, np.arange(count) * step, lo_ang[:, None] + half * (base + 1.0))
    sigma = np.where(inside, step, half * wbase)
    cos, sin = np.cos(ang), np.sin(ang)
    along = cos * offset[:, :1] + sin * offset[:, 1:]
    disc = radius * radius - (dist2[:, None] - along * along)
    hit = disc > 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    lo = np.maximum(along - root, 0.0)
    hi = np.minimum(along + root, t)
    keep = hit & (hi > lo)
    theta = np.stack([cos[keep], sin[keep]], axis=1)
    owner = np.repeat(rows, keep.sum(axis=1))
    along, lo, hi, sigma = along[keep], lo[keep], hi[keep], sigma[keep]

    phi_lo = np.arcsin(np.minimum(lo / t, 1.0))
    phi_hi = np.arcsin(np.minimum(hi / t, 1.0))
    base, wbase = gauss_legendre(order)
    half = 0.5 * (phi_hi - phi_lo)
    # In place: the node arrays are the largest this rule builds.
    r = half[:, None] * (base + 1.0)
    r += phi_lo[:, None]
    np.sin(r, out=r)
    r *= t
    weights = (sigma * half * t)[:, None] * wbase
    weights *= r
    return r.ravel(), weights.ravel(), theta, along, owner


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
