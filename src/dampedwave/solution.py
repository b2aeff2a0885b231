"""Closed-form evaluation of the damped wave field u, split into a diffusive
principal part and an exponentially damped wave remainder.

For initial state (f, -f) the solution in dimensions one to three is a kernel
integral over B_t(x) (the principal part) plus sphere or wave-weighted ball
integrals of f and grad f (the remainder). Everything is evaluated through
the overflow-free scaled kernels; the only exponential ever formed is
exp(-t/2) multiplying polynomially sized quantities. Gradients and second
directional derivatives are the displayed derivative formulas: one kernel
order higher inside the ball integral, plus boundary sphere terms (odd
dimensions) or wave-weighted moment terms (even dimensions, where the radial
kernel derivative carries a 1/sqrt(t^2 - r^2) factor).

Every bump is radial, so u and its derivatives are sums of per-bump terms of
d = |x - c| alone. One index, top, names the quantity throughout: 0 for u
(or its principal part alone), 1 for grad u and 2 for dir2 u. One core
(`_parts`) runs the loop over the bumps for a chunk of rows and gives each
bump's radial scalars, with no direction in them: h for u, h'/d for grad u,
and h'/d and h'' for dir2 u. One assembly (`_assemble`), shared with
`RadialField`, sums them into u, grad u and dir2 u along omega, from the
offsets and distances that loop measured. Ball and sphere integrals reduce
to a radial rule in r and an angular rule in the angle to the bump centre
(spherical means; F. John, Plane Waves and Spherical Means, 1955). One set
of per-node wave formulas gives the sphere integrals of radius r: at r = t
they are the wave terms in odd n (in 1D the two points x +- t), and in 2D
the wave-weighted ball integrals weigh them at each radial node of the
ball. u's two 2D wave-weighted integrals alone run on the chords of
`quadrature.clipped_ball_nodes`, in per-node scalars with no node point.

The evaluators take one point or an (m, n) block of points at one t, and a
point is a one-row block. Per bump, a chunk of rows costs one radial rule
and one kernel call. The angular rules at its radial nodes, their gaps and
the profile table then go through in slices of a fixed count of angular
nodes (`_SLICE_NODES`), each slice into buffers made once, and each row's
dot products over its radial nodes follow the last slice; so the memory of
a pass is bounded whatever the block. The node passes form their arrays in
place, in the order the formulas are written. Every row equals its
single-point value bit for bit (see `geometry._row_dots`), whatever the chunk and
slice. All of them, and `heat_eval`, check their input in one front end
(`_as_points`) and share one back end (`_evaluate`); all but the principal
part alone refuse a dimension above three first (`_check_full`).

The feature stages evaluate through `RadialField` instead: per bump, the
Hankel integral of its share of u (`hankel.hankel_profile`) at the 33
distances of a Chebyshev-Lobatto grid, fitted as an even series, which
holds for the bundled shapes from t = 85 (two_bump_1d) to 104
(single_bump_3d) on. The field turns to this core where the light cone
enters the profile domain, where the tail bound of the Hankel integral
exceeds a profile's error bar, where 65 nodes do not resolve a profile, and
at points beyond the profile domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import _as_directions, _point_rows, _row_dots, unit_directions
from .hankel import _sphere_area, hankel_profile, tail_bound
from .initial_data import InitialDatum, SmoothBump
from .kernels import (_MAX_ARGUMENT, kernel_at_zero, kernel_deriv_at_zero,
                      kernel_ktilde_scaled)
from .quadrature import (clipped_ball_nodes, gauss_legendre, interval_nodes,
                         with_refinement)

__all__ = [
    "DimensionConstants",
    "FieldSample",
    "RadialField",
    "dimension_constants",
    "eval_u",
    "eval_grad_u",
    "eval_dir2_u",
    "eval_principal_general_n",
    "heat_eval",
    "error_decay_diagnostic",
    "profile_reach",
    "radial_field",
    "wave_factor",
]

Array = np.ndarray
Value = Union[float, Array]

DEFAULT_ORDER = 64


@dataclass(frozen=True)
class DimensionConstants:
    """Normalization constants and kernel order for one spatial dimension."""
    n: int
    parity: str
    ell: int
    gamma: float


@lru_cache(maxsize=None)
def dimension_constants(n: int) -> DimensionConstants:
    if n % 2 == 1:
        gamma = 2.0 ** (-(3 * n - 1) / 2.0) * math.pi ** (-(n - 1) / 2.0)
        return DimensionConstants(n, "odd", (n - 1) // 2, gamma)
    gamma = 2.0 ** (-(3 * n - 2) / 2.0) * math.pi ** (-n / 2.0)
    return DimensionConstants(n, "even", n // 2, gamma)


def wave_factor(t: float) -> float:
    """exp(-t/2), set to 0 from t = 1400 on. There it is still a normal
    double (exp(-700) = 9.9e-305; it underflows to 0 only near t = 1490),
    but far below the last bit of any principal part, so the damped terms
    it multiplies are skipped."""
    return math.exp(-0.5 * t) if t < 1400.0 else 0.0


@dataclass(frozen=True)
class FieldSample:
    """u = principal + wave_remainder at (x, t): floats for one point, one
    entry per row for an (m, n) block of points."""
    x: Array
    t: float
    value: Union[float, Array]
    principal: Union[float, Array]
    wave_remainder: Union[float, Array]


# The largest t, where s = t/2 reaches the kernels' checked argument range.
_MAX_TIME = 2.0 * _MAX_ARGUMENT


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and 0.0 < t <= _MAX_TIME):
        raise ValueError(f"t must be finite and positive and at most {_MAX_TIME:g}, got {t}")


def _check_full(n: int) -> None:
    """u, its derivatives and the heat smoothing have closed forms in
    dimensions one to three; only the principal part alone reaches any n."""
    if not 1 <= n <= 3:
        raise ValueError(f"full field evaluation supports dimensions 1-3, got {n}")


def _as_points(datum: InitialDatum, x: Union[Array, float], t: float,
               omega: Optional[Array] = None) -> Tuple[Array, bool, Optional[Array]]:
    """x as an (m, n) block of points and whether x was one point
    (`geometry._point_rows`), and omega, if given, as a unit direction per
    row (`geometry._as_directions`); t must pass `_check_time`. Every evaluator
    starts here."""
    _check_time(t)
    n = datum.dimension
    pts, single = _point_rows(x, n)
    return pts, single, None if omega is None else _as_directions(omega, len(pts), n, single)


# Angular nodes per pass of the node passes: 128 KiB of float64 an array.
# A row chunk holds the rows whose radial rules have at most this many
# nodes, the 2D wave ball's at twice the order included (two panels of
# 2 * order nodes a row): 64 points of 2D at order 64. The angular rules at
# a rule's nodes go through in slices of this many angular nodes (256
# radial nodes of 64 angular ones), each slice into the same buffers. u's
# 2D clipped-ball chords take as many rows a pass as fill it: 2 points at
# order 64, where up to 128 chords of 64 nodes make 8,192 nodes a point.
# On the 289-point grid of two_bump_2d at order 64, the tracemalloc
# high-water of eval_u is 0.87 MiB at t = 10 and 0.89 MiB at t = 3200. In
# a fresh process the two calls took about 420 minor page faults; in
# slices of 32,768 nodes the live set of a pass outgrows glibc's heap trim
# threshold, and they took about 23,000.
_SLICE_NODES = 1 << 14


def _in_chunks(parts: Callable[..., Tuple[Array, ...]], order: int,
               *blocks: Array) -> Tuple[Array, ...]:
    """parts(rows of each block), a chunk of rows at a time, with each of
    its results joined back along the rows: the blocks are the points and,
    for dir2, their directions. The rule order sets the chunk size, and
    must be at least 1."""
    if order < 1:
        raise ValueError(f"quadrature order must be at least 1, got {order}")
    step = max(1, _SLICE_NODES // (4 * order))
    if len(blocks[0]) <= step:
        return parts(*blocks)
    chunks = [parts(*(b[i:i + step] for b in blocks)) for i in range(0, len(blocks[0]), step)]
    return tuple(np.concatenate(result) for result in zip(*chunks))


def _evaluate(pts: Array, single: bool, t: float, order: int, check: bool, label: str,
              sums: Callable[[int, bool], Tuple[Array, Array, Array]]
              ) -> Tuple[Value, Value, Value]:
    """(principal, wave, principal + wave) by row of pts, or as one point's,
    from sums(order, wave) -> (principal, raw wave, |kernel| mass) by row;
    wave is false where exp(-t/2), the raw wave's damping, is 0, and the
    wave and damped terms are then 0, not computed. With check, each of
    the three must pass the row's order-doubling test against the larger of
    |principal| and |wave| (over every component of a gradient) floored at
    1e-9 times the mass, so that values which vanish by symmetry pass."""
    damp = wave_factor(t)

    def terms(o: int) -> Tuple[Array, Array, Array]:
        p, wave, mass = sums(o, damp > 0.0)
        return p, wave * damp, mass

    def checked(o: int) -> Tuple[Array, Array]:
        p, wave, mass = terms(o)
        stacked = np.stack([p, wave, p + wave], axis=1)
        top = np.abs(stacked[:, :2]).max(axis=tuple(range(1, stacked.ndim)))
        return stacked, np.maximum(top, 1e-9 * mass)

    if check:
        fine = with_refinement(checked, order, label=label)
        p, wave, total = np.moveaxis(fine, 1, 0).copy()
    else:
        p, wave, _ = terms(order)
        total = p + wave
    if single:
        return tuple(float(v[0]) if v.ndim == 1 else v[0] for v in (p, wave, total))
    return p, wave, total


def _rim_coef(n: int, k: int, t: float) -> float:
    """The factor of the damped terms of kernel order ell + k (k = 0 or 1).

    In odd n it is t k_(ell+k+1)(0) - 2 k_(ell+k)(0): e^(t/2) times the
    kernel ktilde_(ell+k) on the sphere r = t, which weighs the boundary
    terms. In 2D the even kernel is 0 on the rim r = t, and half its radial
    derivative there, t k_(ell+k+1)'(0) - 2 k_(ell+k)'(0), over t weighs the
    damped terms inside the ball (the node weights of `_wave_terms`)."""
    dc = dimension_constants(n)
    at_zero = kernel_at_zero if n % 2 else kernel_deriv_at_zero
    edge = t * at_zero(dc.parity, dc.ell + k + 1) - 2.0 * at_zero(dc.parity, dc.ell + k)
    return edge if n % 2 else 0.5 * edge / t


def _wave_pair(n: int, t: float) -> Tuple[float, float]:
    """(a, b): in odd n the raw wave remainder, and each of its x-derivatives,
    is gamma * (a * M + b * dM/dt), with M the integral of f, or of that
    derivative of f, over the sphere of radius t around x. In 2D, M and
    dM/dt stand for the wave-weighted ball integrals of the 2D branches."""
    if n == 1:
        return 1.0, 0.0
    if n == 2:
        return 0.25 * t * t - t + 2.0, 2.0 * t
    return 0.5 * t * t - 2.0 * t + 4.0, 4.0 * t


class _Radial(NamedTuple):
    """One bump's radial rule seen from the rows of a block: the radii r of
    the spheres around each point that meet the bump's ball.

    rows picks the points (rows of the block) whose region reaches the
    bump's ball, as a slice when that is every row. Their radial nodes lie
    end to end: point i owns nodes start[i] to start[i + 1] of d (its
    distance |x - c|), r, wphi and wr. On the sphere of radius t each point
    owns one. In the ball r = t sin(phi): wphi integrates dphi and
    wr = wphi t cos(phi) integrates dr; on the sphere both are 1.
    """
    rows: Union[slice, Array]
    start: List[int]
    d: Array
    r: Array
    wphi: Array
    wr: Array


class _Nodes(NamedTuple):
    """A slice of the nodes of a `_Radial` rule, d and r, with the angular
    rule on each one's sphere (`_angular_rule`).

    mu is the cosine of the angle between a direction theta and the axis
    e = (x - c) / d, so the node x + r*theta lies at squared distance
    rho2 = d**2 + r**2 + 2*d*r*mu from the bump centre c, and gap is
    R**2 - rho2. Each row of wmu integrates over the unit sphere S^{n-1},
    restricted to the directions that land in the bump's ball.
    """
    d: Array
    r: Array
    mu: Array
    wmu: Array
    gap: Array


def _two_point_rule(n: int, width: int) -> Tuple[Array, Array]:
    """One row of the rule mu = +-1/sqrt(n), padded with zero weights to
    `width` columns.

    At d = 0 every integrand is a function of r times a polynomial of degree
    three at most in mu, and the rule has the sphere's moments 1, 0, 1/n, 0
    through that degree. In one dimension it is the 0-sphere {-1, 1}
    itself, exact for any integrand.
    """
    mu = np.zeros(width)
    wmu = np.zeros(width)
    mu[:2] = [-1.0 / math.sqrt(n), 1.0 / math.sqrt(n)]
    wmu[:2] = 0.5 * _sphere_area(n)
    return mu, wmu


def _cap_rule(n: int, radius: float, d: Array, r: Array, order: int,
              mu: Array, wmu: Array) -> None:
    """Angular nodes and weights in mu, into mu and wmu, for the directions,
    from distance d > 0 to the bump centre at radius r, that land in the
    ball."""
    base, wbase = gauss_legendre(order)
    # Directions with mu below the cut land in the ball.
    cos_cut = np.minimum(np.maximum((radius * radius - d * d - r * r) / (2.0 * d * r),
                                    -1.0), 1.0)
    if n % 2:
        # The measure |S^{n-2}| (1 - mu^2)^((n-3)/2) dmu is polynomial
        # and rho2 is linear in mu, so nodes in mu resolve the steep
        # edge of the profile's derivatives as finely as nodes in rho2.
        half = 0.5 * (cos_cut + 1.0)
        np.multiply(half[:, None], base + 1.0, out=mu)
        mu -= 1.0
        np.multiply((_sphere_area(n - 1) * half)[:, None], wbase, out=wmu)
        if n > 3:
            wmu *= (1.0 - mu * mu) ** ((n - 3) // 2)
    else:
        # In even n that measure is singular at mu = -1; use theta. Its
        # factor sin(theta)**(n - 2) is 1 in 2D, and is taken before the
        # cosine overwrites theta.
        theta_lo = np.arccos(cos_cut)
        half = 0.5 * (math.pi - theta_lo)
        theta = np.multiply(half[:, None], base + 1.0, out=mu)
        theta += theta_lo[:, None]
        np.multiply((_sphere_area(n - 1) * half)[:, None], wbase, out=wmu)
        if n > 2:
            wmu *= np.sin(theta) ** (n - 2)
        np.cos(theta, out=theta)


def _radial_rule(bump: SmoothBump, dist: Array, t: float, order: int,
                 on_sphere: bool = False) -> Optional[_Radial]:
    """Radial nodes for the bump's part of B_t(x), or of the sphere of
    radius t, for each row x of a block, given |x - c| by row.

    None when the region misses the bump's ball from every row.
    """
    radius = bump.radius
    rows, counts, ends = [], [], []
    for i, d in enumerate(dist.tolist()):
        if on_sphere:
            if abs(d - t) < radius:
                rows.append(i)
                counts.append(1)
            continue
        lo, hi = max(d - radius, 0.0), min(d + radius, t)
        if hi <= lo:
            continue
        # The sphere around x starts to leave the ball at r = R - d. The
        # radial integrand is smooth there but not analytic, so the rule is
        # split at that radius.
        cuts = [lo, radius - d, hi] if lo < radius - d < hi else [lo, hi]
        for a, b in zip(cuts, cuts[1:]):
            ends += [math.asin(a / t), math.asin(b / t)]
        rows.append(i)
        counts.append(order * (len(cuts) - 1))
    if not rows:
        return None
    if len(rows) < len(dist):
        rows = np.array(rows)
        dist = dist[rows]
    else:
        rows = slice(None)
    if on_sphere:
        r = np.full(len(counts), float(t))
        wphi = wr = np.ones(len(counts))
    else:
        base, wbase = gauss_legendre(order)
        a_phi, b_phi = np.reshape(ends, (-1, 2)).T
        half = 0.5 * (b_phi - a_phi)
        phi = (a_phi[:, None] + half[:, None] * (base + 1.0)).ravel()
        r = t * np.sin(phi)
        wphi = (half[:, None] * wbase).ravel()
        wr = wphi * t * np.cos(phi)
    start = [0] + np.cumsum(counts).tolist()
    return _Radial(rows, start, np.repeat(dist, counts), r, wphi, wr)


def _angular_rule(n: int, radius: float, nodes: _Nodes, order: int) -> None:
    """The angular rule of `order` nodes (two in 1D) at each radial node of
    `nodes`, and the gap there, into its mu, wmu and gap. A node at the bump
    centre (d below 1e-14) takes the two-point rule."""
    d, r, mu, wmu, gap = nodes
    if n == 1:
        mu[:], wmu[:] = _two_point_rule(1, 2)
        # mu = +-1, so the square needs no expanding, which would cancel.
        np.multiply(r[:, None], mu, out=gap)
        gap += d[:, None]
        np.square(gap, out=gap)
    else:
        centre = d < 1e-14
        if centre.any():
            # Elementwise, so the other nodes keep their bits.
            _cap_rule(n, radius, np.where(centre, 1.0, d), r, order, mu, wmu)
            mu[centre], wmu[centre] = _two_point_rule(n, order)
        else:
            _cap_rule(n, radius, d, r, order, mu, wmu)
        np.multiply((2.0 * d * r)[:, None], mu, out=gap)
        gap += (d * d + r ** 2)[:, None]
        np.maximum(gap, 0.0, out=gap)
    # The squared distance rho2, in place, becomes R**2 - rho2.
    np.subtract(radius * radius, gap, out=gap)


def _angular_sums(bump: SmoothBump, rule: _Radial, order: int, top: int,
                  sums: Callable[[_Nodes, Array], Sequence[Array]]) -> List[Array]:
    """sums(nodes, table) at every radial node of the rule, joined along
    the nodes: each node's angular rule of `order` nodes (`_angular_rule`)
    and its profile table, g and its first `top` derivatives in
    w = |y - c|**2 times the angular weights, zero off the support.

    The nodes go through in slices of at most `_SLICE_NODES` angular nodes,
    which bounds the memory of a pass; every slice writes its rule and table
    into the same buffers, and sums sees whole nodes, so each node's sums
    are the same whatever the slice."""
    n = len(bump.center)
    width = 2 if n == 1 else order
    count = len(rule.r)
    step = max(1, min(count, _SLICE_NODES // width))
    buffers = np.empty((3, step * width))
    table = np.empty((top + 1) * step * width)
    parts = []
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        shape = (hi - lo, width)
        size = shape[0] * width
        nodes = _Nodes(rule.d[lo:hi], rule.r[lo:hi],
                       *(buffer[:size].reshape(shape) for buffer in buffers))
        _angular_rule(n, bump.radius, nodes, order)
        f = bump._g_table(nodes.gap, top, out=table[:(top + 1) * size].reshape(-1, *shape))
        f *= nodes.wmu
        parts.append(sums(nodes, f))
    return list(parts[0]) if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]


def _segment_dots(rule: _Radial, a: Array, b: Array) -> Array:
    """Per point, the dot product of a and b over its own radial nodes."""
    bounds = rule.start
    return np.array([a[i:j] @ b[i:j] for i, j in zip(bounds, bounds[1:])])


def _squares(mu: Array, n: int) -> Tuple[Array, Array]:
    """Means of (theta . omega)**2 over the circle theta . e = mu, omega across
    e (dir2's h'/d) and along e (h''); in 1D none is across, and both are h''."""
    along = mu * mu
    return along if n == 1 else (1.0 - along) / (n - 1), along


def _ball_principal(bump: SmoothBump, ball: _Radial, t: float,
                    order: int) -> Tuple[Array, Array]:
    """One bump's principal ball integral at each point, and the same with
    |kernel|."""
    n = len(bump.center)
    dc = dimension_constants(n)
    kern = kernel_ktilde_scaled(dc.parity, dc.ell, ball.r, t)
    weight = 0.25 * dc.gamma * ball.wr * kern * ball.r ** (n - 1)
    mean, = _angular_sums(bump, ball, order, 0, lambda nodes, f: (f[0].sum(axis=1),))
    return _segment_dots(ball, weight, mean), _segment_dots(ball, np.abs(weight), mean)


def _ball_grad(bump: SmoothBump, ball: _Radial, t: float,
               order: int) -> Tuple[Array, Array]:
    """One bump's principal ball term of the gradient at each point, as its
    component along e over d (h'/d, and 0 at d = 0), and its |kernel| mass.

    The term is the ball integral of k_(ell+1) times f times y - x = r*theta;
    the integral of theta over a circle of fixed mu lies along e.
    """
    n = len(bump.center)
    dc = dimension_constants(n)
    kern = kernel_ktilde_scaled(dc.parity, dc.ell + 1, ball.r, t)
    weight = (dc.gamma / 16.0) * ball.wr * kern * ball.r ** n
    along, mean = _angular_sums(bump, ball, order, 0, lambda nodes, f: (
        (f[0] * nodes.mu).sum(axis=1), f[0].sum(axis=1)))
    return (_segment_dots(ball, weight / np.where(ball.d > 0.0, ball.d, np.inf), along),
            _segment_dots(ball, np.abs(weight), mean))


def _ball_dir2(bump: SmoothBump, ball: _Radial, t: float,
               order: int) -> Tuple[Array, Array]:
    """One bump's principal ball terms of dir2 at each point (k_(ell+2)
    times ((y - x) . omega)**2, less k_(ell+1)), and their |kernel| mass,
    as (h'/d, h'') pairs: omega across and along e (`_squares`)."""
    n = len(bump.center)
    dc = dimension_constants(n)
    k2 = kernel_ktilde_scaled(dc.parity, dc.ell + 2, ball.r, t)
    k1 = kernel_ktilde_scaled(dc.parity, dc.ell + 1, ball.r, t)
    w2 = (dc.gamma / 64.0) * ball.wr * k2 * ball.r ** (n + 1)
    w1 = (dc.gamma / 16.0) * ball.wr * k1 * ball.r ** (n - 1)
    sq, mass = _angular_sums(bump, ball, order, 0, lambda nodes, f: (
        np.stack([(f[0] * p2).sum(axis=1) for p2 in _squares(nodes.mu, n)], axis=1),
        f[0].sum(axis=1)[:, None]))
    return (_segment_dots(ball, w2, sq) - _segment_dots(ball, w1, mass),
            _segment_dots(ball, np.abs(w2), sq) + _segment_dots(ball, np.abs(w1), mass))


class _Chords(NamedTuple):
    """One bump seen from the rows of a block along the chords of the 2D
    clipped-ball rule (`quadrature.clipped_ball_nodes`), for the two
    wave-weighted integrals of u.

    rows are the rows of the block that own a chord, ascending, and starts
    the index of each one's first chord. Per chord: theta, x - c of its row
    (xc) and s = theta . (c - x), the last as a column. r and w are
    (chords, order): the radii of the nodes x + r*theta and their weights,
    the area element over the rim cosine. The terms are sums over the nodes
    of each chord, then over the chords of each row in a fixed order, so a
    row of a block is its single point bit for bit.
    """
    rows: Array
    starts: Array
    theta: Array
    xc: Array
    s: Array
    r: Array
    w: Array


def _chords(bump: SmoothBump, x: Array, offset: Array, t: float,
            order: int) -> Optional[_Chords]:
    """The bump's chords from each row x of a block, given x - c by row;
    None when no row has one."""
    r, w, theta, s, owner = clipped_ball_nodes(x, t, bump.center_array, bump.radius,
                                               order)
    if not r.size:
        return None
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    return _Chords(owner[starts], starts, theta, offset[owner], s[:, None],
                   r.reshape(-1, order), w.reshape(-1, order))


def _chord_profile(bump: SmoothBump, ch: _Chords, top: int) -> Array:
    """g and its first `top` derivatives in w = |y - c|**2 at the nodes."""
    # |y - c|**2 from the two components of y - c = (x - c) + r*theta;
    # expanding it as d**2 - 2rs + r**2 would cancel where d is near t.
    gap = ch.r * ch.theta[:, :1]
    gap += ch.xc[:, :1]
    gap *= gap
    second = ch.r * ch.theta[:, 1:]
    second += ch.xc[:, 1:]
    second *= second
    gap += second
    del second
    np.subtract(bump.radius * bump.radius, gap, out=gap)
    return bump._g_table(gap, top)


def _per_row(ch: _Chords, a: Array) -> Array:
    """Per row, the sum over its chords of each chord's sum of a."""
    return np.add.reduceat(a.sum(axis=1), ch.starts)


# The wave terms of one bump: (damped principal terms, M, dM); see _parts.
Terms = Tuple[Tuple[Array, ...], Array, Array]


def _disc_u(bump: SmoothBump, ch: _Chords, t: float) -> Terms:
    # (y - x) . grad f = 2 g' r theta . (y - c) = 2 g' r (r - s).
    # The weights are folded into the rows of the profile table.
    g0, g1 = _chord_profile(bump, ch, 1)
    g0 *= ch.w
    g1 *= 2.0
    scratch = ch.w * ch.r
    g1 *= scratch
    g1 *= np.subtract(ch.r, ch.s, out=scratch)
    return (), _per_row(ch, g0), _per_row(ch, g1)


# The wave formulas below give their terms at each node of a `_Nodes`
# slice, on the sphere of radius r around the node's point, from the
# slice's profile table up to one derivative more than their top: r
# is the float t on the odd sphere, and the array of node radii in the 2D
# ball. M is the integral of f (or of one of its derivatives) over that
# sphere in unit-sphere measure, and dM its rate d/dr.

def _wave_u(bump: SmoothBump, nodes: _Nodes, table: Array, t: float, r: Value) -> Terms:
    g0, g1 = table
    d, rc = nodes.d[:, None], np.reshape(r, (-1, 1))
    return (), g0.sum(axis=1), (2.0 * g1 * (d * nodes.mu + rc)).sum(axis=1)


def _wave_grad(bump: SmoothBump, nodes: _Nodes, table: Array, t: float,
               r: Value) -> Terms:
    # Every term is a multiple of the axis e: the integrals of theta and of
    # y - c = d*e + r*theta over a circle of fixed mu lie along it. The terms
    # are their components along e over d (h'/d), and 0 at d = 0.
    n = len(bump.center)
    dc = dimension_constants(n)
    g0, g1, g2 = table
    d, mu, rc = nodes.d[:, None], nodes.mu, np.reshape(r, (-1, 1))
    over_d = 1.0 / np.where(nodes.d > 0.0, nodes.d, np.inf)
    boundary = r ** (n - 1) * (g0 * mu).sum(axis=1) * over_d
    mean_grad = (2.0 * g1 * (d + rc * mu)).sum(axis=1) * over_d
    mean_hvp = (2.0 * g1 * mu + 4.0 * g2 * (d * mu + rc) * (d + rc * mu)).sum(axis=1) * over_d
    return ((0.25 * dc.gamma * wave_factor(t) * _rim_coef(n, 0, t) * boundary,),
            mean_grad, mean_hvp)


def _wave_dir2(bump: SmoothBump, nodes: _Nodes, table: Array, t: float,
               r: Value) -> Terms:
    # Each term is a pair, omega across e (h'/d) and along e (h''). The circle
    # means of (theta . omega)**2, (theta . omega) ((y - c) . omega) and
    # ((y - c) . omega)**2, y - c = d*e + r*theta, are p2, mixed and along2:
    # mu**2, mu*q and q**2 along e, q = d + r*mu, and p, r*p, r**2*p across.
    n = len(bump.center)
    dc = dimension_constants(n)
    damp = wave_factor(t)
    g0, g1, g2, g3 = table
    d, mu, rc = nodes.d[:, None], nodes.mu, np.reshape(r, (-1, 1))
    rate = d * mu + rc
    g3 *= rate
    across, along = _squares(mu, n)
    q = d + rc * mu
    triples = [(along, mu * q, q * q)]
    triples.insert(0, triples[0] if n == 1 else (across, rc * across, rc * rc * across))
    # The terms are linear in the sums over each circle of g0 p2, of g1 and g2
    # times mixed, and of g2 and g3 rate times along2; they share m and dm.
    sums = [(np.einsum("ij,ij->i", g0, p2), *np.einsum("kij,ij->ki", table[1:3], mixed),
             *np.einsum("kij,ij->ki", table[2:], along2)) for p2, mixed, along2 in triples]
    m, dm = 2.0 * g1.sum(axis=1), 4.0 * np.einsum("ij,ij->i", g2, rate)
    terms = [((dc.gamma / 16.0) * damp * _rim_coef(n, 1, t) * r ** n * s0,
              0.5 * dc.gamma * damp * _rim_coef(n, 0, t) * r ** (n - 1) * s1,
              m + 4.0 * s2, dm + 8.0 * s3 + 8.0 * s4) for s0, s1, s4, s2, s3 in sums]
    first, second, m, dm = (np.stack(pair, axis=1) for pair in zip(*terms))
    return (first, second), m, dm


def _wave_terms(top: int, bump: SmoothBump, rule: _Radial, t: float,
                order: int) -> Terms:
    """The wave terms of u (top 0), grad u (1) or dir2 u (2) at each point
    of the rule: on the odd sphere its one node's, and in 2D the ball
    integral of its nodes' with weights t r dphi (times the angular weights,
    t dy / sqrt(t**2 - |y - x|**2)), and one more factor r in dM, which
    takes y - x = r*theta."""
    odd = len(bump.center) % 2 == 1
    wave = (_wave_u, _wave_grad, _wave_dir2)[top]

    def sums(nodes: _Nodes, table: Array) -> Tuple[Array, ...]:
        damped, m, dm = wave(bump, nodes, table, t, t if odd else nodes.r)
        return (*damped, m, dm)

    *damped, m, dm = _angular_sums(bump, rule, order, top + 1, sums)
    if odd:
        return tuple(damped), m, dm
    weight = rule.wphi * t * rule.r
    return (tuple(_segment_dots(rule, weight, term) for term in damped),
            _segment_dots(rule, weight, m), _segment_dots(rule, weight * rule.r, dm))


def _parts(top: int, datum: InitialDatum, t: float, order: int, wave: bool,
           x: Array, omega: Optional[Array] = None) -> Tuple[Array, Array, Array]:
    """(principal, raw wave, |kernel| mass) of u (top 0), grad u (1) or
    dir2 u (2, along a unit direction per row of omega) at each row of x.

    Per bump, the principal term, M, dM and mass of each of its radial
    scalars (`_assemble`) add up in the four rows of its own array: one
    radial rule for the principal ball term, with one kernel call, and, with
    wave, one for the wave terms: over the radius-t sphere in odd n, over
    the ball in 2D, and for u in 2D one pass over the clipped-ball chords of
    each `_SLICE_NODES` worth of rows. Without wave (the principal part alone,
    and every t where exp(-t/2) is 0) the wave terms and the damped
    principal terms are not computed, and are 0. `_assemble` then sums the
    bumps' offsets, distances and scalars, a gradient's mass as the sum of
    its bumps', and the raw wave is gamma * (a * M + b * dM) (`_wave_pair`),
    in 2D over t**2 and t**3.
    """
    n = datum.dimension
    ball_term = (_ball_principal, _ball_grad, _ball_dir2)[top]
    offsets = [x - bump.center_array for bump in datum.bumps]
    dists = [np.sqrt(_row_dots(offset, offset)) for offset in offsets]
    accs = [np.zeros((4, len(x)) + ((2,) if top == 2 else ())) for _ in datum.bumps]
    for bump, offset, dist, (principal, mean, rate, mass) in zip(datum.bumps, offsets,
                                                                 dists, accs):
        ball = _radial_rule(bump, dist, t, order)
        if ball is not None:
            term, ref = ball_term(bump, ball, t, order)
            principal[ball.rows] += term
            mass[ball.rows] += ref
        # Free the radial nodes before the wave pass builds its own.
        del ball
        if not wave:
            continue
        if n % 2 == 0 and top == 0:
            step = max(1, _SLICE_NODES // (2 * order * order))
            for i in range(0, len(x), step):
                rows = slice(i, i + step)
                chords = _chords(bump, x[rows], offset[rows], t, order)
                if chords is None:
                    continue
                _, m, dm = _disc_u(bump, chords, t)
                mean[rows][chords.rows] += m
                rate[rows][chords.rows] += dm
                # Free the chords before the next pass builds its own.
                del chords
            continue
        # The wave terms integrate up to the third derivative of the
        # profile, whose edge is much steeper than the profile's, so their
        # rule takes twice the order of the principal one: in angle on the
        # sphere, and in radius and angle in the 2D ball. There, at order 64,
        # two_bump_2d's dir2 is within 3e-10 of order 512 at t = 1.5 and 10;
        # doubling only the radius left it 6e-8 off, only the angle 2.3e-4.
        nodes = _radial_rule(bump, dist, t, 2 * order, on_sphere=n % 2 == 1)
        if nodes is None:
            continue
        damped, m, dm = _wave_terms(top, bump, nodes, t, 2 * order)
        for term in damped:
            principal[nodes.rows] += term
        mean[nodes.rows] += m
        rate[nodes.rows] += dm
    if top == 1:
        principal, mean, rate = _assemble(1, offsets, dists, [(acc[:3],) for acc in accs])
        mass = sum(acc[3] for acc in accs)
    else:
        jets = [(acc[..., 0], acc[..., 1]) if top == 2 else (acc,) for acc in accs]
        principal, mean, rate, mass = _assemble(top, offsets, dists, jets, omega)
    if not wave:
        return principal, np.zeros_like(principal), mass
    if n % 2 == 0:
        mean /= t * t
        rate /= t ** 3
    a, b = _wave_pair(n, t)
    return principal, dimension_constants(n).gamma * (a * mean + b * rate), mass


def _assemble(top: int, offsets: List[Array], dists: List[Array],
              scalars: Iterable[Sequence[Array]], omega: Optional[Array] = None) -> Array:
    """u (top 0), grad u (1) or dir2 u (2) at each row of a block, from each
    bump's x - c, d = |x - c| and radial scalars at d (rows last): h, h'/d,
    or h'/d and h''. With e = (x - c)/d and omega a unit direction per row,

        u = sum h,  grad u = sum (h'/d) (x - c),
        (omega . grad)^2 u = sum h'/d + (h'' - h'/d) (e . omega)**2,

    with (e . omega)**2 taken as 0 at d = 0, where h'' = h'/d. The direct
    evaluators and `RadialField` both sum here."""
    out = 0.0
    for offset, dist, jet in zip(offsets, dists, scalars):
        if top == 0:
            out += jet[0]
        elif top == 1:
            out += jet[0][..., None] * offset
        else:
            slope, curv = jet
            along = _row_dots(offset, omega)
            cos2 = np.divide(along * along, dist * dist, out=np.zeros_like(dist),
                             where=dist > 0.0)
            out += slope + (curv - slope) * cos2
    return out


def _sums(top: int, datum: InitialDatum, t: float, x: Array, order: int, wave: bool,
          omega: Optional[Array] = None) -> Tuple[Array, Array, Array]:
    """(principal, raw wave, |kernel| mass) of u (top 0), grad u (1) or
    dir2 u (2) at each row of x: `_parts` a chunk of rows at a time."""
    blocks = (x,) if omega is None else (x, omega)
    return _in_chunks(partial(_parts, top, datum, t, order, wave), order, *blocks)


def eval_u(datum: InitialDatum, x: Union[Array, float], t: float,
           order: int = DEFAULT_ORDER, check: bool = False) -> FieldSample:
    """Field sample at (x, t); value = principal + wave_remainder exactly.

    x is one point, or an (m, n) block of points; for a block, the sample
    holds x and one value per row in arrays. With check, each row must pass
    its own order-doubling test.
    """
    _check_full(datum.dimension)
    pts, single, _ = _as_points(datum, x, t)
    principal, wave, value = _evaluate(pts, single, t, order, check, "field value",
                                       partial(_sums, 0, datum, t, pts))
    return FieldSample(x=pts[0] if single else pts, t=t, value=value,
                       principal=principal, wave_remainder=wave)


def eval_grad_u(datum: InitialDatum, x: Union[Array, float], t: float,
                order: int = DEFAULT_ORDER, check: bool = False) -> Array:
    """grad u at (x, t): an (n,) array for one point, (m, n) for a block."""
    _check_full(datum.dimension)
    pts, single, _ = _as_points(datum, x, t)
    return _evaluate(pts, single, t, order, check, "field gradient",
                     partial(_sums, 1, datum, t, pts))[2]


def eval_dir2_u(datum: InitialDatum, x: Union[Array, float], t: float,
                omega: Array, order: int = DEFAULT_ORDER,
                check: bool = False) -> Union[float, Array]:
    """(omega . grad)^2 u at (x, t) for a direction omega, normalised here.

    For an (m, n) block of points the result has one value per row, and
    omega is one direction (n,) for every row or one per row (m, n).
    """
    _check_full(datum.dimension)
    pts, single, om = _as_points(datum, x, t, omega)
    return _evaluate(pts, single, t, order, check, "directional second derivative",
                     partial(_sums, 2, datum, t, pts, omega=om))[2]


def eval_principal_general_n(datum: InitialDatum, x: Union[Array, float], t: float,
                             order: int = DEFAULT_ORDER,
                             check: bool = False) -> Union[float, Array]:
    """Principal part alone, valid in any spatial dimension, at one point or
    at each row of an (m, n) block."""
    pts, single, _ = _as_points(datum, x, t)
    return _evaluate(pts, single, t, order, check, "general-n principal",
                     lambda o, wave: _sums(0, datum, t, pts, o, False))[0]


def _heat_parts(datum: InitialDatum, t: float, order: int, x: Array) -> Tuple[Array, ...]:
    """(heat smoothing, zero, mass) at each row of x.

    Per bump, a Gauss rule in the distance rho from its centre c on [0, R]
    integrates the profile times rho**(n - 1) times the integral of the
    Gaussian over the sphere of radius rho around c. With d = |x - c| and
    z = d*rho/(2t) that sphere integral is closed form: the two points
    c +- rho in 1D, 2*pi*exp(-(d - rho)**2/(4t))*i0e(z) in 2D, and
    4*pi*exp(-(d - rho)**2/(4t))*(1 - exp(-2z))/(2z) in 3D. Every term is
    nonnegative, so the value is its own mass.
    """
    n = datum.dimension
    norm = (4.0 * math.pi * t) ** (-n / 2.0)
    total = np.zeros(len(x))
    for bump in datum.bumps:
        rho, w = interval_nodes(0.0, bump.radius, order)
        profile = bump._g_table(bump.radius * bump.radius - rho * rho, 0)[0]
        weight = norm * w * profile * rho ** (n - 1)
        offset = x - bump.center_array
        d = np.sqrt(_row_dots(offset, offset))[:, None]
        sphere = np.exp(-(d - rho) ** 2 / (4.0 * t))
        if n == 1:
            sphere += np.exp(-(d + rho) ** 2 / (4.0 * t))
        elif n == 2:
            from scipy.special import i0e
            sphere *= 2.0 * math.pi * i0e(d * rho / (2.0 * t))
        else:
            two_z = d * rho / t
            sphere *= 4.0 * math.pi * np.divide(-np.expm1(-two_z), two_z,
                                                out=np.ones_like(two_z), where=two_z > 0.0)
        # A sum along each row, so a row of a block is its single point.
        total += (sphere * weight).sum(axis=1)
    return total, np.zeros(len(x)), total


def heat_eval(datum: InitialDatum, x: Union[Array, float], t: float,
              order: int = DEFAULT_ORDER, check: bool = False) -> Union[float, Array]:
    """Gaussian-kernel smoothing of the datum at time t, at one point or at
    each row of an (m, n) block; dimensions one to three."""
    _check_full(datum.dimension)
    pts, single, _ = _as_points(datum, x, t)
    return _evaluate(pts, single, t, order, check, "heat value",
                     lambda o, wave: _in_chunks(partial(_heat_parts, datum, t, o), o, pts))[0]


def _diagnostic_points(datum: InitialDatum, t: float) -> Array:
    """Rays from the centroid: a coarse cone fill plus a fine light-cone shell."""
    n = datum.dimension
    dirs = unit_directions(n, 8)
    span = datum.diameter + 2.0
    radii = np.concatenate([
        np.linspace(0.0, span, 10),
        np.clip(t + np.linspace(-span, span, 15), 0.0, None),
    ])
    pts = (datum.centroid[None, None, :]
           + radii[None, :, None] * dirs[:, None, :]).reshape(-1, n)
    return np.unique(pts, axis=0)


def error_decay_diagnostic(datum: InitialDatum, t_values: List[float],
                           gradient: bool = False,
                           order: int = 32) -> List[Tuple[float, float]]:
    """Sup over a cone-adapted grid of the normalized wave remainder.

    Reported quantity: sup |E(u)| * exp(t/2) * (1+t)^(-n), computed from the
    raw (un-damped) wave part so no large exponentials are ever formed. With
    gradient=True the same for |grad E(u)| and exponent n + 1.
    """
    _check_full(datum.dimension)
    for t in t_values:
        _check_time(t)
    rows: List[Tuple[float, float]] = []
    for t in t_values:
        raw = _sums(int(gradient), datum, t, _diagnostic_points(datum, t), order, True)[1]
        top = np.abs(raw).max() / (1.0 + t) ** (datum.dimension + gradient)
        rows.append((t, max(0.0, float(top))))
    return rows


# Degree of the profile series: the Chebyshev-Lobatto grid s_j = cos(j pi/N),
# j = 0..N, on [-1, 1], whose distances |s_j| are N/2 + 1 = 33 values.
_PROFILE_DEGREE = 64
# No value of the profile data is taken as known better than this fraction
# of its bound sum |W| k^q (`hankel.hankel_profile`); for h it bounds |h|,
# and is |h(0)| where f^ m keeps one sign below k = 1/2. Node counts move the
# Hankel sums by about 1e-14 of it, and the direct evaluators, which the
# stages and the tests set beside the field, sit up to 3e-12 of it from
# them at t = 12800 (`tests/test_hankel.py`).
_PROFILE_FLOOR = 1e-12


def profile_reach(n: int, t: float) -> float:
    """D = 1.5 sqrt((2n + 5) t) + 2, the distance from a bump centre up to
    which its profile is fitted. The stages look up to psi + diameter + 2
    past the hull, with psi = sqrt((2n + 5) t) by default; a point farther
    than D from a bump centre is evaluated directly."""
    return 1.5 * math.sqrt((2 * n + 5) * t) + 2.0


@lru_cache(maxsize=None)
def _lobatto_matrix(degree: int) -> Array:
    """The Lobatto cosine sum of an even function: its values at
    s_j = cos(j pi / degree), j = 0..degree/2, to its Chebyshev coefficients
    of T_0, T_2, ..., T_degree. The mirror nodes -s_j are folded in: the two
    ends count once between them, every other node twice, and s = 0 once."""
    half = degree // 2
    j = np.arange(half + 1)
    fold = np.full(half + 1, 2.0)
    fold[[0, half]] = 1.0
    out = (2.0 / degree) * np.cos(np.outer(2 * j, j) * (math.pi / degree)) * fold
    out[[0, half]] *= 0.5
    return out


def _lobatto_distances(degree: int) -> Array:
    """|s_j| = cos(j pi / degree), j = 0..degree/2, from 1 down to exactly 0."""
    s = np.cos(np.arange(degree // 2 + 1) * (math.pi / degree))
    s[-1] = 0.0
    return s


def _chebyshev_derivative(coef: Array) -> Array:
    """Chebyshev coefficients of the derivative of sum coef[k] T_k, by the
    recurrence c'_(k-1) = c'_(k+1) + 2k c_k."""
    top = len(coef) - 1
    out = np.zeros(top + 2)
    for k in range(top, 0, -1):
        out[k - 1] = out[k + 1] + 2.0 * k * coef[k]
    out[0] *= 0.5
    return out[:top]


class _Series(NamedTuple):
    """An even q(s) = sum over m of a_m T_2m(s), and its first two
    derivatives in s, as coefficients in phi = arcsin(s):
    T_2m(s) = (-1)^m cos(2m phi) and T_(2m+1)(s) = (-1)^m sin((2m+1) phi).
    That is T_k(s) = cos(k arccos s), written so that the odd terms of dq/ds
    keep their relative accuracy as s -> 0, where dq/ds is divided by s."""
    even: Array
    odd: Array
    second: Array


def _series(coef: Array) -> _Series:
    full = np.zeros(2 * len(coef) - 1)
    full[::2] = coef
    first = _chebyshev_derivative(full)
    second = _chebyshev_derivative(first)
    sign = (-1.0) ** np.arange(len(coef))
    return _Series(coef * sign, first[1::2] * sign[:-1], second[::2] * sign[:-1])


@lru_cache(maxsize=None)
def _jet_degrees(count: int) -> Tuple[Array, Array]:
    """The degrees 2m of the cosines of a `_Series` with `count` even
    coefficients, and the degrees 2m + 1 of its sines, as floats."""
    even = 2.0 * np.arange(count)
    odd = even[:-1] + 1.0
    even.setflags(write=False)
    odd.setflags(write=False)
    return even, odd


def _series_jet(series: _Series, reach: float, t: float, d: Array,
                top: int = 2) -> List[Array]:
    """[h, h'/d, h''][:top + 1] at distances d in [0, D] of
    h(d) = q(d/D) exp(-d**2/4t).

    With q' = dq/dd, h' = (q' - d q/(2t)) exp(-d**2/4t) by the product rule,
    and h'' = (q'' - (d/t) q' + (d**2/(4t**2) - 1/(2t)) q) exp(-d**2/4t).
    h'/d is even and smooth; at d = 0 it is h''(0)."""
    s = np.minimum(d / reach, 1.0)
    phi = np.arcsin(s)
    even, odd = _jet_degrees(len(series.even))
    cos = np.cos(np.multiply.outer(phi, even))
    q = cos @ series.even
    gauss = np.exp(-d * d / (4.0 * t))
    out = [gauss * q]
    if top == 0:
        return out
    sin = np.sin(np.multiply.outer(phi, odd))
    # sin((2m+1) phi)/s -> 2m + 1 as s -> 0. The product with the odd
    # coefficients reads `ratio` in Fortran order: a C-ordered copy rounds
    # differently.
    ratio = np.empty_like(sin, order="F")
    ratio[...] = odd
    np.divide(sin, s[:, None], out=ratio, where=s[:, None] > 0.0)
    q1 = (ratio @ series.odd) / (reach * reach)
    out.append(gauss * (q1 - q / (2.0 * t)))
    if top == 2:
        q2 = (cos[:, :-1] @ series.second) / (reach * reach)
        d2 = d * d
        out.append(gauss * (q2 - (d2 / t) * q1 + (d2 / (4.0 * t * t) - 0.5 / t) * q))
    return out


class RadialProfile(NamedTuple):
    """One bump's share of u at one t, h(d) with d = |x - c|, on [0, D],
    D the reach of its `RadialField`.

    errors holds the error bars of h, of h' and of the dir2 terms (the
    larger of h'' and h'/d) over [0, D]: each is the gap between the 33- and
    65-node interpolants plus twice the rule gap, between the
    interpolants of the Hankel data on rules of 4*`order` and of `order`
    nodes, floored at the rounding floor of the data. A rule of `order`
    nodes has about the error of a direct evaluation at `order`, so the bar
    also holds against that. converged says whether the node gap of h is
    within the larger of the rule gap and the floor: where it is not,
    65 nodes do not resolve h. tail bounds the part of h from the modes
    above k = 1/2, which the Hankel integral leaves out (`hankel.tail_bound`).
    """
    series: _Series
    errors: Array
    converged: bool
    tail: float


def _radial_profile(bump: SmoothBump, t: float, order: int) -> RadialProfile:
    """The bump's profile at t from its Hankel integrals (`hankel.hankel_profile`)
    at the 33 distances, fitted as h(d) exp(d**2/4t).

    u is linear in the datum, so a bump of amplitude 0 adds nothing, and
    the profile of the bump about its own centre is its share of u at every
    point. The fit holds the data on rules of 4*`order` nodes; the data on
    `order` nodes give the rule gap.
    """
    n = len(bump.center)
    reach = profile_reach(n, t)
    dist = reach * _lobatto_distances(_PROFILE_DEGREE)
    lift = np.exp(dist * dist / (4.0 * t))
    values, coarse, bounds = hankel_profile(bump, n, t, dist, order)
    values *= lift
    fine = _lobatto_matrix(_PROFILE_DEGREE) @ values
    # The 33-node grid is every other node of the 65-node one.
    nodes = fine.copy()
    nodes[:_PROFILE_DEGREE // 4 + 1] -= _lobatto_matrix(_PROFILE_DEGREE // 2) @ values[::2]
    rules = fine - _lobatto_matrix(_PROFILE_DEGREE) @ (coarse * lift)
    # The gaps are taken on the 65 distances of the 129-node grid, so that
    # they are seen between the nodes as well.
    check = reach * _lobatto_distances(2 * _PROFILE_DEGREE)

    def gaps(coef: Array) -> Array:
        h, slope, curv = np.abs(_series_jet(_series(coef), reach, t, check))
        return np.array([h.max(), (slope * check).max(), max(slope.max(), curv.max())])

    node_gap, rule_gap = gaps(nodes), gaps(rules)
    floor = _PROFILE_FLOOR * bounds
    return RadialProfile(_series(fine), np.maximum(node_gap + 2.0 * rule_gap, floor),
                         bool(node_gap[0] <= max(rule_gap[0], floor[0])),
                         tail_bound(bump, n, t))


class RadialField:
    """u, grad u and dir2 u of one datum at one t and rule order, as sums of
    the bumps' radial profiles: with d_b = |x - c_b| and e_b = (x - c_b)/d_b,

        u = sum h_b(d_b),  grad u = sum h_b'(d_b) e_b,
        (omega . grad)^2 u = sum h_b'' (e_b . omega)**2
                             + (h_b'/d_b) (1 - (e_b . omega)**2),

    which is h_b'' at d_b = 0. The profiles hold Hankel data on rules of
    4*`order` nodes, so the field is more accurate than a direct evaluation
    at `order`; `errors` holds the error bars of its three quantities, the
    sums of the bumps' error bars. At the default order every bundled shape
    holds profiles from t = 200 to 12800 at least.

    It evaluates with the direct evaluators at `order` instead:
    - every point, where some bump has D + R_b >= t (`fallback` says so):
      the light cone then enters [0, D], and h_b is not smooth there;
    - every point, where a profile's tail bound exceeds its error bar of h:
      at the default order, below t = 85 for two_bump_1d, 95 for
      two_bump_2d and 104 for single_bump_3d;
    - every point, where a profile has not converged: 65 nodes leave a gap
      above both the rule gap and the rounding floor;
    - each point farther than D from some bump centre, where no profile
      holds data.
    Such points give exactly what the direct evaluators give.
    """

    def __init__(self, datum: InitialDatum, t: float, order: int) -> None:
        _check_full(datum.dimension)
        _check_time(t)
        self.datum, self.t, self.order = datum, t, order
        self.reach = profile_reach(datum.dimension, t)
        self.profiles: Optional[List[RadialProfile]] = None
        self.errors = np.zeros(3)
        if self.reach + max(b.radius for b in datum.bumps) >= t:
            self.fallback: Optional[str] = "the light cone reaches the profile domain"
            return
        profiles = [_radial_profile(bump, t, order) for bump in datum.bumps]
        if any(p.tail > p.errors[0] for p in profiles):
            self.fallback = "the high-frequency tail bound exceeds a profile's error bar"
            return
        if not all(p.converged for p in profiles):
            self.fallback = "a profile has not converged on 65 nodes"
            return
        self.fallback = None
        self.profiles = profiles
        self.errors = np.sum([p.errors for p in profiles], axis=0)

    def u(self, x: Union[Array, float]) -> Value:
        """u at one point, or at each row of an (m, n) block."""
        return self._evaluate(0, x)

    def grad(self, x: Union[Array, float]) -> Array:
        """grad u: (n,) for one point, (m, n) for a block."""
        return self._evaluate(1, x)

    def dir2(self, x: Union[Array, float], omega: Array) -> Value:
        """(omega . grad)^2 u, omega one direction or one per row."""
        return self._evaluate(2, x, omega)

    def _direct(self, top: int, pts: Array, om: Optional[Array]) -> Array:
        """The direct core's value at `order` at each row of pts, unchecked."""
        return _evaluate(pts, False, self.t, self.order, False, "",
                         partial(_sums, top, self.datum, self.t, pts, omega=om))[2]

    def _evaluate(self, top: int, x: Union[Array, float],
                  omega: Optional[Array] = None) -> Value:
        """u (top 0), grad u (1) or dir2 u (2)."""
        pts, single, om = _as_points(self.datum, x, self.t, omega)
        if self.profiles is None:
            out = self._direct(top, pts, om)
        else:
            offsets = [pts - bump.center_array for bump in self.datum.bumps]
            dists = [np.sqrt(_row_dots(offset, offset)) for offset in offsets]
            near = np.logical_and.reduce([dist <= self.reach for dist in dists])
            rows = slice(None) if near.all() else near
            dists = [dist[rows] for dist in dists]
            out = _assemble(top, [offset[rows] for offset in offsets], dists,
                            [_series_jet(p.series, self.reach, self.t, d, top)[min(top, 1):]
                             for p, d in zip(self.profiles, dists)],
                            None if om is None else om[rows])
            if rows is near:
                full, far = np.zeros((len(pts),) + out.shape[1:]), ~near
                full[near], full[far] = out, self._direct(top, pts[far],
                                                          None if om is None else om[far])
                out = full
        if single:
            return out[0] if top == 1 else float(out[0])
        return out


@lru_cache(maxsize=4)
def radial_field(datum: InitialDatum, t: float, order: int = DEFAULT_ORDER) -> RadialField:
    """The `RadialField` of (datum, t, order), built once and shared by every
    call at that t: the feature stages evaluate through it. The cache holds
    the four most recent fields."""
    return RadialField(datum, t, order)
