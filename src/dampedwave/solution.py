"""Closed-form evaluation of the damped wave field u, split into a diffusive
principal part and an exponentially damped wave remainder.

For initial state (f, -f) the solution in dimensions one to three is a kernel
integral over B_t(x) (the principal part) plus sphere or wave-weighted ball
integrals of f and grad f (the remainder). Everything is evaluated through
the overflow-free scaled kernels; the only exponential ever formed is
exp(-t/2) multiplying polynomially sized quantities.

Gradients and second directional derivatives are the displayed derivative
formulas: one kernel order higher inside the ball integral, plus boundary
sphere terms (odd dimensions) or wave-weighted moment terms (even dimensions,
where the radial kernel derivative carries a 1/sqrt(t^2 - r^2) factor).

Every principal ball integral, and in odd dimensions every term, is a sum
over bumps of integrals over spheres around x of a radial profile times
powers of the direction, so each reduces to a radial rule in r and an angular
rule in the angle to the bump centre (spherical means; F. John, Plane Waves
and Spherical Means, 1955). In one dimension the sphere is the two points
x +- r, and the sphere terms at r = t are the d'Alembert values at x +- t.
In two dimensions only the wave-weighted integrals and the damped interior
terms keep the clipped-ball rule of `quadrature.clipped_ball_nodes`.

The evaluators take one point or an (m, n) block of points at one t, and a
point is a one-row block. For each bump the radial rule lays the nodes of
all the rows it reaches end to end, so a block costs one node build, one
profile pass and one kernel call per bump, not one per point; the 2D
clipped-ball terms still run row by row. Blocks go through in chunks of rows
that hold a fixed number of nodes (`_CHUNK_NODES`), which bounds the memory
of a pass. Every row equals its single-point value bit for bit: per-row
distances and dot products are taken as the single-point path takes them.
All of them, and `heat_eval`, share one front end (`_evaluate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .geometry import fibonacci_sphere
from .initial_data import InitialDatum, SmoothBump
from .kernels import kernel_at_zero, kernel_deriv_at_zero, kernel_ktilde_scaled
from .quadrature import (clipped_ball_nodes, gauss_legendre, interval_nodes,
                         with_refinement)

__all__ = [
    "DimensionConstants",
    "FieldSample",
    "dimension_constants",
    "eval_u",
    "eval_grad_u",
    "eval_dir2_u",
    "eval_principal_general_n",
    "heat_eval",
    "error_decay_diagnostic",
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
    c: float


@lru_cache(maxsize=None)
def dimension_constants(n: int) -> DimensionConstants:
    if n % 2 == 1:
        gamma = 2.0 ** (-(3 * n - 1) / 2.0) * math.pi ** (-(n - 1) / 2.0)
        return DimensionConstants(n, "odd", (n - 1) // 2, gamma, gamma * 2.0 ** (n - 1))
    gamma = 2.0 ** (-(3 * n - 2) / 2.0) * math.pi ** (-n / 2.0)
    return DimensionConstants(n, "even", n // 2, gamma, gamma * 2.0 ** (n - 2))


def wave_factor(t: float) -> float:
    """exp(-t/2); underflows to zero for very large t, which is the point."""
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


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, got {t}")


def _as_points(datum: InitialDatum, x: Union[Array, float],
               t: float) -> Tuple[Array, bool]:
    """x as an (m, n) block of points, once (x, t) is checked, and whether x
    was one point: a point, or a number in 1D, is a one-row block. Every
    point must be finite with the datum's dimension, and t finite and
    positive. Every public evaluator starts here."""
    _check_time(t)
    n = datum.dimension
    arr = np.asarray(x, dtype=float)
    single = arr.ndim <= 1
    if single and arr.size != n:
        raise ValueError(f"point has {arr.size} coordinates, expected {n}")
    if not single and (arr.ndim != 2 or arr.shape[1] != n):
        raise ValueError(f"a block of points has shape (m, {n}), got {arr.shape}")
    pts = np.ascontiguousarray(arr.reshape(-1, n))
    if not np.isfinite(pts).all():
        row = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        where = "point" if single else f"row {row}"
        raise ValueError(f"{where} has a non-finite coordinate: {pts[row]}")
    return pts, single


def _as_directions(omega: Array, m: int, n: int, single: bool) -> Array:
    """omega, shared or one per row, as m unit rows; each row must be finite
    and nonzero, and is divided by its norm unless that is 1 to 1e-12."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if om.shape not in ((n,), (m, n)):
        raise ValueError(f"omega has shape {om.shape}, expected ({n},) or ({m}, {n})")
    shared = om.ndim == 1
    om = np.array(np.broadcast_to(om, (m, n)), order="C")
    norm = np.sqrt(_row_dots(om, om))
    bad = np.flatnonzero(~(np.isfinite(om).all(axis=1) & (norm > 0.0)))
    if bad.size:
        where = "omega" if single or shared else f"omega row {bad[0]}"
        raise ValueError(f"{where} must be finite and nonzero, got {om[bad[0]]}")
    off = np.abs(norm - 1.0) > 1e-12
    om[off] /= norm[off, None]
    return om


def _row_dots(a: Array, b: Array) -> Array:
    """a[i] @ b[i] for each row. The stacked product takes the same dot
    product as `a[i] @ b[i]` and `np.linalg.norm`, bit for bit, where a
    sum of the products per row rounds differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Rows of a block per pass of the radial rule. A pass holds arrays of up to
# about this many nodes: 16 points of 2D at order 64, where two radial
# panels of 64 nodes and 64 angular nodes make 8,192 nodes a point. Larger
# passes gain nothing: the 289-point grid of two_bump_2d at t = 3200 took
# 0.138 s in chunks of 16 rows, 0.135 s in chunks of 32 and 0.159 s in one
# pass, which holds 18 times the memory (one row at a time: 0.31 s).
_CHUNK_NODES = 1 << 17


def _in_chunks(parts, order: int, x: Array, *per_row: Array) -> Tuple[Array, ...]:
    """parts(rows of x, the same rows of each per_row array), a chunk of rows
    at a time, with each of its results joined back along the rows. The
    rule order sets the chunk size, and must be at least 1."""
    if order < 1:
        raise ValueError(f"quadrature order must be at least 1, got {order}")
    step = max(1, _CHUNK_NODES // (2 * order * order))
    if len(x) <= step:
        return parts(x, *per_row)
    pieces = [parts(x[i:i + step], *(a[i:i + step] for a in per_row))
              for i in range(0, len(x), step)]
    return tuple(np.concatenate(arrays) for arrays in zip(*pieces))


def _evaluate(datum: InitialDatum, x: Union[Array, float], t: float, order: int,
              check: bool, label: str, parts: Callable[..., Tuple[Array, Array, Array]],
              omega: Optional[Array] = None) -> Tuple[Array, Value, Value, Value]:
    """The front end of every public evaluator: (x, principal, wave,
    principal + wave), by row for a block and as one point's for a point.

    It checks x and t (`_as_points`) and omega, runs
    parts(order, rows of x[, rows of omega]) -> (principal, raw wave,
    |kernel| mass) a chunk of rows at a time (`_in_chunks`, which checks
    the order), and damps the wave by exp(-t/2). With check, the principal
    part, the wave and their sum must each pass the row's order-doubling
    test, against the larger of |principal| and |wave| (over every
    component of a gradient) floored at 1e-9 times the mass, so that values
    which vanish by symmetry pass.
    """
    pts, single = _as_points(datum, x, t)
    per_row = (() if omega is None
               else (_as_directions(omega, len(pts), datum.dimension, single),))
    damp = wave_factor(t)

    def terms(o: int) -> Tuple[Array, Array, Array]:
        p, wave, mass = _in_chunks(partial(parts, o), o, pts, *per_row)
        return p, wave * damp, mass

    def checked(o: int) -> Tuple[Array, Array]:
        p, wave, mass = terms(o)
        stacked = np.stack([p, wave, p + wave], axis=1)
        top = np.abs(stacked[:, :2]).reshape(len(pts), -1).max(axis=1)
        return stacked, np.maximum(top, 1e-9 * mass)

    if check:
        fine = with_refinement(checked, order, label=label)
        p, wave, total = np.moveaxis(fine, 1, 0).copy()
    else:
        p, wave, _ = terms(order)
        total = p + wave
    if single:
        return (pts[0],) + tuple(float(v[0]) if v.ndim == 1 else v[0]
                                 for v in (p, wave, total))
    return pts, p, wave, total


def _bump_nodes(datum: InitialDatum, x: Array, t: float,
                order: int) -> Iterable[Tuple[SmoothBump, Array, Array, Array]]:
    """Per bump: the 2D clipped-ball nodes of its part of B_t(x), with their
    weights and rim cosines. x is one point."""
    for bump in datum.bumps:
        pts, _, w, rim = clipped_ball_nodes(x, t, bump.center_array,
                                            bump.radius, order)
        if pts.shape[0]:
            yield bump, pts, w, rim


def _rim_coef(ell: int, t: float) -> float:
    """t k_(ell+1)(0) - 2 k_ell(0) of the odd family: e^(t/2) times the
    kernel ktilde_ell on the sphere r = t, which weighs the boundary terms."""
    return t * kernel_at_zero("odd", ell + 1) - 2.0 * kernel_at_zero("odd", ell)


def _wave_pair(n: int, t: float) -> Tuple[float, float]:
    """(a, b): in odd n the raw wave remainder, and each of its x-derivatives,
    is gamma * (a * M + b * dM/dt), with M the integral of f, or of that
    derivative of f, over the sphere of radius t around x. In 2D, M and
    dM/dt stand for the wave-weighted ball integrals of the 2D branches."""
    if n == 1:
        return 1.0, 0.0
    if n == 2:
        return 0.25 * t * t - t + 2.0, 2.0 * t
    if n == 3:
        return 0.5 * t * t - 2.0 * t + 4.0, 4.0 * t
    raise ValueError(f"full field evaluation supports dimensions 1-3, got {n}")


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class _Shells(NamedTuple):
    """One bump seen from the points of a block, on the spheres of radius r
    around each point.

    rows picks the points (rows of the block) whose region reaches the
    bump's ball, as a slice when that is every row; axis and dist are
    theirs. Their radial nodes lie end to end: point i owns counts[i] nodes,
    start[i] to start[i + 1], of r and wr. On the sphere of radius t each
    point owns one. mu is the cosine of the angle between a direction and
    the axis e = (x - c) / d, so the node x + r*theta lies at squared
    distance rho2 = d**2 + r**2 + 2*d*r*mu from the bump centre c. wr
    integrates dr; each row of wmu integrates over the unit sphere S^{n-1},
    restricted to the directions that land in the bump's ball.
    """
    rows: Union[slice, Array]
    axis: Array
    dist: Array
    counts: List[int]
    start: List[int]
    r: Array
    wr: Array
    mu: Array
    wmu: Array
    rho2: Array


def _two_point_rule(n: int, count: int, width: int) -> Tuple[Array, Array]:
    """The rule mu = +-1/sqrt(n), for `count` radii, padded with zero weights
    to `width` columns.

    At d = 0 every integrand is a function of r times a polynomial of degree
    three at most in mu, and the rule has the sphere's moments 1, 0, 1/n, 0
    through that degree. In one dimension it is the 0-sphere {-1, 1}
    itself, exact for any integrand.
    """
    mu = np.zeros((count, width))
    wmu = np.zeros((count, width))
    mu[:, :2] = [-1.0 / math.sqrt(n), 1.0 / math.sqrt(n)]
    wmu[:, :2] = 0.5 * _sphere_area(n)
    return mu, wmu


def _cap_rule(n: int, radius: float, d: Array, r: Array,
              order: int) -> Tuple[Array, Array]:
    """Angular nodes and weights in mu for the directions, from distance d > 0
    to the bump centre at radius r, that land in the ball."""
    base, wbase = gauss_legendre(order)
    # Directions with mu below the cut land in the ball.
    cos_cut = np.minimum(np.maximum((radius * radius - d * d - r * r) / (2.0 * d * r),
                                    -1.0), 1.0)
    if n % 2:
        # The measure |S^{n-2}| (1 - mu^2)^((n-3)/2) dmu is polynomial
        # and rho2 is linear in mu, so nodes in mu resolve the steep
        # edge of the profile's derivatives as finely as nodes in rho2.
        half = 0.5 * (cos_cut + 1.0)
        mu = -1.0 + half[:, None] * (base[None, :] + 1.0)
        wmu = _sphere_area(n - 1) * half[:, None] * wbase[None, :]
        if n > 3:
            wmu = wmu * (1.0 - mu * mu) ** ((n - 3) // 2)
    else:
        # In even n that measure is singular at mu = -1; use theta. Its
        # factor sin(theta)**(n - 2) is 1 in 2D.
        theta_lo = np.arccos(cos_cut)
        half = 0.5 * (math.pi - theta_lo)
        theta = theta_lo[:, None] + half[:, None] * (base[None, :] + 1.0)
        mu = np.cos(theta)
        wmu = _sphere_area(n - 1) * half[:, None] * wbase[None, :]
        if n > 2:
            wmu = wmu * np.sin(theta) ** (n - 2)
    return mu, wmu


def _shells(bump: SmoothBump, offset: Array, dist: Array, t: float, order: int,
            on_sphere: bool = False) -> Optional[_Shells]:
    """Nodes for the bump's part of B_t(x), or of the sphere of radius t,
    for each row x of a block, given x - c and |x - c| by row.

    None when the region misses the bump's ball from every row.
    """
    n = offset.shape[1]
    radius = bump.radius
    rows = []
    counts = []
    ends = []
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
        offset, dist = offset[rows], dist[rows]
    else:
        rows = slice(None)
    if on_sphere:
        r = np.full(len(counts), float(t))
        wr = np.ones(len(counts))
    else:
        base, wbase = gauss_legendre(order)
        a_phi, b_phi = np.reshape(ends, (-1, 2)).T
        half = 0.5 * (b_phi - a_phi)
        phi = (a_phi[:, None] + half[:, None] * (base + 1.0)).ravel()
        r = t * np.sin(phi)
        wr = (half[:, None] * wbase).ravel() * t * np.cos(phi)
    d = np.repeat(dist, counts)
    centre = dist < 1e-14
    any_centre = bool(centre.any())
    if any_centre:
        axis = np.zeros_like(offset)
        axis[:, 0] = 1.0
        axis[~centre] = offset[~centre] / dist[~centre, None]
    else:
        axis = offset / dist[:, None]
    if n == 1:
        mu, wmu = _two_point_rule(1, r.size, 2)
        # mu = +-1, so the square needs no expanding, which would cancel.
        rho2 = (d[:, None] + r[:, None] * mu) ** 2
    else:
        if any_centre:
            away = ~np.repeat(centre, counts)
            mu, wmu = _two_point_rule(n, r.size, order)
            mu[away], wmu[away] = _cap_rule(n, radius, d[away], r[away], order)
        else:
            mu, wmu = _cap_rule(n, radius, d, r, order)
        dc = d[:, None]
        rho2 = np.maximum(dc * dc + r[:, None] ** 2 + 2.0 * dc * r[:, None] * mu, 0.0)
    start = [0]
    for count in counts:
        start.append(start[-1] + count)
    return _Shells(rows, axis, dist, counts, start, r, wr, mu, wmu, rho2)


def _segment_dots(sh: _Shells, a: Array, b: Array) -> Array:
    """Per point, the dot product of a and b over its own radial nodes."""
    bounds = sh.start
    return np.array([a[i:j] @ b[i:j] for i, j in zip(bounds, bounds[1:])])


def _profile(bump: SmoothBump, sh: _Shells, top: int) -> Array:
    """g and its first `top` derivatives in w = |y - c|**2 at the nodes,
    times the angular weights; zero off the support."""
    return bump._g_table(bump.radius * bump.radius - sh.rho2, top) * sh.wmu


def _projections(sh: _Shells, omega: Array) -> Tuple[Array, Array, Array]:
    """(cw, p1, p2) at each radial node: cw = e . omega as a column, and p1,
    p2 the means of theta . omega and (theta . omega)**2 over each circle
    of directions with fixed mu. omega has one row per point of sh.rows.
    In one dimension the circle is a point and has no perpendicular part."""
    n = sh.axis.shape[1]
    cw = np.repeat(_row_dots(sh.axis, omega), sh.counts)[:, None]
    mu2 = sh.mu * sh.mu
    perp = (1.0 - cw * cw) * (1.0 - mu2) / (n - 1) if n > 1 else 0.0
    return cw, cw * sh.mu, cw * cw * mu2 + perp


def _radial_bumps(datum: InitialDatum, x: Array, t: float, order: int,
                  spheres: bool = True
                  ) -> Iterable[Tuple[SmoothBump, Optional[_Shells], Optional[_Shells]]]:
    """Per bump: (bump, ball nodes in B_t(x), nodes on the radius-t sphere),
    for the rows x of a block; no sphere nodes unless `spheres`.

    The sphere terms integrate up to the third derivative of the profile,
    whose edge is much steeper than the profile's, so the sphere rule takes
    twice the angular nodes; at a single radius they cost next to nothing.
    """
    for bump in datum.bumps:
        offset = x - bump.center_array
        dist = np.sqrt(_row_dots(offset, offset))
        sphere = (_shells(bump, offset, dist, t, 2 * order, on_sphere=True)
                  if spheres else None)
        yield bump, _shells(bump, offset, dist, t, order), sphere


def _ball_principal(bump: SmoothBump, ball: _Shells, t: float) -> Tuple[Array, Array]:
    """One bump's principal ball integral at each point, and the same with
    |kernel|."""
    n = ball.axis.shape[1]
    dc = dimension_constants(n)
    kern = kernel_ktilde_scaled(dc.parity, dc.ell, ball.r, t)
    weight = 0.25 * dc.gamma * ball.wr * kern * ball.r ** (n - 1)
    mean = _profile(bump, ball, 0)[0].sum(axis=1)
    return _segment_dots(ball, weight, mean), _segment_dots(ball, np.abs(weight), mean)


def _principal_sum(datum: InitialDatum, x: Array, t: float,
                   order: int) -> Tuple[Array, Array, Array]:
    """(the bumps' principal ball integrals summed, zero, the same with
    |kernel|) at each row of x."""
    val = np.zeros(len(x))
    ref = np.zeros(len(x))
    for bump, ball, _ in _radial_bumps(datum, x, t, order, spheres=False):
        if ball is not None:
            share, mass = _ball_principal(bump, ball, t)
            val[ball.rows] += share
            ref[ball.rows] += mass
    return val, np.zeros(len(x)), ref


def _ball_grad(bump: SmoothBump, ball: _Shells, t: float) -> Tuple[Array, Array]:
    """One bump's principal ball term of the gradient at each point, and its
    |kernel| mass.

    The term is the ball integral of k_(ell+1) times f times y - x = r*theta;
    the integral of theta over a circle of fixed mu lies along the axis e.
    """
    n = ball.axis.shape[1]
    dc = dimension_constants(n)
    kern = kernel_ktilde_scaled(dc.parity, dc.ell + 1, ball.r, t)
    weight = (dc.gamma / 16.0) * ball.wr * kern * ball.r ** n
    f = _profile(bump, ball, 0)[0]
    return (_segment_dots(ball, weight, (f * ball.mu).sum(axis=1))[:, None] * ball.axis,
            _segment_dots(ball, np.abs(weight), f.sum(axis=1)))


def _ball_dir2(bump: SmoothBump, ball: _Shells, t: float,
               omega: Array) -> Tuple[Array, Array]:
    """One bump's principal ball terms of dir2 at each point (k_(ell+2)
    times ((y - x) . omega)**2, less k_(ell+1)), and their |kernel| mass.
    Both kernel orders come from one call."""
    n = ball.axis.shape[1]
    dc = dimension_constants(n)
    k2, k1 = kernel_ktilde_scaled(dc.parity, (dc.ell + 2, dc.ell + 1), ball.r, t)
    w2 = (dc.gamma / 64.0) * ball.wr * k2 * ball.r ** (n + 1)
    w1 = (dc.gamma / 16.0) * ball.wr * k1 * ball.r ** (n - 1)
    f = _profile(bump, ball, 0)[0]
    sq = (f * _projections(ball, omega)[2]).sum(axis=1)
    mass = f.sum(axis=1)
    return (_segment_dots(ball, w2, sq) - _segment_dots(ball, w1, mass),
            _segment_dots(ball, np.abs(w2), sq) + _segment_dots(ball, np.abs(w1), mass))


def _field_parts(datum: InitialDatum, x: Array, t: float, order: int,
                 raw: bool = False) -> Tuple[Array, Array, Array]:
    """(principal, wave_raw, |kernel| mass) at each row of x: wave_raw omits
    the exp(-t/2) factor.

    Where that factor is zero, the 2D wave integrals are not computed and
    wave_raw is 0, unless raw.
    """
    n = datum.dimension
    dc = dimension_constants(n)
    a, b = _wave_pair(n, t)
    principal = np.zeros(len(x))
    absacc = np.zeros(len(x))
    mean_f = np.zeros(len(x))
    mean_df = np.zeros(len(x))
    for bump, ball, sphere in _radial_bumps(datum, x, t, order, spheres=n % 2 == 1):
        if ball is not None:
            val, ref = _ball_principal(bump, ball, t)
            principal[ball.rows] += val
            absacc[ball.rows] += ref
        if sphere is not None:
            g0, g1 = _profile(bump, sphere, 1)
            d = sphere.dist[:, None]
            mean_f[sphere.rows] += g0.sum(axis=1)
            mean_df[sphere.rows] += (2.0 * g1 * (d * sphere.mu + t)).sum(axis=1)
    if n % 2 == 0 and (raw or wave_factor(t) > 0.0):
        for i, xi in enumerate(x):
            for bump, pts, w, rim in _bump_nodes(datum, xi, t, order):
                jet = bump.jet(pts, 1)
                mean_f[i] += float((w * jet.g[0] / rim).sum())
                mean_df[i] += float((w / rim) @ (((pts - xi) * jet.gradient()).sum(axis=1)))
        mean_f /= t * t
        mean_df /= t ** 3
    return principal, dc.gamma * (a * mean_f + b * mean_df), absacc


def eval_u(datum: InitialDatum, x: Union[Array, float], t: float,
           order: int = DEFAULT_ORDER, check: bool = False) -> FieldSample:
    """Field sample at (x, t); value = principal + wave_remainder exactly.

    x is one point, or an (m, n) block of points; for a block, the sample
    holds x and one value per row in arrays. With check, each row must pass
    its own order-doubling test.
    """
    pts, principal, wave, value = _evaluate(
        datum, x, t, order, check, "field value",
        lambda o, xs: _field_parts(datum, xs, t, o))
    return FieldSample(x=pts, t=t, value=value, principal=principal,
                       wave_remainder=wave)


def _grad_parts(datum: InitialDatum, x: Array, t: float,
                order: int) -> Tuple[Array, Array, Array]:
    """(principal gradient, raw wave gradient, |kernel| mass) at each row of x."""
    n = datum.dimension
    dc = dimension_constants(n)
    a, b = _wave_pair(n, t)
    damp = wave_factor(t)
    grad_p = np.zeros((len(x), n))
    absacc = np.zeros(len(x))
    a_w = np.zeros((len(x), n))
    b_w = np.zeros((len(x), n))
    coef = _rim_coef(dc.ell, t) if n % 2 else 0.0
    # In odd n every term is a multiple of the axis e: the integrals of theta
    # and of y - c = d*e + r*theta over a circle of fixed mu lie along it.
    for bump, ball, sphere in _radial_bumps(datum, x, t, order, spheres=n % 2 == 1):
        if ball is not None:
            term, ref = _ball_grad(bump, ball, t)
            grad_p[ball.rows] += term
            absacc[ball.rows] += ref
        if sphere is not None:
            g0, g1, g2 = _profile(bump, sphere, 2)
            d, mu = sphere.dist[:, None], sphere.mu
            boundary = t ** (n - 1) * (g0 * mu).sum(axis=1)
            grad_p[sphere.rows] += (0.25 * dc.gamma * damp * coef * boundary[:, None]
                                    * sphere.axis)
            mean_grad = (2.0 * g1 * (d + t * mu)).sum(axis=1)
            mean_hvp = (2.0 * g1 * mu + 4.0 * g2 * (d * mu + t) * (d + t * mu)).sum(axis=1)
            a_w[sphere.rows] += ((dc.gamma * (a * mean_grad + b * mean_hvp))[:, None]
                                 * sphere.axis)
    if n % 2:
        return grad_p, a_w, absacc
    # The even kernel vanishes on the rim, so there is no boundary term, but
    # its radial derivative leaves damped terms inside the ball.
    beta1 = (t * kernel_deriv_at_zero("even", dc.ell + 1)
             - 2.0 * kernel_deriv_at_zero("even", dc.ell))
    for i, xi in enumerate(x):
        for bump, pts, w, rim in _bump_nodes(datum, xi, t, order):
            jet = bump.jet(pts, 2)
            # The node points are coordinate-major (see clipped_ball_nodes),
            # and so is every (m, n) array made from them, which suits the
            # passes along the nodes. The products below sum over the nodes,
            # and BLAS sums a column-major matrix in another order than a
            # row-major one, which moves some gradients by an ulp; the
            # hot-spot ascent amplifies that. So they get row-major copies.
            rows = np.ascontiguousarray(xi[None, :] - pts)
            s = 0.5 * t * rim
            grad_p[i] += -(dc.gamma / 16.0) * damp * beta1 * ((w * jet.g[0] / s) @ rows)
            a_w[i] += (w / rim) @ np.ascontiguousarray(jet.gradient())
            b_w[i] += (w / rim) @ np.ascontiguousarray(jet.hvp(pts - xi))
    a_w /= t * t
    b_w /= t ** 3
    return grad_p, dc.gamma * (a * a_w + b * b_w), absacc


def eval_grad_u(datum: InitialDatum, x: Union[Array, float], t: float,
                order: int = DEFAULT_ORDER, check: bool = False) -> Array:
    """grad u at (x, t): an (n,) array for one point, (m, n) for a block."""
    return _evaluate(datum, x, t, order, check, "field gradient",
                     lambda o, xs: _grad_parts(datum, xs, t, o))[3]


def _dir2_parts(datum: InitialDatum, x: Array, t: float, omega: Array,
                order: int) -> Tuple[Array, Array, Array]:
    """(principal dir2, raw wave dir2, |kernel| mass) at each row of x, along
    the unit direction in the same row of omega."""
    n = datum.dimension
    dc = dimension_constants(n)
    a, b = _wave_pair(n, t)
    damp = wave_factor(t)
    val_p = np.zeros(len(x))
    absacc = np.zeros(len(x))
    mean_d2 = np.zeros(len(x))
    mean_d3 = np.zeros(len(x))
    if n % 2:
        coef1 = _rim_coef(dc.ell, t)
        coef2 = _rim_coef(dc.ell + 1, t)
    for bump, ball, sphere in _radial_bumps(datum, x, t, order, spheres=n % 2 == 1):
        if ball is not None:
            term, ref = _ball_dir2(bump, ball, t, omega[ball.rows])
            val_p[ball.rows] += term
            absacc[ball.rows] += ref
        if sphere is not None:
            g0, g1, g2, g3 = _profile(bump, sphere, 3)
            d = sphere.dist[:, None]
            cw, p1, p2 = _projections(sphere, omega[sphere.rows])
            # Circle means of ((y - c) . omega)**2 and of
            # (theta . omega) ((y - c) . omega), with y - c = d*e + t*theta.
            along2 = d * d * cw * cw + 2.0 * d * cw * t * p1 + t * t * p2
            mixed = d * cw * p1 + t * p2
            rate = d * sphere.mu + t
            val_p[sphere.rows] += ((dc.gamma / 16.0) * damp * coef2 * t ** n
                                   * (g0 * p2).sum(axis=1))
            val_p[sphere.rows] += (0.25 * dc.gamma * damp * coef1 * t ** (n - 1)
                                   * (2.0 * g1 * mixed).sum(axis=1))
            mean_d2[sphere.rows] += (2.0 * g1 + 4.0 * g2 * along2).sum(axis=1)
            mean_d3[sphere.rows] += (4.0 * g2 * rate + 8.0 * g3 * rate * along2
                                     + 8.0 * g2 * mixed).sum(axis=1)
    if n % 2 == 0:
        # Damped terms inside the ball, as in _grad_parts.
        beta2 = (t * kernel_deriv_at_zero("even", dc.ell + 2)
                 - 2.0 * kernel_deriv_at_zero("even", dc.ell + 1))
        beta1 = (t * kernel_deriv_at_zero("even", dc.ell + 1)
                 - 2.0 * kernel_deriv_at_zero("even", dc.ell))
        for i, (xi, om) in enumerate(zip(x, omega)):
            for bump, pts, w, rim in _bump_nodes(datum, xi, t, order):
                jet = bump.jet(pts, 3)
                along = (xi[None, :] - pts) @ om
                s = 0.5 * t * rim
                val_p[i] += (dc.gamma / 64.0) * damp * beta2 * float(
                    (w * jet.g[0] / s) @ (along * along))
                val_p[i] += -(dc.gamma / 16.0) * damp * beta1 * float(
                    (w / s) @ (along * (jet.gradient() @ om)))
                zeta = (pts - xi) / t
                mean_d2[i] += float((w / rim) @ jet.dir2(om))
                mean_d3[i] += float((w / rim) @ jet.dir3(om, zeta))
        mean_d2 /= t * t
        mean_d3 /= t * t
    return val_p, dc.gamma * (a * mean_d2 + b * mean_d3), absacc


def eval_dir2_u(datum: InitialDatum, x: Union[Array, float], t: float,
                omega: Array, order: int = DEFAULT_ORDER,
                check: bool = False) -> Union[float, Array]:
    """(omega . grad)^2 u at (x, t) for a direction omega, normalised here.

    For an (m, n) block of points the result has one value per row, and
    omega is one direction (n,) for every row or one per row (m, n).
    """
    return _evaluate(datum, x, t, order, check, "directional second derivative",
                     lambda o, xs, oms: _dir2_parts(datum, xs, t, oms, o), omega)[3]


def eval_principal_general_n(datum: InitialDatum, x: Union[Array, float], t: float,
                             order: int = DEFAULT_ORDER,
                             check: bool = False) -> Union[float, Array]:
    """Principal part alone, valid in any spatial dimension, at one point or
    at each row of an (m, n) block.

    Each bump's share of the ball integral collapses to a radial/angular
    double quadrature around the bump centre; the bumps' shares add.
    """
    return _evaluate(datum, x, t, order, check, "general-n principal",
                     lambda o, xs: _principal_sum(datum, xs, t, o))[1]


def _heat_parts(datum: InitialDatum, x: Array, t: float,
                order: int) -> Tuple[Array, Array, Array]:
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
    if not 1 <= datum.dimension <= 3:
        raise ValueError(f"heat_eval supports dimensions 1-3, got {datum.dimension}")
    return _evaluate(datum, x, t, order, check, "heat value",
                     lambda o, xs: _heat_parts(datum, xs, t, o))[1]


def _diagnostic_points(datum: InitialDatum, t: float) -> Array:
    """Rays from the centroid: a coarse cone fill plus a fine light-cone shell."""
    n = datum.dimension
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        ang = np.arange(8) * (math.pi / 4.0)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = fibonacci_sphere(8)
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
    for t in t_values:
        _check_time(t)
    n = datum.dimension
    rows: List[Tuple[float, float]] = []
    for t in t_values:
        pts = _diagnostic_points(datum, t)
        if gradient:
            _, raw, _ = _in_chunks(lambda xs: _grad_parts(datum, xs, t, order), order, pts)
            tops = np.abs(raw).max(axis=1) / (1.0 + t) ** (n + 1)
        else:
            _, raw, _ = _in_chunks(lambda xs: _field_parts(datum, xs, t, order, raw=True),
                                   order, pts)
            tops = np.abs(raw) / (1.0 + t) ** n
        rows.append((t, max(0.0, float(tops.max()))))
    return rows
