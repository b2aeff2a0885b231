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

In odd dimensions every term is a sum over bumps of integrals over spheres
around x of a radial profile times powers of the direction, so each reduces
to a radial rule in r and an angular rule in the angle to the bump centre
(spherical means; F. John, Plane Waves and Spherical Means, 1955). In one
dimension the sphere is the two points x +- r, and the sphere terms at r = t
are the d'Alembert values at x +- t. Two dimensions keep the clipped-ball
rule of `quadrature.clipped_ball_nodes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .geometry import fibonacci_sphere
from .initial_data import InitialDatum, SmoothBump
from .kernels import kernel_at_zero, kernel_deriv_at_zero, kernel_ktilde_scaled
from .quadrature import (ball_nodes, clipped_ball_nodes, gauss_legendre,
                         interval_nodes, with_refinement)

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

DEFAULT_ORDER = 64


@dataclass(frozen=True)
class DimensionConstants:
    """Normalization constants and kernel order for one spatial dimension."""
    n: int
    parity: str
    ell: int
    gamma: float
    c: float


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
    x: Array
    t: float
    value: float
    principal: float
    wave_remainder: float
    gradient: Optional[Array] = None
    dir2: Optional[Dict[Tuple[float, ...], float]] = None


def _as_point(datum: InitialDatum, x: Union[Array, float], t: float) -> Array:
    """x as an array, once (x, t) is checked: x finite with the datum's
    dimension, t finite and positive. Every public evaluator starts here."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, got {t}")
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.size != datum.dimension:
        raise ValueError(f"point has {pt.size} coordinates, expected {datum.dimension}")
    if not np.all(np.isfinite(pt)):
        raise ValueError(f"point has a non-finite coordinate: {pt}")
    return pt


def _bump_nodes(datum: InitialDatum, x: Array, t: float,
                order: int) -> Iterable[Tuple[SmoothBump, Array, Array, Array, Array]]:
    """Per bump: the 2D clipped-ball nodes of its part of B_t(x)."""
    for bump in datum.bumps:
        pts, rad, w, rim = clipped_ball_nodes(x, t, bump.center_array,
                                              bump.radius, order)
        if pts.shape[0]:
            yield bump, pts, rad, w, rim


def _rim_coef(ell: int, t: float) -> float:
    """t k_(ell+1)(0) - 2 k_ell(0) of the odd family: e^(t/2) times the
    kernel ktilde_ell on the sphere r = t, which weighs the boundary terms."""
    return t * kernel_at_zero("odd", ell + 1) - 2.0 * kernel_at_zero("odd", ell)


def _wave_pair(n: int, t: float) -> Tuple[float, float]:
    """(a, b): in odd n the raw wave remainder, and each of its x-derivatives,
    is gamma * (a * M + b * dM/dt), with M the integral of f, or of that
    derivative of f, over the sphere of radius t around x."""
    if n == 1:
        return 1.0, 0.0
    if n == 3:
        return 0.5 * t * t - 2.0 * t + 4.0, 4.0 * t
    raise ValueError(f"full field evaluation supports dimensions 1-3, got {n}")


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class _Shells(NamedTuple):
    """One bump seen from x, on the spheres of radius r around x.

    mu is the cosine of the angle between a direction and the axis
    e = (x - c) / d, so the node x + r*theta lies at squared distance
    rho2 = d**2 + r**2 + 2*d*r*mu from the bump centre c. wr integrates dr;
    each row of wmu integrates over the unit sphere S^{n-1}, restricted to
    the directions that land in the bump's ball.
    """
    axis: Array
    dist: float
    r: Array
    wr: Array
    mu: Array
    wmu: Array
    rho2: Array


def _shells(bump: SmoothBump, x: Array, t: float, order: int,
            on_sphere: bool = False) -> Optional[_Shells]:
    """Nodes for the bump's part of B_t(x), or of the sphere of radius t.

    None when the region misses the bump's ball.
    """
    n = x.size
    offset = x - bump.center_array
    dist = float(np.linalg.norm(offset))
    radius = bump.radius
    if on_sphere:
        if abs(dist - t) >= radius:
            return None
        r, wr = np.array([t]), np.ones(1)
    else:
        lo, hi = max(dist - radius, 0.0), min(dist + radius, t)
        if hi <= lo:
            return None
        # The sphere around x starts to leave the ball at r = R - d. The
        # radial integrand is smooth there but not analytic, so the rule is
        # split at that radius.
        cuts = [lo, radius - dist, hi] if lo < radius - dist < hi else [lo, hi]
        rules = [interval_nodes(math.asin(a / t), math.asin(b / t), order)
                 for a, b in zip(cuts, cuts[1:])]
        phi = np.concatenate([p for p, _ in rules])
        r = t * np.sin(phi)
        wr = np.concatenate([w for _, w in rules]) * t * np.cos(phi)
    if dist < 1e-14 or n == 1:
        # Every integrand is then a function of r times a polynomial of
        # degree three at most in mu, and the two-point rule mu = +-1/sqrt(n)
        # has the sphere's moments 1, 0, 1/n, 0 through that degree. In one
        # dimension it is the 0-sphere {-1, 1} itself, exact for any integrand.
        axis = offset / dist if dist >= 1e-14 else np.eye(n)[0]
        mu = np.tile([-1.0 / math.sqrt(n), 1.0 / math.sqrt(n)], (r.size, 1))
        wmu = np.full((r.size, 2), 0.5 * _sphere_area(n))
    else:
        axis = offset / dist
        base, wbase = gauss_legendre(order)
        # Directions with mu below the cut land in the ball.
        cos_cut = np.clip((radius * radius - dist * dist - r * r)
                          / (2.0 * dist * r), -1.0, 1.0)
        if n % 2:
            # The measure |S^{n-2}| (1 - mu^2)^((n-3)/2) dmu is polynomial
            # and rho2 is linear in mu, so nodes in mu resolve the steep
            # edge of the profile's derivatives as finely as nodes in rho2.
            half = 0.5 * (cos_cut + 1.0)
            mu = -1.0 + half[:, None] * (base[None, :] + 1.0)
            wmu = (_sphere_area(n - 1) * half[:, None] * wbase[None, :]
                   * (1.0 - mu * mu) ** ((n - 3) // 2))
        else:
            # In even n that measure is singular at mu = -1; use theta.
            theta_lo = np.arccos(cos_cut)
            half = 0.5 * (math.pi - theta_lo)
            theta = theta_lo[:, None] + half[:, None] * (base[None, :] + 1.0)
            mu = np.cos(theta)
            wmu = (_sphere_area(n - 1) * half[:, None] * wbase[None, :]
                   * np.sin(theta) ** (n - 2))
    if n == 1:
        # mu = +-1, so the square needs no expanding, which would cancel.
        rho2 = (dist + r[:, None] * mu) ** 2
    else:
        rho2 = np.maximum(dist * dist + r[:, None] ** 2
                          + 2.0 * dist * r[:, None] * mu, 0.0)
    return _Shells(axis, dist, r, wr, mu, wmu, rho2)


def _profile(bump: SmoothBump, sh: _Shells, top: int) -> Array:
    """g and its first `top` derivatives in w = |y - c|**2 at the nodes,
    times the angular weights; zero off the support."""
    return bump._g_table(bump.radius * bump.radius - sh.rho2, top) * sh.wmu


def _projections(sh: _Shells, omega: Array) -> Tuple[float, Array, Array]:
    """(cw, p1, p2) with cw = e . omega, and p1, p2 the means of theta . omega
    and (theta . omega)**2 over each circle of directions with fixed mu.
    In one dimension the circle is a point and has no perpendicular part."""
    n = sh.axis.size
    cw = float(sh.axis @ omega)
    mu2 = sh.mu * sh.mu
    perp = (1.0 - cw * cw) * (1.0 - mu2) / (n - 1) if n > 1 else 0.0
    return cw, cw * sh.mu, cw * cw * mu2 + perp


def _ball_principal(bump: SmoothBump, ball: _Shells, t: float) -> Tuple[float, float]:
    """One bump's principal ball integral and the same with |kernel|."""
    n = ball.axis.size
    dc = dimension_constants(n)
    kern = kernel_ktilde_scaled(dc.parity, dc.ell, ball.r, t)
    weight = 0.25 * dc.gamma * ball.wr * kern * ball.r ** (n - 1)
    mean = _profile(bump, ball, 0)[0].sum(axis=1)
    return float(weight @ mean), float(np.abs(weight) @ mean)


def _radial_bumps(datum: InitialDatum, x: Array, t: float, order: int
                  ) -> Iterable[Tuple[SmoothBump, Optional[_Shells], Optional[_Shells]]]:
    """Per bump: (bump, ball nodes in B_t(x), nodes on the radius-t sphere).

    The sphere terms integrate up to the third derivative of the profile,
    whose edge is much steeper than the profile's, so the sphere rule takes
    twice the angular nodes; at a single radius they cost next to nothing.
    """
    for bump in datum.bumps:
        yield (bump, _shells(bump, x, t, order),
               _shells(bump, x, t, 2 * order, on_sphere=True))


def _field_parts_odd(datum: InitialDatum, x: Array, t: float,
                     order: int) -> Tuple[float, float, float]:
    n = datum.dimension
    dc = dimension_constants(n)
    a, b = _wave_pair(n, t)
    principal = 0.0
    absacc = 0.0
    mean_f = 0.0
    mean_df = 0.0
    for bump, ball, sphere in _radial_bumps(datum, x, t, order):
        if ball is not None:
            val, ref = _ball_principal(bump, ball, t)
            principal += val
            absacc += ref
        if sphere is not None:
            g0, g1 = _profile(bump, sphere, 1)
            mean_f += float(g0.sum())
            mean_df += float((2.0 * g1 * (sphere.dist * sphere.mu + t)).sum())
    wave_raw = dc.gamma * (a * mean_f + b * mean_df)
    scale = max(abs(principal), abs(wave_raw) * wave_factor(t), 1e-9 * absacc, 1e-300)
    return principal, wave_raw, scale


def _field_parts(datum: InitialDatum, x: Array, t: float, order: int,
                 raw: bool = False) -> Tuple[float, float, float]:
    """(principal, wave_raw, scale): wave_raw omits the exp(-t/2) factor.

    Where that factor is zero, the 2D wave integrals are not computed and
    wave_raw is 0, unless raw.
    """
    if datum.dimension % 2:
        return _field_parts_odd(datum, x, t, order)
    dc = dimension_constants(datum.dimension)
    wave = raw or wave_factor(t) > 0.0
    quarter_gamma = 0.25 * dc.gamma
    principal = 0.0
    absacc = 0.0
    v_plain = 0.0
    v_rate = 0.0
    for bump, pts, rad, w, rim in _bump_nodes(datum, x, t, order):
        kern = kernel_ktilde_scaled(dc.parity, dc.ell, rad, t)
        jet = bump.jet(pts, 1 if wave else 0)
        fv = jet.g[0]
        contrib = w * kern * fv
        principal += quarter_gamma * float(contrib.sum())
        absacc += quarter_gamma * float(np.abs(contrib).sum())
        if wave:
            wave_w = w * fv / rim
            v_plain += float(wave_w.sum())
            v_rate += float((w / rim) @ (((pts - x) * jet.gradient()).sum(axis=1)))
    v_plain /= t * t
    v_rate /= t ** 3
    wave_raw = dc.gamma * ((0.25 * t * t - t + 2.0) * v_plain + 2.0 * t * v_rate)
    scale = max(abs(principal), abs(wave_raw) * wave_factor(t), 1e-9 * absacc, 1e-300)
    return principal, wave_raw, scale


def eval_u(datum: InitialDatum, x: Union[Array, float], t: float,
           order: int = DEFAULT_ORDER, check: bool = False) -> FieldSample:
    """Field sample at (x, t); value = principal + wave_remainder exactly."""
    pt = _as_point(datum, x, t)
    if check:
        def evaluate(o: int) -> Tuple[Array, float]:
            p, wraw, scale = _field_parts(datum, pt, t, o)
            return np.array([p, wraw * wave_factor(t)]), scale
        principal, wave = with_refinement(evaluate, order, label="field value")
        principal, wave = float(principal), float(wave)
    else:
        p, wraw, _ = _field_parts(datum, pt, t, order)
        principal, wave = p, wraw * wave_factor(t)
    return FieldSample(x=pt, t=t, value=principal + wave, principal=principal,
                       wave_remainder=wave)


def _grad_parts_odd(datum: InitialDatum, x: Array, t: float,
                    order: int) -> Tuple[Array, Array, float]:
    n = datum.dimension
    dc = dimension_constants(n)
    a, b = _wave_pair(n, t)
    damp = wave_factor(t)
    coef = _rim_coef(dc.ell, t)
    grad_p = np.zeros(n)
    grad_w = np.zeros(n)
    absacc = 0.0
    # Every term is a multiple of the axis e: the integrals of theta and of
    # y - c = d*e + r*theta over a circle of fixed mu lie along it.
    for bump, ball, sphere in _radial_bumps(datum, x, t, order):
        if ball is not None:
            kern = kernel_ktilde_scaled(dc.parity, dc.ell + 1, ball.r, t)
            weight = (dc.gamma / 16.0) * ball.wr * kern * ball.r ** n
            f = _profile(bump, ball, 0)[0]
            grad_p += float(weight @ (f * ball.mu).sum(axis=1)) * ball.axis
            absacc += float(np.abs(weight) @ f.sum(axis=1))
        if sphere is not None:
            g0, g1, g2 = _profile(bump, sphere, 2)
            d, mu = sphere.dist, sphere.mu
            boundary = t ** (n - 1) * float((g0 * mu).sum())
            grad_p += 0.25 * dc.gamma * damp * coef * boundary * sphere.axis
            mean_grad = float((2.0 * g1 * (d + t * mu)).sum())
            mean_hvp = float((2.0 * g1 * mu
                              + 4.0 * g2 * (d * mu + t) * (d + t * mu)).sum())
            grad_w += dc.gamma * (a * mean_grad + b * mean_hvp) * sphere.axis
    scale = max(float(np.max(np.abs(grad_p))), damp * float(np.max(np.abs(grad_w))),
                1e-9 * absacc, 1e-300)
    return grad_p, grad_w, scale


def _grad_parts(datum: InitialDatum, x: Array, t: float,
                order: int) -> Tuple[Array, Array, float]:
    """(principal gradient, raw wave gradient, scale)."""
    if datum.dimension % 2:
        return _grad_parts_odd(datum, x, t, order)
    dc = dimension_constants(datum.dimension)
    n = datum.dimension
    damp = wave_factor(t)
    grad_p = np.zeros(n)
    absacc = 0.0
    # The even kernel vanishes on the rim, so there is no boundary term, but
    # its radial derivative leaves damped terms inside the ball.
    beta1 = (t * kernel_deriv_at_zero("even", dc.ell + 1)
             - 2.0 * kernel_deriv_at_zero("even", dc.ell))
    a_w = np.zeros(n)
    b_w = np.zeros(n)
    for bump, pts, rad, w, rim in _bump_nodes(datum, x, t, order):
        kern = kernel_ktilde_scaled(dc.parity, dc.ell + 1, rad, t)
        jet = bump.jet(pts, 2)
        fv = jet.g[0]
        # The node points are coordinate-major (see clipped_ball_nodes), and
        # so is every (m, n) array made from them, which suits the passes
        # along the nodes. The products below sum over the nodes, and BLAS
        # sums a column-major matrix in another order than a row-major one,
        # which moves some gradients by an ulp; the hot-spot ascent
        # amplifies that. So they get row-major copies.
        moment = x[None, :] - pts
        rows = np.ascontiguousarray(moment)
        core = (w * kern * fv) @ rows
        grad_p += -(dc.gamma / 16.0) * core
        absacc += (dc.gamma / 16.0) * float(np.abs(w * kern * fv) @ np.abs(moment).max(axis=1))
        s = 0.5 * t * rim
        grad_p += -(dc.gamma / 16.0) * damp * beta1 * ((w * fv / s) @ rows)
        a_w += (w / rim) @ np.ascontiguousarray(jet.gradient())
        b_w += (w / rim) @ np.ascontiguousarray(jet.hvp(pts - x))
    a_w /= t * t
    b_w /= t ** 3
    grad_w = dc.gamma * ((0.25 * t * t - t + 2.0) * a_w + 2.0 * t * b_w)
    scale = max(float(np.max(np.abs(grad_p))), damp * float(np.max(np.abs(grad_w))),
                1e-9 * absacc, 1e-300)
    return grad_p, grad_w, scale


def eval_grad_u(datum: InitialDatum, x: Union[Array, float], t: float,
                order: int = DEFAULT_ORDER, check: bool = False) -> Array:
    pt = _as_point(datum, x, t)
    if check:
        def evaluate(o: int) -> Tuple[Array, float]:
            gp, gw, scale = _grad_parts(datum, pt, t, o)
            return gp + wave_factor(t) * gw, scale
        return np.asarray(with_refinement(evaluate, order, label="field gradient"),
                          dtype=float)
    gp, gw, _ = _grad_parts(datum, pt, t, order)
    return gp + wave_factor(t) * gw


def _dir2_parts_odd(datum: InitialDatum, x: Array, t: float, omega: Array,
                    order: int) -> Tuple[float, float, float]:
    n = datum.dimension
    dc = dimension_constants(n)
    a, b = _wave_pair(n, t)
    damp = wave_factor(t)
    coef1 = _rim_coef(dc.ell, t)
    coef2 = _rim_coef(dc.ell + 1, t)
    val_p = 0.0
    absacc = 0.0
    mean_d2 = 0.0
    mean_d3 = 0.0
    for bump, ball, sphere in _radial_bumps(datum, x, t, order):
        if ball is not None:
            k2 = kernel_ktilde_scaled(dc.parity, dc.ell + 2, ball.r, t)
            k1 = kernel_ktilde_scaled(dc.parity, dc.ell + 1, ball.r, t)
            w2 = (dc.gamma / 64.0) * ball.wr * k2 * ball.r ** (n + 1)
            w1 = (dc.gamma / 16.0) * ball.wr * k1 * ball.r ** (n - 1)
            f = _profile(bump, ball, 0)[0]
            sq = (f * _projections(ball, omega)[2]).sum(axis=1)
            mass = f.sum(axis=1)
            val_p += float(w2 @ sq) - float(w1 @ mass)
            absacc += float(np.abs(w2) @ sq) + float(np.abs(w1) @ mass)
        if sphere is not None:
            g0, g1, g2, g3 = _profile(bump, sphere, 3)
            d = sphere.dist
            cw, p1, p2 = _projections(sphere, omega)
            # Circle means of ((y - c) . omega)**2 and of
            # (theta . omega) ((y - c) . omega), with y - c = d*e + t*theta.
            along2 = d * d * cw * cw + 2.0 * d * cw * t * p1 + t * t * p2
            mixed = d * cw * p1 + t * p2
            rate = d * sphere.mu + t
            val_p += (dc.gamma / 16.0) * damp * coef2 * t ** n * float((g0 * p2).sum())
            val_p += (0.25 * dc.gamma * damp * coef1 * t ** (n - 1)
                      * float((2.0 * g1 * mixed).sum()))
            mean_d2 += float((2.0 * g1 + 4.0 * g2 * along2).sum())
            mean_d3 += float((4.0 * g2 * rate + 8.0 * g3 * rate * along2
                              + 8.0 * g2 * mixed).sum())
    wave_raw = dc.gamma * (a * mean_d2 + b * mean_d3)
    scale = max(abs(val_p), damp * abs(wave_raw), 1e-9 * absacc, 1e-300)
    return val_p, wave_raw, scale


def _dir2_parts(datum: InitialDatum, x: Array, t: float, omega: Array,
                order: int) -> Tuple[float, float, float]:
    if datum.dimension % 2:
        return _dir2_parts_odd(datum, x, t, omega, order)
    dc = dimension_constants(datum.dimension)
    damp = wave_factor(t)
    val_p = 0.0
    absacc = 0.0
    # Damped terms inside the ball, as in _grad_parts.
    beta2 = (t * kernel_deriv_at_zero("even", dc.ell + 2)
             - 2.0 * kernel_deriv_at_zero("even", dc.ell + 1))
    beta1 = (t * kernel_deriv_at_zero("even", dc.ell + 1)
             - 2.0 * kernel_deriv_at_zero("even", dc.ell))
    a_w = 0.0
    b_w = 0.0
    for bump, pts, rad, w, rim in _bump_nodes(datum, x, t, order):
        jet = bump.jet(pts, 3)
        fv = jet.g[0]
        along = (x[None, :] - pts) @ omega
        k2 = kernel_ktilde_scaled(dc.parity, dc.ell + 2, rad, t)
        k1 = kernel_ktilde_scaled(dc.parity, dc.ell + 1, rad, t)
        term = (dc.gamma / 64.0) * float((w * fv * k2) @ (along * along))
        term -= (dc.gamma / 16.0) * float((w * fv * k1).sum())
        absacc += (dc.gamma / 64.0) * float(np.abs(w * fv * k2) @ (along * along))
        absacc += (dc.gamma / 16.0) * float(np.abs(w * fv * k1).sum())
        s = 0.5 * t * rim
        term += (dc.gamma / 64.0) * damp * beta2 * float(
            (w * fv / s) @ (along * along))
        term += -(dc.gamma / 16.0) * damp * beta1 * float(
            (w / s) @ (along * (jet.gradient() @ omega)))
        zeta = (pts - x) / t
        a_w += float((w / rim) @ jet.dir2(omega))
        b_w += float((w / rim) @ jet.dir3(omega, zeta))
        val_p += term
    a_w /= t * t
    b_w /= t * t
    wave_raw = dc.gamma * ((0.25 * t * t - t + 2.0) * a_w + 2.0 * t * b_w)
    scale = max(abs(val_p), damp * abs(wave_raw), 1e-9 * absacc, 1e-300)
    return val_p, wave_raw, scale


def eval_dir2_u(datum: InitialDatum, x: Union[Array, float], t: float,
                omega: Array, order: int = DEFAULT_ORDER,
                check: bool = False) -> float:
    """(omega . grad)^2 u at (x, t) for a direction omega, normalised here."""
    pt = _as_point(datum, x, t)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    norm = float(np.linalg.norm(om))
    if not (np.all(np.isfinite(om)) and norm > 0.0):
        raise ValueError(f"omega must be finite and nonzero, got {om}")
    if abs(norm - 1.0) > 1e-12:
        om = om / norm
    if check:
        def evaluate(o: int) -> Tuple[float, float]:
            vp, wraw, scale = _dir2_parts(datum, pt, t, om, o)
            return vp + wave_factor(t) * wraw, scale
        return float(with_refinement(evaluate, order, label="directional second derivative"))
    vp, wraw, _ = _dir2_parts(datum, pt, t, om, order)
    return vp + wave_factor(t) * wraw


def eval_principal_general_n(datum: InitialDatum, x: Union[Array, float], t: float,
                             order: int = DEFAULT_ORDER,
                             check: bool = False) -> float:
    """Principal part alone, valid in any spatial dimension.

    Each bump's share of the ball integral collapses to a radial/angular
    double quadrature around the bump centre; the bumps' shares add.
    """
    pt = _as_point(datum, x, t)

    def evaluate(o: int) -> Tuple[float, float]:
        val = 0.0
        ref = 0.0
        for bump in datum.bumps:
            ball = _shells(bump, pt, t, o)
            if ball is not None:
                share, mass = _ball_principal(bump, ball, t)
                val += share
                ref += mass
        return val, max(abs(val), 1e-9 * ref, 1e-300)

    if check:
        return float(with_refinement(evaluate, order, label="general-n principal"))
    return evaluate(order)[0]


def heat_eval(datum: InitialDatum, x: Union[Array, float], t: float,
              order: int = DEFAULT_ORDER, check: bool = False) -> float:
    """Gaussian-kernel smoothing of the datum at time t."""
    pt = _as_point(datum, x, t)
    n = datum.dimension
    norm = (4.0 * math.pi * t) ** (-n / 2.0)

    def evaluate(o: int) -> Tuple[float, float]:
        total = 0.0
        for bump in datum.bumps:
            pts, w = ball_nodes(bump.center_array, bump.radius, n, o)
            gap = pts - pt[None, :]
            kern = np.exp(-(gap * gap).sum(axis=1) / (4.0 * t))
            total += norm * float((w * kern) @ bump.value(pts))
        return total, max(abs(total), 1e-300)

    if check:
        return float(with_refinement(evaluate, order, label="heat value"))
    return evaluate(order)[0]


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
    n = datum.dimension
    rows: List[Tuple[float, float]] = []
    for t in t_values:
        top = 0.0
        for pt in _diagnostic_points(datum, t):
            if gradient:
                _, raw, _ = _grad_parts(datum, pt, t, order)
                mag = float(np.max(np.abs(raw)))
                top = max(top, mag / (1.0 + t) ** (n + 1))
            else:
                _, raw, _ = _field_parts(datum, pt, t, order, raw=True)
                top = max(top, abs(raw) / (1.0 + t) ** n)
        rows.append((t, top))
    return rows
