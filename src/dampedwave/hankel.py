"""The damped wave's response per Fourier mode, and each bump's share of u
as a radial Fourier (Hankel) integral.

For the initial state (f, -f) each Fourier mode of u evolves by the factor
m(k, t) of `mode_response`, with k = |xi|. A radial f has a radial transform
(I. N. Sneddon, Fourier Transforms, 1951), and with Lambda_nu the mean of
cos(z theta_1) over the unit sphere S^(n-1) (`radial_mean`: cos z in 1D,
J_0(z) in 2D, sin(z)/z in 3D, Gamma(nu + 1) (2/z)^nu J_nu(z) with
nu = n/2 - 1) and S = |S^(n-1)|, a bump's share of u at the distance d from
its centre is

    f^(k) = S int_0^R f(rho) Lambda_nu(k rho) rho^(n-1) drho,
    h(d)  = (2 pi)^(-n) S int_0^inf f^(k) m(k, t) Lambda_nu(k d) k^(n-1) dk.

For k >= 1/2 the roots of z^2 + z + k^2 are complex and |m| <= e^(-t/2)
(1 + t/2). Below 1/2, m is e^(-k^2 t) to leading order, so at t >= 180 the
integral is cut at k = sqrt(45/t), where that factor is e^(-45). What the
cut at 1/2 leaves out is bounded by `tail_bound`.

`radial_mean`, `tail_bound` and `hankel_profile` serve dimensions one to
three, the radial means written out here, and refuse another n, and a bump
whose centre does not have n coordinates, with a ValueError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .initial_data import SmoothBump
from .quadrature import interval_nodes

__all__ = ["mode_response", "radial_mean", "tail_bound", "hankel_profile"]

Array = np.ndarray

# k-nodes per block of the transform's products: a block of the rho product
# at order 64 holds 32 x 256 values, 64 KiB.
_K_BLOCK = 32


def mode_response(k2: Array, t: float) -> Array:
    """u^(t)/f^ for the Fourier modes of squared frequency k2 of the (f, -f)
    problem: finite for every t >= 0.

    The roots of z^2 + z + k^2 are (-1 +- delta)/2, delta = sqrt(1 - 4 k^2),
    and the response is exp(-t/2) (cosh(delta t/2) - sinh(delta t/2)/delta).
    Where delta is real and delta t/2 >= 1 it is taken in the split form

        m = -(1 - delta)/(2 delta) exp(-(1 - delta) t/2)
            + (1 + 1/delta)/2 exp(-(1 + delta) t/2),

    with 1 - delta = 4 k^2/(1 + delta), which neither overflows nor cancels;
    cosh overflows above t = 1420, and the plain difference loses relative
    precision like 1/k^2. Elsewhere (near the double root, and for complex
    delta) it is the plain form through sinh(z)/z, z = delta t/2, which is
    finite there; below |z| = 1e-4 sinh(z)/z is 1 + z^2/6 + z^4/120, so the
    double root k^2 = 1/4 itself gives (1 - t/2) exp(-t/2).
    """
    k2 = np.asarray(k2, dtype=float)
    disc = 1.0 - 4.0 * k2
    real = np.sqrt(np.maximum(disc, 0.0))
    split = 0.5 * t * real >= 1.0
    out = np.empty_like(k2)
    if split.any():
        delta = real[split]
        gap = 4.0 * k2[split] / (1.0 + delta)
        out[split] = (-0.5 * gap / delta * np.exp(-0.5 * gap * t)
                      + 0.5 * (1.0 + 1.0 / delta) * np.exp(-0.5 * (1.0 + delta) * t))
    plain = ~split
    if plain.any():
        z = 0.5 * t * np.sqrt(disc[plain].astype(complex))
        small = np.abs(z) < 1e-4
        zs = np.where(small, 1.0, z)
        sinhc = np.where(small, 1.0 + z * z / 6.0 + z**4 / 120.0, np.sinh(zs) / zs)
        out[plain] = math.exp(-0.5 * t) * (np.cosh(z) - 0.5 * t * sinhc).real
    return out


@lru_cache(maxsize=None)
def _circle_nodes(count: int) -> Array:
    """The positive half of the count-node Gauss-Chebyshev rule, count even:
    cos((2j - 1) pi / (2 count)), j = 1..count/2."""
    nodes = np.cos((2.0 * np.arange(1, count // 2 + 1) - 1.0) * (0.5 * math.pi / count))
    nodes.setflags(write=False)
    return nodes


def _circle_count(top: float) -> int:
    """An even node count of the Gauss-Chebyshev mean of cos(z cos theta)
    that gives J_0 for every z <= top. Its error is 2 |J_count(z)|, below
    2 (z/2)^count / count!, which this count takes under 1e-17."""
    count, term = 2, (0.5 * top) ** 2 / 2.0
    while term > 1e-17:
        count += 2
        term *= (0.5 * top) ** 2 / ((count - 1.0) * count)
    return count


def _check_dimension(n: int, bump: Optional[SmoothBump] = None) -> None:
    if n not in (1, 2, 3):
        raise ValueError(f"the radial means cover dimensions 1-3, got {n}")
    if bump is not None and len(bump.center) != n:
        raise ValueError(f"bump centre {bump.center} does not have {n} coordinates")


def radial_mean(n: int, z: Array, out: Optional[Array] = None) -> Array:
    """Lambda_nu(z) for z >= 0, the mean of cos(z theta_1) over the unit
    sphere S^(n-1) in dimensions one to three: cos z, J_0(z) and sin(z)/z.

    2D takes J_0 as the angular mean (1/pi) int_0^pi cos(z cos theta) dtheta
    on a Gauss-Chebyshev rule (`_circle_count` nodes for the largest z), so
    it needs no SciPy. In 3D, below z = 0.01, sin(z)/z is its series
    1 - z^2/6 + z^4/120, whose next term is under 2e-17."""
    _check_dimension(n)
    if out is None:
        out = np.empty_like(z)
    if n == 1:
        return np.cos(z, out=out)
    if n == 3:
        np.sin(z, out=out)
        small = z < 0.01
        np.divide(out, z, out=out, where=~small)
        zz = z[small] ** 2
        out[small] = 1.0 - zz / 6.0 * (1.0 - zz / 20.0)
        return out
    nodes = _circle_nodes(_circle_count(float(np.max(z, initial=0.0))))
    out[...] = 0.0
    scratch = np.empty_like(z)
    for node in nodes:
        np.multiply(z, node, out=scratch)
        out += np.cos(scratch, out=scratch)
    out /= len(nodes)
    return out


@lru_cache(maxsize=None)
def _unit_bilaplacian_norm(n: int) -> float:
    """An upper bound of ||Delta^2 F||_1 of the unit bump F in R^n: twice its
    value on the 256-node Gauss rule in the radius that `unit_ball_mass`
    holds, which is within 0.3 % of 2048 nodes in 1D-3D. With w = |y|^2
    and g(w) the profile,
    Delta^2 F = 4n(n + 2) g'' + 16(n + 2) w g''' + 16 w^2 g''''."""
    rho, w = interval_nodes(0.0, 1.0, 256)
    wr = rho * rho
    _, _, g2, g3, g4 = SmoothBump((0.0,) * n, 1.0, 1.0)._g_table(1.0 - wr, 4)
    bilap = 4.0 * n * (n + 2) * g2 + 16.0 * (n + 2) * wr * g3 + 16.0 * wr * wr * g4
    return 2.0 * _sphere_area(n) * float(w @ (np.abs(bilap) * rho ** (n - 1)))


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def tail_bound(bump: SmoothBump, n: int, t: float) -> float:
    """A bound on the part of h from k >= 1/2, at every d, from
    |m| <= e^(-t/2) (1 + t/2), |Lambda_nu| <= 1 and
    |f^(k)| <= min(M, B k^(-4)), with M = ||f||_1 (`SmoothBump.mass`) and
    B = ||Delta^2 f||_1 (two is the least power j > n/2 in n <= 3):
    (2 pi)^(-n) S e^(-t/2) (1 + t/2) times the integral I of
    min(M, B k^(-4)) k^(n-1) over k >= 1/2. With k* = (B/M)^(1/4),
    I = B 2^(4-n)/(4-n) if k* <= 1/2, and otherwise
    I = M (k*^n - 2^(-n))/n + B k*^(n-4)/(4-n).
    f = a F((y - c)/R) has B = a R^(n-4) ||Delta^2 F||_1."""
    _check_dimension(n, bump)
    norm = bump.amplitude * bump.radius ** (n - 4) * _unit_bilaplacian_norm(n)
    mass = bump.mass(n)
    knee = (norm / mass) ** 0.25 if mass > 0.0 else 0.0
    if knee <= 0.5:
        modes = norm * 2.0 ** (4 - n) / (4 - n)
    else:
        modes = mass * (knee ** n - 0.5 ** n) / n + norm * knee ** (n - 4) / (4 - n)
    return ((2.0 * math.pi) ** (-n) * _sphere_area(n) * math.exp(-0.5 * t) * (1.0 + 0.5 * t)
            * modes)


def _blocked(n: int, rows: Array, cols: Array, weights: Array) -> Array:
    """Per entry a of rows, the sum over j of weights[j] Lambda_nu(a cols[j]),
    `_K_BLOCK` rows at a time through one pair of buffers."""
    out = np.empty(len(rows))
    z = np.empty((min(_K_BLOCK, len(rows)), len(cols)))
    lam = np.empty_like(z)
    for lo in range(0, len(rows), _K_BLOCK):
        hi = min(lo + _K_BLOCK, len(rows))
        zb, lb = z[:hi - lo], lam[:hi - lo]
        np.multiply.outer(rows[lo:hi], cols, out=zb)
        out[lo:hi] = radial_mean(n, zb, out=lb) @ weights
    return out


def hankel_profile(bump: SmoothBump, n: int, t: float, d: Array,
                   order: int) -> Tuple[Array, Array, Array]:
    """(h on 4*order nodes, h on order nodes, bounds) at the distances d
    from the bump centre.

    Each rule has as many Gauss nodes in rho on [0, R], for f^, as in k on
    [0, min(1/2, sqrt(45/t))], for h; the rho rule of `order` nodes meets
    the bump's edge as the direct evaluators' rules of that order do. bounds
    holds sum |W| k^q for q = 0, 1, 2 on the finer rule, W the weight of
    Lambda_nu(k d) in h: the first bounds |h|, the second |h'| and the third
    |h''| and |h'/d|, since every radial mean, its first two derivatives and
    Lambda_nu'(z)/z are at most 1 in size.
    """
    _check_dimension(n, bump)
    radius = bump.radius
    scale = (2.0 * math.pi) ** (-n) * _sphere_area(n) ** 2
    top = min(0.5, math.sqrt(45.0 / t))
    out = []
    for count in (4 * order, order):
        rho, wrho = interval_nodes(0.0, radius, count)
        profile = bump._g_table(radius * radius - rho * rho, 0)[0]
        k, wk = interval_nodes(0.0, top, count)
        fhat = _blocked(n, k, rho, wrho * profile * rho ** (n - 1))
        weight = scale * wk * fhat * mode_response(k * k, t) * k ** (n - 1)
        out.append((_blocked(n, d, k, weight), weight, k))
    (fine, weight, k), (coarse, _, _) = out
    mass = np.abs(weight)
    return fine, coarse, np.array([mass.sum(), mass @ k, mass @ (k * k)])
