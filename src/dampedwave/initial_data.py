"""Initial positions built as finite sums of radial mollifier bumps.

A bump of amplitude a, radius R at center c takes the value
a * exp(1 - R**2 / (R**2 - |y - c|**2)) inside its ball and 0 outside, so the
peak value is exactly a and every derivative vanishes on the support boundary.
First through third derivatives are closed-form, from one table of the
profile g(w), w = |y - c|**2, and its w-derivatives (`SmoothBump._g_table`),
which also gives the bump mass (a Gauss-Legendre rule in the radius with a
doubling refinement check) and the derivative sups of the Sobolev estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import ConvexPolytope, hull_of_balls
from .quadrature import with_refinement

__all__ = [
    "SmoothBump",
    "InitialDatum",
    "make_datum",
    "load_datum",
    "sobolev_sup_estimate",
    "unit_ball_mass",
]

Array = np.ndarray


def _as_batch(x: Union[Array, Sequence[float], float], dimension: int) -> Tuple[Array, bool]:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
        return pts, True
    if pts.ndim == 1:
        if dimension == 1 and pts.size != 1:
            return pts[:, None], False
        return pts[None, :], True
    return pts, False


class BumpJet(NamedTuple):
    """One bump at one set of points y: the offsets y - c, and g with its
    first derivatives in w = |y - c|**2, stacked, zero off the support.

    Every derivative of f(y) = g(|y - c|**2) at those points is a polynomial
    in these, so one jet serves all of them.
    """
    offset: Array
    g: Array

    def gradient(self) -> Array:
        return 2.0 * self.g[1][:, None] * self.offset

    def dir2(self, omega: Array) -> Array:
        """(omega . grad)^2 f."""
        along = self.offset @ np.asarray(omega, dtype=float)
        return 2.0 * self.g[1] + 4.0 * self.g[2] * along * along

    def dir3(self, omega: Array, zeta: Array) -> Array:
        """Third derivative D^3 f[omega, omega, zeta]; zeta may vary per point."""
        _, g1, g2, g3 = self.g[:4]
        omega = np.asarray(omega, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        if zeta.ndim == 2:
            a_ze = (self.offset * zeta).sum(axis=1)
            om_ze = zeta @ omega
        else:
            a_ze = self.offset @ zeta
            om_ze = float(omega @ zeta)
        a_om = self.offset @ omega
        return (4.0 * g2 * a_ze + 8.0 * g3 * a_ze * a_om * a_om
                + 8.0 * g2 * om_ze * a_om)

    def hvp(self, vecs: Array) -> Array:
        """Hessian-vector products H(y) v(y); vecs is (n,) or one row per point."""
        vecs = np.asarray(vecs, dtype=float)
        v = vecs if vecs.ndim == 2 else vecs[None, :]
        along = (self.offset * v).sum(axis=1)
        return (2.0 * self.g[1][:, None] * v
                + 4.0 * (self.g[2] * along)[:, None] * self.offset)

    def hessian(self) -> Array:
        """H(y) = 2 g'(w) I + 4 g''(w) (y - c)(y - c)^T, one matrix per point."""
        d = self.offset
        eye = np.eye(d.shape[1])
        return (2.0 * self.g[1][:, None, None] * eye[None, :, :]
                + 4.0 * self.g[2][:, None, None] * d[:, :, None] * d[:, None, :])


@dataclass(frozen=True)
class SmoothBump:
    """One radial bump; center is stored as a tuple so the datum is hashable."""
    center: Tuple[float, ...]
    radius: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("bump radius must be positive")
        if self.amplitude < 0.0:
            raise ValueError("bump amplitude must be non-negative")

    @property
    def center_array(self) -> Array:
        return np.asarray(self.center, dtype=float)

    def _shape(self, pts: Array) -> Tuple[Array, Array]:
        """Offsets y - c at the points, and the gap R^2 - |y - c|^2."""
        offset = pts - self.center_array[None, :]
        w = (offset * offset).sum(axis=1)
        return offset, self.radius * self.radius - w

    def _g_table(self, gap: Array, top: int) -> Array:
        """g, g', ... up to the `top`-th derivative in w of
        g(w) = a*e*exp(-R^2/(R^2 - w)), stacked to (top + 1,) + gap.shape,
        from the gap R^2 - w.

        The gap is clamped below at 1e-12 R^2, where the support ends.
        There exp(-R^2/gap) = exp(-1e12) is exactly 0, so every entry off
        the support is 0 (of either sign) with no mask, and 1/gap stays
        within the range it spans on the support.
        """
        r2 = self.radius * self.radius
        gap = np.maximum(gap, 1e-12 * r2)
        out = np.empty((top + 1,) + gap.shape)
        g = out[0]
        np.multiply(self.amplitude * np.e, np.exp(-r2 / gap), out=g)
        if top >= 1:
            inv = 1.0 / gap
            out[1] = -g * r2 * inv * inv
        if top >= 2:
            out[2] = g * (r2 * r2 * inv**4 - 2.0 * r2 * inv**3)
        if top >= 3:
            out[3] = g * (-(r2**3) * inv**6 + 6.0 * r2 * r2 * inv**5
                          - 6.0 * r2 * inv**4)
        return out

    def jet(self, pts: Array, top: int) -> BumpJet:
        """Offsets and g up to its `top`-th derivative at the points, in one
        pass; `top` is 1 for the gradient, 2 for dir2 and hvp, 3 for dir3."""
        offset, gap = self._shape(pts)
        return BumpJet(offset, self._g_table(gap, top))

    def value(self, pts: Array) -> Array:
        return self.jet(pts, 0).g[0]

    def gradient(self, pts: Array) -> Array:
        return self.jet(pts, 1).gradient()

    def dir2(self, pts: Array, omega: Array) -> Array:
        """(omega . grad)^2 of the bump."""
        return self.jet(pts, 2).dir2(omega)

    def dir3(self, pts: Array, omega: Array, zeta: Array) -> Array:
        """Third derivative D^3 f[omega, omega, zeta]; zeta may vary per point."""
        return self.jet(pts, 3).dir3(omega, zeta)

    def hvp(self, pts: Array, vecs: Array) -> Array:
        """Hessian-vector products H(y) v(y); vecs is (n,) or one row per point."""
        return self.jet(pts, 2).hvp(vecs)

    def mass(self, dimension: int) -> float:
        return self.amplitude * self.radius**dimension * unit_ball_mass(dimension)


# The unit-amplitude, unit-radius bump: its profile table serves the
# unit-bump mass and derivative sups below.
_UNIT_BUMP = SmoothBump((0.0,), 1.0, 1.0)


@lru_cache(maxsize=None)
def unit_ball_mass(dimension: int) -> float:
    """Integral of the unit-amplitude, unit-radius bump over its ball."""
    surface = 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)

    def evaluate(order: int) -> Tuple[float, float]:
        from .quadrature import interval_nodes
        r, w = interval_nodes(0.0, 1.0, order)
        prof = _UNIT_BUMP._g_table(1.0 - r * r, 0)[0]
        val = surface * float(w @ (prof * r ** (dimension - 1)))
        return val, abs(val)

    return float(with_refinement(evaluate, 128, rtol=1e-12, label="unit bump mass"))


class InitialDatum:
    """Immutable bump sum with derived geometry and integral metadata."""

    def __init__(self, bumps: Sequence[SmoothBump], dimension: int,
                 hull: Optional[ConvexPolytope]) -> None:
        if not bumps:
            raise ValueError("datum needs at least one bump")
        if not any(b.amplitude > 0.0 for b in bumps):
            raise ValueError("datum needs at least one positive amplitude")
        for b in bumps:
            if len(b.center) != dimension:
                raise ValueError(
                    f"bump center {b.center} does not match dimension {dimension}")
        self.bumps: Tuple[SmoothBump, ...] = tuple(bumps)
        self.dimension = int(dimension)
        self.hull = hull

        centers = np.array([b.center for b in self.bumps], dtype=float)
        radii = np.array([b.radius for b in self.bumps])
        pair_span = (np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
                     + radii[:, None] + radii[None, :])
        self.diameter = float(pair_span.max())

        largest = int(np.argmax(radii))
        self.inradius = float(radii[largest])
        self.incenter = centers[largest].copy()

        self.bump_masses = np.array([b.mass(dimension) for b in self.bumps])
        self.mass = float(self.bump_masses.sum())
        # Each bump is radially symmetric, so its first moment sits at its center.
        self.centroid = (self.bump_masses @ centers) / self.mass

    def value(self, x: Union[Array, float]) -> Union[Array, float]:
        pts, single = _as_batch(x, self.dimension)
        out = np.zeros(pts.shape[0])
        for bump in self.bumps:
            out += bump.value(pts)
        return float(out[0]) if single else out

    def gradient(self, x: Union[Array, float]) -> Array:
        pts, single = _as_batch(x, self.dimension)
        out = np.zeros_like(pts)
        for bump in self.bumps:
            out += bump.gradient(pts)
        return out[0] if single else out

    def dir2(self, x: Union[Array, float], omega: Array) -> Union[Array, float]:
        pts, single = _as_batch(x, self.dimension)
        out = np.zeros(pts.shape[0])
        for bump in self.bumps:
            out += bump.dir2(pts, omega)
        return float(out[0]) if single else out

    def dir3(self, x: Union[Array, float], omega: Array,
             zeta: Array) -> Union[Array, float]:
        pts, single = _as_batch(x, self.dimension)
        out = np.zeros(pts.shape[0])
        for bump in self.bumps:
            out += bump.dir3(pts, omega, zeta)
        return float(out[0]) if single else out

    def hvp(self, x: Union[Array, float], vecs: Array) -> Array:
        pts, single = _as_batch(x, self.dimension)
        out = np.zeros_like(pts)
        for bump in self.bumps:
            out += bump.hvp(pts, vecs)
        return out[0] if single else out

    def hessian(self, x: Union[Array, float]) -> Array:
        pts, single = _as_batch(x, self.dimension)
        n = self.dimension
        out = np.zeros((pts.shape[0], n, n))
        for bump in self.bumps:
            out += bump.jet(pts, 2).hessian()
        return out[0] if single else out

    def sup_norm(self) -> float:
        return sobolev_sup_estimate(self, 0)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "bumps": [{"center": list(b.center), "radius": b.radius,
                       "amplitude": b.amplitude} for b in self.bumps],
        }


def make_datum(bumps: Sequence[SmoothBump], dimension: int) -> InitialDatum:
    """Build a datum; the hull is constructed for dimensions up to three."""
    hull = None
    if dimension in (1, 2, 3):
        centers = np.array([b.center for b in bumps], dtype=float)
        radii = [b.radius for b in bumps]
        hull = hull_of_balls(centers, radii, dimension)
    return InitialDatum(bumps, dimension, hull)


def load_datum(source: Union[str, Path, dict]) -> InitialDatum:
    """Datum from a JSON document {"dimension": n, "bumps": [...]}."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    else:
        spec = source
    try:
        dimension = int(spec["dimension"])
        raw_bumps = spec["bumps"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"datum document needs 'dimension' and 'bumps': {exc}") from exc
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {dimension}")
    if not isinstance(raw_bumps, list) or not raw_bumps:
        raise ValueError("'bumps' must be a non-empty list")
    bumps = []
    for i, raw in enumerate(raw_bumps):
        try:
            center = raw["center"]
            if np.isscalar(center):
                center = [center]
            center = tuple(float(v) for v in center)
            bumps.append(SmoothBump(center=center, radius=float(raw["radius"]),
                                    amplitude=float(raw["amplitude"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bump {i} is malformed: {exc}") from exc
        if len(center) != dimension:
            raise ValueError(f"bump {i} center has {len(center)} coordinates, "
                             f"expected {dimension}")
    return make_datum(bumps, dimension)


_PROFILE_GRID = 4001


@lru_cache(maxsize=None)
def _unit_profile_derivative_sups() -> Tuple[float, ...]:
    """Sup of |d^k/dr^k| of the unit bump profile p(r) = g(r^2) for k = 0..4,
    on a dense grid of r in [0, 1].

    Orders up to three are closed forms in g and its w-derivatives:
    p' = 2r g', p'' = 2g' + 4r^2 g'' and p''' = 12r g'' + 8r^3 g'''. The
    fourth is a central difference of the third, which is plenty for a
    diagnostic estimate.
    """
    r = np.linspace(0.0, 1.0, _PROFILE_GRID)
    g0, g1, g2, g3 = _UNIT_BUMP._g_table(1.0 - r * r, 3)
    third = 12.0 * r * g2 + 8.0 * r ** 3 * g3
    fourth = np.gradient(third, r[1] - r[0], edge_order=2)
    derivatives = (g0, 2.0 * r * g1, 2.0 * g1 + 4.0 * r * r * g2, third, fourth)
    return tuple(float(np.max(np.abs(d))) for d in derivatives)


def sobolev_sup_estimate(datum: InitialDatum, order: int) -> float:
    """Estimate of the W^{order,inf} norm; diagnostic only, not a certificate.

    Order zero is the exact peak for non-overlapping bumps; higher orders use
    radial-profile derivative sups scaled by amplitude / radius^k and carry a
    10 percent safety factor.
    """
    if order < 0 or order > 4:
        raise ValueError("derivative order must be between 0 and 4")
    sups = _unit_profile_derivative_sups()
    peak = max(b.amplitude for b in datum.bumps)
    if order == 0:
        return peak
    level = peak
    for k in range(1, order + 1):
        level = max(level, 1.1 * max(b.amplitude * sups[k] / b.radius**k
                                     for b in datum.bumps))
    return level
