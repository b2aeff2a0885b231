"""Initial positions built as finite sums of radial mollifier bumps.

A bump of amplitude a, radius R at center c takes the value
a * exp(1 - R**2 / (R**2 - |y - c|**2)) inside its ball and 0 outside, so the
peak value is exactly a and every derivative vanishes on the support boundary.
Each derivative through the third is a closed form in the offset y - c and
one table of the profile g(w), w = |y - c|**2, and its w-derivatives
(`SmoothBump._g_table`). The same table gives the bump mass (a
Gauss-Legendre rule in the radius with a doubling refinement check) and the
sups of the unit profile's radial derivatives.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import ConvexPolytope, _as_directions, _point_rows, _row_dots, hull_of_balls
from .quadrature import with_refinement

__all__ = [
    "SmoothBump",
    "InitialDatum",
    "make_datum",
    "load_datum",
    "unit_ball_mass",
]

Array = np.ndarray


@dataclass(frozen=True)
class SmoothBump:
    """One radial bump; center is stored as a tuple so the datum is hashable."""
    center: Tuple[float, ...]
    radius: float
    amplitude: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.center_array).all():
            raise ValueError(f"bump center must be finite, got {self.center}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"bump radius must be finite and positive, got {self.radius}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError("bump amplitude must be finite and non-negative, "
                             f"got {self.amplitude}")

    @property
    def center_array(self) -> Array:
        return np.asarray(self.center, dtype=float)

    def _shape(self, pts: Array) -> Tuple[Array, Array, bool]:
        """Offsets y - c at the points, the gap R^2 - |y - c|^2, and whether
        pts was one point."""
        rows, single = _point_rows(pts, len(self.center))
        offset = rows - self.center_array
        w = (offset * offset).sum(axis=1)
        return offset, self.radius * self.radius - w, single

    def _g_table(self, gap: Array, top: int, out: Optional[Array] = None) -> Array:
        """g, g', ... up to the `top`-th derivative in w of
        g(w) = a*e*exp(-R^2/(R^2 - w)), stacked to (top + 1,) + gap.shape,
        from the gap R^2 - w; into `out` of that shape, if given.

        The gap is clamped below at 1e-12 R^2, where the support ends.
        There exp(-R^2/gap) = exp(-1e12) is exactly 0, so every entry off
        the support is 0 (of either sign) with no mask, and 1/gap stays
        within the range it spans on the support.

        The caller's gap is left as it is. g and g' are formed inside their
        rows of the table, and 1/gap inside the clamped copy, which g's row
        holds when no derivative is asked for.
        """
        r2 = self.radius * self.radius
        if out is None:
            out = np.empty((top + 1,) + np.shape(gap))
        g = out[0]
        clamped = np.maximum(gap, 1e-12 * r2, out=g if top == 0 else None)
        np.divide(-r2, clamped, out=g)
        np.exp(g, out=g)
        g *= self.amplitude * np.e
        if top >= 1:
            inv = np.divide(1.0, clamped, out=clamped)
            slope = np.negative(g, out=out[1])
            slope *= r2
            slope *= inv
            slope *= inv
        if top >= 2:
            out[2] = g * (r2 * r2 * inv**4 - 2.0 * r2 * inv**3)
        if top >= 3:
            out[3] = g * (-(r2**3) * inv**6 + 6.0 * r2 * r2 * inv**5
                          - 6.0 * r2 * inv**4)
        return out

    def value(self, pts: Array) -> Array:
        return self._g_table(self._shape(pts)[1], 0)[0]

    def gradient(self, pts: Array) -> Array:
        offset, gap, _ = self._shape(pts)
        return 2.0 * self._g_table(gap, 1)[1][:, None] * offset

    def dir2(self, pts: Array, omega: Array) -> Array:
        """(omega . grad)^2 of the bump along the direction omega."""
        offset, gap, single = self._shape(pts)
        _, g1, g2 = self._g_table(gap, 2)
        along = _row_dots(offset, _as_directions(omega, *offset.shape, single))
        return 2.0 * g1 + 4.0 * g2 * along * along

    def dir3(self, pts: Array, omega: Array, zeta: Array) -> Array:
        """Third derivative D^3 f[omega, omega, zeta], omega a direction."""
        offset, gap, single = self._shape(pts)
        _, _, g2, g3 = self._g_table(gap, 3)
        omega = _as_directions(omega, *offset.shape, single)
        zeta = _as_directions(zeta, *offset.shape, single, "zeta", unit=False)
        a_ze, a_om, om_ze = (_row_dots(offset, zeta), _row_dots(offset, omega),
                             _row_dots(omega, zeta))
        return (4.0 * g2 * a_ze + 8.0 * g3 * a_ze * a_om * a_om
                + 8.0 * g2 * om_ze * a_om)

    def hvp(self, pts: Array, vecs: Array) -> Array:
        """Hessian-vector products H(y) v(y); vecs is (n,) or one row per point."""
        offset, gap, single = self._shape(pts)
        _, g1, g2 = self._g_table(gap, 2)
        v = _as_directions(vecs, *offset.shape, single, "vecs", unit=False)
        along = _row_dots(offset, v)
        return 2.0 * g1[:, None] * v + 4.0 * (g2 * along)[:, None] * offset

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

    def _bump_sum(self, x: Union[Array, float], method: Callable[..., Array],
                  *args: Array) -> Union[Array, float]:
        """Sum over the bumps of one `SmoothBump` method, at one point or at
        each row of an (m, n) block; one point gives a float or an (n,) row.
        Each bump reads x itself, so it knows one point from a block of one."""
        single = _point_rows(x, self.dimension)[1]
        out = sum(method(bump, x, *args) for bump in self.bumps)
        if not single:
            return out
        return float(out[0]) if out.ndim == 1 else out[0]

    def value(self, x: Union[Array, float]) -> Union[Array, float]:
        return self._bump_sum(x, SmoothBump.value)

    def gradient(self, x: Union[Array, float]) -> Array:
        return self._bump_sum(x, SmoothBump.gradient)

    def dir2(self, x: Union[Array, float], omega: Array) -> Union[Array, float]:
        return self._bump_sum(x, SmoothBump.dir2, omega)

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


def _bump_number(value, field: str) -> float:
    """A bump field as a float. A bool, a string and null are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"bump {field} must be a number, got {value!r}")
    return float(value)


def load_datum(source: Union[str, Path, dict]) -> InitialDatum:
    """Datum from a JSON document {"dimension": n, "bumps": [...]}.

    The dimension is 1, 2 or 3, and each centre coordinate, radius and
    amplitude a number: a bool or a string is refused, not converted. A
    centre is a list of numbers, or one number in 1D; null or an object is
    refused.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    else:
        spec = source
    try:
        dimension = spec["dimension"]
        raw_bumps = spec["bumps"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"datum document needs 'dimension' and 'bumps': {exc}") from exc
    if (isinstance(dimension, bool) or not isinstance(dimension, numbers.Real)
            or dimension not in (1, 2, 3)):
        raise ValueError(f"dimension must be 1, 2, or 3, got {dimension!r}")
    dimension = int(dimension)
    if not isinstance(raw_bumps, list) or not raw_bumps:
        raise ValueError("'bumps' must be a non-empty list")
    bumps = []
    for i, raw in enumerate(raw_bumps):
        try:
            center = raw["center"]
            coords = center if isinstance(center, (list, tuple)) else [center]
            center = tuple(_bump_number(v, "center") for v in coords)
            bumps.append(SmoothBump(center=center,
                                    radius=_bump_number(raw["radius"], "radius"),
                                    amplitude=_bump_number(raw["amplitude"], "amplitude")))
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
    fourth is a central difference of the third, about 1e-4 relative.
    """
    r = np.linspace(0.0, 1.0, _PROFILE_GRID)
    g0, g1, g2, g3 = _UNIT_BUMP._g_table(1.0 - r * r, 3)
    third = 12.0 * r * g2 + 8.0 * r ** 3 * g3
    fourth = np.gradient(third, r[1] - r[0], edge_order=2)
    derivatives = (g0, 2.0 * r * g1, 2.0 * g1 + 4.0 * r * r * g2, third, fourth)
    return tuple(float(np.max(np.abs(d))) for d in derivatives)
