"""Independent numerical solvers for the damped wave Cauchy problem.

Two schemes with disjoint error mechanisms cross-check the closed-form
evaluator: a second-order leapfrog finite-difference scheme on a padded
interval (dimension one), and an exact per-mode Fourier evolution on a torus
(dimensions one to three) whose only error is spatial sampling of f. The
per-mode response (`hankel.mode_response`) is the one the radial profiles
integrate, finite at every T.

Both integrate u_tt - Lap u + u_t = 0 from the initial state (f, -f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .geometry import _point_rows
from .hankel import mode_response
from .initial_data import InitialDatum

__all__ = ["OracleRun", "fd_solve_1d", "spectral_solve"]

Array = np.ndarray

@dataclass(frozen=True, eq=False)
class OracleRun:
    """One solver run: scheme label, grid axes, and the final-time snapshot."""
    scheme: str
    axes: Tuple[Array, ...]
    half_width: float
    dt: Optional[float]
    time: float
    snapshot: Array
    periodic: bool

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def interpolate(self, points: Union[Array, float]) -> Array:
        """Multilinear interpolation of the snapshot; grid nodes are exact.

        Periodic runs wrap around the torus; interval runs return the zero
        boundary value outside the domain.
        """
        pts = _point_rows(points, self.dimension)[0]
        m = pts.shape[0]
        out = np.zeros(m)
        idx_lo = np.zeros((m, self.dimension), dtype=int)
        frac = np.zeros((m, self.dimension))
        valid = np.ones(m, dtype=bool)
        sizes = []
        for d, ax in enumerate(self.axes):
            h = ax[1] - ax[0]
            rel = (pts[:, d] - ax[0]) / h
            if self.periodic:
                rel = np.mod(rel, ax.size)
            else:
                valid &= (rel >= 0.0) & (rel <= ax.size - 1)
                rel = np.clip(rel, 0.0, ax.size - 1)
            lo = np.floor(rel).astype(int)
            lo = np.minimum(lo, ax.size - 1)
            idx_lo[:, d] = lo
            frac[:, d] = rel - lo
            sizes.append(ax.size)
        for corner in range(1 << self.dimension):
            weight = np.ones(m)
            index = []
            for d in range(self.dimension):
                if corner >> d & 1:
                    weight = weight * frac[:, d]
                    hi = idx_lo[:, d] + 1
                    index.append(np.mod(hi, sizes[d]) if self.periodic
                                 else np.minimum(hi, sizes[d] - 1))
                else:
                    weight = weight * (1.0 - frac[:, d])
                    index.append(idx_lo[:, d])
            out += weight * self.snapshot[tuple(index)]
        out[~valid] = 0.0
        return out


def fd_solve_1d(datum: InitialDatum, T: float, dx: float = 1.0 / 512.0,
                cfl: float = 0.5, margin: float = 2.0) -> OracleRun:
    """Leapfrog scheme with the centered damping discretization.

    Time step update, with L the three-point Laplacian:
      (u+ - 2u + u-)/dt^2 + (u+ - u-)/(2 dt) = L u.
    The first step imposes the initial velocity -f through a Taylor step
    using the analytic f'' so the scheme stays second order throughout.
    """
    if datum.dimension != 1:
        raise ValueError("finite-difference oracle is one-dimensional")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T}")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    if not 0.0 < cfl <= 0.5:
        raise ValueError(f"cfl {cfl} violates dt <= 0.5 dx")

    support = max(abs(b.center[0]) + b.radius for b in datum.bumps)
    cells = int(math.ceil((support + T + margin) / dx))
    half_width = cells * dx
    x = -half_width + dx * np.arange(2 * cells + 1)

    steps = int(math.ceil(T / (cfl * dx)))
    dt = T / steps

    f = datum.value(x[:, None])
    fpp = datum.dir2(x[:, None], np.array([1.0]))
    prev = f.copy()
    curr = f - dt * f + 0.5 * dt * dt * (fpp + f)
    curr[0] = curr[-1] = 0.0

    lam = dt * dt / (dx * dx)
    gain = 1.0 / (1.0 + 0.5 * dt)
    lose = 1.0 - 0.5 * dt
    for _ in range(steps - 1):
        nxt = np.zeros_like(curr)
        nxt[1:-1] = gain * (lam * (curr[2:] - 2.0 * curr[1:-1] + curr[:-2])
                            + 2.0 * curr[1:-1] - lose * prev[1:-1])
        prev, curr = curr, nxt
    return OracleRun(scheme="finite-difference-1d", axes=(x,),
                     half_width=half_width, dt=dt, time=T, snapshot=curr,
                     periodic=False)


def spectral_solve(datum: InitialDatum, T: float, L: float,
                   modes: int, margin: float = 1.0) -> OracleRun:
    """Exact per-mode evolution of the sampled datum on the torus [-L, L)^n.

    Finite propagation speed keeps the free-space solution identical to the
    torus solution while the support, grown by T, stays strictly inside the
    fundamental cell; runs violating that are rejected rather than silently
    wrapped. No time discretization is involved.
    """
    n = datum.dimension
    if n not in (1, 2, 3):
        raise ValueError("spectral oracle supports dimensions one to three")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and non-negative, got {T}")
    if modes < 8:
        raise ValueError("mode count too small")

    h = 2.0 * L / modes
    center = np.round(datum.centroid / h) * h
    reach = max(float(np.linalg.norm(b.center_array - center)) + b.radius
                for b in datum.bumps)
    reach = max(reach, 0.5 * datum.diameter)
    if T > L - reach - margin:
        raise ValueError(
            f"wraparound: T={T} exceeds half-width {L} minus support radius "
            f"{reach:.6g} minus margin {margin}")

    axes = tuple(center[d] + (-L + h * np.arange(modes)) for d in range(n))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    f = datum.value(pts).reshape((modes,) * n)

    freqs = 2.0 * math.pi * np.fft.fftfreq(modes, d=h)
    k2 = np.zeros((modes,) * n)
    for d in range(n):
        shape = [1] * n
        shape[d] = modes
        k2 = k2 + (freqs**2).reshape(shape)
    evolved = np.fft.ifftn(np.fft.fftn(f) * mode_response(k2, T))
    return OracleRun(scheme="spectral-torus", axes=axes, half_width=L,
                     dt=None, time=T, snapshot=np.real(evolved),
                     periodic=True)
