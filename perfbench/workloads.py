"""Workload inputs: the CLI config each workload runs, made from a seed.

The data are copies of the bundled ``two_bump_2d`` and ``single_bump_3d``
datums, kept here so that an edit to ``configs/`` cannot change the
benchmark. The same seed always gives the same config.
"""

from __future__ import annotations

import random

DATUM_2D = {"dimension": 2,
            "bumps": [{"center": [0.0, 0.0], "radius": 1.0, "amplitude": 1.0},
                      {"center": [1.6, 0.9], "radius": 0.55, "amplitude": 0.8}]}
DATUM_3D = {"dimension": 3,
            "bumps": [{"center": [0.0, 0.0, 0.0], "radius": 1.0,
                       "amplitude": 1.0}]}

# grid-2d: GRID_POINTS x GRID_POINTS points around the centroid, shifted by
# (kx, ky) * cell / GRID_SHIFTS with kx, ky drawn from the seed. The union of
# all shifted grids is the lattice the reference file holds.
GRID_HALF_WIDTH = 12.0
GRID_POINTS = 17
GRID_SHIFTS = 4
GRID_TIMES = [10.0, 3200.0]

SPOTS_2D = {"t": 400.0, "directions": 4, "order": 64}
SPOTS_3D = {"t": 200.0, "directions": 2, "order": 32}

NAMES = ("grid-2d", "spots-2d", "spots-3d")


def centroid_2d() -> list:
    """Mass centroid of DATUM_2D; a bump's mass scales as amplitude * r**n."""
    masses = [b["amplitude"] * b["radius"] ** 2 for b in DATUM_2D["bumps"]]
    total = sum(masses)
    return [sum(m * b["center"][i] for m, b in zip(masses, DATUM_2D["bumps"]))
            / total for i in range(2)]


def grid_cell() -> float:
    return 2.0 * GRID_HALF_WIDTH / (GRID_POINTS - 1)


def grid_shift(seed: int) -> tuple:
    """Sub-cell shift indices (kx, ky), each in [0, GRID_SHIFTS)."""
    rng = random.Random(seed)
    return rng.randrange(GRID_SHIFTS), rng.randrange(GRID_SHIFTS)


def grid_center(kx: int, ky: int) -> list:
    cx, cy = centroid_2d()
    step = grid_cell() / GRID_SHIFTS
    return [cx + kx * step, cy + ky * step]


def config(name: str, seed: int) -> dict:
    """The CLI config of workload ``name`` for ``seed``."""
    if name == "grid-2d":
        return {"datum": DATUM_2D, "mode": "evaluate", "t": GRID_TIMES,
                "order": 64, "seed": seed,
                "grid": {"center": grid_center(*grid_shift(seed)),
                         "half_width": GRID_HALF_WIDTH,
                         "points": GRID_POINTS}}
    if name == "spots-2d":
        return {"datum": DATUM_2D, "mode": "spots", "seed": seed, **SPOTS_2D}
    if name == "spots-3d":
        return {"datum": DATUM_3D, "mode": "spots", "seed": seed, **SPOTS_3D}
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
