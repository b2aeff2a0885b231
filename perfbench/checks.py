"""Output checks behind ``fail_ratio``: each workload's artifacts against the
reference outputs recorded by ``record_reference.py``, and every repeat
byte for byte against the first repeat of the same run.

Tolerances, stated once:

- field values (u, principal, wave remainder): |a - b| <= FIELD_RTOL * |b|
  + FIELD_ATOL * scale, where scale is the largest magnitude on the
  reference lattice at that t. The order-64 quadrature error is about 1e-13
  relative in 2D, so this admits reordered sums and nothing more;
- ray roots: None exactly where the reference has None, else
  |a - b| <= ROOT_RTOL * |b|; bisection stops at a 1e-6 bracket, and the
  roots are 30 to 60, so this is twice the bracket width or more;
- cold value: |a - b| <= COLD_RTOL * |b|;
- best hot value: from HOT_BELOW below to HOT_ABOVE above the reference.
  The ascents stop on a budget short of the maximum, and a converged
  search was measured 5e-5 higher, so a better search is not a failure;
- every hot spot lies in the radius band of acceptance criterion 06:
  hull distance in [r_c - diameter - tol, r_c + tol], r_c = sqrt((2n+4)t);
- certificate pass flags equal the reference flags exactly.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import List, Tuple

import numpy as np

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"
FIELD_RTOL = 1e-8
FIELD_ATOL = 1e-10
ROOT_RTOL = 1e-7
COLD_RTOL = 1e-7
HOT_BELOW = 1e-8
HOT_ABOVE = 1e-3

Check = Tuple[str, bool]


def t_tag(t: float) -> str:
    return repr(float(t))


def artifact_names(name: str) -> List[str]:
    if name == "grid-2d":
        return [f"field_t{t_tag(t)}.csv" for t in workloads.GRID_TIMES]
    spec = workloads.SPOTS_2D if name == "spots-2d" else workloads.SPOTS_3D
    return [f"spots_t{t_tag(spec['t'])}.json"]


def _read_field(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(v) for v in row] for row in rows[2:]])


def check_grid(out: Path, seed: int) -> List[Check]:
    ref = np.load(REFERENCE / "grid-2d.npz")
    kx, ky = workloads.grid_shift(seed)
    points = workloads.GRID_POINTS
    checks: List[Check] = []
    for ti, t in enumerate(workloads.GRID_TIMES):
        name = f"field_t{t_tag(t)}.csv"
        path = out / name
        table = _read_field(path) if path.exists() else np.zeros((0, 5))
        ok = table.shape == (points * points, 5)
        checks.append((f"{name} shape", ok))
        if not ok:
            continue
        want_x = np.repeat(ref["axes_x"][kx], points)
        want_y = np.tile(ref["axes_y"][ky], points)
        checks.append((f"{name} grid points",
                       bool(np.allclose(table[:, 0], want_x, rtol=0, atol=1e-12)
                            and np.allclose(table[:, 1], want_y, rtol=0,
                                            atol=1e-12))))
        want = ref["values"][ti][kx, :, ky, :, :].reshape(-1, 3)
        scale = float(np.abs(ref["values"][ti]).max())
        gap = np.abs(table[:, 2:] - want)
        ok_cells = gap <= FIELD_RTOL * np.abs(want) + FIELD_ATOL * scale
        for col, label in enumerate(("u", "principal", "wave_remainder")):
            for row in np.nonzero(~ok_cells[:, col])[0]:
                checks.append((f"{name} row {row} {label}: {table[row, 2 + col]!r}"
                               f" vs {want[row, col]!r}", False))
        checks.extend([(f"{name} field value", True)] * int(ok_cells.sum()))
    return checks


def _close(a, b, rtol: float) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * abs(b)


def check_spots(out: Path, name: str) -> List[Check]:
    ref = json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))
    artifact = artifact_names(name)[0]
    path = out / artifact
    if not path.exists():
        return [(f"{artifact} written", False)]
    got = json.loads(path.read_text(encoding="utf-8"))
    checks: List[Check] = [(f"{artifact} written", True)]

    checks.append(("ray count", len(got["rays"]) == len(ref["rays"])))
    for i, (ray, want) in enumerate(zip(got["rays"], ref["rays"])):
        for key in ("rho_null", "rho_crit"):
            a, b = ray[key], want[key]
            ok = (a is None) == (b is None) and (b is None or _close(a, b, ROOT_RTOL))
            checks.append((f"ray {i} {key}: {a!r} vs {b!r}", ok))

    cold = got["cold_spot"]["value"] if got["cold_spot"] else None
    checks.append((f"cold value {cold!r} vs {ref['cold_value']!r}",
                   _close(cold, ref["cold_value"], COLD_RTOL)))

    values = [spot["value"] for spot in got["hot_spots"]]
    best = max(values) if values else -math.inf
    want = ref["hot_best"]
    checks.append((f"best hot value {best!r} vs {want!r}",
                   want - HOT_BELOW * abs(want) <= best
                   <= want + HOT_ABOVE * abs(want)))
    lo, hi = ref["hot_band"]
    for i, spot in enumerate(got["hot_spots"]):
        dist = hull_distance(name, spot["point"])
        checks.append((f"hot spot {i} hull distance {dist!r} in [{lo}, {hi}]",
                       lo <= dist <= hi))

    for key, passed in ref["certificates"].items():
        flag = got["certificates"].get(key, {}).get("passed")
        checks.append((f"certificate {key} passed={flag} vs {passed}",
                       flag is passed))
    return checks


@lru_cache(maxsize=None)
def _hull(name: str):
    from dampedwave import load_datum
    return load_datum(workloads.config(name, 0)["datum"]).hull


def hull_distance(name: str, point) -> float:
    """Distance from the workload datum's support hull, as criterion 06 takes it."""
    return float(_hull(name).distance(np.asarray(point, dtype=float))[0])


def check_outputs(name: str, out: Path, seed: int) -> List[Check]:
    if name == "grid-2d":
        return check_grid(out, seed)
    return check_spots(out, name)


def check_same_bytes(name: str, first: Path, other: Path) -> List[Check]:
    checks = []
    for artifact in artifact_names(name):
        a, b = first / artifact, other / artifact
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        checks.append((f"{other.name}/{artifact} identical to {first.name}", same))
    return checks
