"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the repository root on the commit whose outputs are the reference;
it rewrites ``perfbench/reference/``. grid-2d gets the field on the union of
all seed-shifted grids, evaluated point by point with ``eval_u``. The spot
workloads get the seed-independent parts of the report (ray roots, hot and
cold values) and the certificate flags, which must agree across
REFERENCE_SEEDS or recording stops.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads
from checks import REFERENCE, artifact_names

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEEDS = {"spots-2d": (0, 1, 2, 1000003), "spots-3d": (0, 1000003)}


def record_grid() -> None:
    from dampedwave import eval_u, load_datum
    datum = load_datum(workloads.DATUM_2D)
    half, points, shifts = (workloads.GRID_HALF_WIDTH, workloads.GRID_POINTS,
                            workloads.GRID_SHIFTS)
    # The same arithmetic as the CLI's grid: center + linspace(-half, half).
    centers = [workloads.grid_center(k, k) for k in range(shifts)]
    axes_x = np.array([float(c[0]) + np.linspace(-half, half, points)
                       for c in centers])
    axes_y = np.array([float(c[1]) + np.linspace(-half, half, points)
                       for c in centers])
    values = np.zeros((len(workloads.GRID_TIMES), shifts, points, shifts,
                       points, 3))
    for ti, t in enumerate(workloads.GRID_TIMES):
        for kx in range(shifts):
            for i in range(points):
                for ky in range(shifts):
                    for j in range(points):
                        x = np.array([axes_x[kx, i], axes_y[ky, j]])
                        s = eval_u(datum, x, t, order=64)
                        values[ti, kx, i, ky, j] = (s.value, s.principal,
                                                    s.wave_remainder)
    np.savez_compressed(REFERENCE / "grid-2d.npz", axes_x=axes_x,
                        axes_y=axes_y, values=values)


def record_spots(name: str) -> None:
    from dampedwave import cli, load_datum
    reports = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for seed in REFERENCE_SEEDS[name]:
            out = Path(tmp) / str(seed)
            cli.run(workloads.config(name, seed), out_override=str(out))
            artifact = out / artifact_names(name)[0]
            reports.append(json.loads(artifact.read_text(encoding="utf-8")))

    def summary(report):
        return {
            "rays": [{"rho_null": r["rho_null"], "rho_crit": r["rho_crit"]}
                     for r in report["rays"]],
            "cold_value": report["cold_spot"]["value"],
            "hot_best": max(s["value"] for s in report["hot_spots"]),
            "certificates": {k: v["passed"]
                             for k, v in report["certificates"].items()},
        }

    first = summary(reports[0])
    for seed, report in zip(REFERENCE_SEEDS[name][1:], reports[1:]):
        if summary(report) != first:
            sys.exit(f"{name}: seed {seed} changes the seed-independent "
                     "outputs or a certificate flag")
    datum = load_datum(workloads.config(name, 0)["datum"])
    n = datum.dimension
    t = reports[0]["t"]
    r_crit = math.sqrt((2.0 * n + 4.0) * t)
    tol = datum.hull.hull_tol
    first["hot_band"] = [r_crit - datum.diameter - tol, r_crit + tol]
    first["seeds"] = list(REFERENCE_SEEDS[name])
    (REFERENCE / f"{name}.json").write_text(
        json.dumps(first, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    REFERENCE.mkdir(exist_ok=True)
    record_grid()
    for name in ("spots-2d", "spots-3d"):
        record_spots(name)


if __name__ == "__main__":
    main()
