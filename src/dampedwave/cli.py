"""Command line front end: configured experiments emitting CSV and JSON.

A single JSON config names the datum, the mode, the time grid, and the
resolution knobs; flags can override the mode, time list, output directory,
and seed. Outputs are plain CSV for grids and curves and JSON for structured
reports, all written sequentially from one thread, formatted so identical
config and seed give byte-identical files.

Exit codes: 0 on success (certificate failures are results, not errors),
1 on configuration problems, 2 on numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .features import (DIRECTION_COUNTS, FeatureConvergenceError,
                       PROPOSITIONS, _critical_shell_radius, _null_shell_radius,
                       build_spot_report, certify_signs, default_psi,
                       find_critical_radius, trace_null_radius)
from .geometry import sample_normal_bundle
from .initial_data import InitialDatum, load_datum
from .kernels import (kernel_ktilde_scaled, ktilde_expansion_sqrt,
                      ktilde_leading_order)
from .oracles import fd_solve_1d, spectral_solve
from .quadrature import QuadratureConvergenceError
from .solution import DEFAULT_ORDER, eval_u

MODES = ("evaluate", "null", "critical", "spots", "certify", "sweep",
         "oracle-compare", "asymptotics")
UNITS_NOTE = "# all quantities in natural PDE units (dimensionless)"
GRID_POINTS_DEFAULT = {1: 201, 2: 41, 3: 11}


class ConfigError(ValueError):
    """The configuration document or flags are invalid."""


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "nan"
    return repr(float(value))


def _jsonable(obj):
    """JSON-safe copy: non-finite floats become their repr strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else repr(val)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_csv(path: Path, header: Sequence[str],
               rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(UNITS_NOTE + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                             for cell in row])


def _write_json(path: Path, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(_jsonable(payload), handle, sort_keys=True, indent=2)
        handle.write("\n")


def _time_list(config: Dict, override: Optional[List[float]]) -> List[float]:
    if override is not None:
        ts = list(override)
    elif "t" in config:
        raw = config["t"]
        ts = [_number(v, "t", positive=True)
              for v in (raw if isinstance(raw, list) else [raw])]
    elif "t_min" in config:
        if "t_max" not in config:
            raise ConfigError("geometric time grid needs t_min, t_max, factor")
        # Finite and positive, or the loop below would never end.
        t_min = _number(config["t_min"], "t_min", positive=True)
        t_max = _number(config["t_max"], "t_max", positive=True)
        factor = _positive_number(config, "factor", 2.0)
        if factor <= 1.0:
            raise ConfigError(f"factor must exceed 1, got {factor}")
        ts = []
        t = t_min
        while t <= t_max * (1.0 + 1e-12):
            ts.append(t)
            t *= factor
    else:
        raise ConfigError("config needs 't' or a (t_min, t_max, factor) grid")
    if not ts:
        raise ConfigError("time grid is empty")
    if not all(math.isfinite(t) and t > 0.0 for t in ts):
        raise ConfigError(f"times must be finite and positive, got {ts}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError(f"times must be increasing, got {ts}")
    return ts


def _integer(config: Dict, key: str, default: Optional[int],
             least: int = 1) -> Optional[int]:
    """config[key] as an integer of at least `least` (1 or 0), or the
    default when it is absent; null is not an integer."""
    if key not in config:
        return default
    value = config[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < least):
        sign = "positive" if least == 1 else "non-negative"
        raise ConfigError(f"{key} must be a {sign} integer, got {value!r}")
    return int(value)


def _number(value, key: str, positive: bool = False) -> float:
    """value as a finite float, and positive if asked. A bool, a string,
    null and a number past the float range (JSON's 1e309 reads as inf) are
    config errors."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max
            or (positive and value <= 0)):
        what = "a finite positive number" if positive else "a finite number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return float(value)


def _positive_number(config: Dict, key: str,
                     default: Optional[float]) -> Optional[float]:
    """config[key] as a finite positive float, or the default when it is
    absent; null is not a number."""
    return _number(config[key], key, positive=True) if key in config else default


def _string(config: Dict, key: str, default: str) -> str:
    """config[key] as a string, or the default when it is absent; null is not
    a string."""
    value = config.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _section(config: Dict, key: str) -> Dict:
    """The sub-object config[key], or an empty one when it is absent."""
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def _t_tag(t: float) -> str:
    return repr(float(t))


def _grid_axes(datum: InitialDatum, config: Dict) -> List[np.ndarray]:
    grid = _section(config, "grid")
    n = datum.dimension
    center = grid.get("center", [float(v) for v in datum.centroid])
    if not isinstance(center, list):
        center = [center]
    if len(center) != n:
        raise ConfigError(f"grid center needs {n} coordinates, got {center!r}")
    center = [_number(c, "center") for c in center]
    half = _positive_number(grid, "half_width", datum.diameter / 2.0 + 2.0)
    points = _integer(grid, "points", GRID_POINTS_DEFAULT[n])
    if points < 2:
        raise ConfigError("grid needs points >= 2")
    return [c + np.linspace(-half, half, points) for c in center]


def _mode_evaluate(datum: InitialDatum, config: Dict, out: Path, seed: int,
                   ts: List[float]) -> None:
    axes = _grid_axes(datum, config)
    order = _integer(config, "order", DEFAULT_ORDER)
    n = datum.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    header = [f"x{i + 1}" for i in range(n)] + ["u", "principal",
                                                "wave_remainder"]
    for t in ts:
        sample = eval_u(datum, points, t, order=order)
        rows = [list(x) + [value, principal, wave] for x, value, principal, wave
                in zip(points, sample.value, sample.principal, sample.wave_remainder)]
        _write_csv(out / f"field_t{_t_tag(t)}.csv", header, rows)


def _ray_table(kind: str, datum: InitialDatum, config: Dict, out: Path, seed: int,
               ts: List[float]) -> None:
    """The null or critical radius along each ray of the normal bundle."""
    order = _integer(config, "order", DEFAULT_ORDER)
    n = datum.dimension
    rays = sample_normal_bundle(
        datum.hull, _integer(config, "directions", DIRECTION_COUNTS[n]))
    finder = trace_null_radius if kind == "null" else find_critical_radius
    shell_radius = _null_shell_radius if kind == "null" else _critical_shell_radius
    radius_col = "rho_null" if kind == "null" else "rho_crit"
    header = ([f"xi{i + 1}" for i in range(n)]
              + [f"nu{i + 1}" for i in range(n)]
              + [radius_col, "reference_radius"])
    for t in ts:
        ref = shell_radius(n, t)
        rows = []
        for point in rays:
            rho = finder(datum, t, point, order=order)
            rows.append(list(point.xi) + list(point.nu) + [rho, ref])
        _write_csv(out / f"{kind}_t{_t_tag(t)}.csv", header, rows)


def _feature_options(config: Dict, seed: int) -> Dict:
    """The options of the spot report and the certificates, read in this
    order: order, directions, psi_coefficient."""
    return {"order": _integer(config, "order", DEFAULT_ORDER),
            "direction_count": _integer(config, "directions", None),
            "psi_coefficient": _positive_number(config, "psi_coefficient", None),
            "seed": seed}


def _mode_spots(datum: InitialDatum, config: Dict, out: Path, seed: int,
                ts: List[float]) -> None:
    options = _feature_options(config, seed)
    for t in ts:
        report = build_spot_report(datum, t, **options)
        _write_json(out / f"spots_t{_t_tag(t)}.json", report.to_dict())


def _mode_certify(datum: InitialDatum, config: Dict, out: Path, seed: int,
                  ts: List[float]) -> None:
    options = _feature_options(config, seed)
    for t in ts:
        certs = certify_signs(datum, t, **options)
        payload = {
            "t": t,
            "psi": default_psi(datum.dimension, t, options["psi_coefficient"]),
            "certificates": {k: v.to_dict() for k, v in certs.items()},
        }
        _write_json(out / f"certify_t{_t_tag(t)}.json", payload)


def _mode_sweep(datum: InitialDatum, config: Dict, out: Path, seed: int,
                ts: List[float]) -> None:
    options = _feature_options(config, seed)
    header = (["t", "rho_null", "rho_crit", "cold_centroid_gap", "hot_value",
               "cold_value"] + [f"cert_{name}" for name in PROPOSITIONS])
    rows = []
    for t in ts:
        report = build_spot_report(datum, t, **options)
        nulls = [r["rho_null"] for r in report.rays if r["rho_null"] is not None]
        crits = [r["rho_crit"] for r in report.rays if r["rho_crit"] is not None]
        hot = max((v for _, v in report.hot_spots), default=float("nan"))
        cold = report.cold_spot[1] if report.cold_spot else float("nan")
        row = [t,
               float(np.mean(nulls)) if nulls else None,
               float(np.mean(crits)) if crits else None,
               report.centroid_gap, hot, cold]
        row += ["1" if report.certificates[name].passed else "0"
                for name in PROPOSITIONS]
        rows.append(row)
    _write_csv(out / "sweep.csv", header, rows)


def _mode_oracle_compare(datum: InitialDatum, config: Dict, out: Path,
                         seed: int, ts: List[float]) -> None:
    oracle_cfg = _section(config, "oracle")
    order = _integer(config, "order", DEFAULT_ORDER)
    if len(ts) > 1:
        raise ConfigError(f"oracle-compare runs at one t, got {ts}")
    t = ts[0]
    n = datum.dimension
    grid = _section(config, "grid")
    points = _integer(grid, "points", 101 if n == 1 else 41)
    if n == 1:
        dx = _positive_number(oracle_cfg, "dx", 1.0 / 512.0)
        cfl = _positive_number(oracle_cfg, "cfl", 0.5)
        run = fd_solve_1d(datum, t, dx=dx, cfl=cfl)
    else:
        L = _positive_number(oracle_cfg, "L", 64.0)
        modes = _integer(oracle_cfg, "modes", 1024 if n == 2 else 128)
        run = spectral_solve(datum, t, L, modes)
    support = datum.diameter / 2.0 + float(np.max(np.abs(datum.centroid)))
    default_half = min(_critical_shell_radius(n, t) + datum.diameter,
                       support + t)
    half = _positive_number(grid, "half_width", default_half)
    axes = [float(c) + np.linspace(-half, half, points)
            for c in datum.centroid]
    mesh = np.meshgrid(*axes, indexing="ij")
    probes = np.stack([m.ravel() for m in mesh], axis=1)
    exact = eval_u(datum, probes, t, order=order).value
    approx = run.interpolate(probes)
    diff = np.abs(exact - approx)
    header = [f"x{i + 1}" for i in range(n)] + ["u_exact", "u_oracle", "diff"]
    rows = [list(x) + [e, a, d]
            for x, e, a, d in zip(probes, exact, approx, diff)]
    # Final summary row: MAX in the coordinate columns, then the three maxima.
    rows.append(["MAX"] * n + [float(np.max(np.abs(exact))),
                               float(np.max(np.abs(approx))),
                               float(np.max(diff))])
    _write_csv(out / "oracle_compare.csv", header, rows)


def _ratio(exact: float, expansion: float, t: float) -> float:
    """exact / expansion; an expansion of exactly 0 (the leading order of
    even ell = 0) has no ratio."""
    if expansion == 0.0:
        raise ConfigError(f"the expansion is exactly 0 at t = {t}, so it has no ratio")
    return exact / expansion


def _mode_asymptotics(datum: InitialDatum, config: Dict, out: Path, seed: int,
                      ts: List[float]) -> None:
    a_cfg = _section(config, "asymptotics")
    parity = _string(a_cfg, "parity", "odd")
    ell = _integer(a_cfg, "ell", 0, least=0)
    regime = _string(a_cfg, "regime", "leading")
    rows = []
    if regime == "leading":
        r = _number(a_cfg.get("r", 1.0), "r")
        for t in ts:
            exact = kernel_ktilde_scaled(parity, ell, r, t)
            expansion = ktilde_leading_order(parity, ell, t)
            rows.append([t, exact, expansion, _ratio(exact, expansion, t)])
    elif regime == "sqrt":
        c = _number(a_cfg.get("r_over_sqrt_t", 1.0), "r_over_sqrt_t")
        for t in ts:
            r = c * math.sqrt(t)
            exact = kernel_ktilde_scaled(parity, ell, r, t)
            expansion = ktilde_expansion_sqrt(parity, ell, r, t)
            rows.append([t, exact, expansion, _ratio(exact, expansion, t)])
    else:
        raise ConfigError(f"asymptotics regime must be 'leading' or 'sqrt', "
                          f"got {regime!r}")
    _write_csv(out / "asymptotics.csv",
               ["t", "exact", "expansion", "ratio"], rows)


_HANDLERS = {
    "evaluate": _mode_evaluate,
    "null": partial(_ray_table, "null"),
    "critical": partial(_ray_table, "critical"),
    "spots": _mode_spots,
    "certify": _mode_certify,
    "sweep": _mode_sweep,
    "oracle-compare": _mode_oracle_compare,
    "asymptotics": _mode_asymptotics,
}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="dampedwave",
        description="Damped wave field experiments: evaluation grids, "
                    "feature searches, certificates, oracle comparisons.")
    parser.add_argument("--config", required=True,
                        help="path to the experiment config JSON")
    parser.add_argument("--mode", choices=MODES,
                        help="override the config's mode")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--t", help="override times, comma separated")
    return parser.parse_args(argv)


def run(config: Dict, mode_override: Optional[str] = None,
        out_override: Optional[str] = None, seed_override: Optional[int] = None,
        t_override: Optional[List[float]] = None) -> None:
    """Execute one configured experiment, writing its artifact files."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if "datum" not in config:
        raise ConfigError("config needs a 'datum' entry")
    try:
        datum = load_datum(config["datum"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad datum: {exc}") from exc
    mode = mode_override or config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    ts = _time_list(config, t_override)
    seed = _integer(config if seed_override is None else {"seed": seed_override},
                    "seed", 0, least=0)
    out = Path(out_override or _string(config, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    _HANDLERS[mode](datum, config, out, seed, ts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    t_override = None
    if args.t is not None:
        try:
            t_override = [float(v) for v in args.t.split(",") if v.strip()]
        except ValueError as exc:
            print(f"config error: bad --t list: {exc}", file=sys.stderr)
            return 1
    try:
        run(config, mode_override=args.mode, out_override=args.out,
            seed_override=args.seed, t_override=t_override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureConvergenceError, FeatureConvergenceError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
