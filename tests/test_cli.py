import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dampedwave import cli
from dampedwave.cli import UNITS_NOTE, main
from dampedwave.features import FeatureConvergenceError

UNIT_DATUM = {"dimension": 1,
              "bumps": [{"center": [0.0], "radius": 1.0, "amplitude": 1.0}]}
TWO_2D_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "two_bump_2d.json"


def _write_config(path: Path, **overrides) -> Path:
    config = {"datum": UNIT_DATUM, "mode": "evaluate", "t": 5.0,
              "out": str(path / "out")}
    config.update(overrides)
    target = path / "config.json"
    target.write_text(json.dumps(config), encoding="utf-8")
    return target


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == UNITS_NOTE
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def test_help_exits_clean():
    assert main(["--help"]) == 0


def test_missing_config_flag():
    assert main([]) == 1


def test_config_file_absent(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == 1


def test_config_file_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(bad)]) == 1


def test_config_missing_datum(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"mode": "evaluate", "t": 1.0}), encoding="utf-8")
    assert main(["--config", str(bad)]) == 1


def test_config_bad_mode(tmp_path):
    cfg = _write_config(tmp_path, mode="explode")
    assert main(["--config", str(cfg)]) == 1


def test_config_bad_times(tmp_path):
    for times in (-1.0, [2.0, 1.0], []):
        cfg = _write_config(tmp_path, t=times)
        assert main(["--config", str(cfg)]) == 1
    cfg = _write_config(tmp_path)
    assert main(["--config", str(cfg), "--t", "1,abc"]) == 1


def test_config_non_finite_times(tmp_path):
    # JSON as Python reads it accepts NaN and Infinity.
    for times in (math.nan, [1.0, math.inf]):
        cfg = _write_config(tmp_path, t=times)
        assert main(["--config", str(cfg)]) == 1
    cfg = _write_config(tmp_path)
    assert main(["--config", str(cfg), "--t", "nan"]) == 1
    assert not (tmp_path / "out").exists()
    for t_min, t_max in ((1.0, math.inf), (-1.0, 8.0), (math.nan, 8.0)):
        cfg = _write_config(tmp_path, mode="sweep")
        config = json.loads(cfg.read_text(encoding="utf-8"))
        del config["t"]
        config.update({"t_min": t_min, "t_max": t_max, "factor": 2.0})
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1


def test_config_bad_sweep_factor(tmp_path):
    cfg = _write_config(tmp_path, mode="sweep")
    config = json.loads(cfg.read_text(encoding="utf-8"))
    del config["t"]
    config.update({"t_min": 1.0, "t_max": 8.0, "factor": 1.0})
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1


def test_evaluate_decomposition_survives_serialization(tmp_path):
    cfg = _write_config(tmp_path, grid={"half_width": 4.0, "points": 21})
    assert main(["--config", str(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "field_t5.0.csv")
    assert header == ["x1", "u", "principal", "wave_remainder"]
    assert len(rows) == 21
    for row in rows:
        u, principal, remainder = (float(v) for v in row[1:])
        # repr round-trips floats exactly, so the identity stays exact.
        assert u == principal + remainder


def test_evaluate_makes_one_call_per_time(tmp_path, monkeypatch):
    # The whole grid goes to eval_u as one block at each t.
    calls = []
    evaluate = cli.eval_u

    def counted(datum, x, t, **kwargs):
        calls.append((len(x), t))
        return evaluate(datum, x, t, **kwargs)

    monkeypatch.setattr(cli, "eval_u", counted)
    cfg = _write_config(tmp_path, t=[2.0, 5.0], grid={"half_width": 3.0, "points": 7})
    assert main(["--config", str(cfg)]) == 0
    assert calls == [(7, 2.0), (7, 5.0)]


def test_time_override_changes_artifacts(tmp_path):
    cfg = _write_config(tmp_path, grid={"half_width": 2.0, "points": 5})
    assert main(["--config", str(cfg), "--t", "3.0"]) == 0
    out = tmp_path / "out"
    assert (out / "field_t3.0.csv").exists()
    assert not (out / "field_t5.0.csv").exists()


def test_output_override(tmp_path):
    cfg = _write_config(tmp_path, grid={"half_width": 2.0, "points": 5})
    elsewhere = tmp_path / "elsewhere"
    assert main(["--config", str(cfg), "--out", str(elsewhere)]) == 0
    assert (elsewhere / "field_t5.0.csv").exists()


def test_null_mode_table(tmp_path):
    # The critical mode writes the same table, with its own radius: sqrt(6t)
    # in 1D, as the null radius is sqrt(2t).
    for mode, column, reference in (("null", "rho_null", 20.0),
                                    ("critical", "rho_crit", math.sqrt(1200.0))):
        cfg = _write_config(tmp_path, mode=mode, t=200.0)
        assert main(["--config", str(cfg)]) == 0
        header, rows = _read_csv(tmp_path / "out" / f"{mode}_t200.0.csv")
        assert header == ["xi1", "nu1", column, "reference_radius"]
        assert len(rows) == 2
        for row in rows:
            rho = float(row[2])
            ref = float(row[3])
            assert ref == reference
            assert abs(rho - ref) < 2.0


def test_certify_mode_reruns_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, mode="certify", t=50.0, order=32, seed=7)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "certify_t50.0.json").read_bytes()
    second = (tmp_path / "b" / "certify_t50.0.json").read_bytes()
    assert first == second
    payload = json.loads(first)
    assert payload["t"] == 50.0
    assert len(payload["certificates"]) == 11


def test_spots_mode_artifact(tmp_path):
    cfg = _write_config(tmp_path, mode="spots", t=100.0, order=32)
    assert main(["--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "spots_t100.0.json")
                         .read_text(encoding="utf-8"))
    assert payload["radius_null_reference"] == pytest.approx(math.sqrt(200.0))
    assert payload["cold_spot"] is not None
    assert len(payload["rays"]) == 2


def test_spots_nonconvergence_exit_code(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise FeatureConvergenceError("stuck")

    monkeypatch.setattr(cli, "build_spot_report", explode)
    cfg = _write_config(tmp_path, mode="spots", t=100.0)
    assert main(["--config", str(cfg)]) == 2


def test_oracle_compare_max_row(tmp_path):
    cfg = _write_config(tmp_path, mode="oracle-compare", t=5.0,
                        grid={"half_width": 6.5, "points": 41})
    assert main(["--config", str(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "oracle_compare.csv")
    assert header == ["x1", "u_exact", "u_oracle", "diff"]
    summary = rows[-1]
    assert summary[0] == "MAX"
    assert float(summary[3]) < 1e-3
    assert float(summary[1]) > 0.0


def test_sweep_artifact_columns(tmp_path):
    cfg = _write_config(tmp_path, mode="sweep", order=32)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["t"] = [50.0, 100.0]
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "sweep.csv")
    assert header[:6] == ["t", "rho_null", "rho_crit", "cold_centroid_gap",
                          "hot_value", "cold_value"]
    assert len(header) == 6 + 11
    assert len(rows) == 2
    assert {cell for row in rows for cell in row[6:]} <= {"0", "1"}


# What each checked config number must be, as its error message says.
MUST_BE = {"directions": "a positive integer", "order": "a positive integer",
           "points": "a positive integer", "modes": "a positive integer",
           "seed": "a non-negative integer", "ell": "a non-negative integer",
           "psi_coefficient": "a finite positive number", "L": "a finite positive number"}


@pytest.mark.parametrize("key, value", [("directions", 0), ("order", 0),
                                        ("directions", -2), ("directions", 2.7),
                                        ("order", "x"), ("psi_coefficient", "x"),
                                        ("psi_coefficient", 0), ("seed", 2.7),
                                        ("seed", -1)])
def test_bad_order_or_directions_is_a_config_error(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, mode="certify", t=50.0, **{key: value})
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {key} must be {MUST_BE[key]}, got {value!r}\n"


# Values that each section entry refuses: L = 2.7 and ell = 0 are valid.
SECTION_BAD = {"points": (2.7, 0, "x"), "modes": (2.7, 0, "x"), "L": (0, "x"),
               "ell": (2.7, -1)}


@pytest.mark.parametrize("mode, section, key, value", [
    (mode, section, key, value)
    for mode, section, key in [("evaluate", "grid", "points"),
                               ("oracle-compare", "grid", "points"),
                               ("oracle-compare", "oracle", "modes"),
                               ("oracle-compare", "oracle", "L"),
                               ("asymptotics", "asymptotics", "ell")]
    for value in SECTION_BAD[key]])
def test_bad_grid_points_or_modes_is_a_config_error(tmp_path, capsys, mode, section,
                                                    key, value):
    datum = json.loads(TWO_2D_CONFIG.read_text(encoding="utf-8"))["datum"]
    cfg = _write_config(tmp_path, datum=datum, mode=mode, **{section: {key: value}})
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {key} must be {MUST_BE[key]}, got {value!r}\n"


def test_grid_of_one_point_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, grid={"points": 1})
    assert main(["--config", str(cfg)]) == 1
    assert "points >= 2" in capsys.readouterr().err


TWO_2D_DATUM = json.loads(TWO_2D_CONFIG.read_text(encoding="utf-8"))["datum"]

# Null, mistyped and out-of-range fields, each with the datum and mode it
# is read in and the one-line error it must give; 1e309 is past the float
# range, and JSON reads it as inf.
NULL_FIELDS = [
    (TWO_2D_DATUM, "evaluate", {"t": None},
     "t must be a finite positive number, got None"),
    (TWO_2D_DATUM, "evaluate", {"t": [10.0, None]},
     "t must be a finite positive number, got None"),
    (TWO_2D_DATUM, "evaluate", {"t": "10"},
     "t must be a finite positive number, got '10'"),
    (TWO_2D_DATUM, "evaluate", {"grid": {"half_width": None}},
     "half_width must be a finite positive number, got None"),
    (TWO_2D_DATUM, "evaluate", {"grid": {"half_width": "1e309"}},
     "half_width must be a finite positive number, got inf"),
    (TWO_2D_DATUM, "evaluate", {"grid": {"center": [0.0, None]}},
     "center must be a finite number, got None"),
    (TWO_2D_DATUM, "evaluate", {"grid": {"center": None}},
     "grid center needs 2 coordinates, got [None]"),
    (TWO_2D_DATUM, "evaluate", {"grid": None}, "grid must be an object, got None"),
    (TWO_2D_DATUM, "evaluate", {"grid": {"points": None}},
     "points must be a positive integer, got None"),
    (TWO_2D_DATUM, "evaluate", {"order": None},
     "order must be a positive integer, got None"),
    (TWO_2D_DATUM, "oracle-compare", {"grid": {"half_width": None}},
     "half_width must be a finite positive number, got None"),
    (TWO_2D_DATUM, "oracle-compare", {"grid": {"half_width": "1e309"}},
     "half_width must be a finite positive number, got inf"),
    (UNIT_DATUM, "oracle-compare", {"oracle": {"dx": None}},
     "dx must be a finite positive number, got None"),
    (UNIT_DATUM, "oracle-compare", {"oracle": {"cfl": "0.5"}},
     "cfl must be a finite positive number, got '0.5'"),
    (UNIT_DATUM, "oracle-compare", {"t": [1.0, 2.0]},
     "oracle-compare runs at one t, got [1.0, 2.0]"),
    (UNIT_DATUM, "asymptotics", {"asymptotics": {"r": None}},
     "r must be a finite number, got None"),
    (UNIT_DATUM, "asymptotics", {"asymptotics": {"regime": "sqrt", "r_over_sqrt_t": None}},
     "r_over_sqrt_t must be a finite number, got None"),
    (UNIT_DATUM, "evaluate", {"datum": {**UNIT_DATUM, "dimension": 2.7}},
     "bad datum: dimension must be 1, 2, or 3, got 2.7"),
    (UNIT_DATUM, "evaluate",
     {"datum": {"dimension": 1, "bumps": [{"center": [0.0], "radius": "0.7", "amplitude": 1}]}},
     "bad datum: bump 0 is malformed: bump radius must be a number, got '0.7'"),
    (UNIT_DATUM, "evaluate",
     {"datum": {"dimension": 1, "bumps": [{"center": None, "radius": 0.7, "amplitude": 1}]}},
     "bad datum: bump 0 is malformed: bump center must be a number, got None"),
    (UNIT_DATUM, "asymptotics", {"asymptotics": {"parity": None}},
     "parity must be a string, got None"),
    (UNIT_DATUM, "asymptotics", {"asymptotics": {"parity": 1}},
     "parity must be a string, got 1"),
    (UNIT_DATUM, "asymptotics", {"asymptotics": {"regime": ["sqrt"]}},
     "regime must be a string, got ['sqrt']"),
    (UNIT_DATUM, "sweep", {"t_min": True, "t_max": 8.0},
     "t_min must be a finite positive number, got True"),
    (UNIT_DATUM, "sweep", {"t_min": 1.0, "t_max": None},
     "t_max must be a finite positive number, got None"),
    (UNIT_DATUM, "sweep", {"t_min": 1.0, "t_max": 8.0, "factor": "2"},
     "factor must be a finite positive number, got '2'"),
    (UNIT_DATUM, "evaluate", {"out": 5}, "out must be a string, got 5"),
    (UNIT_DATUM, "evaluate", {"datum": "nope.json"},
     "bad datum: [Errno 2] No such file or directory: 'nope.json'"),
    # The leading order of even ell = 0 is exactly 0, and so is the sqrt
    # expansion at r = 0.
    (UNIT_DATUM, "asymptotics", {"asymptotics": {"parity": "even", "ell": 0}},
     "the expansion is exactly 0 at t = 10.0, so it has no ratio"),
    (UNIT_DATUM, "asymptotics",
     {"asymptotics": {"parity": "even", "ell": 0, "regime": "sqrt", "r_over_sqrt_t": 0.0}},
     "the expansion is exactly 0 at t = 10.0, so it has no ratio"),
]


@pytest.mark.parametrize("datum, mode, fields, message", NULL_FIELDS,
                         ids=[f"{mode}-{json.dumps(fields)}" for _, mode, fields, _ in NULL_FIELDS])
def test_null_or_non_numeric_field_is_a_config_error(tmp_path, capsys, datum, mode, fields,
                                                      message):
    # A geometric time grid (t_min, t_max, factor) is read only without t.
    config = {"datum": datum, "mode": mode, "out": str(tmp_path / "out"),
              **({} if "t_min" in fields else {"t": 10.0}), **fields}
    cfg = tmp_path / "config.json"
    # The literal 1e309, as a config file would hold it.
    cfg.write_text(json.dumps(config).replace('"1e309"', "1e309"), encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", str(cfg), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == ("config error: seed must be a non-negative "
                                       "integer, got -1\n")
    assert not (tmp_path / "out").exists()


def test_order_past_the_rule_bound_is_a_config_error(tmp_path, capsys, monkeypatch):
    # Refused before leggauss builds its order x order companion matrix.
    real = np.polynomial.legendre.leggauss

    def leggauss(order):
        assert order <= 4096, f"leggauss({order}) was called"
        return real(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    cfg = _write_config(tmp_path, order=10**6)
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == ("config error: quadrature order must be at most "
                                       "4096, got 1000000\n")


def test_asymptotics_mode(tmp_path):
    cfg = _write_config(tmp_path, mode="asymptotics",
                        t=[1e3, 1e4],
                        asymptotics={"parity": "odd", "ell": 1, "r": 1.0,
                                     "regime": "leading"})
    assert main(["--config", str(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "asymptotics.csv")
    assert header == ["t", "exact", "expansion", "ratio"]
    ratios = [float(row[3]) for row in rows]
    assert abs(ratios[-1] - 1.0) < 0.1
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_asymptotics_bad_regime(tmp_path):
    cfg = _write_config(tmp_path, mode="asymptotics", t=10.0,
                        asymptotics={"regime": "wild"})
    assert main(["--config", str(cfg)]) == 1


def test_2d_runs_load_no_scipy(tmp_path):
    # The 2D hull and the even kernels are the package's own, so importing
    # it, building a 2D datum and running the evaluate and spots modes on it
    # load no SciPy module (scipy.stats alone costs about a second of
    # start-up). A 3D datum's qhull hull loads scipy.spatial, and with it
    # scipy.special, at set-up.
    import dampedwave
    src = str(Path(dampedwave.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"""
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import dampedwave
from dampedwave import cli, load_datum
print(scipy_modules())
config = json.load(open({str(TWO_2D_CONFIG)!r}, encoding="utf-8"))
load_datum(config["datum"])
print(scipy_modules())
cli.run({{**config, "mode": "evaluate", "t": [10.0, 3200.0], "order": 16,
          "grid": {{"half_width": 3.0, "points": 3}}}}, out_override={str(tmp_path / "eval")!r})
cli.run({{**config, "mode": "spots", "t": 50.0, "order": 16, "directions": 4}},
        out_override={str(tmp_path / "spots")!r})
print(scipy_modules())
load_datum({{"dimension": 3, "bumps": [{{"center": [0, 0, 0], "radius": 1, "amplitude": 1}}]}})
print("scipy.special" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split("\n")[:4] == ["[]", "[]", "[]", "True"]
    assert (tmp_path / "eval" / "field_t3200.0.csv").exists()
    assert (tmp_path / "spots" / "spots_t50.0.json").exists()
