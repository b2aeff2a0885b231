"""One measured process of the benchmark; ``run.py`` starts it.

Modes:

- ``run``: import dampedwave, build the workload's datum (the set-up), then
  call ``dampedwave.cli.run`` on the workload config, optionally traced.
- ``setup``: the set-up alone.
- ``layers``: the per-dimension layer rows (``make_datum`` first and warm
  calls, evaluator cost per point, ``gauss_legendre`` build time).

Each mode writes one JSON object to ``--result``. Set-up time is counted from
``--spawned``, the parent's ``time.monotonic()`` just before it started this
process, so interpreter start-up is included.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DATUM_1D = {"dimension": 1,
            "bumps": [{"center": [-0.5], "radius": 0.7, "amplitude": 1.0},
                      {"center": [0.9], "radius": 0.4, "amplitude": 0.6}]}
# (datum, t) per dimension for the layer rows: the bundled two-bump data in
# one and two dimensions and the single bump in three.
LAYER_DATA = {1: (DATUM_1D, 200.0), 2: (workloads.DATUM_2D, 400.0),
              3: (workloads.DATUM_3D, 200.0)}
LAYER_POINTS = {(1, 32): 16, (1, 64): 16, (2, 32): 8, (2, 64): 8,
                (3, 32): 4, (3, 64): 2}
GAUSS_ORDERS = (32, 64, 128, 256)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import dampedwave
    origin = Path(dampedwave.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"dampedwave imported from {origin}, not this checkout")
    return dampedwave


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    """User plus system CPU time of this process since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def mode_run(args) -> dict:
    config = workloads.config(args.workload, args.seed)
    dampedwave = _import_package()
    from dampedwave import cli
    datum_start = time.monotonic()
    dampedwave.load_datum(config["datum"])
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.spawned,
              "setup_cpu_s": _cpu_s(),
              "datum_s": setup_end - datum_start}
    run = cli.run
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.span("cli.run", "cli", "run", cli.run)
    cpu_start = _cpu_s()
    start = time.perf_counter()
    run(config, out_override=str(args.out))
    result["run_s"] = time.perf_counter() - start
    result["run_cpu_s"] = _cpu_s() - cpu_start
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
        tracer.write(args.out.parent / f"{args.out.name}.spans.jsonl")
        result["layers"] = tracing.summarize(tracer.spans)
        result["layers"]["trace.wrapper_s"] = (len(tracer.spans)
                                               * tracing.span_cost_s())
    return result


def mode_setup(args) -> dict:
    config = workloads.config(args.workload, args.seed)
    dampedwave = _import_package()
    dampedwave.load_datum(config["datum"])
    return {"setup_s": time.monotonic() - args.spawned,
            "setup_cpu_s": _cpu_s()}


def mode_layers(args) -> dict:
    import numpy as np
    _import_package()
    from dampedwave import SmoothBump, eval_dir2_u, eval_grad_u, eval_u, make_datum
    from dampedwave.quadrature import gauss_legendre

    n = args.dimension
    spec, t = LAYER_DATA[n]
    bumps = [SmoothBump(tuple(b["center"]), b["radius"], b["amplitude"])
             for b in spec["bumps"]]
    metrics = {}
    start = time.perf_counter()
    datum = make_datum(bumps, n)
    metrics[f"initial_data.make_datum_first_s.d{n}"] = time.perf_counter() - start
    metrics[f"initial_data.make_datum_warm_ms.d{n}"] = _median_ms(
        lambda: make_datum(bumps, n), 3)

    direction = np.ones(n) / np.sqrt(n)
    reach = np.sqrt((2.0 * n + 4.0) * t) + 2.0
    for order in (32, 64):
        count = LAYER_POINTS[(n, order)]
        points = [datum.centroid + reach * (j + 0.5) / count * direction
                  for j in range(count)]
        evaluators = {
            "u": lambda x: eval_u(datum, x, t, order=order),
            "grad": lambda x: eval_grad_u(datum, x, t, order=order),
            "dir2": lambda x: eval_dir2_u(datum, x, t, direction, order=order),
        }
        for kind, fn in evaluators.items():
            per_point = [_median_ms(lambda: fn(x), 1) for x in points]
            metrics[f"solution.{kind}_ms.d{n}.o{order}"] = statistics.median(
                per_point)
    if n == 1:
        build = gauss_legendre.__wrapped__
        for order in GAUSS_ORDERS:
            metrics[f"quadrature.gauss_legendre_ms.o{order}"] = _median_ms(
                lambda: build(order), 3)
    return {"layers": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup", "layers"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dimension", type=int)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    modes = {"run": mode_run, "setup": mode_setup, "layers": mode_layers}
    result = modes[args.mode](args)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
