"""Spans around the calls into each dampedwave layer, recorded from outside.

Modules import their collaborators by name (``from .solution import
eval_u``), so a boundary is patched where it is looked up: the name in the
calling module (``features.eval_u``), or the method on the class for bump and
hull methods. Spans live in memory as (name, layer, kind, start, end, parent,
work) and are written out once, after the run.

A layer's self time is the time of its spans minus the time of their child
spans, so the self times of all layers add up to the root span exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "initial_data", "geometry", "quadrature", "kernels",
          "solution", "features")
STAGES = ("null", "critical", "hot", "cold", "certify")
EVAL_KINDS = ("u", "grad", "dir2")


def _rows(result, *_):
    return int(result[0].shape[0])


def _kernel_nodes(result, args, kwargs):
    r = args[2] if len(args) > 2 else kwargs["r"]
    return int(getattr(r, "size", 1))


def _points(result, args, kwargs):
    return int(args[1].shape[0])


def _root(result, *_):
    return int(result is not None)


def _kept(result, args, kwargs):
    directions = args[2] if len(args) > 2 else kwargs["directions"]
    return len(result), len(directions)


# Span kinds and work counters by function name; every other patched name
# gets kind "" and no work count.
KINDS = {"eval_u": "u", "eval_grad_u": "grad", "eval_dir2_u": "dir2",
         "trace_null_radius": "null", "find_critical_radius": "critical",
         "find_hot_spots": "hot", "find_cold_spot": "cold",
         "certify_signs": "certify", "make_datum": "make_datum",
         "clipped_ball_nodes": "nodes", "sphere_cap_nodes": "nodes",
         "with_refinement": "refine"}
WORK = {"kernel_ktilde_scaled": _kernel_nodes, "clipped_ball_nodes": _rows,
        "sphere_cap_nodes": _rows, "trace_null_radius": _root,
        "find_critical_radius": _root, "find_hot_spots": _kept}


def _boundaries():
    """(owner, attribute, layer, kind, work) for every patched name.

    In each layer module, every function imported from another layer module
    is patched under the layer it comes from. Added to those: the feature
    stages that ``build_spot_report`` calls inside ``features``,
    ``make_datum`` (called by ``load_datum``), ``quadrature.interval_nodes``
    (``unit_ball_mass`` imports it at call time), and the bump, datum and
    hull methods.
    """
    modules = {layer: importlib.import_module(f"dampedwave.{layer}")
               for layer in LAYERS}
    out = []
    for module in modules.values():
        for attr, value in vars(module).items():
            origin = getattr(value, "__module__", "") or ""
            layer = origin.rpartition(".")[2]
            if (callable(value) and not inspect.isclass(value)
                    and origin.startswith("dampedwave.") and layer in modules
                    and origin != module.__name__):
                out.append((module, attr, layer, KINDS.get(attr, ""),
                            WORK.get(attr)))
    inner = {"features": ("trace_null_radius", "find_critical_radius",
                          "find_hot_spots", "find_cold_spot", "certify_signs"),
             "initial_data": ("make_datum",),
             "quadrature": ("interval_nodes",)}
    for layer, attrs in inner.items():
        for attr in attrs:
            out.append((modules[layer], attr, layer, KINDS.get(attr, ""),
                        WORK.get(attr)))
    bump = modules["initial_data"].SmoothBump
    for method in ("value", "gradient", "dir2", "dir3", "hvp"):
        out.append((bump, method, "initial_data", "bump", _points))
    for method in ("value", "gradient", "dir2"):
        out.append((modules["initial_data"].InitialDatum, method,
                    "initial_data", "", None))
    for method in ("contains", "distance"):
        out.append((modules["geometry"].ConvexPolytope, method, "geometry",
                    "", None))
    return out


class Tracer:
    """Records one span per patched call; ``install`` patches, ``restore`` undoes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def span(self, name: str, layer: str, kind: str, fn: Callable,
             work: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, layer, kind, 0.0, 0.0,
                      stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if work is not None:
                record[6] = work(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, layer, kind, work in _boundaries():
            original = owner.__dict__[attr]
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, attr, self.span(name, layer, kind, original, work))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, layer, kind, start, end, parent, work) in \
                    enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name,
                                         "layer": layer, "kind": kind,
                                         "start": start, "end": end,
                                         "parent": parent, "work": work})
                             + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Time one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer().span("noop", "cli", "", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def tail_percentile(values: List[float]) -> tuple:
    """Median, plus the highest of p90/p99/p99.9 with at least ten samples
    beyond it (0 for the percentile when there are too few samples)."""
    if not values:
        return 0.0, 0.0, 0.0
    ordered = sorted(values)
    count = len(ordered)

    def at(q: float) -> float:
        return ordered[min(count - 1, int(math.ceil(q * count)) - 1)]

    tail_q = 0.0
    for q in (0.9, 0.99, 0.999):
        if count * (1.0 - q) >= 10.0:
            tail_q = q
    tail = at(tail_q) if tail_q else 0.0
    return at(0.5), tail, 100.0 * tail_q


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one traced run; the first span is the root."""
    count = len(spans)
    child_time = [0.0] * count
    stage = [""] * count
    in_eval = [False] * count
    for i, (_, layer, kind, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            stage[i] = stage[parent]
            in_eval[i] = in_eval[parent]
        if layer == "solution" and kind in EVAL_KINDS:
            in_eval[i] = True
        if layer == "features" and kind in STAGES:
            stage[i] = kind

    metrics: Dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    stage_s = dict.fromkeys(STAGES, 0.0)
    stage_evals = dict.fromkeys(STAGES, 0)
    eval_ms = {kind: [] for kind in EVAL_KINDS}
    kernel_nodes = quad_nodes = eval_nodes = refinements = 0
    bump_calls = bump_points = 0
    bump_busy = make_datum_s = 0.0
    rays = roots = ray_evals = hot_directions = hot_kept = 0

    for i, (name, layer, kind, start, end, parent, work) in enumerate(spans):
        duration = end - start
        self_s[layer] += duration - child_time[i]
        outer = parent < 0 or spans[parent][1] != layer
        if outer:
            busy[layer] += duration
            calls[layer] += 1
        if layer == "kernels":
            kernel_nodes += work
        elif layer == "quadrature":
            if kind == "nodes":
                quad_nodes += work
                eval_nodes += work if in_eval[i] else 0
            elif kind == "refine":
                refinements += 1
        elif layer == "initial_data":
            if kind == "bump":
                bump_calls += 1
                bump_points += work
                bump_busy += duration
            elif kind == "make_datum":
                make_datum_s += duration
        elif layer == "solution" and outer and kind in EVAL_KINDS:
            eval_ms[kind].append(1e3 * duration)
            if stage[i]:
                stage_evals[stage[i]] += 1
            if stage[i] in ("null", "critical"):
                ray_evals += 1
        elif layer == "features" and kind in STAGES and (
                parent < 0 or stage[parent] != kind):
            stage_s[kind] += duration
            if kind in ("null", "critical"):
                rays += 1
                roots += work
            elif kind == "hot":
                hot_kept += work[0]
                hot_directions += work[1]

    evals = sum(len(v) for v in eval_ms.values())
    metrics["kernels.calls"] = calls["kernels"]
    metrics["kernels.nodes"] = kernel_nodes
    metrics["kernels.busy_s"] = busy["kernels"]
    metrics["kernels.ns_per_node"] = (1e9 * busy["kernels"] / kernel_nodes
                                      if kernel_nodes else 0.0)
    metrics["quadrature.calls"] = calls["quadrature"]
    metrics["quadrature.nodes"] = quad_nodes
    metrics["quadrature.nodes_per_eval"] = eval_nodes / evals if evals else 0.0
    metrics["quadrature.busy_s"] = busy["quadrature"]
    metrics["quadrature.refinements"] = refinements
    metrics["initial_data.make_datum_s"] = make_datum_s
    metrics["initial_data.bump_calls"] = bump_calls
    metrics["initial_data.bump_points"] = bump_points
    metrics["initial_data.bump_busy_s"] = bump_busy
    for kind in EVAL_KINDS:
        p50, tail, tail_pct = tail_percentile(eval_ms[kind])
        metrics[f"solution.{kind}.calls"] = len(eval_ms[kind])
        metrics[f"solution.{kind}.ms_p50"] = p50
        metrics[f"solution.{kind}.ms_tail"] = tail
        metrics[f"solution.{kind}.tail_pct"] = tail_pct
    metrics["solution.busy_s"] = busy["solution"]
    for name in STAGES:
        metrics[f"features.{name}.s"] = stage_s[name]
        metrics[f"features.{name}.evals"] = stage_evals[name]
    metrics["features.root_ratio"] = roots / rays if rays else 0.0
    metrics["features.evals_per_root"] = ray_evals / roots if roots else 0.0
    metrics["features.hot.kept_ratio"] = (hot_kept / hot_directions
                                          if hot_directions else 0.0)
    metrics["geometry.calls"] = calls["geometry"]
    metrics["geometry.busy_s"] = busy["geometry"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["trace.spans"] = count
    return metrics
