"""dampedwave benchmark: one workload through ``dampedwave.cli.run``.

    python3 perfbench/run.py --workload grid-2d --seed 0 --seconds 45 --trace 0

Run from the repository root. Every repeat is a fresh Python process
(``child.py``). A run starts with one unmeasured set-up process, which
warms the file cache. Untraced (``--trace 0``), repeats run while the next
one is expected to end within ``--seconds``, at least MIN_REPS of them,
and the end-to-end metrics are the medians over repeats. Traced
(``--trace 1``), the run alternates an untraced and a traced repeat in the
same way, then measures the layer rows, and reports the per-layer metrics.
Outputs are checked in both modes (``checks.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_REPS = 2
MIN_SETUPS = 5
# Start no process after START_BY seconds and kill any still running at
# KILL_AT, so that a run ends within three minutes.
START_BY = 150.0
KILL_AT = 172.0
# Every process whose times are gated runs BLAS on one thread. With the
# library default (two threads on a two-vCPU VM) each threaded BLAS call
# waits to wake the other vCPU, and how long that takes follows the host's
# load: the first leggauss(256) took 0.01 s or 0.55 s from one minute to the
# next, and the set-up medians of two sets of grid-2d runs differed by a
# factor of 1.7. The ungated layer rows keep the default that users get.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Runner:
    """Starts child processes for one workload run and keeps their results."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.errors: List[str] = []
        self.env = {**os.environ, **CHILD_ENV}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def can_start(self, expected: float) -> bool:
        return self.elapsed() + expected < START_BY

    def another(self, count: int, minimum: int, longest: float,
                seconds: float) -> bool:
        """Whether to start one more repeat: always until ``minimum`` have
        run, then only while one as long as the longest so far would end
        within ``seconds``, and never past START_BY."""
        if count >= minimum and self.elapsed() + longest > seconds:
            return False
        return count == 0 or self.can_start(longest)

    def child(self, label: str, mode: str, *extra: str,
              env: Optional[dict] = None) -> Optional[dict]:
        result = self.work / f"{label}.json"
        timeout = max(1.0, KILL_AT - self.elapsed())
        command = [sys.executable, str(HERE / "child.py"), mode,
                   "--result", str(result), *extra,
                   "--spawned", repr(time.monotonic())]
        if env is None:
            env = self.env
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{label}: killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{label}: exit {proc.returncode}: {tail[0]}")
            return None
        return json.loads(result.read_text(encoding="utf-8"))

    def rep(self, label: str, trace: int) -> Optional[dict]:
        out = self.work / label
        res = self.child(label, "run", "--workload", self.name,
                         "--seed", str(self.seed), "--out", str(out),
                         "--trace", str(trace))
        if res is not None:
            res["out"] = out
        return res

    def setup(self, label: str) -> Optional[dict]:
        return self.child(label, "setup", "--workload", self.name,
                          "--seed", str(self.seed))


def check_reps(runner: Runner, reps: List[Optional[dict]]) -> List[tuple]:
    """Each repeat ran; the first matches the reference; the rest match it."""
    results = [(f"repeat {i} finished", rep is not None)
               for i, rep in enumerate(reps)]
    done = [rep for rep in reps if rep is not None]
    if done:
        first = done[0]["out"]
        results += checks.check_outputs(runner.name, first, runner.seed)
        for rep in done[1:]:
            results += checks.check_same_bytes(runner.name, first, rep["out"])
    return results


def run_untraced(runner: Runner, seconds: float) -> tuple:
    runner.setup("warmup")
    reps: List[Optional[dict]] = []
    longest = 0.0
    while runner.another(len(reps), MIN_REPS, longest, seconds):
        begun = runner.elapsed()
        reps.append(runner.rep(f"rep{len(reps)}", 0))
        longest = max(longest, runner.elapsed() - begun)
    done = [rep for rep in reps if rep is not None]
    setups = [rep["setup_s"] for rep in done]
    while done and len(setups) < MIN_SETUPS and runner.can_start(5.0):
        res = runner.setup(f"setup{len(setups)}")
        if res is None:
            break
        setups.append(res["setup_s"])
    metrics = {}
    if done:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(rep["run_s"] for rep in done),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in done),
        }
    counts = {"repeats": len(done), "setups": len(setups)}
    return reps, metrics, counts, setups


def run_traced(runner: Runner, seconds: float) -> tuple:
    plain: List[Optional[dict]] = []
    traced: List[Optional[dict]] = []
    runner.setup("warmup")
    longest = 0.0
    while runner.another(len(traced), 1, longest, seconds):
        begun = runner.elapsed()
        plain.append(runner.rep(f"rep{len(plain)}", 0))
        traced.append(runner.rep(f"traced{len(traced)}", 1))
        longest = max(longest, runner.elapsed() - begun)
    pairs = [(a, b) for a, b in zip(plain, traced)
             if a is not None and b is not None]
    traced_done = sorted((b for _, b in pairs), key=lambda rep: rep["run_s"])
    metrics = {}
    if pairs:
        middle = traced_done[(len(traced_done) - 1) // 2]
        metrics = dict(middle["layers"])
        metrics["trace.run_s"] = middle["run_s"]
        metrics["trace.untraced_run_s"] = statistics.median(
            a["run_s"] for a, _ in pairs)
        # Each traced repeat runs right after its untraced one, so the
        # median of the pairwise differences is less exposed to the host's
        # drift than a difference of medians.
        metrics["trace.overhead_s"] = statistics.median(
            b["run_s"] - a["run_s"] for a, b in pairs)
        for layer in tracing.LAYERS:
            metrics[f"{layer}.share"] = (metrics[f"{layer}.self_s"]
                                         / middle["run_s"])
        files = [p for p in middle["out"].iterdir() if p.is_file()]
        metrics["cli.artifacts"] = len(files)
        metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    for dimension in (1, 2, 3):
        res = runner.child(f"layers{dimension}", "layers",
                           "--dimension", str(dimension), env=dict(os.environ))
        if res is not None:
            metrics.update(res["layers"])
    counts = {"pairs": len(pairs)}
    return plain + traced, metrics, counts, []


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that NumPy loaded in this process (which
    does not pin it), asked of the library."""
    import ctypes
    import numpy  # noqa: F401  (loads the library)
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_default": _blas_threads(),
        "blas_env_outside": {k: os.environ[k] for k in CHILD_ENV
                             if k in os.environ},
        "blas_env_measured": CHILD_ENV,
        "blas_env_layer_rows": "library default, unless set outside",
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dampedwave" / "__init__.py").is_file():
        print(f"no dampedwave sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Byte-compile once so that no repeat pays for it in its set-up time.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(units)
    runner = Runner(args.workload, args.seed, work)
    run = run_traced if args.trace else run_untraced
    reps, metrics, counts, setups = run(runner, args.seconds)
    results = check_reps(runner, reps)
    failures = [label for label, ok in results if not ok] + runner.errors
    attempted = len(results)
    failed = sum(1 for _, ok in results if not ok)
    missing = [name for name in names if name not in metrics]
    failures += [f"metric {name} not measured" for name in missing]
    correct = failed == 0 and not runner.errors and not missing and attempted > 0

    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **counts,
              "elapsed_s": runner.elapsed(), "environment": env,
              "metrics": metrics, "failures": failures[:50],
              "repeats": [{k: rep[k] for k in ("setup_s", "setup_cpu_s",
                                               "datum_s", "run_s",
                                               "run_cpu_s", "peak_rss_mb")}
                          for rep in reps if rep is not None],
              "setups": setups}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for name in names:
        if name in metrics:
            print(f"  {name:44s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':44s} {failed / max(attempted, 1):>16.6g} "
          f"({failed} of {attempted} checks failed)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
