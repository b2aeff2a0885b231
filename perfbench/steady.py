"""Steadiness check: run each workload once per seed and report, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --workloads grid-2d spots-2d --seeds 0 1 2 3 4
    python3 perfbench/steady.py --seeds 0     # every workload once

The quartiles are ``statistics.quantiles(values, n=4)``. A metric is steady
when its spread is below a third of its bound in BENCHMARK.json. Per-run
lines and the summary go to standard output. Each run's ``result.json``, with
the JSON result line added, is appended to ``perfbench/_work/steady.jsonl``,
which is emptied at the start.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / "perfbench" / "_work" / "steady.jsonl"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=[0, 424242, 1, 2, 3, 4, 5, 6, 7, 8])
    args = parser.parse_args()
    LOG.parent.mkdir(parents=True, exist_ok=True)
    LOG.write_text("", encoding="utf-8")

    steady = True
    for name in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            command = [*spec["command"], "--workload", name, "--seed",
                       str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            command[0] = sys.executable
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
            result = json.loads(last)
            detail = ROOT / "perfbench" / "_work" / name / "result.json"
            if detail.exists():
                record = json.loads(detail.read_text(encoding="utf-8"))
                record["result"] = result
                with open(LOG, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})")
                steady = False
                continue
            row = {k: v["value"] for k, v in result["metrics"].items()}
            for key, value in row.items():
                values[key].append(value)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f} {v['unit']}"
                for k, v in result["metrics"].items())
                + f", fail_ratio {result['failed'] / result['attempted']:g}"
                f" ({result['failed']} of {result['attempted']} checks)",
                flush=True)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            print(f"{name} {metric['name']}: median {median:.4f} "
                  f"{metric['unit']}, spread {spread:.4f} "
                  f"(bound {metric['bound']}) {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
