"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10

Every workload in ``BENCHMARK.json`` runs untraced for its ``run_seconds``.
For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, with the hashes of the source tree and the benchmark that ran, and
writes every run's result line to ``.bench_build/perfbench/sweep-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            env = json.loads(next(ln for ln in lines
                                  if ln.startswith("  env: "))[7:])
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        (out_dir / f"sweep-{workload}.json").write_text(
            json.dumps(runs, indent=1))
        print(f"\n{workload}: src {env['src_sha256']}, benchmark "
              f"{env['bench_sha256']}")
        print(f"| {workload} | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {name} ({first['unit']}) | {med:.5g} | {q1:.5g} | "
                  f"{q3:.5g} | {spread:.4f} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
