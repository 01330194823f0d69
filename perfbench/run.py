"""nulltorus benchmark: verdict goodput on three workloads.

    python3 perfbench/run.py --workload zoo-table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/nulltorus`` must be there).  The
load is a closed loop with one client: one op at a time, each in a fresh
interpreter (``perfbench/child.py``), because a CLI user pays a cold import
and cold caches on every command.  A run is ``max(1, seconds // round)``
rounds of the workload's op list (``workloads.py``), so every run of a
workload at one ``--seconds`` has the same number of ops.

Every op is checked against an oracle that does not go through the verdict
code (``checks.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run (``tracer.py``)
with ``--trace 1``.  The lines before it are a human-readable report.
Details, spans and the state used by the determinism check and the tracing
overhead go to ``.bench_build/perfbench/``; that state is keyed by workload,
seed and a hash of ``src/``, so runs of different code are never compared.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0      # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = (("goodput_per_min", "1/min"), ("verdict_s.p50", "s"),
              ("verdict_s.tail", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(op: dict, env: dict, deadline: float) -> dict:
    """Spawn, feed and wait for one op; never leaves the child running."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], cwd=str(ROOT), env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        stdout, stderr = proc.communicate(
            json.dumps(op), timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"rc": None, "raised": "timed out at the run limit",
                "op_s": time.monotonic() - spawned, "setup_s": 0.0}
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": None, "raised": f"child exit {proc.returncode}: "
                f"{stderr.strip()[-400:]}", "setup_s": 0.0,
                "op_s": time.monotonic() - spawned}
    report["setup_s"] = report["setup_end"] - spawned
    return report


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples beyond it (p50 at least)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def tree_hash(root: Path, paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "n/a (not a git checkout)"
    bench = list(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"]
    return {"machine": f"{platform.platform()} {platform.machine()}",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "git_sha": sha, "src_sha256": tree_hash(SRC, SRC.rglob("*.py")),
            "bench_sha256": tree_hash(ROOT, bench),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {var: "1" for var in THREAD_VARS}}


def load_state(name: str):
    path = STATE / name
    if path.is_file():
        return json.loads(path.read_text())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nulltorus" / "__init__.py").is_file():
        print(f"perfbench: no nulltorus sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    from tracer import COUNTER_NAMES, LAYERS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(why), file=sys.stderr)
        return 2
    if not Path(checks.catalog.__file__).resolve().is_relative_to(SRC):
        print("perfbench: nulltorus was imported from outside this checkout",
              file=sys.stderr)
        return 2

    rounds = max(1, args.seconds // workloads.ROUND_SECONDS[args.workload])
    ops = workloads.build(args.workload, args.seed, rounds)
    oracles = {op["id"]: checks.expected(op) for op in ops}
    env = child_env()
    info = environment(args)
    STATE.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    state = f"{tag}-src{info['src_sha256']}"
    spans_dir = STATE / "spans" / tag
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    results = []
    for op in ops:
        sent = dict(op, trace=bool(args.trace))
        if args.trace:
            sent["spans_path"] = str(spans_dir / f"{op['id']}.npz")
        if time.monotonic() >= deadline - 1.0:
            child = {"rc": None, "raised": "not started: run limit reached",
                     "op_s": 0.0, "setup_s": 0.0}
        else:
            child = run_child(sent, env, deadline)
        if child.get("src") and not Path(child["src"]).resolve() \
                .is_relative_to(SRC):
            print("perfbench: child imported nulltorus from outside this "
                  "checkout", file=sys.stderr)
            return 2
        outcome = checks.check(op, child, oracles[op["id"]])
        results.append((op, child, outcome))
    wall = time.monotonic() - start

    # -- end-to-end numbers ------------------------------------------------
    op_s = [child["op_s"] for _, child, _ in results]
    setup_s = [child["setup_s"] for _, child, _ in results
               if child.get("rc") is not None]
    good = sum(out.good for _, _, out in results)
    attempted = len(results)
    failed = sum(out.status in ("wrong", "failed") for _, _, out in results)
    wrong = sum(out.status == "wrong" for _, _, out in results)
    unchecked = sum(out.unchecked for _, _, out in results)
    tail_s, tail_pct = tail(op_s)
    e2e = {
        "goodput_per_min": 60.0 * good / max(sum(op_s), 1e-9),
        "verdict_s.p50": statistics.median(op_s),
        "verdict_s.tail": tail_s,
        "peak_rss_mb": max((child.get("peak_rss_mb", 0.0)
                            for _, child, _ in results), default=0.0),
        "setup_s": statistics.median(setup_s) if setup_s else 0.0,
    }
    correct = all(not out.wrong for _, _, out in results) and bool(setup_s)

    # -- per-layer numbers (traced runs) -----------------------------------
    layer = {}
    if args.trace:
        totals = {name: 0 for name in COUNTER_NAMES}
        self_s = {name: 0.0 for name in LAYERS}
        stops: dict = {}
        for _, child, _ in results:
            tr = child.get("trace")
            if not tr:
                continue
            for name in COUNTER_NAMES:
                totals[name] += tr["counts"][name]
            for name in LAYERS:
                self_s[name] += tr["self_s"].get(name, 0.0)
            for code, n in tr["lsqr_stops"].items():
                stops[int(code)] = stops.get(int(code), 0) + n
        for name in LAYERS:
            layer[f"{name}.self_s"] = (self_s[name], "s")
        for name in COUNTER_NAMES:
            layer[name] = (totals[name], "count")
        layer["classify.lsqr_stop"] = (max(stops, default=0), "code")

    # -- report --------------------------------------------------------------
    print(f"perfbench {args.workload}: seed {args.seed}, {rounds} round(s), "
          f"{attempted} ops, trace {args.trace}, wall {wall:.1f} s")
    print(f"  why: {why[args.workload]}")
    print("  env: " + json.dumps(info, sort_keys=True))
    for op, child, out in results:
        extra = "; ".join(out.wrong + out.known_defect + out.notes)
        print(f"  {op['id']} {out.status:9s} {child['op_s']:8.3f} s "
              f"setup {child['setup_s']:.3f} s  {out.good}/{out.verdicts} "
              f"{op['label']}" + (f"  [{extra[:300]}]" if extra else ""))
    defects = sum(len(out.known_defect) for _, _, out in results)
    print(f"  ops: {attempted} attempted, {failed} failed, {wrong} wrong, "
          f"{unchecked} unchecked (no independent oracle; definite rows count "
          f"as good, never as verified)")
    if defects:
        print(f"  known defect rows: {defects} ({checks.KNOWN_DEFECT})")
    print(f"  failed_share {failed / attempted:.4f} (ops), wrong_share "
          f"{wrong / attempted:.4f} (ops)")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  verdict_s.tail is p{tail_pct} of {len(op_s)} op times")

    record = {"env": info, "correct": correct, "attempted": attempted,
              "failed": failed, "wrong": wrong, "unchecked": unchecked,
              "tail_percentile": tail_pct, "end_to_end": e2e,
              "ops": [{"op": op, "status": out.status, "good": out.good,
                       "op_s": child["op_s"], "setup_s": child["setup_s"],
                       "peak_rss_mb": child.get("peak_rss_mb"),
                       "counts": (child.get("trace") or {}).get("counts")}
                      for op, child, out in results]}
    if args.trace:
        for name, (value, unit) in layer.items():
            print(f"  {name} = {value:.6g} {unit}")
        print("  lsqr stop codes: " + json.dumps(stops, sort_keys=True))
        _compare_counts(load_state(f"{state}-trace1.json"), record)
        plain = load_state(f"{state}-trace0.json")
        if plain:
            base = plain["end_to_end"]["goodput_per_min"]
            print(f"  tracing overhead: goodput {e2e['goodput_per_min']:.4g} "
                f"traced vs {base:.4g} untraced (seed {args.seed}): "
                f"{100 * (1 - e2e['goodput_per_min'] / base):+.1f}%")
        else:
            print("  tracing overhead: no untraced run of this source tree "
                  "with this seed; run --trace 0 with it first")
        record["per_layer"] = {k: v for k, (v, _) in layer.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    (STATE / f"{state}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _compare_counts(previous, record) -> None:
    """Counts must repeat exactly between traced runs of one source tree."""
    if not previous:
        print("  determinism: no earlier traced run of this source tree with "
              "this seed; run it again to compare counts")
        return
    before = {o["op"]["id"]: o for o in previous["ops"]
              if o["counts"] is not None}
    diffs = []
    compared = 0
    for o in record["ops"]:
        prev = before.get(o["op"]["id"])
        if prev is None or prev["op"] != o["op"] or o["counts"] is None:
            continue
        old = prev["counts"]
        compared += 1
        for name, value in o["counts"].items():
            if old.get(name) != value:
                diffs.append(f"{o['op']['id']} {name}: {old.get(name)} -> "
                             f"{value}")
    if diffs:
        print(f"  determinism: {len(diffs)} counts differ from the previous "
              "traced run of this source tree with this seed:")
        for line in diffs:
            print(f"    {line}")
    else:
        print(f"  determinism: all counts of {compared} ops identical to the "
              "previous traced run of this source tree with this seed")


if __name__ == "__main__":
    sys.exit(main())
