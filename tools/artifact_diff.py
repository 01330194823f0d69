#!/usr/bin/env python3
"""Compare the CLI artifacts of two source trees, invocation by invocation.

    python3 tools/artifact_diff.py PARENT_TREE [CHANGE_TREE]

CHANGE_TREE defaults to the tree this script belongs to.  Every invocation
of ``INVOCATIONS`` runs as ``python -m nulltorus.cli ARGV`` in a fresh
interpreter with ``PYTHONPATH=<tree>/src``, once per tree (the two at the
same time), from one scratch directory that also holds the run configs of
``CONFIG_CASES``.  The script prints each invocation whose stdout, stderr or
exit code differs, with the first differing line, and exits 1 if there is
any.  ``validate``'s timings are masked before the comparison.

The list holds every CLI op of the benchmark's ``zoo-table`` seeds 1-2,
``spinor-grid`` seed 1 and ``numeric-scf`` seed 1 (copied here, so the
script stands on its own), hand-picked cases of every command, and every
error case with one invalid input whose artifact is meant to stay the same.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

X_Q, Y_Q = "delta_plus,tau_minus", "delta_minus,tau_plus"
ROSATAU_1 = ('{"family":"rosatau","params":{"support":[0.1678,0.4529],'
             '"zero":0.2826,"amplitude":0.9946}}')
ROSATAU_2 = ('{"family":"rosatau","params":{"support":[0.1612,0.4396],'
             '"zero":0.2805,"amplitude":0.8624}}')
CONFORMAL_1 = ('{"family":"conformal_rescale","params":{"inner":{"family":'
               '"analex"},"factor":{"amp":0.3958,"k":1,"l":2,'
               '"phase":2.9308}}}')
CONFORMAL_2 = ('{"family":"conformal_rescale","params":{"inner":{"family":'
               '"analex"},"factor":{"amp":0.3842,"k":2,"l":2,'
               '"phase":5.8605}}}')


def _zoo_round(rosatau, conformal, w12, w32, w35, w58, point, wave_point,
               seed_w):
    tables = ["closed_diagonal:2,3", "analex", rosatau, "left_invariant:1,2",
              "left_invariant:sqrt2,1", conformal, w12, w32, w35]
    return ([["table", "--metric", m, "--quantity", X_Q] for m in tables]
            + [["rotation", "--metric", w12],
               ["classify-line", "--metric", "analex", "--from", point],
               ["classify-line", "--metric", w12, "--from", wave_point],
               ["holonomy", "--metric", w58, "--seed-w", seed_w]])


def _solve(metric, structure, chirality, grid_n):
    return ["solve", "--metric", metric, "--structure", structure,
            "--chirality", chirality, "--grid-n", grid_n]


BENCHMARK_OPS = (
    _zoo_round(ROSATAU_1, CONFORMAL_1,
               "closed_diagonal:1,2,amp=0.0632,k=1,l=1",
               "closed_diagonal:3,2,amp=0.1083,k=2,l=1",
               "closed_diagonal:3,5,amp=0.1033,k=2,l=1",
               "closed_diagonal:5,8,amp=0.0624,k=1,l=2",
               "0.6306,0.6608", "0.5510,0.9472", "0.8783")
    + _zoo_round(ROSATAU_2, CONFORMAL_2,
                 "closed_diagonal:1,2,amp=0.0816,k=2,l=1",
                 "closed_diagonal:3,2,amp=0.0774,k=1,l=2",
                 "closed_diagonal:3,5,amp=0.1258,k=2,l=1",
                 "closed_diagonal:5,8,amp=0.0986,k=1,l=1",
                 "0.5366,0.6375", "0.2491,0.8766", "0.6817")
    + [_solve("left_invariant:1,2", "1,1", "1", "256"),
       _solve("closed_diagonal:2,5,amp=0.1216,k=1,l=2", "1,-1", "1", "256"),
       _solve("left_invariant:1,2", "-1,1", "1", "512"),
       _solve("closed_diagonal:1,3,amp=0.1488,k=1,l=1", "-1,-1", "1", "512"),
       _solve("closed_diagonal:3,2,amp=0.138,k=1,l=2", "1,1", "-1", "256"),
       _solve("left_invariant:2,5", "1,-1", "-1", "256"),
       _solve("closed_diagonal:1,2,amp=0.0987,k=1,l=2", "-1,1", "-1", "512"),
       _solve("left_invariant:3,2", "-1,-1", "-1", "512"),
       ["table", "--metric", "closed_diagonal:1,2,amp=0.09,k=1,l=1",
        "--quantity", Y_Q]])

CASES = [
    ["table", "--metric", "left_invariant:1,1"],
    ["table", "--metric", "left_invariant:1,2", "--quantity", Y_Q],
    ["table", "--metric", "left_invariant:sqrt2,1", "--quantity", Y_Q],
    ["table", "--metric", "left_invariant:2,3", "--quantity",
     "delta_plus,delta_minus,tau_plus,tau_minus"],
    ["table", "--metric", "closed_diagonal:2,3", "--format", "json"],
    ["--format", "json", "table", "--metric", "flat"],
    ["table", "--metric", "rosatau", "--grid-n", "128"],
    ["classify", "--metric", "analex", "--structure", "--"],
    ["classify", "--metric", "left_invariant:1,2", "--structure", "-+",
     "--quantity", "delta_minus"],
    ["classify", "--metric", "closed_diagonal:2,3", "--structure", "+-"],
    ["classify", "--metric", "rosatau", "--quantity", "tau_minus"],
    ["classify", "--metric", "flat", "--quantity", "tau_plus",
     "--structure", "-1,-1"],
    ["decompose", "--metric", "rosatau"],
    ["decompose", "--metric", "left_invariant:99,100"],
    ["decompose", "--metric", "analex", "--family", "Y"],
    ["decompose", "--metric", "left_invariant:sqrt2,1"],
    ["decompose", "--metric", "closed_diagonal:1,2", "--resolution", "256",
     "--step", "0.002"],
    ["flow", "--metric", "flat", "--from", "0,0", "--tmax", "1"],
    ["flow", "--metric", "analex", "--family", "Y", "--tmax", "2",
     "--step", "0.005"],
    ["flow", "--metric", "rosatau", "--from", "0.2,0.1", "--tmax", "1"],
    ["holonomy", "--metric", "rosatau", "--seed-w", "0.3"],
    ["holonomy", "--metric", "analex"],
    ["holonomy", "--metric", "left_invariant:sqrt2,1"],
    ["holonomy", "--metric", "closed_diagonal:5,8", "--family", "X",
     "--n-returns", "300"],
    ["rotation", "--metric", "analex"],
    ["rotation", "--metric", "flat", "--tol", "ode_step=0.002"],
    ["rotation", "--metric", "left_invariant:2,3", "--family", "Y",
     "--n-returns", "200"],
    ["rotation", "--metric", "rosatau", "--from", "0.5,0"],
    ["classify-line", "--metric", "analex", "--from", "0.3,0.7"],
    ["classify-line", "--metric", "rosatau", "--from", "0.3,0"],
    ["classify-line", "--metric", "left_invariant:sqrt2,1"],
    ["classify-line", "--metric", "analex", "--family", "Y",
     "--from", "0.1,0.2"],
    ["solve", "--metric", "left_invariant:1,2", "--structure", "-+"],
    ["solve", "--metric", "left_invariant:1,2", "--structure", "+-"],
    ["solve", "--metric", "left_invariant:sqrt2,1"],
    ["solve", "--metric", "left_invariant:sqrt2,1", "--structure", "--"],
    ["solve", "--metric", "left_invariant:1,-1", "--structure", "--"],
    ["solve", "--metric", "left_invariant:3,-4", "--structure", "+-",
     "--chirality", "-1"],
    ["solve", "--metric", "analex", "--structure", "--", "--chirality", "-1",
     "--n-fields", "2", "--grid-n", "64"],
    ["solve", "--metric", "analex", "--structure", "+-"],
    ["solve", "--metric", "closed_diagonal:2,3", "--structure", "-+",
     "--grid-n", "64"],
    ["solve", "--metric", "rosatau"],
    # error cases, one invalid input each
    ["flow", "--metric", "flat", "--from", "1;2"],
    ["solve", "--metric", "flat", "--structure", "2,5"],
    ["rotation", "--metric", "no_such_metric"],
    ["rotation", "--metric", "flat", "--tol", "warp_factor=9"],
    ["rotation", "--metric", "flat", "--tol", "fd_step=1e-3"],
    ["rotation", "--metric", "flat", "--step", "7"],
    ["rotation", "--metric", "flat", "--format", "csv"],
    ["rotation", "--metric", "flat", "--step", "fine"],
    ["solve"],
    ["rotation"],
    ["validate", "--criterion", "0"],
    ["solve", "--metric", '{"family":"closed_diagonal","params":'
     '{"base1":1,"base2":2,"ampl":0.3}}'],
    ["solve", "--metric", '{"family":"closed_diagonal","params":{}}'],
    ["table", "--metric", '{"family":"conformal_rescale"}'],
    ["rotation", "--metric", "rosatau:0.25"],
    ["rotation", "--metric", "flat:3"],
    ["rotation", "--metric", '{"family":"rosatau","params":{"zero":"a"}}'],
    ["rotation", "--metric", '{"family":"no_such_family"}'],
    ["rotation", "--metric", '{"family":'],
    ["rotation", "--metric", "{tmp}/no_such_metric.json"],
    ["solve", "--metric", '{"family":"analex","grid_n":0}'],
    ["rotation", "--metric", '{"family":"flat","grid_n":5000}'],
    ["rotation", "--metric", '{"family":"conformal_rescale","params":'
     '{"inner":{"family":"flat","grid_n":5000}}}'],
] + [[command, "--metric", "flat", "--grid-n", "64"] for command in (
    "flow", "rotation", "classify-line", "decompose", "holonomy")
] + [["validate", "--criterion", str(k)]    # 9 takes ~26 s; Tier-1 runs it
     for k in (1, 2, 3, 4, 5, 6, 7, 8, 10)]

#: (command, run config document); the config supplies "metric": "flat"
#: unless it names its own
CONFIG_CASES = [
    ("rotation", {"metric": "analex", "family": "Y", "n_returns": 100}),
    ("solve", {"metric": "left_invariant:1,2", "structure": "+-",
               "tol": {"rational_cap": 50}}),
    ("rotation", {"n_returns": "many"}),
    ("rotation", {"step": "tiny"}),
    ("rotation", {"grid_n": "fine"}),
    ("flow", {"tmax": "long"}),
    ("flow", {"from": ["a", 0]}),
    ("holonomy", {"seed_w": "middle"}),
    ("solve", {"chirality": "plus"}),
    ("solve", {"chirality": 2}),
    ("validate", {"criterion": "first"}),
    ("validate", {"criterion": 99}),
    ("classify", {"quantity": "delta_zero"}),
    ("table", {"quantity": "delta_zero"}),
    ("rotation", {"metric": 5}),
] + [(command, {"family": "Z"}) for command in (
    "flow", "rotation", "classify-line", "decompose", "holonomy")]

#: validate reports wall time; these spellings of it are masked
TIMINGS = [(re.compile(r'("\w*seconds": )[-+.\deE]+'), r"\1<s>"),
           (re.compile(r"\d+\.\d+s\b"), "<s>"),
           (re.compile(r"\d+ ms\b"), "<ms>")]


def invocations(scratch: Path) -> list[list[str]]:
    out = [[a.replace("{tmp}", str(scratch)) for a in argv]
           for argv in BENCHMARK_OPS + CASES]
    for k, (command, doc) in enumerate(CONFIG_CASES):
        path = scratch / f"config{k}.json"
        path.write_text(json.dumps({"metric": "flat", **doc}))
        out.append([command, "--config", str(path)])
    return out


def start(tree: Path, argv: list[str], scratch: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-m", "nulltorus.cli", *argv],
                            cwd=scratch, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def outcome(proc: subprocess.Popen, masked: bool) -> tuple[str, str, int]:
    stdout, stderr = proc.communicate()
    if masked:
        for pattern, repl in TIMINGS:
            stdout, stderr = pattern.sub(repl, stdout), pattern.sub(repl,
                                                                   stderr)
    return stdout, stderr, proc.returncode


def first_difference(a: str, b: str) -> str:
    for k, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {k + 1}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1] if len(argv) > 1
                  else Path(__file__).resolve().parents[1]).resolve()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        cases = invocations(scratch)
        for argv_ in cases:
            masked = argv_[0] == "validate"
            runs = [start(tree, argv_, scratch) for tree in (parent, change)]
            old, new = (outcome(proc, masked) for proc in runs)
            if old != new:
                differ += 1
                what = [name for name, x, y in zip(
                    ("stdout", "stderr", "exit code"), old, new) if x != y]
                print(f"DIFFERS ({', '.join(what)}): {argv_}")
                for name, x, y in zip(("stdout", "stderr"), old, new):
                    if x != y:
                        print(f"  {name} {first_difference(x, y)}")
                if old[2] != new[2]:
                    print(f"  exit code {old[2]} != {new[2]}")
    print(f"{len(cases)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
