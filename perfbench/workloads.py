"""The three workloads as seeded op lists.

A run is one or more *rounds*; a round is a fixed list of ops whose metric
parameters (wave amplitude and wavenumbers, window support and zero,
conformal factor, sample points, structures) are drawn from a generator
seeded with (workload, seed, round).  The ops that carry ROADMAP item 1's
documented defects — ``closed_diagonal:2,3`` and ``analex_sanchez`` at c = 2 —
are pinned: they run in every round with fixed parameters whatever the seed.

Each op is a dict the child runs (``kind`` "cli" with ``argv``, or "api"
with ``call``) plus a ``check`` entry saying how ``checks.py`` verifies it.
"""

from __future__ import annotations

import json
import math
import random

STRUCTURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
X_QUANTITIES = "delta_plus,tau_minus"
Y_QUANTITIES = "delta_minus,tau_plus"

# Round length in seconds measured on the seed commit (2 cores); a run
# makes max(1, seconds // ROUND_SECONDS) rounds so that every run of a
# workload with one --seconds has the same op list length.
ROUND_SECONDS = {"zoo-table": 45, "numeric-scf": 55, "spinor-grid": 20}

def _wave(rng, base1, base2):
    amp = round(rng.uniform(0.05, 0.15), 4)
    k, l = rng.choice((1, 2)), rng.choice((1, 2))
    return f"closed_diagonal:{base1},{base2},amp={amp},k={k},l={l}"


def _rosatau(rng):
    lo = round(rng.uniform(0.13, 0.17), 4)
    hi = round(rng.uniform(0.43, 0.47), 4)
    zero = round(rng.uniform(0.28, 0.32), 4)
    amplitude = round(rng.uniform(0.8, 1.2), 4)
    config = {"family": "rosatau", "params": {
        "support": [lo, hi], "zero": zero, "amplitude": amplitude}}
    return json.dumps(config, separators=(",", ":"))


def _factor(rng):
    return {"amp": round(rng.uniform(0.2, 0.4), 4), "k": rng.choice((1, 2)),
            "l": rng.choice((1, 2)),
            "phase": round(rng.uniform(0.0, 2 * math.pi), 4)}


def _conformal_analex(rng, grid_n=None):
    config = {"family": "conformal_rescale",
              "params": {"inner": {"family": "analex"},
                         "factor": _factor(rng)}}
    if grid_n is not None:
        config["grid_n"] = grid_n
    return json.dumps(config, separators=(",", ":"))


def _table(metric, quantities, check, label):
    return {"kind": "cli", "metric": metric, "label": label, "check": check,
            "argv": ["table", "--metric", metric, "--quantity", quantities]}


def _spectral(metric, quantities):
    return {"type": "table", "oracle": "spectral", "metric": metric,
            "quantities": quantities.split(",")}


def _unchecked(quantities):
    return {"type": "table", "oracle": None,
            "quantities": quantities.split(",")}


def zoo_table(rng):
    ratio_waves = {(1, 2): _wave(rng, 1, 2), (3, 2): _wave(rng, 3, 2),
                   (3, 5): _wave(rng, 3, 5)}
    wave58 = _wave(rng, 5, 8)
    rosatau = _rosatau(rng)
    conformal = _conformal_analex(rng)
    q = X_QUANTITIES
    ops = [
        _table("closed_diagonal:2,3", q, _spectral("closed_diagonal:2,3", q),
               "pinned 2/3 wave (ROADMAP item 1 defect)"),
        _table("analex", q, _spectral("analex", q), "analex"),
        _table(rosatau, q, {"type": "table", "oracle": "character",
                            "follows": "a2", "quantities": q.split(",")},
               "rosatau, seeded window"),
        _table("left_invariant:1,2", q, _spectral("left_invariant:1,2", q),
               "left-invariant 1/2"),
        _table("left_invariant:sqrt2,1", q,
               _spectral("left_invariant:sqrt2,1", q),
               "left-invariant sqrt2 (irrational)"),
        _table(conformal, q, _spectral("analex", q),
               "conformal rescaling of analex (inner table)"),
    ]
    for (b1, b2), metric in ratio_waves.items():
        ops.append(_table(metric, q, _spectral(metric, q),
                          f"wave {b1}/{b2}, seeded"))
    wave12 = ratio_waves[(1, 2)]
    point = f"{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f}"
    wave_point = f"{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f}"
    seed_w = rng.uniform(0, 1)
    # 13 ops, so that the median op time is one op's time, not the mean of
    # two unlike neighbours
    ops += [
        {"kind": "cli", "metric": wave12, "label": "rotation, wave 1/2",
         "argv": ["rotation", "--metric", wave12],
         "check": {"type": "rotation", "ratio": [1, 2]}},
        {"kind": "cli", "metric": "analex", "label": "classify-line, analex",
         "argv": ["classify-line", "--metric", "analex", "--from", point],
         "check": {"type": "classify-line", "winding": [1, -1]}},
        {"kind": "cli", "metric": wave12, "label": "classify-line, wave 1/2",
         "argv": ["classify-line", "--metric", wave12, "--from", wave_point],
         "check": {"type": "classify-line", "winding": [2, 1]}},
        {"kind": "cli", "metric": wave58, "label": "holonomy, wave 5/8",
         "argv": ["holonomy", "--metric", wave58, "--seed-w",
                  f"{seed_w:.4f}"],
         "check": {"type": "holonomy", "winding": [8, 5]}},
    ]
    return ops


# At these amplitudes the Y rotation number of the 1/2 wave (k = l = 1) has
# no certificate with q <= 64, so the Y table is definite (DenseLine), and
# the rescaling solve keeps about the same number of Fourier coefficients
# (peak RSS 242-247 MB).  Other amplitudes and wavenumbers give q = 4096
# periods or loop tests between thresholds, which the program rightly
# reports as Inconclusive, or peak RSS from 177 to 276 MB.
Y_WAVE_AMPS = (0.06, 0.09, 0.105)


def numeric_scf(rng):
    wave = f"closed_diagonal:1,2,amp={rng.choice(Y_WAVE_AMPS)},k=1,l=1"
    return [
        # the certificate is 85% of the analex_sanchez X table's time; the
        # whole table would not fit the benchmark's time budget
        {"kind": "api", "call": "semi_conformal_certificate", "family": "X",
         "metric": "analex_sanchez",
         "label": "pinned analex_sanchez X certificate (numeric route, "
                  "ROADMAP item 1)",
         "check": {"type": "certificate"}},
        _table(wave, Y_QUANTITIES, _unchecked(Y_QUANTITIES),
               "Y table, wave 1/2, seeded"),
    ]


# Wave/left-invariant ratios P/Q grouped so that each structure's character
# a1^Q a2^P on the closed-line winding (Q, P) is +1: these solve ops return
# fields, and their cost does not hinge on the seed.
INFINITE_RATIOS = {
    (1, 1): ((1, 2), (2, 3), (3, 5), (1, 1), (5, 8), (3, 2)),
    (1, -1): ((2, 3), (2, 5), (4, 3), (4, 5)),
    (-1, 1): ((1, 2), (3, 2), (5, 8), (3, 4)),
    (-1, -1): ((1, 1), (3, 5), (5, 3), (1, 3)),
}
# P + Q odd, so the character of (-1, -1) is -1: the last solve of a round
# answers Zero with no fields, and that answer is checked too.
ZERO_RATIOS = ((1, 2), (2, 3), (3, 2), (3, 4))


def spinor_grid(rng, round_index):
    ops = []
    for j in range(8):
        a = STRUCTURES[j % 4]
        chirality = 1 if j < 4 else -1
        grid_n = (256, 512)[(j // 2 + round_index) % 2]
        b1, b2 = rng.choice(ZERO_RATIOS if j == 7 else INFINITE_RATIOS[a])
        if (j + j // 4 + round_index) % 2 == 0:
            metric = f"left_invariant:{b1},{b2}"
        else:
            metric = _wave(rng, b1, b2)
        ops.append({
            "kind": "cli", "metric": metric, "grid_n": grid_n,
            "label": f"solve {metric.split(':')[0]} {grid_n}^2",
            "argv": ["solve", "--metric", metric, "--structure",
                     f"{a[0]},{a[1]}", "--chirality", str(chirality),
                     "--grid-n", str(grid_n)],
            "check": {"type": "solve", "ratio": [b1, b2],
                      "structure": list(a)}})
    diagonal = rng.choice(((1, 1), (-1, -1)))    # character +1 on (1, -1)
    ops += [
        {"kind": "api", "call": "construct_resonant_spinors",
         "metric": "analex", "grid_n": 512, "structure": list(diagonal),
         "count": 2, "label": "bumps, analex 512^2",
         "check": {"type": "fields", "count": 2}},
        {"kind": "api", "call": "construct_resonant_spinors",
         "metric": _rosatau(rng), "grid_n": 512,
         "structure": [rng.choice((1, -1)), 1], "count": 2,
         "label": "bumps, rosatau 512^2",
         "check": {"type": "fields", "count": 2}},
        {"kind": "api", "call": "construct_resonant_spinors",
         "metric": _conformal_analex(rng, 512), "grid_n": 512,
         "structure": list(rng.choice(((1, 1), (-1, -1)))), "count": 2,
         "label": "bumps, conformal analex 512^2",
         "check": {"type": "fields", "count": 2}},
        {"kind": "api", "call": "harmonic_twistor_iso", "metric": "analex",
         "grid_n": 256, "structure": list(diagonal),
         "label": "harmonic->twistor, analex 256^2",
         "check": {"type": "fields", "count": 1}},
        {"kind": "api", "call": "conformal_map_spinor", "metric": "analex",
         "grid_n": 512, "structure": list(diagonal), "factor": _factor(rng),
         "label": "conformal map, analex 512^2",
         "check": {"type": "fields", "count": 1}},
    ]
    return ops


def build(workload: str, seed: int, rounds: int) -> list[dict]:
    ops = []
    for r in range(rounds):
        rng = random.Random(f"{workload}/{seed}/{r}")
        if workload == "zoo-table":
            batch = zoo_table(rng)
        elif workload == "numeric-scf":
            batch = numeric_scf(rng)
        elif workload == "spinor-grid":
            batch = spinor_grid(rng, r)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        for i, op in enumerate(batch):
            op["id"] = f"r{r}.{i:02d}"
            ops.append(op)
    return ops
