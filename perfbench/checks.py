"""Oracles that do not go through the verdict code, and the per-op check.

* X tables on left-invariant and closed-diagonal metrics: the exact spectral
  solvers ``solve_left_invariant`` / ``solve_closed_diagonal``; Y tables on
  left-invariant metrics: ``solve_left_invariant(family="Y")``.
* ``rosatau``: the character rule — closed X-lines wind (0, 1), so the
  verdict follows a2; closed Y-lines wind (1, 0), so it follows a1.
* A conformal rescaling: the table of its inner metric.
* ``solve``: the character a1^Q a2^P of the structure on the closed-line
  winding (Q, P), with P/Q = lam1/lam2 in lowest terms, computed here; every
  returned field's residual must be below 100 x tol.differential.
* ``rotation``, ``classify-line``, ``holonomy``: the rotation number,
  winding and character that the op's own parameters fix.

The Y tables on closed-diagonal waves and the ``analex_sanchez`` X
certificate have no independent oracle in the repository: they are
*unchecked*.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from nulltorus import catalog, geometry, spinorfield
from nulltorus.classify import QUANTITIES
from nulltorus.spin import SpinStructure
from nulltorus.tolerances import DEFAULT
from workloads import STRUCTURES

DEFINITE = ("Zero", "One", "Infinite")
CERTIFICATE_VERDICTS = ("analytic", "conformal", "rescaling", "NotSCF")
RESIDUAL_LIMIT = 100 * DEFAULT.differential
KNOWN_DEFECT = ("ROADMAP item 1: the rotation certificate misses p/q with "
                "q = 3 or 5, so such a closed-diagonal flow is reported as a "
                "DenseLine")
DEFECT_DENOMINATORS = (3, 5)


def character(structure, winding) -> int:
    a1, a2 = structure
    w1, w2 = winding
    return (a1 ** (abs(w1) % 2)) * (a2 ** (abs(w2) % 2))


def count_for(structure, ratio) -> str:
    """Kernel dimension class of transport for a constant ratio P/Q."""
    frac = Fraction(ratio[0], ratio[1])
    winding = (frac.denominator, frac.numerator)
    return "Infinite" if character(structure, winding) == 1 else "Zero"


def spectral_table(metric: str, quantities) -> dict:
    """(a1, a2, quantity) -> count class from the exact solvers.

    The solvers run on a 64 x 64 grid: the means and closedness they read
    off the grid are exact there for the catalog's low-frequency
    trigonometric coefficients, and the count class depends only on the
    null family, not on the chirality.
    """
    spec = catalog.load_metric(metric, grid_n=64)
    out = {}
    for a in STRUCTURES:
        structure = SpinStructure(*a)
        by_family: dict = {}
        for q in quantities:
            family, chirality = QUANTITIES[q]
            if family in by_family:
                pass
            elif isinstance(spec, geometry.LeftInvariant):
                by_family[family] = spinorfield.solve_left_invariant(
                    spec, structure, family=family, chirality=chirality,
                    n_fields=0).count_class
            elif family == "X" and geometry.is_closed_diagonal(spec):
                by_family[family] = spinorfield.solve_closed_diagonal(
                    spec, structure, chirality=chirality,
                    n_fields=0).count_class
            else:
                raise ValueError(f"no spectral oracle for {metric} / {q}")
            out[(a[0], a[1], q)] = by_family[family]
    return out


def expected(op) -> dict | None:
    """The oracle's answer for a table op, computed before the op runs."""
    check = op["check"]
    if check["type"] != "table" or check["oracle"] is None:
        return None
    if check["oracle"] == "spectral":
        return spectral_table(check["metric"], check["quantities"])
    index = 0 if check["follows"] == "a1" else 1
    return {(a[0], a[1], q): "Infinite" if a[index] == 1 else "Zero"
            for a in STRUCTURES
            for q in check["quantities"]}


def is_known_defect(metric: str) -> bool:
    """True for the closed-diagonal flows ROADMAP item 1 documents.

    The X flow of ``closed_diagonal:b1,b2`` has rotation number
    min(b1, b2) / max(b1, b2); the certificate misses it when the
    denominator in lowest terms is 3 or 5 (the pinned 2/3 wave among them).
    """
    family, _, params = metric.partition(":")
    if family != "closed_diagonal":
        return False
    b1, b2 = (int(v) for v in params.split(",")[:2])
    return max(b1, b2) // math.gcd(b1, b2) in DEFECT_DENOMINATORS


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class Outcome:
    """Verdict bookkeeping for one op."""

    def __init__(self, verdicts: int):
        self.verdicts = verdicts      # verdicts the op should deliver
        self.good = 0                 # definite and not contradicted
        self.wrong: list[str] = []
        self.known_defect: list[str] = []
        self.unchecked = False
        self.notes: list[str] = []

    @property
    def status(self) -> str:
        if self.wrong or self.known_defect:
            return "wrong"
        if self.good < self.verdicts:
            return "failed"
        return "unchecked" if self.unchecked else "ok"


def _check_table(op, text, oracle) -> Outcome:
    check = op["check"]
    rows = _csv_rows(text)
    out = Outcome(4 * len(check["quantities"]))
    out.unchecked = oracle is None
    for row in rows:
        value = row["value"]
        if value not in DEFINITE:
            out.notes.append(f"indefinite row {row}")
            continue
        key = (int(row["a1"]), int(row["a2"]), row["quantity"])
        want = None if oracle is None else oracle[key]
        if want is None or want == value:
            out.good += 1
            continue
        where = f"{key[0]},{key[1]} {key[2]}: {value} vs oracle {want}"
        if row["certificate"] == "DenseLine" and is_known_defect(op["metric"]):
            out.known_defect.append(where)
        else:
            out.wrong.append(where)
    return out


def _check_json(op, payload) -> Outcome:
    check = op["check"]
    kind = check["type"]
    out = Outcome(1)
    if kind == "rotation":
        rat = payload.get("rational")
        want = Fraction(*check["ratio"])
        if rat is None or Fraction(rat["p"], rat["q"]) != want:
            out.wrong.append(f"rotation {rat} vs {want}")
        else:
            out.good = 1
    elif kind == "classify-line":
        if payload.get("kind") != "Closed" or \
                [abs(w) for w in payload.get("winding", [])] != \
                [abs(w) for w in check["winding"]]:
            out.wrong.append(f"line {payload.get('kind')} "
                             f"{payload.get('winding')}")
        else:
            out.good = 1
    elif kind == "solve":
        a = check["structure"]
        want = count_for(a, check["ratio"])
        residuals = [f["residual"] for f in payload.get("fields", [])]
        if payload.get("count_class") != want:
            out.wrong.append(f"count {payload.get('count_class')} vs {want}")
        elif any(r >= RESIDUAL_LIMIT for r in residuals):
            out.wrong.append(f"field residuals {residuals}")
        else:
            out.good = 1
    return out


def _check_holonomy(op, text) -> Outcome:
    out = Outcome(4)
    want_w = [abs(w) for w in op["check"]["winding"]]
    for row in _csv_rows(text):
        a = (int(row["a1"]), int(row["a2"]))
        winding = [abs(int(row["winding1"])), abs(int(row["winding2"]))]
        chi = character(a, winding)
        trivial = row["x_trivial"] == "true"
        if winding != want_w or int(row["character"]) != chi \
                or trivial != (chi == 1):
            out.wrong.append(f"{a}: winding {winding}, character "
                             f"{row['character']}, x_trivial {trivial}")
        else:
            out.good += 1
    return out


def _check_fields(op, api) -> Outcome:
    out = Outcome(1)
    want = op["check"]["count"]
    bad = [r for r in api["residuals"] if not r < RESIDUAL_LIMIT]
    if api["fields"] != want or bad or not all(
            s > 0 for s in api["sup_norms"]):
        out.wrong.append(f"{api['fields']} fields (want {want}), "
                         f"residuals {api['residuals']}")
    else:
        out.good = 1
    return out


def check(op, child: dict, oracle) -> Outcome:
    """Grade one finished op against its oracle."""
    kind = op["check"]["type"]
    rc = child.get("rc")
    if rc != 0:
        verdicts = {"table": 4 * len(op["check"].get("quantities", [])),
                    "holonomy": 4}.get(kind, 1)
        out = Outcome(verdicts)
        out.notes.append(child.get("raised") or f"exit code {rc}")
        return out
    text = child.get("stdout", "")
    if kind == "table":
        return _check_table(op, text, oracle)
    if kind == "holonomy":
        return _check_holonomy(op, text)
    if kind == "fields":
        return _check_fields(op, child["api"])
    if kind == "certificate":
        out = Outcome(1)
        out.unchecked = True
        out.good = int(child["api"]["verdict"] in CERTIFICATE_VERDICTS)
        return out
    return _check_json(op, json.loads(text))
