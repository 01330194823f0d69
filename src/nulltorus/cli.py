"""Command-line front door.

Every compute command reads an optional JSON config document and applies
the precedence flags > config file > defaults.  Trajectories and structure
tables are emitted as CSV, reports and certificates as JSON; every artifact
embeds the tolerance set that produced it.  Exit codes: 0 success, 2 a
computation ended Inconclusive (the partial evidence is still emitted),
1 error (the failing condition is named in the output).
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import Optional

import click
import numpy as np

from . import catalog, classify, nullflow, spin, spinorfield, validation
from .errors import ConfigError, Inconclusive, NullTorusError, WrongFamily
from .spin import STRUCTURES, SpinStructure
from .tolerances import DEFAULT, Tolerances

_STRUCTURE_ALIASES = {
    "trivial": (1, 1), "++": (1, 1), "+-": (1, -1), "-+": (-1, 1),
    "--": (-1, -1),
}


def parse_structure(text: str) -> SpinStructure:
    t = str(text).strip().lower()
    if t in _STRUCTURE_ALIASES:
        return SpinStructure(*_STRUCTURE_ALIASES[t])
    parts = t.replace("+1", "1").split(",")
    if len(parts) == 2:
        try:
            a1, a2 = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"cannot parse spin structure {text!r}") from None
        if a1 in (-1, 1) and a2 in (-1, 1):
            return SpinStructure(a1, a2)
    raise ConfigError(
        f"cannot parse spin structure {text!r}; use trivial, ++, +-, -+, -- "
        "or 'a1,a2' with a_i in {-1, 1}")


def parse_point(text) -> tuple[float, float]:
    parts = (list(text) if isinstance(text, (list, tuple))
             else str(text).split(","))
    try:
        if len(parts) == 2:
            return (float(parts[0]), float(parts[1]))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"point must be 'x1,x2', got {text!r}")


class Settings:
    """Resolved run configuration (flags > config file > defaults)."""

    def __init__(self, config_path: Optional[str], output: Optional[str],
                 fmt: Optional[str], tol_overrides: tuple[str, ...]):
        self.file: dict = {}
        if config_path:
            try:
                with open(config_path) as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError("config must be a single JSON object")
            self.file = doc
        self.output = output if output is not None else self.file.get("output")
        self.fmt = fmt if fmt is not None else self.file.get("format")
        if self.fmt not in (None, "csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        self.tol = self._build_tol(tol_overrides)

    def _build_tol(self, overrides: tuple[str, ...]) -> Tolerances:
        merged: dict = {}
        file_tol = self.file.get("tol", {})
        if not isinstance(file_tol, dict):
            raise ConfigError("config key 'tol' must be an object")
        merged.update(file_tol)
        for item in overrides:
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"--tol expects KEY=VALUE, got {item!r}")
            merged[key.strip()] = val
        if not merged:
            return DEFAULT
        valid = {f.name for f in dataclasses.fields(Tolerances)}
        clean = {}
        for key, val in merged.items():
            if key not in valid:
                raise ConfigError(f"unknown tolerance {key!r}")
            try:
                clean[key] = int(val) if key == "rational_cap" else float(val)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"tolerance {key} must be numeric, got {val!r}") from None
        return DEFAULT.with_(**clean)

    def get(self, key: str, flag=None, default=None):
        if flag is not None:
            return flag
        if key in self.file:
            return self.file[key]
        return default

    def number(self, key: str, flag, default, kind=float):
        """The setting ``key`` as ``kind``, or ConfigError naming the key."""
        value = self.get(key, flag, default)
        try:
            return (catalog.integer if kind is int else catalog.real)(key, value)
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {what}, got {value!r}") from None

    def choice(self, key: str, flag, default, choices):
        """The setting ``key``, or ConfigError when it is not a choice."""
        value = self.get(key, flag, default)
        if value not in choices:
            raise ConfigError(f"{key} must be one of "
                              f"{', '.join(map(str, choices))}, got {value!r}")
        return value

    def step(self, flag: Optional[float]) -> float:
        value = self.number("step", flag, self.tol.ode_step)
        if not 0.0 < value <= 0.1:
            raise ConfigError(f"step must lie in (0, 0.1], got {value}")
        return value

    def count(self, key: str, flag: Optional[int], default: int) -> int:
        value = self.number(key, flag, default, int)
        if not 1 <= value <= 4096:
            raise ConfigError(f"{key} must lie in [1, 4096], got {value}")
        return value

    def chirality(self, flag: Optional[str]) -> int:
        value = self.number("chirality", flag, 1, int)
        if value not in (-1, 1):
            raise ConfigError(f"chirality must be 1 or -1, got {value}")
        return value

    def metric(self, flag: Optional[str], grid_n_flag: Optional[int] = None):
        source = self.get("metric", flag)
        if source is None:
            raise ConfigError("a metric is required (--metric or config key)")
        grid_n = self.get("grid_n", grid_n_flag)
        if grid_n is not None:
            grid_n = self.count("grid_n", grid_n, 256)
        return catalog.load_metric(source, grid_n=grid_n)

    def structure(self, flag: Optional[str]) -> SpinStructure:
        return parse_structure(self.get("structure", flag, "trivial"))


# ---------------------------------------------------------------------------
# artifact emission


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return str(obj)


def _tol_dict(tol: Tolerances) -> dict:
    return dataclasses.asdict(tol)


def _write(text: str, output: Optional[str]):
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def emit_json(payload: dict, settings: Optional[Settings]):
    tol = settings.tol if settings else DEFAULT
    payload.setdefault("tolerances", _tol_dict(tol))
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    _write(text, settings.output if settings else None)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def emit_csv(fieldnames: list[str], rows: list[dict], settings: Settings):
    buf = io.StringIO()
    buf.write("# tolerances "
              + json.dumps(_tol_dict(settings.tol), sort_keys=True) + "\n")
    buf.write(",".join(fieldnames) + "\n")
    for row in rows:
        buf.write(",".join(_cell(row.get(name)) for name in fieldnames) + "\n")
    _write(buf.getvalue(), settings.output)


def emit(kind: str, result, settings: Settings):
    if kind == "json":
        if settings.fmt == "csv":
            raise ConfigError("this command produces a JSON report; "
                              "csv format is not available")
        emit_json(result, settings)
    else:
        fieldnames, rows = result
        if settings.fmt == "json":
            emit_json({"columns": fieldnames, "rows": rows}, settings)
        else:
            emit_csv(fieldnames, rows, settings)


def dispatch(ctx: click.Context, worker):
    """Run a worker returning (kind, result[, doubt]); a doubt still emits
    the artifact, then goes to stderr with exit code 2 (Inconclusive)."""
    settings: Optional[Settings] = None
    try:
        settings = Settings(**ctx.obj)
        kind, result, *doubt = worker(settings)
        emit(kind, result, settings)
        if doubt:
            click.echo(f"Inconclusive: {doubt[0]}", err=True)
            ctx.exit(2)
    except Inconclusive as exc:
        payload = {"status": "inconclusive", "error": type(exc).__name__,
                   "message": str(exc)}
        if exc.measured is not None:
            payload["measured"] = exc.measured
        if exc.band is not None:
            payload["band"] = list(exc.band)
        emit_json(payload, settings)
        ctx.exit(2)
    except NullTorusError as exc:
        payload = {"status": "error", "error": type(exc).__name__,
                   "message": str(exc)}
        for attr in ("obstruction", "location"):
            value = getattr(exc, attr, None)
            if value is not None:
                payload[attr] = value
        emit_json(payload, settings)
        ctx.exit(1)
    ctx.exit(0)


# ---------------------------------------------------------------------------
# the command group


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config document; flags override its fields.")
@click.option("--output", "-o", default=None,
              help="Write the artifact to this path instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default=None, help="Force the artifact format where sensible.")
@click.option("--tol", "tol_overrides", multiple=True, metavar="KEY=VALUE",
              help="Override a tolerance, e.g. --tol scf_accept=1e-5.")
@click.version_option(package_name="nulltorus")
@click.pass_context
def main(ctx, config_path, output, fmt, tol_overrides):
    """Null-line flows, spin holonomy and kernel dimensions on Lorentzian tori."""
    ctx.obj = {"config_path": config_path, "output": output, "fmt": fmt,
               "tol_overrides": tuple(tol_overrides)}


#: the inputs every flow command shares, resolved before the command's own
FLOW_OPTIONS = (
    click.option("--metric", default=None,
                 help="Shorthand, inline JSON or path."),
    click.option("--family", type=click.Choice(["X", "Y"]), default=None,
                 help="Null family (default X)."),
    click.option("--step", type=float, default=None,
                 help="Integrator step (default the ode_step tolerance)."),
)


def _flow_inputs(s: Settings, metric, family, step, **options) -> dict:
    return dict(spec=s.metric(metric),
                family=s.choice("family", family, "X", ("X", "Y")),
                step=s.step(step), **options)


def command(name: Optional[str] = None, flow: bool = False):
    """Register ``body(s: Settings, **options)`` as a subcommand of ``main``.

    The command takes the artifact options (--config/--output/--format/--tol)
    after its own, merges them over the group's, so they are accepted before
    or after the command name, and dispatches what ``body`` returns:
    (kind, result[, doubt]).  A ``flow`` command also takes FLOW_OPTIONS
    first, and ``body`` gets the resolved ``spec``, ``family`` and ``step``.
    """
    def register(body):
        for option in reversed(FLOW_OPTIONS) if flow else ():
            body = option(body)
        @click.option("--config", "config_path", type=click.Path(),
                      default=None, help="JSON config document.")
        @click.option("--output", "-o", "output", default=None,
                      help="Write the artifact to this path.")
        @click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                      default=None)
        @click.option("--tol", "tol_overrides", multiple=True,
                      metavar="KEY=VALUE", help="Override a tolerance.")
        def run(config_path, output, fmt, tol_overrides, **options):
            ctx = click.get_current_context()
            given = {"config_path": config_path, "output": output, "fmt": fmt}
            ctx.obj.update((k, v) for k, v in given.items() if v is not None)
            ctx.obj["tol_overrides"] += tol_overrides
            dispatch(ctx, lambda s: body(
                s, **(_flow_inputs(s, **options) if flow else options)))
        # click lists decorator options last-applied first: the flow
        # options, the command's own, then the artifact options
        run.__click_params__ += body.__click_params__
        return main.command(name or body.__name__, help=body.__doc__)(run)
    return register


@command(flow=True)
@click.option("--from", "from_", default=None, metavar="X1,X2",
              help="Starting point on the torus (default 0,0).")
@click.option("--tmax", type=float, default=None,
              help="Axis-coordinate length of the sweep (default 10).")
def flow(s: Settings, spec, family, step, from_, tmax):
    """Integrate one null line; emit the trajectory as CSV."""
    p0 = parse_point(s.get("from", from_, "0,0"))
    rec = nullflow.integrate_null_line(spec, p0, family,
                                       t_max=s.number("tmax", tmax, 10.0),
                                       step=step, tol=s.tol)
    rows = [{"t": float(t),
             "x1_cover": float(p[0]), "x2_cover": float(p[1]),
             "x1_torus": float(p[0] % 1.0), "x2_torus": float(p[1] % 1.0)}
            for t, p in zip(rec.ts, rec.points)]
    return "csv", (["t", "x1_cover", "x2_cover", "x1_torus", "x2_torus"],
                   rows)


@command(flow=True)
@click.option("--from", "from_", default=None, metavar="X1,X2")
@click.option("--n-returns", type=int, default=None)
def rotation(s: Settings, spec, family, step, from_, n_returns):
    """Rotation number of the null flow, with a rational certificate."""
    p0 = parse_point(s.get("from", from_, "0,0"))
    est = nullflow.rotation_number(
        spec, family, p0, n_returns=s.count("n_returns", n_returns, 1000),
        step=step, tol=s.tol)
    return "json", {"command": "rotation", **dataclasses.asdict(est)}


@command("classify-line", flow=True)
@click.option("--from", "from_", default=None, metavar="X1,X2")
@click.option("--n-returns", type=int, default=None)
def classify_line(s: Settings, spec, family, step, from_, n_returns):
    """Closed / Dense / Asymptotic verdict for one null line."""
    p0 = parse_point(s.get("from", from_, "0,0"))
    cls = nullflow.classify_line(
        spec, p0, family, step=step,
        n_returns=s.count("n_returns", n_returns, 256), tol=s.tol)
    found = {k: v for k, v in dataclasses.asdict(cls).items() if v is not None}
    return "json", {"command": "classify-line", "family": family,
                    "from": list(p0), **found}


@command(flow=True)
@click.option("--resolution", type=int, default=None,
              help="Transversal seeds scanned (default 1024).")
def decompose(s: Settings, spec, family, step, resolution):
    """Cylinder decomposition of the torus under one null family."""
    res = s.count("resolution", resolution, 1024)
    try:
        dec = nullflow.cylinder_decomposition(
            spec, family, resolution=res, step=step, tol=s.tol)
    except nullflow.DenseFlow as exc:
        return "json", {"command": "decompose", "family": family,
                        "verdict": "Dense", "message": str(exc)}
    payload = {"command": "decompose", "verdict": "CylinderDecomposition",
               **dataclasses.asdict(dec)}
    for row, iv in zip(payload["intervals"], dec.intervals):
        row["width"] = iv.width
    return "json", payload


@command(flow=True)
@click.option("--seed-w", type=float, default=None,
              help="Transversal coordinate of the closed line (default 0).")
@click.option("--n-returns", type=int, default=None)
def holonomy(s: Settings, spec, family, step, seed_w, n_returns):
    """Spin holonomy table of a closed null line (one row per structure)."""
    w = s.number("seed_w", seed_w, 0.0)
    est = nullflow.rotation_number(
        spec, family, n_returns=s.count("n_returns", n_returns, 1000),
        step=step, tol=s.tol)
    if est.rational is None:
        raise WrongFamily(
            f"the {family} flow has irrational rotation number "
            f"{est.value:.9f}; no closed lines to transport around")
    rec = nullflow.closed_line_through(spec, family, w, est.rational,
                                       step=step, tol=s.tol)
    table = spin.holonomy_table(spec, rec, tol=s.tol)
    rows = []
    for ab in STRUCTURES:
        r = table[ab]
        rows.append({"a1": ab[0], "a2": ab[1],
                     "winding1": r.winding[0], "winding2": r.winding[1],
                     "character": r.character, "sheet": r.sheet,
                     "boost": r.boost, "x_trivial": r.x_trivial})
    return "csv", (["a1", "a2", "winding1", "winding2", "character",
                    "sheet", "boost", "x_trivial"], rows)


def _field_summary(f) -> dict:
    return {"sup_norm": f.sup_norm(),
            "residual": spinorfield.residual_norm(f, "harmonic"
                                                  if f.chirality == 1
                                                  else "twistor")}


def _contradictions(checked) -> list[str]:
    """[doubt] naming every report that contradicts its spectral count
    (None: no exact solver), or [] when none does."""
    clashes = "; ".join(
        f"{r.structure.a1},{r.structure.a2} {r.quantity}: {r.value} "
        f"({r.certificate}) vs spectral {count}"
        for r, count in checked if count not in (None, r.value))
    return ["geometric verdicts contradict the exact spectral count: "
            + clashes] if clashes else []


@command()
@click.option("--metric", default=None)
@click.option("--structure", default=None)
@click.option("--chirality", type=click.Choice(["1", "-1"]), default=None)
@click.option("--n-fields", type=int, default=None)
@click.option("--grid-n", type=int, default=None)
def solve(s: Settings, metric, structure, chirality, n_fields, grid_n):
    """Kernel of the transport equation (constant or closed diagonal)."""
    spec = s.metric(metric, grid_n)
    struct = s.structure(structure)
    chi = s.chirality(chirality)
    nf = s.count("n_fields", n_fields, 4)
    solver = spinorfield.exact_solver(spec, s.tol)
    if solver is None:
        raise WrongFamily(
            "solve handles constant-coefficient and closed diagonal "
            f"metrics; got {type(spec).__name__}")
    sol = solver(spec, struct, chirality=chi, n_fields=nf, tol=s.tol)
    payload = {"command": "solve", "structure": struct.label,
               "chirality": chi, "count_class": sol.count_class,
               "congruence_obstructed": sol.congruence_obstructed,
               "fields": [_field_summary(f) for f in sol.fields]}
    if isinstance(sol, spinorfield.HarmonicSolution):
        payload.update(solver="left_invariant", exact=sol.exact,
                       ratio=None if sol.ratio is None else str(sol.ratio),
                       modes=sol.modes)
    else:
        payload.update(solver="closed_diagonal", l1=sol.l1, l2=sol.l2,
                       ratio=None if sol.ratio is None
                       else dataclasses.asdict(sol.ratio),
                       solvable=sol.solvable, t_parity=sol.t_parity,
                       alphas=sol.alphas)
    return "json", payload


@command("classify")
@click.option("--metric", default=None)
@click.option("--structure", default=None)
@click.option("--quantity", default=None,
              type=click.Choice(sorted(classify.QUANTITIES)))
@click.option("--grid-n", type=int, default=None)
def classify_cmd(s: Settings, metric, structure, quantity, grid_n):
    """Dimension report for one conformal invariant and spin structure
    (exit 2, report still written, when it contradicts its spectral
    count)."""
    spec = s.metric(metric, grid_n)
    struct = s.structure(structure)
    q = s.choice("quantity", quantity, "delta_plus",
                 sorted(classify.QUANTITIES))
    report = classify.classify_dimension(spec, struct, q, tol=s.tol)
    payload = {**report.as_dict(), "command": "classify",
               "metric": str(s.get("metric", metric))}
    count = classify.spectral_count(spec, struct, report.family, s.tol)
    return ("json", payload, *_contradictions([(report, count)]))


@command()
@click.option("--metric", default=None)
@click.option("--quantity", "quantities", default=None,
              help="Comma list of invariants (default delta_plus).")
@click.option("--grid-n", type=int, default=None)
def table(s: Settings, metric, quantities, grid_n):
    """Structure table: one row per spin structure and invariant (exit 2,
    table still written, when a row contradicts its spectral count)."""
    spec = s.metric(metric, grid_n)
    raw = s.get("quantity", quantities, "delta_plus")
    qs = tuple(q.strip() for q in str(raw).split(",") if q.strip())
    for q in qs:
        if q not in classify.QUANTITIES:
            raise ConfigError(f"unknown quantity {q!r}; choose from "
                              + ", ".join(sorted(classify.QUANTITIES)))
    reports = classify.classify_table(spec, qs, tol=s.tol)
    # one exact count per (structure, family): it does not hang on chirality
    spectral = {(ab, family): classify.spectral_count(
        spec, SpinStructure(*ab), family, s.tol)
        for family in dict.fromkeys(classify.QUANTITIES[q][0] for q in qs)
        for ab in STRUCTURES}
    checked = [(reports[ab][q], spectral[ab, classify.QUANTITIES[q][0]])
               for ab in STRUCTURES for q in qs]
    rows = [{"a1": rep.structure.a1, "a2": rep.structure.a2,
             "quantity": rep.quantity, "value": rep.value,
             "certificate": rep.certificate, "family": rep.family,
             "spectral_count": count} for rep, count in checked]
    return ("csv", (["a1", "a2", "quantity", "value", "certificate", "family",
                     "spectral_count"], rows), *_contradictions(checked))



@command()
@click.option("--step", type=float, default=None,
              help="Integrator step of criterion 3's rotation numbers and "
                   "criterion 9's completeness probe.")
@click.option("--grid-n", type=int, default=None,
              help="Grid of criterion 1's solver and criterion 9's bump "
                   "fields.")
@click.option("--criterion", type=int, default=None,
              help="Run a single criterion (1-10) instead of the suite.")
def validate(s: Settings, step, grid_n, criterion):
    """Run the acceptance suite; failures are reported, never raised."""
    h = None if s.get("step", step) is None else s.step(step)
    n = s.get("grid_n", grid_n)
    n = None if n is None else s.count("grid_n", n, 64)
    which = s.get("criterion", criterion)
    if which is None:
        results = validation.run_all(step=h, grid_n=n, tol=s.tol)
    else:
        index = s.choice("criterion",
                         s.number("criterion", which, None, int), None,
                         [idx for idx, _, _ in validation.SUITE])
        results = [validation.run_criterion(index, step=h, grid_n=n,
                                            tol=s.tol)]
    for r in results:
        click.echo(r.line, err=(s.output is None))
    passed = sum(r.passed for r in results)
    payload = {"command": "validate", "passed": passed,
               "failed": len(results) - passed,
               "overrides": {"step": h, "grid_n": n},
               "criteria": [r.as_dict() for r in results]}
    return "json", payload


if __name__ == "__main__":
    main()
