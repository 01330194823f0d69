"""Run one benchmark op in a fresh interpreter and report it as JSON.

Reads the op from stdin, imports ``nulltorus.cli`` and builds the op's metric
through ``catalog`` (the set-up), then runs the op: a CLI command through
click in-process with stdout captured, or a public API call.  Timestamps are
``time.monotonic`` readings, which the parent shares, so the parent can time
set-up from the moment it spawned this process.  Checks that need the op's
Python objects (field residuals) run after the timed region.  The report is
the last line written to the real stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _structure(pair):
    from nulltorus.spin import SpinStructure
    return SpinStructure(int(pair[0]), int(pair[1]))


def run_api(op, spec):
    """The op's API call: a verdict, or the fields whose residuals get checked."""
    from nulltorus import catalog, classify, spinorfield
    from nulltorus.errors import NotSCF
    call = op["call"]
    if call == "semi_conformal_certificate":
        try:
            return {"verdict": classify.semi_conformal_certificate(
                spec, op["family"]).kind}
        except NotSCF:
            return {"verdict": "NotSCF"}
    structure = _structure(op["structure"])
    if call == "construct_resonant_spinors":
        fields = spinorfield.construct_resonant_spinors(
            spec, structure, count=op["count"], grid_n=op["grid_n"])
        return {"fields": list(fields), "operator": "harmonic"}
    if call == "harmonic_twistor_iso":
        sol = spinorfield.solve_closed_diagonal(spec, structure, n_fields=1)
        image = spinorfield.harmonic_twistor_iso(sol.fields[0])
        return {"fields": [image], "operator": "twistor"}
    if call == "conformal_map_spinor":
        fac = op["factor"]
        target = catalog.conformal(spec, catalog.exp_sine_factor(
            amp=fac["amp"], k=fac["k"], l=fac["l"], phase=fac["phase"]))
        sol = spinorfield.solve_closed_diagonal(spec, structure, n_fields=1)
        image = spinorfield.conformal_map_spinor(sol.fields[0], target)
        return {"fields": [image], "operator": "harmonic"}
    raise ValueError(f"unknown API call {call!r}")


def main() -> int:
    op = json.loads(sys.stdin.read())
    report: dict = {"id": op["id"]}
    from nulltorus import catalog, cli
    spec = catalog.load_metric(op["metric"], grid_n=op.get("grid_n"))
    report["setup_end"] = time.monotonic()
    report["src"] = cli.__file__

    tracer = None
    if op.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    api_result = None
    t0 = time.monotonic()
    try:
        if op["kind"] == "cli":
            def invoke():
                with contextlib.redirect_stdout(out):
                    return cli.main.main(args=op["argv"], prog_name="nulltorus",
                                         standalone_mode=False)
            if tracer is not None:
                invoke = tracer.span(f"cli.{op['argv'][0]}", invoke)
            report["rc"] = invoke()
        else:
            def invoke():
                return run_api(op, spec)
            if tracer is not None:
                invoke = tracer.span(f"api.{op['call']}", invoke)
            api_result = invoke()
            report["rc"] = 0
    except Exception as exc:   # an op that raises is a failed op, not a crash
        report["rc"] = 1
        report["raised"] = f"{type(exc).__name__}: {exc}"
        report["traceback"] = traceback.format_exc(limit=4)
    t1 = time.monotonic()
    report["op_s"] = t1 - t0
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if op.get("spans_path"):
            tracer.save(op["spans_path"], op["id"])
    report["stdout"] = out.getvalue()

    if api_result is not None and "verdict" in api_result:
        report["api"] = api_result
    elif api_result is not None:
        from nulltorus import spinorfield
        fields = api_result["fields"]
        report["api"] = {
            "fields": len(fields),
            "residuals": [spinorfield.residual_norm(f, api_result["operator"])
                          for f in fields],
            "sup_norms": [f.sup_norm() for f in fields]}
    sys.__stdout__.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
