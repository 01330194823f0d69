"""Spans and work counts around the calls into each nulltorus layer.

``Tracer.install`` replaces every public module-level function of the layer
modules (and the ``numpy.fft`` transforms, and the ``lsqr`` name that
``classify`` calls) with a wrapper that records one span per call: name,
start, end and parent.  Calls between modules, and calls inside a module
through its own globals, both go through the module attribute, so they are
all seen.  Spans live in compact arrays until the op ends; self time is kept
on the fly as a span's duration minus the time its direct children cover.

Counters are taken at the same boundaries: call counts, the broadcast size
of the ``(x1, x2)`` sample points, FFT element counts, the outcome of every
``semi_conformal_certificate`` call and LSQR's iteration count and stop code.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import time

import numpy as np

LAYERS = ("geometry", "nullflow", "spin", "classify", "spinorfield",
          "catalog", "cli")
# every complex and real transform, not only the three gridtools calls today,
# so that a switch to another transform still shows in fft.calls
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# counter name -> the wrapped functions whose calls it counts
CALL_COUNTERS = {
    "geometry.connection_calls": ("geometry.connection_along",),
    "geometry.frame_calls": ("geometry.frame_component_arrays",),
    "geometry.direction_calls": ("geometry.null_direction_arrays",),
    "nullflow.sweeps": ("nullflow.rotation_number",
                        "nullflow.cylinder_decomposition",
                        "nullflow.integrate_null_line"),
    "nullflow.closed_lines": ("nullflow.closed_line_through",),
    "spin.holonomy_tables": ("spin.holonomy_table",),
    "spinorfield.operator_applies": ("spinorfield.dirac_apply",
                                     "spinorfield.twistor_apply"),
}
# counter name -> function whose (x1, x2) broadcast size it sums
POINT_COUNTERS = {
    "geometry.connection_points": "geometry.connection_along",
    "geometry.frame_points": "geometry.frame_component_arrays",
    "geometry.direction_points": "geometry.null_direction_arrays",
}
SCF_OUTCOMES = ("analytic", "conformal", "rescaling", "not_scf",
                "inconclusive")
# every count a traced op reports, in report order
COUNTER_NAMES = (tuple(CALL_COUNTERS) + tuple(POINT_COUNTERS)
                 + tuple(f"classify.scf.{k}" for k in SCF_OUTCOMES)
                 + ("classify.lsqr_calls", "classify.lsqr_iters",
                    "fft.calls", "fft.elements"))


def _point_arg(args, kwargs, name, index):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span recorder for one op; ``install`` before it, ``uninstall`` after."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.self_time: list[float] = []
        self.counts: collections.Counter = collections.Counter()
        self.lsqr_stops: collections.Counter = collections.Counter()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_time.append(0.0)
        return self._name_ids[name]

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None, on_error=None):
        """Wrap ``fn`` so each call records a span under ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, **hooks):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, **hooks))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for layer in LAYERS:
            module = importlib.import_module(f"nulltorus.{layer}")
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                plain = hasattr(obj, "__code__") or hasattr(obj, "cache_info")
                if isinstance(obj, type) or not plain:
                    continue    # classes, click commands, constants
                if getattr(obj, "__module__", None) != module.__name__:
                    continue    # names imported from elsewhere
                qual = f"{layer}.{attr}"
                self._patch(module, attr, qual, **hooks.get(qual, {}))
        classify = importlib.import_module("nulltorus.classify")
        self._patch(classify, "lsqr", "classify.lsqr",
                    after=self._lsqr_done)
        for attr in FFT_FUNCTIONS:
            self._patch(np.fft, attr, f"fft.{attr}", before=self._fft_call)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> dict:
        hooks: dict = collections.defaultdict(dict)
        counters: dict = collections.defaultdict(list)
        for counter, fns in CALL_COUNTERS.items():
            for fn in fns:
                counters[fn].append(counter)
        for counter, fn in POINT_COUNTERS.items():
            counters[fn].append(counter)

        def counting(names):
            def before(args, kwargs):
                for counter in names:
                    if counter.endswith("_points"):
                        x1 = _point_arg(args, kwargs, "x1", 1)
                        x2 = _point_arg(args, kwargs, "x2", 2)
                        self.counts[counter] += np.broadcast(x1, x2).size
                    else:
                        self.counts[counter] += 1
            return before

        for fn, names in counters.items():
            hooks[fn]["before"] = counting(names)
        hooks["classify.semi_conformal_certificate"].update(
            after=self._scf_done, on_error=self._scf_failed)
        return hooks

    # -- counters read from results ----------------------------------------

    def _fft_call(self, args, kwargs):
        self.counts["fft.calls"] += 1
        data = kwargs["a"] if "a" in kwargs else args[0]
        self.counts["fft.elements"] += int(np.size(data))

    def _scf_done(self, cert):
        self.counts[f"classify.scf.{cert.kind}"] += 1

    def _scf_failed(self, exc):
        kind = {"NotSCF": "not_scf", "Inconclusive": "inconclusive"}.get(
            type(exc).__name__)
        if kind is not None:
            self.counts[f"classify.scf.{kind}"] += 1

    def _lsqr_done(self, result):
        self.counts["classify.lsqr_calls"] += 1
        self.counts["classify.lsqr_iters"] += int(result[2])
        self.lsqr_stops[int(result[1])] += 1

    # -- summaries ----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = collections.defaultdict(float)
        for nid, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_time[nid]
        return dict(out)

    def summary(self) -> dict:
        counts = {name: int(self.counts.get(name, 0))
                  for name in COUNTER_NAMES}
        return {"self_s": self.layer_self_times(), "counts": counts,
                "lsqr_stops": {str(k): v for k, v in
                               sorted(self.lsqr_stops.items())},
                "spans": len(self.start)}

    def save(self, path, op_id: str) -> None:
        """Write the spans (name, start, end, parent, op id) as one npz."""
        np.savez_compressed(
            path, op_id=np.array(op_id), names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
