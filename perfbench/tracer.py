"""Span tracer for the seven gwsim modules, installed from outside the package.

``Tracer.install`` wraps every public module-level function of the layers in
``LAYERS`` and rebinds each wrapper in every ``gwsim`` namespace that holds the
original. The modules import each other's functions by name (``from .qmath
import apply_local`` in ``scenario``, ``measurement`` and ``models``), so
patching only the defining module would miss those calls. Methods are not
wrapped: ``OutcomeAssignment.value`` alone runs 10^5 times per run.

A span is ``(function index, start, end, parent span index, extra)``; spans
stay in memory and are written out once by ``dump``. ``summarize`` turns a
dumped trace into per-function call counts and self times, per-layer self
times and the exact counters the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("qmath", "systems", "measurement", "spacetime", "scenario", "models", "cli")


def public_functions() -> dict:
    """``layer.name`` -> function, for each public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gwsim.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        # Objects named in span extras stay referenced, so their serial
        # numbers never refer to a recycled id().
        self._objects: list = []
        self._serials: dict[int, int] = {}

    def _serial(self, obj) -> int:
        key = id(obj)
        if key not in self._serials:
            self._serials[key] = len(self._objects)
            self._objects.append(obj)
        return self._serials[key]

    def _extra(self, name: str, args, kwargs, result):
        """Arguments a counter needs, recorded for three functions only."""
        if name == "qmath.apply_local":
            op = args[0] if args else kwargs["op"]
            state = args[2] if len(args) > 2 else kwargs["state"]
            return op.matrix.nbytes + state.amplitudes.nbytes + result.amplitudes.nbytes
        if name == "scenario.support_constraint":
            model = args[2] if len(args) > 2 else kwargs["model"]
            constraint = result[1]
            if constraint is None:
                return [self._serial(model), None]
            return [self._serial(model), list(constraint.slots), constraint.required_product]
        if name == "scenario.evolve_to":
            schedule = args[0] if args else kwargs["s"]
            frame = args[1] if len(args) > 1 else kwargs["f"]
            return [self._serial(schedule), list(frame.velocity)]
        return None

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        wants_extra = name in ("qmath.apply_local", "scenario.support_constraint", "scenario.evolve_to")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = [index, start, end, parent, None]
            if wants_extra:
                spans[span][4] = self._extra(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> dict:
        """Wrap the layers' public functions; returns ``layer.name`` -> original."""
        originals = public_functions()
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gwsim" and not mod_name.startswith("gwsim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return originals

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def summarize(trace: dict) -> dict:
    """Counts and times from one dumped trace.

    Returns ``{"calls": {fn: int}, "self_s": {fn: float}, "layer_self_s":
    {layer: float}, "main_s": float, "bytes_computed": int, "fractions":
    {metric: (numerator, denominator)}}``, the fractions unreduced so that
    each keeps its base. A span's self time is its duration minus the
    durations of its direct children; calls run one at a time, so children
    never overlap.
    """
    names = trace["names"]
    spans = trace["spans"]
    calls = {name: 0 for name in names}
    total = [0.0] * len(spans)
    child_time = [0.0] * len(spans)
    children_named: dict[int, dict[str, int]] = {}
    for i, (fn, start, end, parent, _extra) in enumerate(spans):
        total[i] = end - start
        calls[names[fn]] += 1
        if parent >= 0:
            child_time[parent] += total[i]
            counts = children_named.setdefault(parent, {})
            counts[names[fn]] = counts.get(names[fn], 0) + 1

    self_s = {name: 0.0 for name in names}
    layer_self_s = {layer: 0.0 for layer in LAYERS}
    for i, (fn, *_rest) in enumerate(spans):
        own = total[i] - child_time[i]
        self_s[names[fn]] += own
        layer_self_s[names[fn].split(".", 1)[0]] += own

    main_s = sum(total[i] for i, span in enumerate(spans) if names[span[0]] == "cli.main")
    bytes_computed = sum(s[4] for s in spans if names[s[0]] == "qmath.apply_local")

    # Constraints are new the first time a device model yields them.
    rounds = 0
    found = set()
    # evolve_to: unitaries applied, and per (schedule, frame) the most any one
    # call applied -- an incremental pass applies each of those exactly once.
    applied = 0
    needed: dict[tuple, int] = {}
    measures = 0
    measure_applies = 0
    for i, (fn, _start, _end, _parent, extra) in enumerate(spans):
        name = names[fn]
        if name == "scenario.support_constraint":
            rounds += 1
            if extra[1] is not None:
                found.add((extra[0], tuple(extra[1]), extra[2]))
        elif name == "scenario.evolve_to":
            n = children_named.get(i, {}).get("qmath.apply_local", 0)
            applied += n
            key = (extra[0], tuple(extra[1]))
            needed[key] = max(needed.get(key, 0), n)
        elif name == "measurement.measure":
            measures += 1
            measure_applies += children_named.get(i, {}).get("qmath.apply_local", 0)

    return {
        "calls": calls,
        "self_s": self_s,
        "layer_self_s": layer_self_s,
        "main_s": main_s,
        "bytes_computed": bytes_computed,
        "fractions": {
            "scenario.constraint_yield": (len(found), rounds),
            "scenario.evolve_to.useful_apply_ratio": (sum(needed.values()), applied),
            "measurement.apply_local_per_measure": (measure_applies, measures),
        },
    }
