"""Span tracing of gaussbench's public functions, for the per-layer metrics.

The tracer replaces each traced function at every ``gaussbench`` module
attribute that binds it, so calls between the package's own modules are
seen too (``cli`` calls ``scheme2`` through its own import, ``schemes``
calls ``observe_mode1`` through its own).  Each call records a span:
name, start, end, parent span and op id.  Spans stay in memory and are
written as JSON lines at the end.  A span's self time is its duration
minus the durations of its child spans; calls are strictly nested in
this single-threaded program, so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Metric group -> traced functions as (module, function).  ``None`` in place
#: of a function name means every public function that module defines.
GROUPS = {
    "cli.main": [("cli", "main")],
    "stateio.load_state": [("stateio", "load_state")],
    "generators": [("generators", None)],
    "states.validate_physical": [("states", "validate_physical")],
    "states.quad_to_mode": [("states", "quad_to_mode")],
    "states.invariants_quad": [("states", "invariants_quad")],
    "states.standard_form_prep": [("states", "standard_form_prep")],
    "bench.observe_mode1": [("bench", "observe_mode1")],
    "schemes.scheme1": [("schemes", "scheme1")],
    "schemes.scheme2": [("schemes", "scheme2")],
    "schemes.reconstruct_from_transcript": [("schemes", "reconstruct_from_transcript")],
    "entanglement.entanglement_report": [("entanglement", "entanglement_report")],
}


def _package_modules():
    return [m for k, m in list(sys.modules.items()) if k == "gaussbench" or k.startswith("gaussbench.")]


def _resolve(module: str, name: str | None) -> list:
    """The functions a GROUPS entry names; empty when they no longer exist."""
    try:
        mod = importlib.import_module(f"gaussbench.{module}")
    except ImportError:
        return []
    if name is not None:
        fn = getattr(mod, name, None)
        return [fn] if callable(fn) else []
    return [
        fn
        for attr in getattr(mod, "__all__", ())
        if callable(fn := getattr(mod, attr, None)) and getattr(fn, "__module__", None) == mod.__name__
    ]


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []
        self._group: dict[str, str] = {}

    def install(self) -> None:
        for group, entries in GROUPS.items():
            for module, name in entries:
                functions = _resolve(module, name)
                if not functions:
                    self.absent.append(f"{module}.{name or '*'}")
                for fn in functions:
                    span_name = f"{module}.{fn.__name__}"
                    self._group[span_name] = group
                    self._patch(fn, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, fn, wrapper) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def _wrap(self, span_name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op_id)

        return traced

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[int, int]]:
        """Group -> (calls, self time in ns); absent groups read (0, 0)."""
        out = {group: (0, 0) for group in GROUPS}
        for span, own in zip(self.spans, self.self_times_ns()):
            group = self._group[span[0]]
            calls, total = out[group]
            out[group] = (calls + 1, total + own)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": None if parent < 0 else parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )
