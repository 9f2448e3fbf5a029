"""In-memory span tracer for the package's public functions, installed from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
public function of the traced modules with a wrapper in every module
namespace that holds it: its own module, the modules that import it by
name, and the package root.  Calls are therefore seen at the boundary their
callers actually use (``cli`` calls ``experiments.run_theorem2`` through its
own ``run_theorem2`` name, ``experiments`` calls ``linalg.operator_norm``
through its own ``operator_norm`` name, and so on).

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (``None`` at top level) and ``value`` an optional number
measured from the call's result (bytes written, a cache outcome).  The
command runs single-threaded (``--workers 1``), so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("linalg", "noise", "ensembles", "equivalents", "grushin", "experiments", "cli")
SPAN_FIELDS = ("name", "start", "end", "parent", "value")


def _invert_method(args, kwargs) -> str:
    method = args[3] if len(args) > 3 else kwargs.get("method", "direct")
    return f"grushin.invert_perturbed.{method}"


# Per-function extras: ``namer`` splits one function into several span names,
# ``value`` records a number measured from the result.
HOOKS = {
    "grushin.invert_perturbed": {"namer": _invert_method},
    "noise.sample": {"value": lambda g: g.nbytes},
    "ensembles.known_singvals": {"value": lambda s: 0 if s is None else 1},
    "experiments.write_results": {"value": lambda paths: sum(os.path.getsize(p) for p in paths)},
}


class Tracer:
    """Collects spans in memory; ``invocation`` identifies the process's run."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, namer=None, value=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0, open_spans[-1] if open_spans else None, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if value is not None:
                span[4] = value(result)
            return result

        return traced

    def as_dict(self) -> dict:
        return {"invocation": self.invocation, "fields": list(SPAN_FIELDS), "spans": self.spans}


def public_functions(module) -> list[str]:
    """Names of the plain functions a module defines and exports."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None)) and getattr(module, n).__module__ == module.__name__
    ]


def install(tracer: Tracer) -> int:
    """Wrap every public function of :data:`LAYERS`; returns how many were wrapped."""
    modules = {layer: importlib.import_module(f"logdet_equiv.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("logdet_equiv"), *modules.values()]
    wrapped = 0
    for layer, module in modules.items():
        for name in public_functions(module):
            fn = getattr(module, name)
            key = f"{layer}.{name}"
            traced = tracer.wrap(key, fn, **HOOKS.get(key, {}))
            for namespace in namespaces:
                for attr in [a for a, obj in vars(namespace).items() if obj is fn]:
                    setattr(namespace, attr, traced)
            wrapped += 1
    return wrapped


def span_totals(spans) -> dict:
    """Per span name: ``calls``, ``self_s`` (duration minus child spans) and summed ``value``.

    Spans of one single-threaded process nest without overlap, so the part
    of a span covered by its children is the sum of their durations.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, value) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "value": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_s[i]
        if value is not None:
            entry["value"] += value
    return totals
