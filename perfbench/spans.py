"""Spans at the public-function boundaries of the losslin modules.

A Tracer replaces every public function of a losslin module in each namespace
a caller looks it up from: the package, the module that defines it, and every
module that imported it by name (``bounds`` calls ``breakpoint_errors``
through ``losslin.bounds``, ``partition`` calls ``closs_std`` through
``losslin.partition``).  Each call records one span: the function, the layer
(its defining module), the site (the namespace it was looked up in), start and
end in nanoseconds and the index of the enclosing span.  Spans stay in memory;
``dump`` writes them once, at the end of a traced run.

Nothing in the library is edited: the wrappers live in the benchmark and are
removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("gaussian", "loss_core", "partition", "tables", "bounds", "export_io", "cli")


def layer_modules() -> dict:
    """The layer modules that exist in this checkout, by short name."""
    mods = {}
    for name in LAYERS:
        try:
            mods[name] = importlib.import_module(f"losslin.{name}")
        except ImportError:
            continue
    return mods


def _public_functions(mods: dict) -> dict:
    """id(function) -> (qualified name, layer) for each public function."""
    found = {}
    for layer, mod in mods.items():
        for attr, val in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(val) and val.__module__ == mod.__name__:
                found[id(val)] = (f"{layer}.{val.__name__}", layer)
    return found


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, path: str):
        self.path = path
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        import losslin

        mods = layer_modules()
        funcs = _public_functions(mods)
        sites = {"losslin": losslin, **mods}
        for site, ns in sites.items():
            for attr, val in list(vars(ns).items()):
                if id(val) in funcs and inspect.isfunction(val):
                    name, layer = funcs[id(val)]
                    self._swap(ns, attr, self._wrap(val, name, layer, site))
                elif inspect.isclass(val) and site == val.__module__.rpartition(".")[2]:
                    self._wrap_classmethods(val, site)

    def _wrap_classmethods(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(val, classmethod):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self._swap(cls, attr, classmethod(self._wrap(val.__func__, name, layer, layer)))

    def _swap(self, ns, attr: str, new) -> None:
        self._saved.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, old = self._saved.pop()
            setattr(ns, attr, old)

    def _wrap(self, fn, name: str, layer: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, site, start, end, parent)

        return traced

    def mark(self) -> int:
        """Index of the next span, for slicing the spans of one phase."""
        return len(self.spans)

    def dump(self, label: str, lo: int = 0) -> None:
        """Append spans[lo:] to the span file, one JSON array per line:
        label, index, name, site, start_ns, end_ns, parent index."""
        with open(self.path, "a", encoding="utf-8") as fh:
            for i in range(lo, len(self.spans)):
                name, _, site, start, end, parent = self.spans[i]
                fh.write(json.dumps([label, i, name, site, start, end, parent]) + "\n")


def durations_ns(spans, name: str, site: str | None = None,
                 lo: int = 0, hi: int | None = None, top: bool = False) -> list[int]:
    """Durations of the spans of one function in spans[lo:hi], optionally only
    those looked up at one site, or only those called by the benchmark itself (top)."""
    hi = len(spans) if hi is None else hi
    return [s[4] - s[3] for s in (spans[i] for i in range(lo, hi))
            if s[0] == name and (site is None or s[2] == site) and (not top or s[5] < 0)]


def self_ns_by(spans, key: int, lo: int = 0, hi: int | None = None) -> dict:
    """Self time (duration minus child spans) over spans[lo:hi], summed by
    function name (key=0) or layer (key=1)."""
    hi = len(spans) if hi is None else hi
    out = defaultdict(int)
    for i in range(lo, hi):
        s = spans[i]
        out[s[key]] += s[4] - s[3]
        if s[5] >= lo:
            out[spans[s[5]][key]] -= s[4] - s[3]
    return dict(out)
