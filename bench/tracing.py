"""Layer spans for the traced run.

`Tracer.install` wraps every public function of each eiskit module from the
outside and rebinds every module attribute that holds it: a name imported
with `from .specfun import bessel_k` is a second binding in `whittaker`, and
a call through it must be traced too.  `uninstall` restores the originals, so
untraced passes run the unmodified program.

A span is (name, layer, start, end, parent, raised).  Spans are kept in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

LAYERS = ("core", "specfun", "forms", "hecke", "whittaker", "eisenstein",
          "uniqueness", "cli")


class Tracer:
    def __init__(self, package: str = "eiskit"):
        self.package = package
        self.spans: list = []
        self._local = threading.local()
        self._bindings: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = dict.fromkeys(LAYERS, 0)
        return local

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack, depth = state.stack, state.depth
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth[layer] += 1
            outermost = depth[layer] == 1
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                depth[layer] -= 1
                stack.pop()
                spans[index] = (name, layer, start, end, parent, raised,
                                outermost)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        if self._bindings:
            return
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(
                    self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_table(spans: list) -> dict[str, dict[str, float]]:
    """Per-layer calls, self time, inclusive time and raised exceptions.

    Self time is a span's duration minus the time its direct child spans
    cover; inclusive time counts only spans with no enclosing span of the
    same layer, so recursion within a layer is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, raised, outer in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
             for layer in LAYERS}
    for i, (name, layer, start, end, parent, raised, outer) in enumerate(
            spans):
        row = table[layer]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if outer:
            row["total_s"] += end - start
        if raised:
            row["errors"] += 1
    return table
