"""Outside-in layer tracing of the onewaysim package.

The tracer wraps the public functions of each module (plus
``DensityMatrix.__init__``) and rebinds every module attribute that *is*
the original function, because modules import each other's functions by
name.  The constructor is wrapped rather than the class, since the code
dispatches on ``isinstance``.  Spans are aggregated in memory as they
close: per span name a call count, self time (duration minus the time of
child spans) and inclusive time, plus call counts per (parent, child)
edge.  Nothing is written until the caller reads the totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("qcore", "cluster", "photonics", "mbqc", "analysis", "cli")
ROOT_SPAN = "cli.main"


def _public_functions(module) -> Dict[str, Callable]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Install with ``install()``; always ``uninstall()`` (or use ``with``)."""

    def __init__(self):
        # name -> [calls, self seconds, inclusive seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self.branches_returned = 0
        # multiplies span durations; the benchmark sets it per call (speed.py)
        self.scale = 1.0
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        count_branches = name == "mbqc.branch_distribution"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (perf_counter() - start) * self.scale
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                stats[2] += elapsed
                edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count_branches:
                self.branches_returned += len(result)
            return result

        return span

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [
            mod
            for key, mod in sys.modules.items()
            if key == "onewaysim" or key.startswith("onewaysim.")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"onewaysim.{layer}"]
            for fname, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        density = sys.modules["onewaysim.qcore"].DensityMatrix
        init = density.__dict__["__init__"]
        self._restore.append((density, "__init__", init))
        density.__init__ = self._wrap("qcore.DensityMatrix", init)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def layer_self_seconds(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, (_, self_s, _) in self.stats.items():
            totals[name.split(".", 1)[0]] += self_s
        return totals

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)
