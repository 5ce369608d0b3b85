"""Benchmark-side layer tracing: wrap the program's public functions.

Callers bind program functions with ``from x import f``, so wrapping the
defining module alone misses most calls.  :class:`LayerTracer` replaces a
function object wherever it is bound -- every module global in
``sys.modules`` and every class attribute that holds it -- and restores
each binding on exit.  Async functions are never wrapped: they interleave
with other tasks on the loop, so their spans would not nest.  Time the loop
spends waiting shows as selector time instead (:class:`IdleSelector`).

A span stack gives self time: a layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import selectors
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["IdleSelector", "LayerStat", "LayerTracer", "Target", "resolve"]

#: Counts work from a wrapped call's arguments (e.g. cipher blocks).
Counter = Callable[[tuple, dict], int]

#: (layer name, "module:qualname" of the function, optional work counter).
Target = Tuple[str, str, Optional[Counter]]


class LayerStat:
    """Self time, calls and counted work of one layer."""

    __slots__ = ("self_s", "calls", "work")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.work = 0


def resolve(path: str) -> Any:
    """The object a ``"module:qualname"`` path names (class members raw)."""
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part) if not isinstance(obj, type) else vars(obj)[part]
    return obj


class LayerTracer:
    """Wraps every binding of the target functions while installed."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self._targets = list(targets)
        self._stack: List[List[float]] = []
        self.stats: Dict[str, LayerStat] = {layer: LayerStat() for layer, _, _ in targets}
        self._restore: List[Tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        stack = self._stack
        stat = self.stats[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                stat.self_s += duration - frame[1]
                stat.calls += 1
                if counter is not None:
                    stat.work += counter(args, kwargs)
                if stack:
                    stack[-1][1] += duration

        traced.__perfbench_wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every binding of every target function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, Callable] = {}
        originals: Dict[int, Callable] = {}
        for layer, path, counter in self._targets:
            fn = resolve(path)
            if getattr(fn, "__perfbench_wrapped__", None) is not None:
                raise RuntimeError(f"{path} is already wrapped")
            if inspect.iscoroutinefunction(fn):
                raise TypeError(f"{path} is async; its spans would not nest")
            wrappers[id(fn)] = self._wrap(layer, fn, counter)
            originals[id(fn)] = fn
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._bind(module, name, value, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__ == getattr(
                    module, "__name__", None
                ):
                    for attr, member in list(vars(value).items()):
                        if id(member) in wrappers and originals[id(member)] is member:
                            self._bind(value, attr, member, wrappers[id(member)])

    def _bind(self, owner: Any, name: str, original: Any, wrapper: Callable) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        if self._stack:
            raise RuntimeError("tracer removed with spans still open")

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


class IdleSelector(selectors.DefaultSelector):
    """The event loop's selector, timing how long ``select`` waits."""

    def __init__(self) -> None:
        super().__init__()
        self.counting = False
        self.idle_s = 0.0

    def select(self, timeout=None):
        if not self.counting:
            return super().select(timeout)
        t0 = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += time.perf_counter() - t0
