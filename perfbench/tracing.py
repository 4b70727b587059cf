"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps every public function a package module defines,
the listed public methods, and every scipy routine a package module
imports by name (so ``mdmr.brentq`` and ``mechanics.brentq`` are traced
apart).  The wrapper is rebound under every name that held the original,
in every package module and in module-level dicts such as the CLI
command table; ``uninstall`` puts the originals back.  The program's
source is not changed.

Each call records a span (name, start, end, parent, operation).  Spans
stay in memory and are written out once, after the timed pass.  A span's
self time is its duration minus the durations of its direct children:
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from collections import Counter

import numpy as np

# public methods traced besides module-level functions: (module, class, method)
METHODS = (("table", "ResultTable", "emit"),)


class Tracer:
    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = hooks or {}  # span name -> fn(args, result, counters)
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent index, op)
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- installation ---------------------------------------------------

    def _modules(self):
        mods = {}
        for info in pkgutil.iter_modules(self.package.__path__):
            mods[info.name] = importlib.import_module(f"{self.package.__name__}.{info.name}")
        return mods

    def install(self) -> None:
        mods = self._modules()
        wrappers = {}  # id(original) -> wrapper, for package functions
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif obj.__module__.startswith("scipy"):
                    self._set(mod, attr, self._wrap(f"{short}.{attr}", obj))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            if cls is not None and meth in vars(cls):
                self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        for mod in [self.package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
                            self._undo.append((obj.__setitem__, key, val))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        hook = self.hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if hook is not None:
                hook(args, result, self.counters)
            return result

        return wrapper

    # --- results --------------------------------------------------------

    def arrays(self) -> dict:
        rec = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {"name_id": rec[:, 0].astype(int), "start": rec[:, 1], "end": rec[:, 2],
                "parent": rec[:, 3].astype(int), "op": rec[:, 4].astype(int)}

    def summary(self) -> dict:
        """Per span name: calls and self time (s)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=len(self.names))
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
