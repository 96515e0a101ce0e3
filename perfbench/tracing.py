"""Layer tracing from outside the package.

Every public function of the traced ``dimerqpt`` modules is replaced by a
wrapper, both where it is defined and in each ``dimerqpt`` module that
imported it by name, so calls between modules are seen too.  While the
tracer is enabled each call records a span (function, start, end, parent
span); spans stay in memory and are reduced to per-function call counts
and self time, where self time is a span's duration minus the durations of
its direct child spans.  File traffic of the CLI layer is counted through a
counting ``open`` placed in the ``dimerqpt.cli`` namespace.
"""

import builtins
import functools
import importlib
import inspect
import sys
from time import perf_counter

TRACED_MODULES = ("config", "cli", "ensemble", "model", "bath", "pulses",
                  "response", "isoaverage", "reconstruct")


class _CountingFile:
    """Text file proxy that adds the characters it moves to a counter."""

    def __init__(self, fh, counter):
        self._fh = fh
        self._counter = counter

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._fh)
        self._counter["read"] += len(line)
        return line

    def read(self, *args):
        data = self._fh.read(*args)
        self._counter["read"] += len(data)
        return data

    def write(self, data):
        self._counter["written"] += len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Span recorder wrapped around the package's public functions."""

    def __init__(self):
        self.enabled = False
        self.names = []            # function id -> "module.function"
        self.spans = []            # (function id, start, end, parent index)
        self.io = {"read": 0, "written": 0}
        self._stack = []

    def install(self):
        """Wrap every public function; returns the traced names."""
        for name in TRACED_MODULES:
            importlib.import_module(f"dimerqpt.{name}")
        # the attribute ``dimerqpt.reconstruct`` is the function re-exported
        # by the package, so modules are taken from sys.modules
        modules = {name: sys.modules[f"dimerqpt.{name}"]
                   for name in TRACED_MODULES}
        holders = [mod for key, mod in sorted(sys.modules.items())
                   if key == "dimerqpt" or key.startswith("dimerqpt.")]
        for short, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(len(self.names), fn)
                self.names.append(f"{short}.{attr}")
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
        modules["cli"].open = self._open
        return list(self.names)

    def _open(self, *args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        return _CountingFile(fh, self.io) if self.enabled else fh

    def _wrap(self, fid, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fid, start, end, parent)
        return wrapper

    def start(self):
        self.spans = []
        self._stack = []
        self.io = {"read": 0, "written": 0}
        self.enabled = True

    def stop(self):
        """Disable tracing and reduce the recorded spans.

        Returns {name: (calls, self seconds, total seconds)} for every
        traced function, plus the file traffic {"read", "written"}.
        """
        self.enabled = False
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for index, (fid, start, end, parent) in enumerate(self.spans):
            calls[fid] += 1
            self_s[fid] += end - start - child[index]
            total_s[fid] += end - start
        self.spans = []
        stats = {name: (calls[i], self_s[i], total_s[i])
                 for i, name in enumerate(self.names)}
        return stats, dict(self.io)
