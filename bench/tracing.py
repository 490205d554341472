"""Outside-in tracing of degparab: spans around every public function of each
layer module, plus work counters, installed by rebinding names.

`cli`, `solver`, `estimates`, `oracle` and the package `__init__` bind layer
functions with `from .x import y`, and `cli.RUNNERS` holds the subcommand
functions in a dict, so a wrapper is bound into every degparab module
namespace (and module-level dict) that holds the original.  The integrand
that `quadrature.integrate_to` receives is wrapped as well, so time inside
`path.a` / `profile.delta` lands in `degeneracy.integrand` instead of in
quadrature's self time.  FFTs and sparse LU factorizations are counted by
wrapping `numpy.fft.fftn` / `ifftn` and `scipy.sparse.linalg.splu`.

Spans are kept in memory as [name, start, end, parent, op] lists and turned
into per-layer metrics (and written out) after the run.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np
import scipy.sparse.linalg

LAYERS = ("quadrature", "degeneracy", "spectral", "solver", "estimates",
          "oracle", "cli")

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []
        self._op = None

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self._stack.pop()
        self.spans[idx][_END] = time.perf_counter()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span `cli.<op_id>` around one CLI call."""
        self._op = op_id
        idx = self._enter(f"cli.{op_id}")
        try:
            yield
        finally:
            self._exit(idx)
            self._op = None

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    def _integrate_to(self, fn, error_type):
        inner = self.spanned("quadrature.integrate_to", fn)
        counters = self.counters

        def integrand_of(f):
            def integrand(ts):
                counters["quadrature.integrand_points"] += np.size(ts)
                idx = self._enter("degeneracy.integrand")
                try:
                    return f(ts)
                finally:
                    self._exit(idx)
            return integrand

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            try:
                return inner(integrand_of(f), *args, **kwargs)
            except error_type:
                counters["quadrature.errors"] += 1
                raise
        return wrapper

    def _counted_fft(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            counters["spectral.fft_calls"] += 1
            counters["spectral.fft_points"] += out.size
            counters["spectral.fft_bytes_computed"] += (np.asarray(a).nbytes
                                                        + out.nbytes)
            return out
        return wrapper

    def _counted_splu(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["oracle.lu_factorizations"] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        quadrature = importlib.import_module("degparab.quadrature")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"degparab.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                if obj is quadrature.integrate_to:
                    wrapped = self._integrate_to(obj, quadrature.QuadratureError)
                else:
                    wrapped = self.spanned(f"{layer}.{name}", obj)
                wrappers[id(obj)] = wrapped

        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "degparab" and not modname.startswith("degparab."):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    undo.append((vars(mod), key, value))
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            undo.append((value, k, v))
                            value[k] = wrappers[id(v)]
        for owner, name, wrap in ((np.fft, "fftn", self._counted_fft),
                                  (np.fft, "ifftn", self._counted_fft),
                                  (scipy.sparse.linalg, "splu",
                                   self._counted_splu)):
            original = getattr(owner, name)
            undo.append((owner, name, original))
            setattr(owner, name, wrap(original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        spans = self.spans
        out = [s[_END] - s[_START] for s in spans]
        for s in spans:
            if s[_PARENT] >= 0:
                out[s[_PARENT]] -= s[_END] - s[_START]
        return out

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        selfs = self.self_times()
        m = collections.defaultdict(float)
        m.update(self.counters)
        for i, s in enumerate(spans):
            name = s[_NAME]
            layer = name.split(".", 1)[0]
            dur = s[_END] - s[_START]
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += selfs[i]
            m[f"{layer}.self_s"] += selfs[i]
            if not self._nested_in_same(i):
                m[f"{name}.s"] += dur
        m["degeneracy.integrand_s"] = m.pop("degeneracy.integrand.s", 0.0)
        return dict(m)

    def _nested_in_same(self, i):
        spans = self.spans
        name = spans[i][_NAME]
        p = spans[i][_PARENT]
        while p >= 0:
            if spans[p][_NAME] == name:
                return True
            p = spans[p][_PARENT]
        return False

    def dump(self, fh):
        """Spans as JSON lines: name, start, end, parent index, operation."""
        for s in self.spans:
            fh.write(json.dumps(s) + "\n")

    def clear(self):
        self.spans.clear()
        self.counters.clear()
