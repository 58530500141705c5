"""In-memory span tracer that wraps the package's public functions from outside.

The tracer replaces module attributes (the binding each caller looks up at
call time) with thin wrappers, records one span per call, and puts every
original back on exit.  Nothing inside ``src/`` is edited.

A span holds a name, start and end (``perf_counter_ns``), the id of its
parent span and the id of the benchmark op that caused it.  Spans live in
flat ``array`` columns so that a norm-search pass with a million SVD calls
stays within a few tens of megabytes.  Self time is computed afterwards as a
span's duration minus the part of it that its children cover (the union of
the child intervals, so children running in two threads at once are not
counted twice).

The norm search runs its restarts in a thread pool.  A span opened in a
thread with no open span of its own takes as parent the innermost open span
of the thread that entered the tracer, which is the search call that
started the pool.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from array import array
from functools import wraps

import numpy as np


def _caller_module(depth: int = 2) -> str:
    name = sys._getframe(depth).f_globals.get("__name__", "?")
    return name.rsplit(".", 1)[-1]


class NullTracer:
    """Stand-in used by untraced passes: evaluators pass through unchanged."""

    op = -1

    def evaluator(self, fn):
        return fn


class Tracer:
    """Install with ``with Tracer(targets) as tr:``; read ``tr.summary()``.

    ``targets`` is a list of ``(span_name, module, attribute)``, optionally
    with a fourth item ``observe(tracer, args, kwargs)`` called before each
    call to record counts from the arguments.  The span
    name ``"*.svd"`` is special: the wrapper names each span after the
    calling module (``schatten.svd``, ``symplectic.svd``) and counts the
    matrices in each stacked argument.
    """

    def __init__(self, targets):
        self._targets = list(targets)
        self._saved = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = None
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.op_id = array("i")
        self.failed: dict = {}
        self.counters: dict = {}
        self.op = -1

    # -- installation ------------------------------------------------------

    def __enter__(self):
        self._main_thread = threading.get_ident()
        for name, module, attr, *observe in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, *observe))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        for module, attr, original in self._saved:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"wrapper left on {module.__name__}.{attr}")
        self._saved.clear()
        return False

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            sid = len(self.start)
            self.name_id.append(self._name(name))
            self.parent.append(parent)
            self.op_id.append(self.op)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(sid)
        return sid

    def _exit(self, sid: int, name: str, ok: bool) -> None:
        t = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.end[sid] = t
            if not ok:
                self.failed[name] = self.failed.get(name, 0) + 1

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, observe=None):
        tracer = self

        if name == "*.svd":

            @wraps(fn)
            def svd_wrapper(a, *args, **kwargs):
                span = _caller_module() + ".svd"
                shape = np.shape(a)
                tracer.count(span + ".matrices", math.prod(shape[:-2]))
                sid = tracer._enter(span)
                ok = False
                try:
                    out = fn(a, *args, **kwargs)
                    ok = True
                    return out
                finally:
                    tracer._exit(sid, span, ok)

            return svd_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(tracer, args, kwargs)
            sid = tracer._enter(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer._exit(sid, name, ok)

        return wrapper

    def evaluator(self, fn):
        """Wrap an evaluator the benchmark hands to the package."""
        return self._wrap("gelfand.phi_eval", fn)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, failed, self_s (seconds)."""
        n = len(self.start)
        out: dict = {}
        if n == 0:
            return out
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        if np.any(end < start):
            raise RuntimeError("span left open")
        dur = end - start
        covered = np.zeros(n, dtype=np.int64)
        child = np.nonzero(parent >= 0)[0]
        if child.size:
            # Union of each parent's child intervals: sort by (parent, start),
            # shift each parent's group past the previous one so a single
            # running maximum of interval ends never crosses groups.
            order = child[np.lexsort((start[child], parent[child]))]
            par = parent[order]
            _, group = np.unique(par, return_inverse=True)
            base = start.min()
            span_ns = int(end.max() - base) + 1
            offset = group.astype(np.int64) * span_ns
            s = start[order] - base + offset
            e = end[order] - base + offset
            prev_end = np.empty_like(e)
            prev_end[0] = np.iinfo(np.int64).min
            prev_end[1:] = np.maximum.accumulate(e)[:-1]
            part = np.clip(e - np.maximum(s, prev_end), 0, None)
            np.add.at(covered, par, part)
        self_ns = dur - covered
        calls = np.bincount(name_id, minlength=len(self.names))
        self_sum = np.bincount(name_id, weights=self_ns, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "failed": int(self.failed.get(name, 0)),
                "self_s": float(self_sum[i]) * 1e-9,
            }
        return out
