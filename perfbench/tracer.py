"""In-memory span recorder that wraps knugamma's public functions from
outside the package.

A span is (name, start, end, parent, thread, op, cpu): ``op`` is the
index of the root span of the request it belongs to, ``cpu`` the CPU
time its thread spent inside it.  Wall spans in the sign-map thread
pool include waiting for the interpreter lock; CPU time does not.
Spans live in flat ``array("q")`` columns so a 10^6-span pass stays
tens of MB; the per-layer figures are computed from them after the
pass, and the raw columns are written out when the run ends.

Generator functions (the sign-map CSV/PGM writers) are wrapped per
``next()``, so formatting shows up as child spans of whoever iterates
them (``write_atomic``), and the writer's self time is what is left.
"""

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = (
    "scalar", "params", "gamma", "beta", "psi", "zeta",
    "bounds", "oracle", "checks", "signmap", "cli",
)


def public_functions(module):
    """Functions a module defines itself under a name without a
    leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans around the functions handed to :meth:`wrap_all`.

    ``hooks`` maps a span name to ``fn(result, counts)``, called after
    each successful call so counts are taken where the work happens.
    """

    def __init__(self, error_type, hooks=None):
        self._error_type = error_type
        self._hooks = hooks or {}
        self.names = []
        self._ids = {}
        self._lock = threading.Lock()
        self._main = threading.get_native_id()
        self.reset()

    def reset(self):
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.thread = array("q")
        self.op = array("q")
        self.err = array("b")
        self.cpu = array("q")
        self.counts = {}
        self._stacks = {}
        self._root = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        tid = threading.get_native_id()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        with self._lock:
            i = len(self.name)
            if stack:
                parent, op = stack[-1], self.op[stack[0]]
            elif tid != self._main and self._root >= 0:
                # a pool thread: its work belongs to the call that
                # started the pool
                parent, op = self._root, self._root
            else:
                parent, op = -1, i
                self._root = i
            self.name.append(name_id)
            self.parent.append(parent)
            self.thread.append(tid)
            self.op.append(op)
            self.end.append(0)
            self.err.append(0)
            self.cpu.append(time.thread_time_ns())
            self.start.append(time.perf_counter_ns())
        stack.append(i)
        return i

    def _close(self, i, failed=False):
        self.end[i] = time.perf_counter_ns()
        self.cpu[i] = time.thread_time_ns() - self.cpu[i]
        if failed:
            self.err[i] = 1
        self._stacks[threading.get_native_id()].pop()

    def wrap(self, name, fn):
        name_id = self._id(name)
        hook = self._hooks.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapped_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = self._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(i)
                        return
                    except BaseException as exc:
                        self._close(i, isinstance(exc, self._error_type))
                        raise
                    self._close(i)
                    yield item

            return wrapped_gen

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i, isinstance(exc, self._error_type))
                raise
            self._close(i)
            if hook is not None:
                hook(result, self.counts)
            return result

        return wrapped

    def wrap_all(self, targets, containers=()):
        """Replace every binding of each target function.

        ``targets`` maps span name -> original function.  Every loaded
        ``knugamma`` module namespace that bound the original by name
        gets the wrapper, and so does every list in ``containers``
        (the check suites hold their functions in lists).
        """
        by_fn = {id(fn): (name, fn) for name, fn in targets.items()}
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in by_fn.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "knugamma" and not mod_name.startswith("knugamma."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is by_fn[id(value)][1]:
                    setattr(module, attr, wrappers[id(value)])
        for seq in containers:
            for i, value in enumerate(seq):
                if id(value) in wrappers and value is by_fn[id(value)][1]:
                    seq[i] = wrappers[id(value)]

    def columns(self):
        """The recorded spans as numpy columns plus derived self times:
        wall duration minus the part of it covered by child spans (the
        union of their intervals, since pool threads overlap), and CPU
        time minus that of the children in the same thread."""
        n = len(self.name)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        thread = np.frombuffer(self.thread, dtype=np.int64, count=n)
        cpu = np.frombuffer(self.cpu, dtype=np.int64, count=n).copy()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        cross = np.zeros(n, dtype=bool)
        cross[child] = thread[child] != thread[parent[child]]
        local = child & ~cross
        cpu_covered = np.bincount(parent[local], weights=cpu[local], minlength=n)
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union_length(start[kids], end[kids], start[p], end[p])
        return {
            "name": np.frombuffer(self.name, dtype=np.int64, count=n).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "thread": thread.copy(),
            "op": np.frombuffer(self.op, dtype=np.int64, count=n).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8, count=n).copy(),
            "cpu": cpu,
            "self_ns": dur - covered,
            "self_cpu_ns": cpu - cpu_covered,
        }


def _union_length(starts, ends, lo, hi):
    total, cur_lo, cur_hi = 0, None, None
    for s, e in sorted(zip(np.maximum(starts, lo), np.minimum(ends, hi))):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
