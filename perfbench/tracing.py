"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code: around its calls into the
package, and around library functions it rebinds in the traced process only
(module attributes, two class methods and a proxy environment).  No package
source changes.  A span holds (name, start, end, parent, group); the group is
the index of the workload pass that produced it.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("H")
        self._stack: list[int] = []
        self.current_group = 0
        # Exact counts recorded at span boundaries, per group.
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # Seconds spent in counting callbacks, per group (part of the overhead).
        self.hook_s: dict[int, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group.append(self.current_group)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.current_group][name] += n

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(result, args)`` runs
        after the span closes, so counting work is not charged to the layer."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                t0 = now()
                on_return(out, args)
                self.hook_s[self.current_group] += now() - t0
            return out

        return traced

    def patch_function(self, modules, fn, name: str, on_return=None) -> None:
        """Rebind every module attribute that refers to ``fn``."""
        traced = self.wrap(fn, name, on_return)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.replace(mod, attr, traced)

    def patch_attr(self, owner, attr: str, name: str, on_return=None) -> None:
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, on_return))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def per_group(self):
        """(inclusive seconds, self seconds, span counts), each [group][name]."""
        n_groups = max(self.group, default=0) + 1
        shape = (n_groups, len(self.names))
        incl, own, calls = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        if not self.start:
            return incl, own, calls
        name = np.frombuffer(self.name, dtype=np.uint16)
        group = np.frombuffer(self.group, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        np.add.at(incl, (group, name), dur)
        np.add.at(own, (group, name), dur - covered)
        np.add.at(calls, (group, name), 1.0)
        return incl, own, calls

    def save(self, path, workload: str) -> None:
        np.savez_compressed(
            path,
            workload=np.array(workload),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            group=np.frombuffer(self.group, dtype=np.uint16),
        )


def span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of recording one span around a call, in seconds."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, "probe")
    t0 = now()
    for _ in range(calls):
        noop()
    plain = now() - t0
    t0 = now()
    for _ in range(calls):
        traced()
    return max(0.0, (now() - t0 - plain) / calls)


class TracedEnv:
    """Environment proxy that records reset() and step() as spans."""

    def __init__(self, env, tracer: Tracer):
        self._env = env
        self.reset = tracer.wrap(env.reset, "envs.reset")
        self.step = tracer.wrap(env.step, "envs.step")

    def __getattr__(self, attr):
        return getattr(self._env, attr)
