"""Spans around llab's public functions, installed from outside the library.

Every public function of each llab module, and every public method of each
class a module defines, is replaced by a wrapper that records one span
(name, start, end, parent span, task id).  Modules bind names at import
(`llab.operators.check_Ainf`, `llab.construction.normalize`, ...), so every
llab module attribute that holds the original object is rebound too.

Private helpers are not wrapped: boyd's u-mass goes through
`WeightModel._radial_primitive`, so that time counts as boyd self time.

Spans live in compact arrays in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("intervals", "weights", "rearrangement", "boyd", "construction", "operators")
SEARCH_SPANS = ("boyd.wbar_u", "boyd.underline_wu")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self._stack: list[int] = []
        self.task_id = -1
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task.append(self.task_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> int:
        """Wrap every public llab function and method; returns how many."""
        mods = {m: importlib.import_module(f"llab.{m}") for m in MODULES}
        pkg = importlib.import_module("llab")
        holders = list(mods.values()) + [pkg]
        count = 0
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, name, wrapped)
                    count += 1
                elif inspect.isclass(obj):
                    count += self._wrap_class(short, obj)
        return count

    def _wrap_class(self, short: str, cls) -> int:
        count = 0
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{short}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(f"{short}.{attr}", raw))
            else:
                continue  # properties and cached properties stay unwrapped
            count += 1
        return count

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans; record nothing more while they live."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds.  Self time is the span's
    duration minus the durations of its direct children (children nest inside
    their parent, so that is the part of the interval they cover)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child
    k = len(names)
    calls = np.bincount(spans["name_id"], minlength=k)
    total = np.bincount(spans["name_id"], weights=dur, minlength=k)
    selfsum = np.bincount(spans["name_id"], weights=self_s, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfsum[i])}
        for i, name in enumerate(names)
    }


def calls_under(names: list[str], spans: dict[str, np.ndarray]) -> int:
    """Number of weights.primitive spans with a search span among their ancestors."""
    if "weights.primitive" not in names or spans["parent"].size == 0:
        return 0
    search_ids = [names.index(n) for n in SEARCH_SPANS if n in names]
    is_search = np.isin(spans["name_id"], search_ids)
    parent = spans["parent"]
    inside = np.zeros(parent.size, dtype=bool)
    cur = parent.copy()
    while True:
        live = cur >= 0
        if not live.any():
            break
        inside[live] |= is_search[cur[live]]
        cur[live] = parent[cur[live]]
    return int((inside & (spans["name_id"] == names.index("weights.primitive"))).sum())
