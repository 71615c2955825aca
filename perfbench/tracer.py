"""Outside-in tracer for the singletopt package.

Every function named in a module's ``__all__`` (plus ``cli.main``) is
replaced by a wrapper that records one span per call: name, start, end,
parent span and the benchmark operation it belongs to.  Because ``cli``,
``oneshot`` and ``locc`` import by name, every module-level alias of a
traced function is rebound too, including values held in module-level
dicts such as the channel constructor table.  ``uninstall`` puts every
original back.

``compass_search`` gets one more layer: the ``objective`` it receives is
wrapped so each evaluation batch is a child span, which splits objective
time from engine time, counts evaluations, and lets the stop reason be
replayed exactly from the returned values (see ``_stop_reason``).

Spans stay in memory (flat arrays) and are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("linalg", "channel", "choi", "entmetrics", "oneshot", "locc", "optimize", "cli")
ROOT_SPAN = "cli.main"
OBJECTIVE_SPAN = "optimize.compass_search.objective"


def public_functions(package: str = "singletopt") -> dict:
    """``{"<module>.<fn>": function}`` for every function the tracer wraps."""
    found = {}
    for mod_name in TRACED_MODULES:
        module = importlib.import_module(f"{package}.{mod_name}")
        names = getattr(module, "__all__", None)
        if names is None:
            names = ["main"]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found.setdefault(f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}", obj)
    return found


def _stop_reason(batches, spec_call, n_first):
    """Replay compass_search's step bookkeeping from the observed values.

    The engine stops at the top of an iteration when every restart's step
    is below ``step_tol`` (tol), else when the next batch would exceed
    ``max_evals`` (budget), or after ``max_iters`` iterations (max_iters).
    Steps start at ``step0`` and halve for each restart whose best probe
    did not beat its current value; both are visible from the returned
    values, so the reason is exact.
    """
    step_tol = spec_call["step_tol"]
    max_iters = spec_call["max_iters"]
    f = batches[0]
    n = n_first
    step = np.full(n, float(spec_call["step0"]))
    for values in batches[1:]:
        values = values.reshape(-1, n)
        best = values.max(axis=0)
        improved = best > f
        f = np.where(improved, best, f)
        step[~improved] /= 2
    iterations = len(batches) - 1
    if iterations >= max_iters:
        return "max_iters"
    if (step < step_tol).all():
        return "tol"
    return "budget"


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, package: str = "singletopt"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # span has an ancestor of the same name
        self.current_op = -1
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple] = []
        # One record per compass_search call: (span index, evals, stop reason).
        self.searches: list[tuple] = []

    # -- span recording ----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nested.append(1 if self._active[nid] else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._active[nid] += 1
        return idx

    def _close(self, idx: int, nid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self._active[nid] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, nid, t0, clock())

        traced.__traced__ = True
        return traced

    def _wrap_search(self, name: str, fn):
        nid = self._intern(name)
        obj_nid = self._intern(OBJECTIVE_SPAN)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            objective = bound.arguments["objective"]
            batches = []

            def counted(x):
                oidx = self._open(obj_nid)
                t0 = clock()
                try:
                    values = objective(x)
                finally:
                    self._close(oidx, obj_nid, t0, clock())
                # A copy: the engine updates its first batch in place as its running best.
                batches.append(np.array(values, dtype=float).ravel())
                return values

            bound.arguments["objective"] = counted
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._close(idx, nid, t0, clock())
                if batches:
                    evals = sum(len(b) for b in batches)
                    reason = _stop_reason(batches, bound.arguments, len(batches[0]))
                    self.searches.append((idx, evals, reason))

        traced.__traced__ = True
        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for name, fn in public_functions(self.package).items():
            make = self._wrap_search if name == "optimize.compass_search" else self._wrap
            by_id[id(fn)] = (fn, make(name, fn))

        def rebind(container, key, value):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                self._patches.append((container, key, value))
                container[key] = hit[1]

        for key, module in sorted(sys.modules.items()):
            if module is None or not (key == self.package or key.startswith(self.package + ".")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if isinstance(value, dict) and not attr.startswith("__"):
                    for item_key, item in list(value.items()):
                        rebind(value, item_key, item)
                else:
                    rebind(namespace, attr, value)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def bounds(self) -> tuple:
        """(start, end) of every span, as float arrays."""
        return np.array(self.start, dtype=float), np.array(self.end, dtype=float)

    def arrays(self, dur=None) -> dict:
        """Per-span arrays; ``dur`` replaces the measured durations."""
        if dur is None:
            start, end = self.bounds()
            dur = end - start
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "parent": parent,
            "nested": np.array(self.nested, dtype=bool),
            "dur": dur,
            "self": dur - child,
        }

    def function_stats(self, dur=None) -> dict:
        """``{name: {"calls", "busy_s", "self_s"}}`` for every span name seen.

        Busy time counts only the outermost span of a name, so recursion is
        not double counted; self time subtracts the time of direct children.
        ``dur`` replaces the measured span durations, as in ``arrays``.
        """
        a = self.arrays(dur)
        stats = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            calls = int(mask.sum())
            if not calls:
                continue
            stats[name] = {
                "calls": calls,
                "busy_s": float(a["dur"][mask & ~a["nested"]].sum()),
                "self_s": float(a["self"][mask].sum()),
            }
        return stats

    def search_stats(self) -> dict:
        """Evaluations and stop reasons of compass_search, by calling function."""
        parents = self.parent
        out = {}
        for idx, evals, reason in self.searches:
            caller = parents[idx]
            key = self.names[self.name_id[caller]] if caller >= 0 else "<root>"
            entry = out.setdefault(key, {"calls": 0, "evals": 0, "tol": 0, "budget": 0, "max_iters": 0})
            entry["calls"] += 1
            entry["evals"] += evals
            entry[reason] += 1
        return out

    def write_spans(self, path, origin: float) -> int:
        """Write ``name,start_s,end_s,parent,op`` rows (gzip CSV); returns rows."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]},{self.op[i]}\n"
                )
        return len(self.start)
