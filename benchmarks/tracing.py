"""Span tracing from outside the program.

:class:`Tracer` replaces the public functions of the traced modules with
thin wrappers, at every place they are bound inside the package (the
defining module and every module that imported the name), plus a few named
methods on classes.  Each call records a span (name, start, end, parent
span, op id) in flat in-memory arrays; :meth:`Tracer.uninstall` puts the
originals back.  Nothing is wrapped unless :meth:`Tracer.install` ran, so
untraced runs execute the program's own functions.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "hyperalg"

#: Modules whose public functions are wrapped.
MODULES = ("exppoly", "symbols", "growth", "classify", "dynamics", "witness", "cli")

#: Methods wrapped on their class: (module, class, method).
METHODS = (
    ("exppoly", "ExpPoly", "of"),
    ("exppoly", "ExpPoly", "evaluate_array"),
    ("exppoly", "TaylorPoly", "from_exppoly"),
)

#: Private functions that are counted but record no span, so the self time
#: of their callers keeps covering them.  ``_cross_check`` keeps exactly one
#: reduced power of the oracle per call.
COUNTED = (("dynamics", "_cross_check"),)


def _pairs(args, kwargs):
    f, g = args[:2] if len(args) >= 2 else (kwargs.get("f"), kwargs.get("g"))
    return len(f.terms) * len(g.terms)


def _points(args, kwargs):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    return int(np.size(zs))


def _mac(args, kwargs):
    a, b = args[0], args[1]
    cap = args[2] if len(args) > 2 else kwargs["cap"]
    nb = len(b.coeffs)
    return sum(min(nb, cap + 1 - i) for i in range(min(len(a.coeffs), cap + 1)))


#: Work counted per call, from the arguments: span name -> (unit, counter).
WORK = {
    "exppoly.mul_exppoly": ("pairs", _pairs),
    "symbols.eval_symbol_array": ("points", _points),
    "dynamics.taylor_mul_trunc": ("mac", _mac),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: Counter = Counter()
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _sites(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def _rebind(self, original, replacement, sites) -> None:
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is original:
                    self._restore.append((site, attr, original))
                    setattr(site, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        sites = self._sites()
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                self._rebind(fn, self._span(f"{short}.{attr}", fn), sites)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                continue
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._span(name, raw.__func__))
            else:
                wrapped = self._span(name, raw)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        for short, attr in COUNTED:
            fn = getattr(sys.modules[f"{PACKAGE}.{short}"], attr, None)
            if fn is not None:
                self._rebind(fn, self._counted(f"{short}.{attr}", fn), sites)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name, fn):
        nid = self._name_id(name)
        work = WORK.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            if work is not None:
                self.work[f"{name}.{work[0]}"] += work[1](args, kwargs)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layers(self) -> tuple[dict, dict]:
        """Per span name ``calls`` and ``self_ms``, and the number of calls
        of each (parent name, child name) edge.

        A span's self time is its duration minus the durations of its
        direct child spans (children of one span never overlap in a single
        thread)."""
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        parents = a["parent"][nested]
        self_time = dur - np.bincount(parents, weights=dur[nested], minlength=len(dur))
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=n)
        edges = np.bincount(
            a["name_id"][parents] * n + a["name_id"][nested], minlength=n * n
        )
        layers = {
            name: {"calls": int(calls[i]), "self_ms": float(self_s[i]) * 1e3}
            for i, name in enumerate(self.names)
        }
        children = {
            (self.names[k // n], self.names[k % n]): int(edges[k])
            for k in np.nonzero(edges)[0]
        }
        return layers, children

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
