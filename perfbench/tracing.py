"""Spans and counts around the public functions of ``twomode``, from outside.

``install`` wraps every public function of the traced modules, the two
``Tolerance`` comparison methods and ``numpy.linalg.{eigvalsh, eigh,
eigvals, det}`` in every module namespace that holds them, so calls made
inside the package go through the wrappers too.  A wrapper records a span
(name, start, end, parent span, op id, whether it raised) only while an op
is open; outside ops it calls straight through.  Spans are kept in flat
arrays in memory and reduced to per-layer numbers when the run ends.
"""
from __future__ import annotations

import importlib
import sys
import types
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("symplectic", "invariants", "physicality", "separability",
          "standard_form", "williamson", "families", "cli")
LINALG = ("eigvalsh", "eigh", "eigvals", "det")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self._stack: list[int] = []
        self.op_id = -1  # no op open: wrappers call straight through
        self.targets: dict[str, object] = {}  # span name -> original, set by install

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, names_, start, end = self._stack, self.name, self.start, self.end
        parent, op, raised = self.parent, self.op, self.raised
        tracer = self

        def traced(*args, **kwargs):
            op_id = tracer.op_id
            if op_id < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            names_.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(op_id)
            raised.append(0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "raised": np.frombuffer(self.raised, dtype=np.int8)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def targets() -> dict[str, object]:
    """Span name -> original callable, for everything the tracer wraps."""
    import twomode
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"twomode.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    out["symplectic.Tolerance.threshold"] = twomode.Tolerance.threshold
    out["symplectic.Tolerance.band"] = twomode.Tolerance.band
    for attr in LINALG:
        out[f"linalg.{attr}"] = getattr(np.linalg, attr)
    return out


def install(tracer: Tracer):
    """Wrap every target wherever it is bound; returns an undo function."""
    import twomode
    tracer.targets = targets()
    wrapped = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in tracer.targets.items()}
    holders = [m for n, m in sys.modules.items() if n == "twomode" or n.startswith("twomode.")]
    holders += [np.linalg, twomode.Tolerance]
    undo = []
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(holder, attr, hit[1])
                undo.append((holder, attr, value))

    def uninstall():
        for holder, attr, value in undo:
            setattr(holder, attr, value)
    return uninstall


def count_by_profile(tracer: Tracer, fn, names: list[str], *args) -> dict[str, int]:
    """Call fn(*args) and count, with sys.setprofile rather than the
    wrappers, the calls into the named targets' own code objects."""
    codes = {}
    for name in names:
        obj = tracer.targets[name]
        obj = getattr(obj, "_implementation", obj)  # numpy array-function dispatchers
        codes[obj.__code__] = name
    counts = dict.fromkeys(names, 0)

    def hook(frame, event, _arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


class Spans:
    """The recorded spans as arrays, with durations and self times."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.names = list(tr.names)
        self.op, self.name, self.raised = a["op"], a["name"], a["raised"]
        self.dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, a["parent"][has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child
        layers = [*LAYERS, "linalg"]
        self.layers = layers
        self.layer = np.array([layers.index(n.split(".")[0]) for n in self.names],
                              dtype=int)[self.name]
        parent_layer = np.where(has_parent, self.layer[np.maximum(a["parent"], 0)], -1)
        self.outermost = parent_layer != self.layer  # first span of its layer on the stack

    def totals(self, first_op: int, n_ops: int, op_keys: list[str]) -> dict:
        """Per-name and per-layer sums over ops [first_op, first_op + n_ops).

        ``op_keys[i % len(op_keys)]`` labels op i, so that the durations of
        ``williamson_decompose`` and ``cli.main`` can be split by op kind.
        """
        keep = (self.op >= first_op) & (self.op < first_op + n_ops)
        nid, lid = self.name[keep], self.layer[keep]
        k, kl = len(self.names), len(self.layers)
        top = self.outermost[keep]
        out = {
            "calls": dict(zip(self.names, np.bincount(nid, minlength=k).tolist())),
            "ns": dict(zip(self.names, np.bincount(nid, self.dur[keep], k).tolist())),
            "raised": dict(zip(self.names, np.bincount(nid, self.raised[keep], k).tolist())),
            "self_ns": dict(zip(self.layers, np.bincount(lid, self.self_ns[keep], kl).tolist())),
            "top_ns": dict(zip(self.layers,
                               np.bincount(lid[top], self.dur[keep][top], kl).tolist())),
            "top_calls": dict(zip(self.layers, np.bincount(lid[top], minlength=kl).tolist())),
            "by_op": {},
        }
        for name in ("williamson.williamson_decompose", "cli.main"):
            if name not in self.names:
                continue
            sel = keep & (self.name == self.names.index(name))
            acc = out["by_op"][name] = {}
            for op_id, d in zip(self.op[sel].tolist(), self.dur[sel].tolist()):
                entry = acc.setdefault(op_keys[op_id % len(op_keys)], [0, 0.0])
                entry[0] += 1
                entry[1] += d
        return out
