"""Spans around the package's public functions, recorded from outside it.

A :class:`Tracer` wraps module attributes of ``iprox`` (every public
function of the layer modules, rebound in every ``iprox`` module that
imported it) and, in full mode, the value, gradient and prox callables of
each instance ``library.make_instance`` returns.  Each call becomes a span
(name, start, end, parent); counts are noted at the same boundaries.  The
program itself is not edited, and :meth:`Tracer.uninstall` puts every
original attribute back.

Spans are kept in flat arrays in memory for the whole run; at its end the
spans of one round are written out.  Self time is a span's duration minus
the durations of its direct children.

The light mode wraps only the three ``solvers.run_*`` runners: one span per
solver call, which is all the end-to-end metrics need (first solver entry,
time inside solvers, coordinates updated).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("library", "reference", "problems", "solvers", "diagnostics", "traceio", "cli")
RUNNERS = {
    "solvers.run_inertial": "full",
    "solvers.run_cyclic": "cyclic",
    "solvers.run_stochastic": "stochastic",
}
# instance callables -> span names; counted as the problems layer
ORACLES = {"smooth_value": "problems.value", "smooth_grad": "problems.grad",
           "prox": "problems.prox"}


class Tracer:
    """Span recorder for one benchmark process.

    ``runs`` gets one entry per solver call: the order, the stored
    Lipschitz constants, the block-selection seed and a copy of the final
    iterate, so the output checks can recompute F there.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.runner = array("i")  # index of the enclosing solver span, or -1
        self.start = array("d")
        self.end = array("d")
        self.notes: list[tuple[int, str, float]] = []
        self.runs: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, is_runner: bool) -> int:
        i = len(self.name)
        p = self._stack[-1] if self._stack else -1
        self.name.append(nid)
        self.parent.append(p)
        self.runner.append(i if is_runner else (self.runner[p] if p >= 0 else -1))
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(span, args, result) -> result."""
        nid = self._id(name)
        is_runner = name in RUNNERS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = self._open(nid, is_runner)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            return out if after is None else after(i, args, out)

        return span

    # ---------------------------------------------------------------- hooks

    def _after_runner(self, i, args, trace):
        problem = args[0]
        order = RUNNERS[self.names[self.name[i]]]
        updates = int(trace.final_state.k)
        per_update = problem.dim // problem.n_blocks if order == "stochastic" else problem.dim
        self.notes.append((i, "coords", float(updates * per_update)))
        self.notes.append((i, "updates", float(updates)))
        self.runs.append({
            "order": order,
            "L": float(trace.meta["L"]),
            "block_L": tuple(float(v) for v in trace.meta["block_lipschitz"]),
            "seed": trace.meta.get("seed"),
            "x_final": np.array(trace.final_state.x_curr, dtype=float),
        })
        return trace

    def _after_write(self, i, args, out):
        path, data = args[0], args[1]
        rows = min(len(t.ks) for t in data) if isinstance(data, (list, tuple)) else len(data.ks)
        self.notes.append((i, "rows", float(rows)))
        self.notes.append((i, "bytes", float(os.path.getsize(path))))
        return out

    def _after_reference(self, i, args, ref):
        self.notes.append((i, "iterations", float(ref.iterations_used)))
        return ref

    def _after_instance(self, i, args, problem):
        return dataclasses.replace(problem, **{
            attr: self.wrap(span_name, getattr(problem, attr))
            for attr, span_name in ORACLES.items()})

    # ------------------------------------------------------------- patching

    def install(self, full: bool) -> None:
        """Wrap every public function of LAYERS (full) or only the runners."""
        after = {
            **{name: self._after_runner for name in RUNNERS},
            "traceio.write_trace_csv": self._after_write,
            "traceio.write_mean_trace_csv": self._after_write,
            "reference.solve_reference": self._after_reference,
            "library.make_instance": self._after_instance,
        }
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"iprox.{layer}"]
            for attr, fn in vars(mod).items():
                qual = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if not full and qual not in RUNNERS:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(qual, fn, after.get(qual)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iprox" or mod_name.startswith("iprox.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, val = self._patches.pop()
            setattr(mod, attr, val)

    # ------------------------------------------------------------- analysis

    def runner_spans(self, a: int, b: int) -> list[int]:
        runner_ids = {self._ids[n] for n in RUNNERS if n in self._ids}
        return [i for i in range(a, b) if self.name[i] in runner_ids]

    def note_sum(self, key: str, spans) -> float:
        spans = set(spans)
        return sum(v for i, k, v in self.notes if k == key and i in spans)

    def layer_metrics(self, a: int, b: int, matvecs_per_grad: int) -> dict:
        """Per-layer figures of the spans [a, b) of one experiment."""
        name = np.array(self.name[a:b], dtype=np.int64)
        parent = np.array(self.parent[a:b], dtype=np.int64)
        runner = np.array(self.runner[a:b], dtype=np.int64)
        dur = np.array(self.end[a:b]) - np.array(self.start[a:b])
        child = parent >= 0
        self_s = dur - np.bincount(parent[child] - a, weights=dur[child],
                                   minlength=len(dur))
        layer = np.array([n.split(".")[0] for n in self.names] or [""])[name]
        parent_layer = np.where(child, layer[np.maximum(parent - a, 0)], "")

        def is_name(n):
            return name == self._ids[n] if n in self._ids else np.zeros(len(name), bool)

        def total(mask, values=dur):
            return float(values[mask].sum())

        in_solver = runner >= 0
        by_span = {}
        for i, key, v in self.notes:
            if a <= i < b:
                by_span.setdefault(key, []).append((i - a, v))

        def notes(key, mask=None):
            return sum(v for j, v in by_span.get(key, []) if mask is None or mask[j])

        out = {
            "library.make_instance_s": total(is_name("library.make_instance")),
            "reference.solve_s": total(is_name("reference.solve_reference")),
            "reference.iterations": int(notes("iterations")),
        }
        for kind in ("grad", "value", "prox"):
            mask = is_name(f"problems.{kind}") & in_solver
            out[f"problems.{kind}_calls"] = int(mask.sum())
            out[f"problems.{kind}_s"] = total(mask, self_s)
        pf = is_name("problems.prox_full") & in_solver
        out["problems.prox_full_calls"] = int(pf.sum())
        out["problems.prox_full_self_s"] = total(pf, self_s)
        for runner_name, order in RUNNERS.items():
            roots = is_name(runner_name)
            under = np.isin(runner, np.flatnonzero(roots) + a)
            updates = notes("updates", roots)
            matvecs = (matvecs_per_grad * int((is_name("problems.grad") & under).sum())
                       + int((is_name("problems.value") & under).sum()))
            out[f"solvers.{order}_s"] = total(roots)
            out[f"problems.matvec_equiv_per_update.{order}"] = (
                matvecs / updates if updates else 0.0)
            out[f"solvers.us_per_update.{order}"] = (
                1e6 * total(roots) / updates if updates else 0.0)
        out["solvers.self_s"] = total(layer == "solvers", self_s)
        diag = layer == "diagnostics"
        out["diagnostics.audit_s"] = total(diag & (parent_layer != "diagnostics"))
        out["diagnostics.squared_lyapunov_s"] = total(is_name("diagnostics.squared_lyapunov_audit"))
        writes = is_name("traceio.write_trace_csv") | is_name("traceio.write_mean_trace_csv")
        out["traceio.write_s"] = total(writes)
        out["traceio.read_s"] = total(is_name("traceio.read_csv"))
        out["traceio.rows_written"] = int(notes("rows"))
        out["traceio.bytes_written"] = int(notes("bytes"))
        out["cli.self_s"] = total(layer == "cli", self_s)
        return out

    def save(self, path_stem: str, a: int, b: int) -> None:
        """Write the spans [a, b): <stem>.npz arrays plus <stem>.json names.

        Parent indices are relative to a, -1 for a root span.
        """
        parent = np.array(self.parent[a:b], dtype=np.int32)
        np.savez(path_stem + ".npz", name=np.array(self.name[a:b], dtype=np.int32),
                 parent=np.where(parent >= 0, parent - a, -1),
                 start=np.array(self.start[a:b]), end=np.array(self.end[a:b]))
        with open(path_stem + ".json", "w") as fh:
            json.dump({"names": self.names}, fh)
