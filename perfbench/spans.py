"""Span tracer for the per-layer run.

``Tracer.install`` replaces every public module-level function of the layers
``matgap``, ``certify``, ``rollwave``, ``dampsim`` and ``genbal`` by a wrapper
that records a span, and the eigenvalue/SVD entry points of ``numpy.linalg``
and ``scipy.linalg`` and the ``scipy.optimize`` solvers by wrappers that
count calls on the innermost open span.  The library looks these names up in
module namespaces at call time, so nothing under ``src/`` changes.

Spans of one operation form a call tree whose nodes merge repeated calls of
the same function under the same parent, so a simulator that calls a layer
function millions of times keeps a bounded tree.  Each node keeps its call
count, total and self time (total minus the time of its child spans) and
counters; the trees are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time

import numpy as np
import numpy.linalg
import scipy.linalg
import scipy.optimize

LAYERS = ("matgap", "certify", "rollwave", "dampsim", "genbal")
LINALG = (
    (numpy.linalg, ("eig", "eigh", "eigvals", "eigvalsh", "svd")),
    (scipy.linalg, ("eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals")),
)
OPTIMIZE = ("minimize", "minimize_scalar", "least_squares")
ASCENT_REL = 1e-9


class Node:
    """Merged span: one function called under one parent in one operation."""

    __slots__ = ("name", "calls", "total", "self_time", "counts", "children")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = {}
        self.children = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self):
        return {
            "name": self.name, "calls": self.calls, "total_s": self.total,
            "self_s": self.self_time, "counts": self.counts,
            "children": [c.to_dict() for c in self.children.values()],
        }


def _batch(a):
    """Number of matrices in a (possibly stacked) linalg argument."""
    shape = np.shape(a)
    return math.prod(shape[:-2])


def _min_scaled_norm(frame, args, out):
    frame[0].count("converged_s_false", int(not out[3]))


def _max_phase_rho(frame, args, out):
    node, values = frame[0], frame[3]
    best = out[0]
    node.count("ascents_at_max", sum(
        1 for v in values if abs(-v - best) <= ASCENT_REL * max(1.0, abs(best))))
    node.count("converged_u_false", int(not out[2]))


def _certify_minimizer(frame, args, out):
    frame[0].count("outcome." + out.kind.replace("-", "_"))


def _run(frame, args, out):
    frame[0].count("cell_time", args[0].N * float(out.times[-1]))


def _deflated_run(frame, args, out):
    frame[0].count("deflation_rank", out.deflation_rank)


HOOKS = {
    "matgap.min_scaled_norm": _min_scaled_norm,
    "matgap.max_phase_rho": _max_phase_rho,
    "certify.certify_minimizer": _certify_minimizer,
    "dampsim.run": _run,
    "dampsim.deflated_run": _deflated_run,
}


class Tracer:
    """Records span trees of benchmark operations; see the module docstring."""

    def __init__(self):
        self.ops = []
        self._stack = []
        self._patched = []

    # -- installation ---------------------------------------------------------

    def install(self, modules):
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                full = f"{layer}.{name}"
                self._patch(mod, name, self._span_wrapper(full, fn, HOOKS.get(full)))
        for mod, names in LINALG:
            for name in names:
                self._patch(mod, name, self._linalg_wrapper(getattr(mod, name)))
        for name in OPTIMIZE:
            self._patch(scipy.optimize, name,
                        self._optimize_wrapper(getattr(scipy.optimize, name)))

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []

    def _patch(self, mod, name, wrapper):
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        # frame: node, start, child time, values returned by optimizers
        frame = [node, time.perf_counter(), 0.0, []]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        node = frame[0]
        node.calls += 1
        node.total += elapsed
        node.self_time += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    def run_op(self, kind, thunk):
        """Run one benchmark operation as the root span of a new tree."""
        root = Node("bench." + kind)
        self.ops.append(root)
        start = time.perf_counter()
        self._stack.append([root, start, 0.0, []])
        try:
            return thunk()
        finally:
            frame = self._stack.pop()
            elapsed = time.perf_counter() - start
            root.calls = 1
            root.total = elapsed
            root.self_time = elapsed - frame[2]

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None:
                hook(frame, args, out)
            return out
        return wrapper

    def _linalg_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                counts = self._stack[-1][0].counts
                counts["lapack_calls"] = counts.get("lapack_calls", 0) + 1
                counts["lapack_matrices"] = (counts.get("lapack_matrices", 0)
                                             + _batch(args[0] if args else kwargs["a"]))
            return fn(*args, **kwargs)
        return wrapper

    def _optimize_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._stack[-1]
            frame[0].count("starts")
            out = fn(*args, **kwargs)
            if np.ndim(out.fun) == 0:
                frame[3].append(float(out.fun))
            return out
        return wrapper

    # -- results --------------------------------------------------------------

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump({**extra, "ops": [op.to_dict() for op in self.ops]}, fh)

    def per_layer(self):
        """Per-layer metrics of the traced operations, per operation."""
        n_ops = max(len(self.ops), 1)
        op_time = sum(op.total for op in self.ops)
        calls, self_s, total, counts = {}, {}, {}, {}
        for op in self.ops:
            for node in op.walk():
                calls[node.name] = calls.get(node.name, 0) + node.calls
                self_s[node.name] = self_s.get(node.name, 0.0) + node.self_time
                total[node.name] = total.get(node.name, 0.0) + node.total
                bucket = counts.setdefault(node.name, {})
                for key, v in node.counts.items():
                    bucket[key] = bucket.get(key, 0) + v

        def count(name, key):
            return counts.get(name, {}).get(key, 0)

        def layer_count(layer, key):
            return sum(c.get(key, 0) for n, c in counts.items() if n.startswith(layer + "."))

        values = {}
        for metric in PER_LAYER:
            m = metric["name"]
            head, _, tail = m.rpartition(".")
            if m == "trace.layer_share":
                layer_self = sum(v for n, v in self_s.items() if not n.startswith("bench."))
                v = layer_self / op_time if op_time > 0 else 0.0
            elif tail == "self_s" and head in LAYERS:
                v = sum(t for n, t in self_s.items() if n.startswith(head + ".")) / n_ops
            elif tail == "self_s":
                v = self_s.get(head, 0.0) / n_ops
            elif tail == "calls":
                v = calls.get(head, 0) / n_ops
            elif m == "matgap.lapack_matrices":
                v = layer_count("matgap", "lapack_matrices") / n_ops
            elif m == "matgap.max_phase_rho.ascents":
                v = count("matgap.max_phase_rho", "starts") / n_ops
            elif m == "matgap.max_phase_rho.ascents_at_max_ratio":
                ascents = count("matgap.max_phase_rho", "starts")
                v = count("matgap.max_phase_rho", "ascents_at_max") / ascents if ascents else 0.0
            elif m in ("matgap.converged_s_false", "matgap.converged_u_false"):
                v = layer_count("matgap", tail) / n_ops
            elif head == "certify.outcome":
                v = count("certify.certify_minimizer", "outcome." + tail) / n_ops
            elif m == "dampsim.cell_time_per_s":
                run_s = total.get("dampsim.run", 0.0)
                v = count("dampsim.run", "cell_time") / run_s if run_s > 0 else 0.0
            elif m == "dampsim.deflation_rank":
                n = calls.get("dampsim.deflated_run", 0)
                v = count("dampsim.deflated_run", "deflation_rank") / n if n else 0.0
            else:
                continue  # filled in by the caller (tracing overhead)
            values[m] = v
        return values


def _metric(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = (
    [_metric(f"{layer}.self_s", "s/op", "lower") for layer in LAYERS]
    + [
        _metric("matgap.max_phase_rho.self_s", "s/op", "lower"),
        _metric("matgap.max_phase_rho.calls", "calls/op", "lower"),
        _metric("matgap.lapack_matrices", "matrices/op", "lower"),
        _metric("matgap.max_phase_rho.ascents", "calls/op", "lower"),
        _metric("matgap.max_phase_rho.ascents_at_max_ratio", "ratio", "higher"),
        _metric("matgap.min_scaled_norm.self_s", "s/op", "lower"),
        _metric("matgap.converged_s_false", "1/op", "lower"),
        _metric("matgap.converged_u_false", "1/op", "lower"),
    ]
    + [
        _metric(f"certify.{fn}.{part}", unit, "lower")
        for fn in ("certify_minimizer", "variational_forms")
        for part, unit in (("self_s", "s/op"), ("calls", "calls/op"))
    ]
    + [
        _metric("certify.outcome.common_root", "1/op", "higher"),
        _metric("certify.outcome.definite_combination", "1/op", "lower"),
    ]
    + [_metric(f"dampsim.{fn}.self_s", "s/op", "lower")
       for fn in ("setup", "run", "deflated_run", "measure_decay", "upwind_flux_divergence")]
    + [
        _metric("dampsim.upwind_flux_divergence.calls", "calls/op", "lower"),
        _metric("dampsim.cell_time_per_s", "cell-t/s", "higher"),
        _metric("dampsim.deflation_rank", "rank", "lower"),
    ]
    + [_metric(f"rollwave.{fn}.self_s", "s/op", "lower")
       for fn in ("build_profile", "characteristics", "stability_index",
                  "damping_weights", "default_C0", "default_epsilon")]
    + [
        _metric("rollwave.stability_index.calls", "calls/op", "lower"),
        _metric("rollwave.jump_coefficients.calls", "calls/op", "lower"),
    ]
    + [_metric(f"genbal.{fn}.self_s", "s/op", "lower")
       for fn in ("from_sv_profile", "build_B", "general_weights")]
    + [
        _metric("trace.layer_share", "ratio", "higher"),
        _metric("trace.overhead_s", "s/op", "lower"),
        _metric("trace.overhead_share", "ratio", "lower"),
    ]
)
