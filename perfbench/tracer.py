"""Spans at the module boundaries of epcag_lab, recorded from outside it.

``Tracer.install`` replaces each traced public function, in every
``epcag_lab`` module namespace that holds it, by a wrapper that records
a span (name, start, end, parent) in flat in-memory arrays; the two
``ManifoldFn`` methods are replaced on the class.  ``wrap_spec`` wraps a
system's ``f`` and ``A`` callables with ``dataclasses.replace``, so calls
of the right-hand side are spans of the ``system`` layer.  The program
itself is not changed.  The process is single-threaded and does no I/O,
so a span's time is busy time: no layer waits on another.
"""

import dataclasses
import json
import sys
import time
from array import array

import numpy as np

# (module, function, metric kinds).  Spans are named <layer>.<function>,
# where the layer is the module name without its leading underscore:
# metric names must start with a letter.
FUNCTIONS = [
    ("integrate", "rk4_final", ("calls", "rows", "self_s")),
    ("integrate", "rk4_segment", ("calls", "self_s")),
    ("integrate", "propagator", ("calls", "self_s")),
    ("solver", "back_continue_interval", ("calls", "self_s", "p50_ms")),
    ("solver", "back_continue", ("calls", "self_s")),
    ("solver", "solve_forward", ("calls", "self_s")),
    ("_quadrature", "build_mesh", ("calls", "self_s")),
    ("_quadrature", "block_propagators", ("calls", "self_s")),
    ("_quadrature", "accumulate_forward", ("calls", "points", "self_s")),
    ("_quadrature", "accumulate_backward", ("calls", "points", "self_s")),
    ("steady", "bounded_solution", ("calls", "self_s")),
    ("steady", "periodic_solution", ("calls", "self_s")),
    ("reduction", "reduce", ("calls", "self_s")),
    ("reduction", "propagators", ("calls", "self_s")),
    ("linear", "verify_flow_bounds", ("calls", "self_s")),
    ("linear", "fundamental_matrix", ("calls", "self_s")),
]
METHODS = [
    ("manifold", "ManifoldFn", "value", ("calls", "self_s", "p50_ms")),
    ("manifold", "ManifoldFn", "jacobian", ("calls", "self_s", "p50_ms")),
]
SYSTEM = [
    ("f", ("calls", "rows", "self_s")),
    ("A", ("calls", "self_s")),
]
LAYERS = ["integrate", "system", "solver", "quadrature", "manifold", "steady",
          "reduction", "linear"]
UNITS = {"calls": "count", "rows": "count", "points": "count", "self_s": "s",
         "p50_ms": "ms"}
# Metrics derived from several spans or from the results the calls return.
DERIVED = {
    "linear.A_calls_per_propagator": "calls/propagator",
    "solver.rows_per_preimage": "rows/preimage",
    "manifold.picard_iterations": "count",
    "manifold.workspaces_per_evaluation": "calls/eval",
    "steady.iterations": "count",
    "integrate.rk4_final.share": "fraction",
    "integrate.propagator.share": "fraction",
    **{f"share.{layer}": "fraction" for layer in LAYERS},
    "trace.round_s": "s",
}


def _layer(module):
    return module.lstrip("_")


def _rows(x):
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) >= 2 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# What a wrapper counts besides the span: (counter, function of the call's
# arguments or of its result).
_ARG_COUNTERS = {
    "integrate.rk4_final": ("rows", lambda a, k: _rows(_arg(a, k, 2, "y0"))),
    "system.f": ("rows", lambda a, k: _rows(a[1])),
    "quadrature.accumulate_forward": ("points", lambda a, k: _arg(a, k, 3, "mesh").size),
    "quadrature.accumulate_backward": ("points", lambda a, k: _arg(a, k, 3, "mesh").size),
}
_RESULT_COUNTERS = {
    "solver.back_continue_interval": ("preimages", lambda r: len(r.preimages)),
    "steady.bounded_solution": ("iterations", lambda r: r.iterations),
}


def metric_catalog():
    """{name: unit} of every per-layer metric, in print order."""
    out = {}
    spans = ([(_layer(m), f, kinds) for m, f, kinds in FUNCTIONS]
             + [(_layer(m), meth, kinds) for m, _c, meth, kinds in METHODS]
             + [("system", f, kinds) for f, kinds in SYSTEM])
    for layer, func, kinds in spans:
        for kind in kinds:
            out[f"{layer}.{func}.{kind}"] = UNITS[kind]
    out.update(DERIVED)
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """fn wrapped so that each call records a span called ``name``."""
        key = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        arg_counter = _ARG_COUNTERS.get(name)
        result_counter = _RESULT_COUNTERS.get(name)
        arg_key = arg_counter and f"{name}.{arg_counter[0]}"
        result_key = result_counter and f"{name}.{result_counter[0]}"

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(key)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if arg_counter:
                counters[arg_key] = counters.get(arg_key, 0) + arg_counter[1](args, kwargs)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if result_counter:
                counters[result_key] = counters.get(result_key, 0) + result_counter[1](result)
            return result

        return traced

    def install(self):
        """Replace every traced function in the loaded epcag_lab modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "epcag_lab" or n.startswith("epcag_lab.")]
        for module, func, _kinds in FUNCTIONS:
            original = getattr(sys.modules[f"epcag_lab.{module}"], func)
            traced = self.wrap(f"{_layer(module)}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
        for module, cls_name, meth, _kinds in METHODS:
            cls = getattr(sys.modules[f"epcag_lab.{module}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{_layer(module)}.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def wrap_spec(self, spec):
        """The system with its f and A callables traced."""
        return dataclasses.replace(spec, f=self.wrap("system.f", spec.f),
                                   A=self.wrap("system.A", spec.A))

    def reset(self):
        """Forget every span and count (set-up work is not measured)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, rounds, stats):
        """Per-layer metrics per round.  ``rounds`` are the run loop's
        records (operation time ``wall``, and ``wall_ref`` scaled to the
        reference machine speed); ``stats`` holds the workload's own counts
        (Picard iterations) over the same rounds."""
        n_rounds = len(rounds)
        ids, par = np.array(self.name_id), np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        child = par >= 0
        self_t = dur - np.bincount(par[child], weights=dur[child], minlength=len(dur))
        outer_layer, outer_name = self._outermost(ids, par)
        round_total = sum(r["wall"] for r in rounds)

        def per_name(name):
            if name not in self._ids:
                return np.zeros(len(dur), dtype=bool)
            return ids == self._ids[name]

        out = {}
        for name, unit in metric_catalog().items():
            stem, _, kind = name.rpartition(".")
            if kind == "calls":
                value = per_name(stem).sum() / n_rounds
            elif kind == "self_s":
                value = self_t[per_name(stem)].sum() / n_rounds
            elif kind == "p50_ms":
                d = dur[per_name(stem)]
                value = 1e3 * float(np.median(d)) if len(d) else 0.0
            elif kind in ("rows", "points"):
                value = self.counters.get(name, 0) / n_rounds
            else:
                continue
            out[name] = (float(value), unit)

        def ratio(num, den):
            return float(num / den) if den else 0.0

        calls = lambda name: out[f"{name}.calls"][0]
        evaluations = calls("manifold.value") + calls("manifold.jacobian")
        derived = {
            "linear.A_calls_per_propagator": ratio(
                calls("system.A"), calls("integrate.propagator")),
            "solver.rows_per_preimage": ratio(
                self.counters.get("integrate.rk4_final.rows", 0),
                self.counters.get("solver.back_continue_interval.preimages", 0)),
            "manifold.picard_iterations": stats.get("picard_iterations", 0) / n_rounds,
            "manifold.workspaces_per_evaluation": ratio(
                calls("quadrature.block_propagators"), evaluations),
            "steady.iterations":
                self.counters.get("steady.bounded_solution.iterations", 0) / n_rounds,
            "integrate.rk4_final.share": ratio(
                dur[outer_name & per_name("integrate.rk4_final")].sum(), round_total),
            "integrate.propagator.share": ratio(
                dur[outer_name & per_name("integrate.propagator")].sum(), round_total),
            "trace.round_s": float(np.median([r["wall_ref"] for r in rounds])),
        }
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        for k, layer in enumerate(LAYERS):
            derived[f"share.{layer}"] = ratio(
                dur[outer_layer & (layer_of[ids] == k)].sum(), round_total)
        for name, value in derived.items():
            out[name] = (float(value), DERIVED[name])
        return out

    def _outermost(self, ids, par):
        """Masks of the spans with no ancestor of the same layer, and of
        those with no ancestor of the same name (inclusive time counted once)."""
        layer_bit = [1 << LAYERS.index(n.split(".")[0]) for n in self.names]
        lbits = [0] * len(ids)
        nbits = [0] * len(ids)
        outer_l = np.zeros(len(ids), dtype=bool)
        outer_n = np.zeros(len(ids), dtype=bool)
        for i, (k, p) in enumerate(zip(ids.tolist(), par.tolist())):
            lb = layer_bit[k]
            nb = 1 << k
            pl, pn = (lbits[p], nbits[p]) if p >= 0 else (0, 0)
            outer_l[i] = not pl & lb
            outer_n[i] = not pn & nb
            lbits[i] = pl | lb
            nbits[i] = pn | nb
        return outer_l, outer_n

    def write(self, path, rounds):
        """Spans as arrays (start/end in perf_counter seconds, parent -1 at
        the top), the name table and the rounds as (start, end, operation
        seconds): calibration runs between operations, outside any span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, name_id=np.array(self.name_id), parent=np.array(self.parent),
            start=np.array(self.start), end=np.array(self.end),
            names=np.array(json.dumps(self.names)),
            rounds=np.array([(r["start"], r["end"], r["wall"]) for r in rounds]))
