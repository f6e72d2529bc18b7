"""Span tracing of the package's layers, from outside the package.

A :class:`Tracer` swaps each public function of the layer modules for a
wrapper that records a span (function, op, start, end, parent) and puts
the original back when the traced run ends.  Wrapping the module
attribute also catches calls inside the same module by bare name, since
both read the module's globals.  Calls through references taken at import
time (such as ``verify._SINGLE_CHECKS``) are not seen; their time counts
as self time of the nearest traced caller, which lives in the same module.

Spans are kept in flat lists and summarised at the end.  A span's self
time is its duration minus the durations of its direct children; spans
of one thread nest, so children never overlap.
"""

import contextlib
import importlib
import inspect
import os
from time import perf_counter

import numpy as np

LAYERS = ("cli", "statefile", "states", "linalg", "twirl", "coherence", "entanglement", "sweeps", "verify")

# Each kernel call counts one read of its input and one write of its
# output, 16 bytes per complex entry each.
BYTES_PER_ENTRY = 16


def _first_dim(args, kwargs):
    return int(getattr(args[0], "shape", (0,))[0]) if args else 0


def _path_bytes(args, kwargs):
    path = args[0] if args else None
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) and os.path.isfile(path) else 0


def _samples(args, kwargs):
    return int(kwargs.get("samples", args[2] if len(args) > 2 else 0))


# Extra numbers recorded per call, after the call returns (so outside the
# span's own time): bytes of a state file, matrix side, sample count.
PROBES = {
    "statefile.load_raw": _path_bytes,
    "statefile.save_state": _path_bytes,
    "twirl.twirl_closed_form": _first_dim,
    "twirl.twirl_one_sided": _first_dim,
    "twirl.twirl_two_sided": _first_dim,
    "coherence.assistance_estimate": _samples,
}

KERNELS = ("twirl.twirl_closed_form", "twirl.twirl_one_sided", "twirl.twirl_two_sided")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "statefile.load_s": ("s/op", "lower"),
    "statefile.save_s": ("s/op", "lower"),
    "statefile.load_MBps": ("MB/s", "higher"),
    "statefile.save_MBps": ("MB/s", "higher"),
    "statefile.calls": ("calls/op", "lower"),
    "states.self_s": ("s/op", "lower"),
    "states.calls": ("calls/op", "lower"),
    "states.validate_s": ("s/op", "lower"),
    "states.bell_state_s": ("s/op", "lower"),
    "linalg.self_s": ("s/op", "lower"),
    "linalg.calls": ("calls/op", "lower"),
    "linalg.eigh_s": ("s/op", "lower"),
    "linalg.eigh_calls": ("calls/op", "lower"),
    "twirl.self_s": ("s/op", "lower"),
    "twirl.calls": ("calls/op", "lower"),
    "twirl.closed_form_s": ("s/op", "lower"),
    "twirl.one_sided_s": ("s/op", "lower"),
    "twirl.two_sided_s": ("s/op", "lower"),
    "twirl.coefficients_s": ("s/op", "lower"),
    "twirl.GBps_computed": ("GB/s", "higher"),
    "twirl.oracle_s": ("s/op", "lower"),
    "twirl.oracle_calls": ("calls/op", "lower"),
    "coherence.self_s": ("s/op", "lower"),
    "coherence.calls": ("calls/op", "lower"),
    "coherence.assist_s": ("s/op", "lower"),
    "coherence.assist_samples_per_s": ("1/s", "higher"),
    "coherence.report_s": ("s/op", "lower"),
    "entanglement.self_s": ("s/op", "lower"),
    "entanglement.calls": ("calls/op", "lower"),
    "sweeps.self_s": ("s/op", "lower"),
    "sweeps.calls": ("calls/op", "lower"),
    "verify.self_s": ("s/op", "lower"),
    "trace.spans": ("spans/op", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def public_functions(module):
    """The functions a module defines under a public name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans at the public functions of the package's layers."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"permutwirl.{layer}") for layer in LAYERS}
        self.names = []  # function id -> "layer.function"
        self.fid = {}
        for layer, module in self.modules.items():
            for fname in public_functions(module):
                self.fid[f"{layer}.{fname}"] = len(self.names)
                self.names.append(f"{layer}.{fname}")
        self.funcs, self.ops, self.parents, self.starts, self.ends = [], [], [], [], []
        self.stack = []
        self.extra = {}
        self.op = -1

    def _wrap(self, fn, fid: int, probe):
        funcs, ops, parents, starts, ends = self.funcs, self.ops, self.parents, self.starts, self.ends
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(funcs)
            funcs.append(fid)
            ops.append(tracer.op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if probe is not None:
                    tracer.extra[idx] = probe(args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def active(self):
        """Swap in the wrappers; always put the originals back."""
        originals = []
        try:
            for layer, module in self.modules.items():
                for fname, fn in public_functions(module).items():
                    name = f"{layer}.{fname}"
                    originals.append((module, fname, fn))
                    setattr(module, fname, self._wrap(fn, self.fid[name], PROBES.get(name)))
            yield self
        finally:
            for module, fname, fn in originals:
                setattr(module, fname, fn)

    def begin_op(self) -> None:
        self.op += 1

    # ----------------------------------------------------------- summary

    def arrays(self):
        funcs = np.asarray(self.funcs, dtype=np.intp)
        parents = np.asarray(self.parents, dtype=np.intp)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=funcs.size)
        return funcs, dur, dur - child

    def metrics(self, n_ops: int, import_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics, per traced op; layers a workload never reaches read 0."""
        funcs, dur, self_t = self.arrays()
        ops = max(n_ops, 1)
        span_layer = np.array([name.split(".")[0] for name in self.names])[funcs]

        def fn_mask(*names):
            return np.isin(funcs, [self.fid[n] for n in names])

        def incl(*names):
            return float(dur[fn_mask(*names)].sum()) / ops

        def calls(*names):
            return int(fn_mask(*names).sum()) / ops

        def extra_sum(name):
            fid = self.fid.get(name)
            return sum(v for i, v in self.extra.items() if self.funcs[i] == fid)

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        out = {"cli.import_s": import_s}
        for layer in LAYERS:
            mask = span_layer == layer
            out[f"{layer}.self_s"] = float(self_t[mask].sum()) / ops
            out[f"{layer}.calls"] = int(mask.sum()) / ops
        out["statefile.load_s"] = incl("statefile.load_raw")
        out["statefile.save_s"] = incl("statefile.save_state")
        out["statefile.load_MBps"] = rate(extra_sum("statefile.load_raw") / ops / 1e6, out["statefile.load_s"])
        out["statefile.save_MBps"] = rate(extra_sum("statefile.save_state") / ops / 1e6, out["statefile.save_s"])
        out["states.validate_s"] = incl("states.validate_density")
        out["states.bell_state_s"] = incl("states.bell_diagonal_state")
        out["linalg.eigh_s"] = incl("linalg.hermitian_eigen")
        out["linalg.eigh_calls"] = calls("linalg.hermitian_eigen")
        out["twirl.closed_form_s"] = incl("twirl.twirl_closed_form")
        out["twirl.one_sided_s"] = incl("twirl.twirl_one_sided")
        out["twirl.two_sided_s"] = incl("twirl.twirl_two_sided")
        out["twirl.coefficients_s"] = incl("twirl.bipartite_coefficients")
        oracle = [n for n in self.fid if n.startswith("twirl.") and n.endswith("_bruteforce")]
        out["twirl.oracle_s"] = incl(*oracle)
        out["twirl.oracle_calls"] = calls(*oracle)
        kernel_ids = {self.fid[n] for n in KERNELS}
        sides = [d for i, d in self.extra.items() if self.funcs[i] in kernel_ids]
        kernel_bytes = 2 * BYTES_PER_ENTRY * sum(d * d for d in sides)
        twirl_self = float(self_t[(span_layer == "twirl") & ~fn_mask(*oracle)].sum())
        out["twirl.GBps_computed"] = rate(kernel_bytes / 1e9, twirl_self)
        out["coherence.assist_s"] = incl("coherence.assistance_estimate")
        out["coherence.assist_samples_per_s"] = rate(
            extra_sum("coherence.assistance_estimate") / ops, out["coherence.assist_s"]
        )
        out["coherence.report_s"] = incl("coherence.coherence_report")
        out["trace.spans"] = len(self.funcs) / ops
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in PER_LAYER}

    def functions(self) -> dict:
        """Calls, inclusive and self seconds of each traced function, over all traced ops."""
        funcs, dur, self_t = self.arrays()
        calls = np.bincount(funcs, minlength=len(self.names))
        incl = np.bincount(funcs, weights=dur, minlength=len(self.names))
        own = np.bincount(funcs, weights=self_t, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def op_spans(self, op: int) -> list:
        """Spans of one op as rows [index, function, start, end, parent], times from its first span."""
        rows = [i for i, o in enumerate(self.ops) if o == op]
        t0 = self.starts[rows[0]] if rows else 0.0
        return [
            [i, self.names[self.funcs[i]], self.starts[i] - t0, self.ends[i] - t0, self.parents[i]]
            for i in rows
        ]
