"""Span tracing of synmem's layers from outside the package.

The tracer wraps public functions and methods of the synmem modules without
editing them. synmem modules import each other's functions by name (snn
holds its own `pass_energy`, energy its own `build_csr`), so a wrapper
replaces every module-level binding of the original function, in every
loaded synmem module, not just the defining one.

Each span records its label (the op it belongs to), layer name, start, end
and parent span. Spans stay in memory and are written out when the run
ends. A layer's self time is its span minus the time its child spans cover.
"""

import functools
import json
import statistics
import sys
import time

# layer name -> wrapped callables, "module:function" or "module:Class.method"
_STORE_CLASSES = ("CrossbarStore", "CsrStore", "BitmapStore")
TIMED_LAYERS = {
    "snn.run_episode": ["snn:run_episode"],
    "snn.bptt_gradients": ["snn:bptt_gradients"],
    "snn.van_rossum": ["snn:van_rossum"],
    "quant.quantize_error": ["quant:quantize_error"],
    "quant.stochastic_round": ["quant:stochastic_round"],
    "energy.pass_energy": ["energy:pass_energy"],
    "energy.layer_sweep": ["energy:layer_sweep"],
    "energy.sweep_density_leakage": ["energy:sweep_density_leakage"],
    "energy.calibrate_defaults": ["energy:calibrate_defaults"],
    "stores.fc_pass_traces": ["stores:fc_pass_traces"],
    "stores.pass_trace": [f"stores:{c}.{m}" for c in _STORE_CLASSES
                          for m in ("forward_pass_trace", "backward_scan_trace",
                                    "weight_update_trace")],
    "stores.build": ["stores:build_crossbar", "stores:build_csr",
                     "stores:build_bitmap"],
    "stores.forward_lookup": [f"stores:{c}.forward_lookup" for c in _STORE_CLASSES],
    "stores.reverse_lookup": [f"stores:{c}.reverse_lookup" for c in _STORE_CLASSES],
    "stores.write_weight": [f"stores:{c}.write_weight" for c in _STORE_CLASSES],
    "matrix.random_synapse_matrix": ["matrix:random_synapse_matrix"],
    "conv.lookup": ["conv:FunctionalStore.forward_lookup",
                    "conv:FunctionalStore.reverse_lookup"],
    "conv.csr_from_conv": ["conv:csr_from_conv"],
    "serialize.to_bytes": ["serialize:to_bytes"],
    "serialize.from_bytes": ["serialize:from_bytes"],
    "cli.write_csv": ["cli:write_csv"],
}
# layers called too often for a span each (4,000+ per epoch): counted only
COUNTED_LAYERS = {"snn.lif_step": ["snn:lif_step"]}
# layers whose call count is reported beside their time
CALL_COUNTS = ("energy.pass_energy", "matrix.random_synapse_matrix", "stores.build")
# layers whose results' byte length is summed: layer -> metric
SIZES = {"serialize.to_bytes": "serialize.bytes"}

SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans = []       # [label, name, start, end, parent index or -1]
        self.counts = {}      # (label, name) -> count of counted calls or bytes
        self.label = None     # op the next spans belong to; None outside ops
        self._stack = []

    def _count(self, name, n=1):
        key = (self.label, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.label, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if name in SIZES:
                self._count(SIZES[name], len(result))
            return result
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every layer in the loaded synmem modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "synmem" or n.startswith("synmem.")]
        for layers, make in ((TIMED_LAYERS, self.timed), (COUNTED_LAYERS, self.counted)):
            for name, targets in layers.items():
                for target in targets:
                    module_name, attr = target.split(":")
                    owner = sys.modules[f"synmem.{module_name}"]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(owner, cls_name)
                        setattr(cls, meth, make(name, cls.__dict__[meth]))
                        continue
                    orig = getattr(owner, attr)
                    wrapped = make(name, orig)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapped)

    def self_times(self):
        """{(label, layer): summed self time} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for label, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (label, name, start, end, _) in enumerate(self.spans):
            key = (label, name)
            out[key] = out.get(key, 0.0) + (end - start) - child[k]
        return out

    def layer_metrics(self, ops):
        """Per-layer metrics: median self time per op, and counts per op.

        A layer that does no work inside ops but does in set-up (calibration
        on sweep, matrix draws on store) is reported per set-up instead.
        """
        self_time = self.self_times()
        calls = dict(self.counts)
        for label, name, _, _, _ in self.spans:
            calls[(label, name)] = calls.get((label, name), 0) + 1

        def per_op(table, name):
            values = [table.get((op, name), 0) for op in ops]
            if any(values):
                return statistics.median(values)
            return table.get((SETUP, name), 0)

        metrics = {name + "_s": float(per_op(self_time, name)) for name in TIMED_LAYERS}
        for name in (*COUNTED_LAYERS, *CALL_COUNTS):
            metrics[name + "_calls"] = per_op(calls, name)
        for metric in SIZES.values():
            metrics[metric] = per_op(calls, metric)
        return metrics

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["label", "name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": [[l, n, c] for (l, n), c in self.counts.items()]},
                      fh, separators=(",", ":"))
