"""The three benchmark workloads: sweep, train and store.

A workload builds its inputs from the seed in `setup`, then the worker
calls `op` in a closed loop (the next op starts when the previous one has
ended). Only the library calls inside `clock.timed()` count as op time;
each op checks its outputs between those calls, untimed. `final_checks`
runs once after the timed loop. synmem is imported by the worker before
`setup`, so workload code reaches the library through module attributes,
which the traced run replaces with wrappers.
"""

import json
import os
import sys

import numpy as np

import checks
from checks import require


def op_seed(seed, k):
    """Seed handed to the program for op k of a run with workload seed `seed`."""
    return (seed * 100_003 + k) % 2**31


def _np_rng(seed, stream):
    """numpy generator for the benchmark's own draws (any integer seed)."""
    return np.random.default_rng([seed % 2**64, stream])


def _lib(name):
    return sys.modules[f"synmem.{name}"]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


class Sweep:
    """fc-sweep, conv-sweep and density-leak-grid at their default configs."""

    COMMANDS = (("fc-sweep", "fc_sweep.csv", checks.check_fc_sweep),
                ("conv-sweep", "conv_sweep.csv", checks.check_conv_sweep),
                ("density-leak-grid", "density_leak_grid.csv", checks.check_density_grid))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = os.path.join(workdir, "sweep.json")
        self.out = os.path.join(workdir, "sweep")

    def setup(self):
        cli, energy = _lib("cli"), _lib("energy")
        _write_json(self.config, {})
        cfg = cli.load_config(self.config)
        self.model = energy.load_cost_model(cfg["cost_model"])
        self.constants = energy.calibrate_defaults(energy.DEFAULT_ANCHORS)

    def op(self, k, clock):
        cli = _lib("cli")
        argv = ["--config", self.config, "--out", self.out, "--seed", str(op_seed(self.seed, k))]
        with clock.timed():
            codes = [cli.main([command, *argv]) for command, _, _ in self.COMMANDS]
        work = 0
        for (_, name, check), code in zip(self.COMMANDS, codes):
            if code == 0:
                rows = checks.read_rows(os.path.join(self.out, name))
                check(rows)
                work += len(rows)
        return work, len(codes), sum(c != 0 for c in codes)

    def final_checks(self):
        checks.check_constants(self.constants)
        checks.check_constants(self.model.constants(), "default cost model")


class Train:
    """One train-frontier command at desk scale with the epochs cut short."""

    EPOCHS = 10
    LAYERS = (200, 100, 50)
    STEPS = 100
    BIT_WIDTHS = (2, 3, 4, 5, 6)
    SCHEMES = ("CB", "PB-BMP", "PB-CSR")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = os.path.join(workdir, "train.json")

    def _out(self, k):
        # op 0's files are kept for the repeated-seed check
        return os.path.join(self.workdir, "train-0" if k == 0 else "train")

    def setup(self):
        _write_json(self.config, {"train_frontier": {
            "layer_sizes": list(self.LAYERS), "steps": self.STEPS,
            "epochs": self.EPOCHS, "bit_widths": list(self.BIT_WIDTHS),
            "schemes": list(self.SCHEMES)}})
        _lib("cli").load_config(self.config)

    def _run(self, seed, out):
        return _lib("cli").main(["train-frontier", "--config", self.config,
                                 "--out", out, "--seed", str(seed)])

    def op(self, k, clock):
        out = self._out(k)
        with clock.timed():
            code = self._run(op_seed(self.seed, k), out)
        if code != 0:
            return 0, 1, 1
        cells = len(self.BIT_WIDTHS) * len(self.SCHEMES)
        checks.check_frontier(checks.read_rows(os.path.join(out, "frontier.csv")), cells)
        cost = checks.Cost()
        epochs = 0
        for b_w in self.BIT_WIDTHS:
            for scheme in self.SCHEMES:
                name = f"curve_{scheme.replace('-', '_')}_{b_w}b.csv"
                rows = checks.read_rows(os.path.join(out, name))
                if scheme == "CB":
                    checks.check_cb_curve(rows, cost, self.LAYERS, self.STEPS, b_w,
                                          self.EPOCHS, name)
                epochs += len(rows) - 1
        return epochs, 1, 0

    def final_checks(self):
        repeat = os.path.join(self.workdir, "train-repeat")
        require(self._run(op_seed(self.seed, 0), repeat) == 0, "repeated op failed")
        checks.check_same_files(self._out(0), repeat)
        rng = _np_rng(self.seed, 1)
        self._check_episode(rng)
        self._check_gradients(rng)
        self._check_quantized_weights()

    def _check_episode(self, rng):
        """run_episode rasters equal the reference episode, spike for spike."""
        snn = _lib("snn")
        etas = [8.0, 8.0]
        weights = []
        for n_in, n_out in zip(self.LAYERS[:-1], self.LAYERS[1:]):
            bound = np.sqrt(3.0 / n_in) * 8.0
            weights.append(checks.grid_round(rng.uniform(-bound, bound, (n_in, n_out)), 4))
        rates = rng.uniform(0.02, 0.2, (self.LAYERS[0], 1))
        raster = (rng.random((self.LAYERS[0], self.STEPS)) < rates).astype(np.uint8)
        params = snn.LifParams(**checks.LIF)
        out, states = snn.run_episode(weights, raster, params, etas, b_m=16)
        got = [np.array(st.s_history).T for st in states]
        want = checks.reference_episode(weights, raster, etas)
        checks.check_rasters(got, want, "run_episode")
        checks.check_rasters([out], want[-1:], "run_episode output")
        require(want[0].any() and want[-1].any(), "reference episode is silent")

    def _check_gradients(self, rng, nets=3, tau=6.0):
        """bptt_gradients against central differences on small soft-mode nets."""
        snn = _lib("snn")
        lif = {**checks.LIF, "theta": 0.3, "beta_s": 5.0}
        params = snn.LifParams(**lif)
        done = 0
        while done < nets:
            n_in, n_hid, n_out = (int(x) for x in rng.integers(2, 5, 3))
            steps = int(rng.integers(4, 11))
            weights = [rng.uniform(-0.8, 0.8, (n_in, n_hid)),
                       rng.uniform(-0.8, 0.8, (n_hid, n_out))]
            raster = (rng.random((n_in, steps)) < 0.5).astype(np.float64)
            target = (rng.random((n_out, steps)) < 0.3).astype(np.float64)
            out, states = snn.run_episode(weights, raster, params, soft=True)
            if checks.van_rossum(out, target, tau) < 1e-9:
                continue
            analytic = snn.bptt_gradients(states, weights, out, target, params, tau)
            numeric = checks.finite_difference(weights, raster, target, tau, lif)
            checks.check_gradients(analytic, numeric, f"net {done}")
            done += 1

    def _check_quantized_weights(self):
        snn, quant, energy = _lib("snn"), _lib("quant"), _lib("energy")
        cfg = snn.NetworkConfig(layer_sizes=self.LAYERS, steps=self.STEPS)
        for b_w in (2, 4, 6):
            q = quant.QuantConfig(b_w=b_w, fan_in=self.LAYERS[0])
            res = snn.train(cfg, "CB", q, 3, op_seed(self.seed, b_w), energy.DEFAULT_MODEL)
            checks.check_on_grid(res.weights, b_w, f"trained weights b_w={b_w}")


class Store:
    """Library traffic on encoded stores: build, look up, write, encode, decode."""

    DENSITIES = (0.05, 0.3, 0.75, 1.0)
    N_PRE, N_POST, B_W = 728, 128, 8
    WRITES = 64
    CONV = (28, 28, 3, 3, 8, 8)
    SAMPLES = 32
    # truncated-container inputs are fixed, so every run fails the same decodes
    PROBE_SEED = 20_200_325
    SCHEMES = (("CB", "build_crossbar"), ("PB-CSR", "build_csr"),
               ("PB-BMP", "build_bitmap"))

    def __init__(self, seed, workdir):
        self.seed = seed

    def _matrices(self, seed):
        rng_mod, matrix = _lib("rng"), _lib("matrix")
        return [matrix.random_synapse_matrix(self.N_PRE, self.N_POST, d,
                                             rng_mod.CounterRng(rng_mod.derive_seed(seed, i)))
                for i, d in enumerate(self.DENSITIES)]

    def _kernel(self, seed):
        g = self.geometry
        return _lib("rng").CounterRng(seed).uniform_range(
            -1.0, 1.0, (g.c_in, g.c_out, g.k_h, g.k_w))

    def setup(self):
        conv, stores, serialize = _lib("conv"), _lib("stores"), _lib("serialize")
        self.geometry = conv.ConvGeometry(*self.CONV)
        self.matrices = self._matrices(self.seed)
        rng = _np_rng(self.seed, 2)
        self.writes = []
        for m in self.matrices:
            pre, post = np.nonzero(m.mask)
            pick = rng.choice(len(pre), self.WRITES, replace=False)
            values = rng.uniform(-1.2, 1.2, self.WRITES)
            self.writes.append((pre[pick], post[pick], values))
        self.kernel = self._kernel(self.seed + 1)
        g = self.geometry
        self.pre_ids = rng.choice(g.n_pre, self.SAMPLES, replace=False).tolist()
        self.post_ids = rng.choice(g.n_post, self.SAMPLES, replace=False).tolist()
        self.probes = [[serialize.to_bytes(getattr(stores, build)(m, self.B_W))
                        for _, build in self.SCHEMES]
                       for m in self._matrices(self.PROBE_SEED)]
        self.func_probe = serialize.to_bytes(
            conv.build_functional(g, self._kernel(self.PROBE_SEED), self.B_W))

    def _cut_decode_raises(self, blob):
        """Decode the container minus its last byte; True if it is rejected."""
        try:
            _lib("serialize").from_bytes(blob[:-1])
        except ValueError:
            return True
        except Exception:       # e.g. struct.error from a cut header: wrong type
            return False
        return False

    def op(self, k, clock):
        stores, serialize, conv = _lib("stores"), _lib("serialize"), _lib("conv")
        b_w, work, attempted, failed = self.B_W, 0, 0, 0
        for i, m in enumerate(self.matrices):
            pre, post, values = self.writes[i]
            for j, (scheme, build) in enumerate(self.SCHEMES):
                with clock.timed():
                    s = getattr(stores, build)(m, b_w)
                    fwd = [s.forward_lookup(p)[0] for p in range(self.N_PRE)]
                    rev = [s.reverse_lookup(q)[0] for q in range(self.N_POST)]
                    for p, q, v in zip(pre.tolist(), post.tolist(), values.tolist()):
                        s.write_weight(p, q, v)
                    blob = serialize.to_bytes(s)
                    back = serialize.from_bytes(blob)
                    rejected = self._cut_decode_raises(self.probes[i][j])
                what = f"{scheme} d={self.DENSITIES[i]}"
                checks.check_lookups(fwd, rev, m.weights, m.mask, b_w, what)
                checks.check_written(s.to_dense(), m.weights, m.mask, b_w,
                                     self.writes[i], what)
                checks.check_layout(s, blob, scheme, self.N_PRE, self.N_POST,
                                    m.nnz, b_w, what)
                checks.check_decoded(back, s, what)
                work += m.nnz
                attempted += 4 + self.N_PRE + self.N_POST + self.WRITES
                failed += not rejected
        g = self.geometry
        with clock.timed():
            csr = conv.csr_from_conv(g, self.kernel, b_w)
            func = conv.build_functional(g, self.kernel, b_w)
            lookups = [[store.forward_lookup(p)[0] for p in self.pre_ids]
                       + [store.reverse_lookup(q)[0] for q in self.post_ids]
                       for store in (func, csr)]
            blob = serialize.to_bytes(func)
            back = serialize.from_bytes(blob)
            rejected = self._cut_decode_raises(self.func_probe)
        connections = checks.conv_connections(*self.CONV)
        require(csr.nnz == connections,
                f"csr_from_conv holds {csr.nnz} synapses, want {connections}")
        checks.check_conv_lookups(*lookups, "conv")
        require(np.array_equal(func.kernel, checks.grid_round(self.kernel, b_w)),
                "FUNC kernel is not the rounded kernel")
        checks.check_layout(func, blob, "FUNC", g.n_pre, g.n_post, connections, b_w,
                            "FUNC", kernel_words=g.kernel_words)
        checks.check_decoded(back, func, "FUNC")
        work += csr.nnz + func.nnz
        attempted += 5 + 4 * self.SAMPLES
        failed += not rejected
        return work, attempted, failed

    def final_checks(self):
        pass


WORKLOADS = {"sweep": Sweep, "train": Train, "store": Store}
