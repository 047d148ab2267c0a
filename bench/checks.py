"""Checks made apart from synmem.

Each check recomputes a program output from the closed forms and equations
the README and the module docstrings state, with code of its own, and
raises CheckError when the program disagrees. Nothing here imports synmem:
the checks take the program's outputs (CSV files, lookup lists, stores,
rasters) as plain values.
"""

import csv
import itertools
import math
import os

import numpy as np


class CheckError(Exception):
    """A program output disagrees with its independent recomputation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def require_close(got, want, rel, what):
    scale = max(abs(want), 1e-300)
    require(abs(got - want) <= rel * scale,
            f"{what}: got {got!r}, want {want!r} (rel {abs(got - want) / scale:.3e})")


# The cost constants frozen in the README's cost model; calibrate_defaults at
# the default anchors (conv forward 1.03, backward 0.42) must reproduce them.
FROZEN_CONSTANTS = {
    "a_read": 1.0,
    "b_read": 0.1,
    "a_write": 1.0,
    "b_write": 0.5190291737030296,
    "a_leak": 1e-6,
    "e_logic": 22701.3570907843,
    "t_access": 1.0,
    "round_pow2": True,
}


def ceil_log2(n):
    return 0 if n <= 1 else (int(n) - 1).bit_length()


def next_pow2(n):
    return 1 if n <= 1 else 1 << (int(n) - 1).bit_length()


class Cost:
    """The README's cost formulas over (word count, word bits) banks."""

    def __init__(self, constants=FROZEN_CONSTANTS):
        self.c = constants

    def capacity(self, words, bits):
        return (next_pow2(words) if self.c["round_pow2"] else words) * bits

    def e_read(self, words, bits):
        cap = self.capacity(words, bits)
        return self.c["a_read"] * bits * (1.0 + self.c["b_read"] * math.sqrt(cap))

    def e_write(self, words, bits):
        cap = self.capacity(words, bits)
        return self.c["a_write"] * bits * (1.0 + self.c["b_write"] * math.sqrt(cap))

    def p_leak(self, words, bits):
        return self.c["a_leak"] * self.capacity(words, bits)


def check_constants(got, what="calibrate_defaults"):
    require(set(got) == set(FROZEN_CONSTANTS),
            f"{what}: keys {sorted(got)} != {sorted(FROZEN_CONSTANTS)}")
    for key, want in FROZEN_CONSTANTS.items():
        if isinstance(want, bool):
            require(got[key] is want, f"{what}: {key} = {got[key]!r}, want {want!r}")
        else:
            require_close(float(got[key]), want, 1e-12, f"{what}: {key}")


# ----------------------------------------------------------------- layouts

def fc_banks(scheme, n_pre, n_post, nnz, b_w, w_word=32):
    """Banks of an FC layer as (name, words, bits, fwd_reads, bwd_reads, writes).

    Word counts are the storage closed forms; the read counts are the
    whole-pass traffic contracts (forward: every pre looked up; backward:
    one scan of the structure plus one write per stored weight).
    """
    p = ceil_log2(nnz + 1)
    if scheme == "CB":
        cells = n_pre * n_post
        return [("weight", cells, b_w, cells, cells, nnz)]
    if scheme == "PB-CSR":
        return [("row_ptr", n_pre + 1, p, 2 * n_pre, n_pre + 1, 0),
                ("col_idx", nnz, ceil_log2(n_post), nnz, nnz, 0),
                ("weight", nnz, b_w, nnz, nnz, nnz)]
    if scheme == "PB-BMP":
        words = n_pre * -(-n_post // w_word)
        return [("row_ptr", n_pre, p, n_pre, n_pre, 0),
                ("bitmap", words, w_word, words, words, 0),
                ("weight", nnz, b_w, nnz, nnz, nnz)]
    raise CheckError(f"unknown scheme {scheme!r}")


def fc_row_energy(cost, scheme, n_pre, n_post, nnz, b_w, w_word=32):
    """(forward_pJ, backward_pJ, leak_pJ) of one fc-sweep row."""
    banks = fc_banks(scheme, n_pre, n_post, nnz, b_w, w_word)
    fwd = sum(r * cost.e_read(w, b) for _, w, b, r, _, _ in banks)
    bwd = sum(r * cost.e_read(w, b) + u * cost.e_write(w, b)
              for _, w, b, _, r, u in banks)
    rate = sum(cost.p_leak(w, b) for _, w, b, _, _, _ in banks)
    t_fwd = sum(r for _, _, _, r, _, _ in banks) * cost.c["t_access"]
    t_bwd = sum(r + u for _, _, _, _, r, u in banks) * cost.c["t_access"]
    return fwd, bwd, rate * (t_fwd + t_bwd)


def container_length(scheme, banks):
    """Byte length of a store container from its (name, words, bits) banks."""
    geometry = {"CB": 10, "PB-CSR": 18, "PB-BMP": 20, "FUNC": 22}[scheme]
    payload = sum(1 + len(name) + 8 + 2
                  + (words * -(-bits // 8) if words and bits else 0)
                  for name, words, bits in banks)
    return 4 + 2 + 1 + geometry + 1 + payload


def store_layout(scheme, n_pre, n_post, nnz, b_w, w_word=32, kernel_words=0):
    """(name, words, bits) banks of a built store."""
    if scheme == "FUNC":
        return [("weight", kernel_words, b_w)]
    return [(name, words, bits)
            for name, words, bits, _, _, _ in fc_banks(scheme, n_pre, n_post,
                                                      nnz, b_w, w_word)]


def check_layout(store, blob, scheme, n_pre, n_post, nnz, b_w, what,
                 kernel_words=0):
    banks = store_layout(scheme, n_pre, n_post, nnz, b_w, kernel_words=kernel_words)
    want_bits = {name: words * bits for name, words, bits in banks}
    require(store.storage_bits() == want_bits,
            f"{what}: storage_bits {store.storage_bits()} != {want_bits}")
    want_len = container_length(scheme, banks)
    require(len(blob) == want_len,
            f"{what}: container is {len(blob)} bytes, layout says {want_len}")


# ------------------------------------------------------------------ sweeps

def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_winners(rows, key, what):
    """Every group's winner flags mark exactly the argmin of total_pJ."""
    groups = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in key), []).append(r)
    for group_key, group in groups.items():
        best = min(float(r["total_pJ"]) for r in group)
        for r in group:
            want = int(float(r["total_pJ"]) == best)
            require(int(r["winner"]) == want,
                    f"{what} {group_key}: {r['scheme']} winner={r['winner']}, "
                    f"argmin of total_pJ says {want}")
    return len(groups)


def check_fc_sweep(rows, cost=Cost(), n_pre=728, n_post=128, density=0.75,
                   bit_widths=(2, 3, 4, 5, 6, 7, 8), w_word=32):
    nnz = int(round(density * n_pre * n_post))
    want_keys = {(s, b) for s in ("CB", "PB-BMP", "PB-CSR") for b in bit_widths}
    got_keys = {(r["scheme"], int(r["b_w"])) for r in rows}
    require(len(rows) == len(want_keys) and got_keys == want_keys,
            f"fc-sweep rows {sorted(got_keys)} != {sorted(want_keys)}")
    for r in rows:
        b_w = int(r["b_w"])
        fwd, bwd, leak = fc_row_energy(cost, r["scheme"], n_pre, n_post, nnz,
                                       b_w, w_word)
        what = f"fc-sweep {r['scheme']} b_w={b_w}"
        require_close(float(r["forward_pJ"]), fwd, 1e-12, what + " forward_pJ")
        require_close(float(r["backward_pJ"]), bwd, 1e-12, what + " backward_pJ")
        require_close(float(r["leak_pJ"]), leak, 1e-12, what + " leak_pJ")
        require_close(float(r["total_pJ"]), fwd + bwd, 1e-12, what + " total_pJ")
        require_close(float(r["density"]), density, 0.0, what + " density")
    check_winners(rows, ("b_w",), "fc-sweep")


def check_conv_sweep(rows, bit_widths=(2, 3, 4, 5, 6, 7, 8)):
    require(len(rows) == 2 * len(bit_widths),
            f"conv-sweep has {len(rows)} rows, want {2 * len(bit_widths)}")
    check_winners(rows, ("b_w",), "conv-sweep")
    by = {r["scheme"]: r for r in rows if int(r["b_w"]) == 8}
    bwd = float(by["FUNC"]["backward_pJ"]) / float(by["PB-CSR"]["backward_pJ"])
    fwd = float(by["FUNC"]["forward_pJ"]) / float(by["PB-CSR"]["forward_pJ"])
    require(0.30 <= bwd <= 0.60, f"conv FUNC/PB-CSR backward ratio {bwd} not in [0.30, 0.60]")
    require(fwd <= 1.10, f"conv FUNC/PB-CSR forward ratio {fwd} > 1.10")
    return fwd, bwd


def check_density_grid(rows, n_densities=10, n_fractions=10):
    want = 3 * n_densities * n_fractions
    require(len(rows) == want, f"density grid has {len(rows)} rows, want {want}")
    check_winners(rows, ("density", "leak_fraction"), "density grid")
    winners = {(round(float(r["density"]), 9), round(float(r["leak_fraction"]), 9)):
               r["scheme"] for r in rows if int(r["winner"])}
    require(winners.get((1.0, 0.0)) == "CB",
            f"density grid (1.0, 0.0) won by {winners.get((1.0, 0.0))}, want CB")
    require(winners.get((0.05, 0.0)) in ("PB-CSR", "PB-BMP"),
            f"density grid (0.05, 0.0) won by {winners.get((0.05, 0.0))}, "
            f"want a sparse scheme")


# ---------------------------------------------------------------- training

def check_frontier(rows, cells):
    require(len(rows) == cells, f"frontier has {len(rows)} cells, want {cells}")
    for r in rows:
        require(int(r["diverged"]) == 0,
                f"cell {r['scheme']} b_w={r['b_w']} diverged")
        require(math.isfinite(float(r["vr_final"])),
                f"cell {r['scheme']} b_w={r['b_w']} has non-finite distance")


def check_cb_curve(rows, cost, layer_sizes, steps, b_w, epochs, what):
    """Every epoch's CB forward energy from the layer shapes alone."""
    require(len(rows) == epochs + 1,
            f"{what}: {len(rows) - 1} epochs, want {epochs}")
    want = sum(steps * n_in * n_out * cost.e_read(n_in * n_out, b_w)
               for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    require(float(rows[0]["fwd_pJ"]) == 0.0, f"{what}: epoch 0 has forward energy")
    for r in rows[1:]:
        require_close(float(r["fwd_pJ"]), want, 1e-12,
                      f"{what} epoch {r['epoch']} fwd_pJ")


def check_same_files(dir_a, dir_b):
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    require(names_a == names_b, f"output files differ: {names_a} vs {names_b}")
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            require(fa.read() == fb.read(), f"{name} differs between repeated seeds")


# LIF constants of the reference episodes (the documented defaults).
LIF = {"alpha": 0.5, "beta": 0.75, "gamma": 0.875, "delta": 1.0, "theta": 1.0,
       "beta_s": 10.0}


def reference_episode(weights, in_raster, etas, lif=LIF, soft=False):
    """Time-major LIF episode from the equations in the snn module docstring.

    U[n] = (W/eta)^T P[n] - delta R[n];  S[n] = step(U[n] - theta)
    Q[n+1] = alpha Q[n] + S_in[n];  P[n+1] = beta P[n] + Q[n];
    R[n+1] = gamma R[n] + S[n].
    Soft mode replaces the step by x / (1 + beta_s |x|) + 0.5, x = U - theta.
    Returns one (n_post, steps) raster per layer.
    """
    steps = in_raster.shape[1]
    qs = [np.zeros(w.shape[0]) for w in weights]
    ps = [np.zeros(w.shape[0]) for w in weights]
    rs = [np.zeros(w.shape[1]) for w in weights]
    rasters = [np.zeros((w.shape[1], steps)) for w in weights]
    for n in range(steps):
        spikes = np.asarray(in_raster[:, n], dtype=np.float64)
        for li, (w, e) in enumerate(zip(weights, etas)):
            u = (ps[li] @ w) / e - lif["delta"] * rs[li]
            if soft:
                x = u - lif["theta"]
                s = x / (1.0 + lif["beta_s"] * np.abs(x)) + 0.5
            else:
                s = (u >= lif["theta"]).astype(np.float64)
            q_new = lif["alpha"] * qs[li] + spikes
            ps[li] = lif["beta"] * ps[li] + qs[li]
            qs[li] = q_new
            rs[li] = lif["gamma"] * rs[li] + s
            rasters[li][:, n] = s
            spikes = s
    return rasters


def check_rasters(got, want, what):
    require(len(got) == len(want), f"{what}: {len(got)} layers, want {len(want)}")
    for li, (g, w) in enumerate(zip(got, want)):
        require(g.shape == w.shape, f"{what} layer {li}: shape {g.shape} != {w.shape}")
        bad = int(np.count_nonzero(g != w))
        require(bad == 0, f"{what} layer {li}: {bad} spikes differ from the reference")


def van_rossum(s, t, tau):
    lam = math.exp(-1.0 / tau)
    diff = np.asarray(s, dtype=np.float64) - np.asarray(t, dtype=np.float64)
    acc = np.zeros(diff.shape[0])
    total = 0.0
    for n in range(diff.shape[1]):
        acc = lam * acc + diff[:, n]
        total += float(acc @ acc)
    return math.sqrt(total)


def finite_difference(weights, in_raster, target, tau, lif, eps=1e-6):
    """Central differences of the soft-mode van Rossum loss per weight."""
    etas = [1.0] * len(weights)
    grads = []
    for li, w in enumerate(weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            losses = []
            for sign in (1.0, -1.0):
                moved = [x.copy() for x in weights]
                moved[li][idx] += sign * eps
                out = reference_episode(moved, in_raster, etas, lif, soft=True)[-1]
                losses.append(van_rossum(out, target, tau))
            g[idx] = (losses[0] - losses[1]) / (2 * eps)
        grads.append(g)
    return grads


def check_gradients(analytic, numeric, what, tol=1e-4):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        require(a.shape == n.shape, f"{what}: gradient shape {a.shape} != {n.shape}")
        worst = max(worst, float(np.max(np.abs(a - n))) / max(float(np.abs(n).max()), 1e-9))
    require(worst < tol, f"{what}: BPTT vs finite differences, relative error {worst:.3e}")
    return worst


def check_on_grid(weights, b_w, what):
    step = 2.0 ** (1 - b_w)
    for li, w in enumerate(weights):
        codes = w / step
        require(np.array_equal(codes, np.round(codes)),
                f"{what} layer {li}: weights off the {b_w}-bit grid")
        require(float(np.abs(w).max()) <= 1.0 - step,
                f"{what} layer {li}: weight {float(np.abs(w).max())} outside "
                f"+/-{1.0 - step}")


# ------------------------------------------------------------------ stores

def grid_round(x, b_w):
    """Clip to the b_w feasible range, then round to the grid, ties away from 0."""
    step = 2.0 ** (1 - b_w)
    x = np.clip(np.asarray(x, dtype=np.float64), -1.0 + step, 1.0 - step)
    return np.sign(x) * np.floor(np.abs(x) / step + 0.5) * step


def _pairs(lists):
    n = sum(len(entries) for entries in lists)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(lists))
    return np.fromiter(flat, dtype=np.float64, count=2 * n).reshape(n, 2)


def check_lookups(forward, reverse, weights, mask, b_w, what):
    """Forward/reverse lookup lists equal the masked, grid-rounded matrix."""
    want = np.where(mask, grid_round(weights, b_w), 0.0)
    n_pre, n_post = mask.shape
    require(len(forward) == n_pre and len(reverse) == n_post,
            f"{what}: {len(forward)}/{len(reverse)} lookups, want {n_pre}/{n_post}")
    require([len(r) for r in forward] == mask.sum(axis=1).tolist(),
            f"{what}: forward fanout differs from the mask")
    require([len(c) for c in reverse] == mask.sum(axis=0).tolist(),
            f"{what}: reverse fanin differs from the mask")
    rows, cols = np.nonzero(mask)
    got = _pairs(forward)
    require(np.array_equal(got[:, 0], cols), f"{what}: forward post ids differ")
    require(np.array_equal(got[:, 1], want[rows, cols]),
            f"{what}: forward weights differ from the rounded matrix")
    cols_t, rows_t = np.nonzero(mask.T)
    got = _pairs(reverse)
    require(np.array_equal(got[:, 0], rows_t), f"{what}: reverse pre ids differ")
    require(np.array_equal(got[:, 1], want[rows_t, cols_t]),
            f"{what}: reverse weights differ from the rounded matrix")


def check_written(dense, weights, mask, b_w, writes, what):
    """After the write batch the store holds the rounded written values."""
    want = np.where(mask, grid_round(weights, b_w), 0.0)
    pre, post, values = writes
    want[pre, post] = grid_round(values, b_w)
    bad = int(np.count_nonzero(dense != want))
    require(bad == 0, f"{what}: {bad} weights differ after the write batch")


def check_decoded(back, store, what):
    """A decoded store equals its source word for word."""
    for attr in ("scheme", "n_pre", "n_post", "b_w"):
        require(getattr(back, attr) == getattr(store, attr),
                f"{what}: decoded {attr} {getattr(back, attr)!r} != "
                f"{getattr(store, attr)!r}")
    if store.scheme == "FUNC":
        require(np.array_equal(back.kernel, store.kernel),
                f"{what}: decoded kernel differs")
        return
    for attr in ("row_ptr", "col_idx", "bitmap"):
        if hasattr(store, attr):
            require(np.array_equal(getattr(back, attr), getattr(store, attr)),
                    f"{what}: decoded {attr} differs")
    bad = int(np.count_nonzero(back.to_dense() != store.to_dense()))
    require(bad == 0, f"{what}: {bad} decoded weights differ")


def conv_connections(in_h, in_w, k_h, k_w, c_in, c_out):
    def valid(extent, k):
        h = k // 2
        return sum(min(extent - 1, x + h) - max(0, x - h) + 1 for x in range(extent))
    return valid(in_h, k_h) * valid(in_w, k_w) * c_in * c_out


def check_conv_lookups(func_lists, csr_lists, what):
    require(len(func_lists) == len(csr_lists), f"{what}: lookup counts differ")
    for k, (f, c) in enumerate(zip(func_lists, csr_lists)):
        require(sorted(f) == c, f"{what} #{k}: FUNC lookup differs from csr_from_conv")
