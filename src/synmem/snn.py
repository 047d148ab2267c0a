"""Discrete-time LIF network with surrogate-gradient training.

Per layer and time step n, with presynaptic traces P, Q over the inputs
and refractory state R over the outputs:

    U[n]   = (W/eta)^T P[n] - delta * R[n]
    S[n]   = step(U[n] - theta)              (spike when U >= theta)
    Q[n+1] = alpha * Q[n] + S_in[n]
    P[n+1] = beta  * P[n] + Q[n]
    R[n+1] = gamma * R[n] + S[n]

The step function's derivative is replaced for learning by the normalized
negative branch of a fast sigmoid, h(u) = 1 / (beta_s * |u - theta| + 1)^2,
which peaks at 1 on the threshold. Training minimizes the van Rossum
distance between the output raster and a target raster; the distance is
evaluated in floating point and its gradient flows through the exponential
filter analytically.

A layer's traces P and Q depend only on its input raster, so episodes and
their gradients run layer by layer rather than step by step. Per step
stay only the recurrences that cannot be unrolled cheaply. Every linear
one, acc = lam * acc + x[n], runs through one time-major filter, `_leaky`:
Q and then P over a layer's input spikes, g_p and then g_q in reverse for
the gradient at its input, and the van Rossum filter over the output
spikes and, in reverse, over the distance's error. The other two are the
U/S/R refractory loop (n_post wide), nonlinear through the spike, and in
reverse the g_u/g_r loop (n_post) through the surrogate. The synaptic
products over all steps are one GEMM each: (P @ W) / eta forward, P^T @ G
/ eta for the weight gradient and G @ (W/eta)^T for the gradient at the
layer's input. An episode is recorded as one frozen LayerHistory
of (steps, n) arrays per layer.

Contract against a time-major episode that advances every layer one step
at a time with `lif_step`: the per-step recurrences use the same
elementwise operations in the same order, so binary spike rasters and P
histories are bit-identical. A GEMM sums in another order than per-step
products, so membrane values and gradients agree to within 1e-12
relative, as do soft-mode spikes, which are smooth in U, and the P
histories they feed. A last-bit difference in U could flip a spike only
where U lies that close to theta; the oracle tests compare rasters for
exact equality.

Stored weights are kept on the quantized grid scaled by the power-of-two
factor eta (scale into storage, unscale at use); gradients are normalized,
clipped and quantized, then applied with stochastic rounding onto the grid.

Training runs as a batch of cells, one per weight precision, all on the
same seed: they share the input raster, the target, the layer shapes, the
lr schedule and their stochastic-rounding draws (each cell would draw the
same uniforms from the same stream), and differ only in their weights and
scale factors. A batch record is time-major, (steps, cells, n) per layer,
so each step's slice is one contiguous row over every cell's neurons. The
first layer's P history and the filtered target are made once per run,
one block of rounding uniforms per layer and epoch serves every cell, the
per-step loops step all cells at once, and the synaptic products are one
stacked GEMM over a (cells, n_pre, n_post) weight stack.
Every elementwise op is the one a single cell would make, and every
reduction (the van Rossum sum, the error peak, the nonzero counts) runs
on one cell's own contiguous block, so each cell's bytes equal a run of
that cell alone. `run_episode`, `bptt_gradients` and `van_rossum` are the
one-cell views of the same code. A run is deterministic under its seed.

Training records counts and does not price them: each epoch counts every
cell's nonzero weights once per weight stack, the counts give the sparsity,
and `energy.training_energy` prices them under any scheme and cost model.
"""

from dataclasses import dataclass

import numpy as np

from .quant import (eta, quantize_error, quantize_membrane, quantize_weights,
                    sigma, stochastic_round_with, weight_range)
from .rng import CounterRng, derive_seed


@dataclass(frozen=True)
class LifParams:
    alpha: float = 0.5      # synaptic trace decay
    beta: float = 0.75      # membrane trace decay
    gamma: float = 0.875    # refractory decay
    delta: float = 1.0      # refractory magnitude
    theta: float = 1.0      # firing threshold
    beta_s: float = 10.0    # surrogate sharpness

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.beta_s <= 0:
            raise ValueError("beta_s must be positive")


@dataclass(frozen=True, eq=False)
class LayerHistory:
    """One layer's recorded episode: (steps, n) arrays of the presynaptic
    trace P (n_pre wide), the membrane U (n_post, kept at b_m precision when
    b_m is given) and the output spikes S (n_post). Inside a training batch
    each array is (steps, cells, n); the first layer's P, which every cell
    shares, has a cell axis of length 1."""
    p_history: np.ndarray
    u_history: np.ndarray
    s_history: np.ndarray


def surrogate_derivative(u, params):
    """h(u) = 1 / (beta_s * |u - theta| + 1)^2; peak 1 at the threshold."""
    return 1.0 / (params.beta_s * np.abs(u - params.theta) + 1.0) ** 2


def soft_spike(u, params):
    """Differentiable stand-in for the step, with d/du == surrogate_derivative.

    f(x) = x / (1 + beta_s |x|) shifted by +0.5 so activity propagates;
    used only by gradient checks ("soft mode").
    """
    x = u - params.theta
    return x / (1.0 + params.beta_s * np.abs(x)) + 0.5


def _spike(u, params, soft):
    """Spikes of membrane u: soft_spike in soft mode, else the step u >= theta."""
    return soft_spike(u, params) if soft else (u >= params.theta).astype(np.float64)


def lif_step(p, q, r, in_spikes, w, params, layer_eta=1.0, soft=False):
    """One time step of one layer: (u, s, p, q, r) after the step.

    p, q: presynaptic traces (n_pre,); r: refractory state (n_post,);
    w: (n_pre, n_post) weights, divided by layer_eta at use. Returns the
    membrane and spikes of this step and the traces for the next one.
    """
    in_spikes = np.asarray(in_spikes, dtype=np.float64)
    if w.shape != (len(p), len(r)):
        raise ValueError(f"weights shape {w.shape} != ({len(p)}, {len(r)})")
    if in_spikes.shape != (len(p),):
        raise ValueError(f"input shape {in_spikes.shape} != ({len(p)},)")
    u = (p @ w) / layer_eta - params.delta * r
    s = _spike(u, params, soft)
    # P[n+1] uses the pre-update Q
    return (u, s, params.beta * p + q, params.alpha * q + in_spikes,
            params.gamma * r + s)


def _leaky(x, lam, reverse=False):
    """acc = lam * acc + x[n] over the time-major steps of x, from acc = 0.

    Returns acc at every step boundary, (steps + 1, ...): row 0 is the zero
    start and row n + 1 follows step n; reversed, the steps run from the
    last, row `steps` is the zero start and row n follows step n.
    """
    out = np.empty((len(x) + 1, *x.shape[1:]))
    acc, x = (out[::-1], x[::-1]) if reverse else (out, x)
    acc[0] = 0.0
    for prev, cur, x_n in zip(acc, acc[1:], x):
        np.multiply(prev, lam, out=cur)
        cur += x_n
    return out


def vr_filter(raster, tau_vr):
    """Leaky accumulation of a (neurons, steps) raster, decay exp(-1/tau)."""
    raster = np.asarray(raster, dtype=np.float64)
    # a C-order copy: np.sum pairs terms in memory order, so a distance over
    # the result sums as the oracle's does
    return _leaky(raster.T, np.exp(-1.0 / tau_vr))[1:].T.copy()


def _distances(e):
    """van Rossum distance per cell of filtered errors e (cells, n, steps):
    sqrt of the cell's own summed squares."""
    return np.array([np.sqrt(np.sum(sq)) for sq in e * e])


def _loss(s_history, target_filtered, tau_vr):
    """Per-cell van Rossum distances of a batch's output spikes
    (steps, cells, n_out) from the filtered target, and d(distance)/d(output
    spikes), time-major; zero for a cell whose rasters already match.
    Each filter pass runs over every cell's neurons at once; each cell's
    squared errors are summed over its own contiguous (n_out, steps) block."""
    lam = np.exp(-1.0 / tau_vr)
    e = np.ascontiguousarray(_leaky(s_history, lam)[1:].transpose(1, 2, 0))
    e -= target_filtered
    vr = _distances(e)
    matched = vr == 0.0
    e /= np.where(matched, 1.0, vr)[:, None, None]
    g = _leaky(e.transpose(2, 0, 1), lam, reverse=True)[:-1]
    g[:, matched] = 0.0
    return vr, g


def van_rossum(s, t, tau_vr):
    """Distance between filtered rasters: sqrt of summed squared differences."""
    if np.shape(s) != np.shape(t):
        raise ValueError(f"raster shapes differ: {np.shape(s)} vs {np.shape(t)}")
    e = vr_filter(s, tau_vr) - vr_filter(t, tau_vr)
    return float(_distances(e[None])[0])


def generate_poisson_input(n, steps, rates, seed):
    """Independent Bernoulli(rate) spikes per neuron and step."""
    rates = np.broadcast_to(np.asarray(rates, dtype=np.float64), (n, steps))
    if rates.min() < 0 or rates.max() > 1:
        raise ValueError("rates must lie in [0, 1]")
    rng = CounterRng(seed)
    return rng.bernoulli(rates, (n, steps))


def clean_pattern(n_out, steps, seed, period=20, band=3):
    """Deterministic diagonal-stripe raster; seed picks the phase."""
    phase = CounterRng(seed).randint(period)
    i = np.arange(n_out)[:, None]
    n = np.arange(steps)[None, :]
    shift = np.round(i * (steps - 1) / max(n_out - 1, 1)).astype(np.int64)
    return (((n - shift + phase) % period) < band).astype(np.uint8)


def generate_target(clean, p, seed):
    """Clean pattern thinned by an elementwise Bernoulli(p) keep mask."""
    clean = np.asarray(clean)
    if not ((clean == 0) | (clean == 1)).all():
        raise ValueError("clean pattern must be binary")
    rng = CounterRng(seed)
    keep = rng.bernoulli(p, clean.shape)
    return (clean * keep).astype(np.uint8)


def _input_traces(spikes, params):
    """P[n] for every step of a (steps, cells, n_pre) input raster:
    Q[n + 1] = alpha Q[n] + S_in[n], then P[n + 1] = beta P[n] + Q[n]."""
    return _leaky(_leaky(spikes, params.alpha)[:-1], params.beta)[:-1]


def _fire(drive, params, soft):
    """Refractory loop over a (steps, cells, n_post) synaptic drive: U and S."""
    u_hist = np.empty(drive.shape)
    s_hist = np.empty(drive.shape)
    r = np.zeros(drive.shape[1:])
    for n in range(len(drive)):
        u = drive[n] - params.delta * r
        s = _spike(u, params, soft)
        u_hist[n] = u
        s_hist[n] = s
        r = params.gamma * r + s
    return u_hist, s_hist


def _stacked_matmul(a, b):
    """Each cell's product of a time-major (steps, cells, k) array, or one
    shared by every cell (cell axis 1), with its (k, n) matrix of a
    (cells, k, n) stack: one stacked GEMM, time-major result."""
    out = np.empty((len(a), len(b), b.shape[2]))
    np.matmul(a.swapaxes(0, 1), b, out=out.swapaxes(0, 1))
    return out


def _episode(p_first, weights, etas, b_ms, params, soft=False):
    """Forward simulation of a batch of cells, one layer at a time.

    p_first: the first layer's (steps, 1, n_pre) P history, shared by every
    cell; weights: per-layer (cells, n_pre, n_post) stacks; etas: per-layer
    (cells,) scale factors; b_ms: per-cell membrane precision or None.
    Returns one time-major LayerHistory per layer.
    """
    histories = []
    p_hist = p_first
    for li, (w, e) in enumerate(zip(weights, etas)):
        if li:
            p_hist = _input_traces(spikes, params)
        drive = _stacked_matmul(p_hist, w)
        drive /= e[:, None]
        u_hist, spikes = _fire(drive, params, soft)
        for c, b_m in enumerate(b_ms):
            if b_m is not None:
                u_hist[:, c] = quantize_membrane(u_hist[:, c], b_m)
        histories.append(LayerHistory(p_hist, u_hist, spikes))
    return histories


def _one_cell(weights, etas):
    """Per-layer weights and scale factors (1.0 when etas is None) as a
    batch of one cell: (1, n_pre, n_post) stacks and (1,) scale arrays."""
    etas = etas or [1.0] * len(weights)
    return [w[None] for w in weights], [np.array([e], dtype=np.float64) for e in etas]


def run_episode(weights, in_raster, params, etas=None, b_m=None, soft=False):
    """Forward simulation over a full episode, one layer at a time.

    weights: list of per-layer (n_pre, n_post) arrays (already on their
    storage grid); etas: per-layer scale factors. Returns the (n_out, steps)
    output raster and one LayerHistory per layer, its membrane kept at b_m
    precision when b_m is given.
    """
    in_raster = np.asarray(in_raster)
    if not weights:
        raise ValueError("need at least one layer")
    if in_raster.ndim != 2 or in_raster.shape[0] != weights[0].shape[0]:
        raise ValueError(f"input raster shape {in_raster.shape} != "
                         f"({weights[0].shape[0]}, steps)")
    for li in range(1, len(weights)):
        if weights[li].shape[0] != weights[li - 1].shape[1]:
            raise ValueError(f"layer {li} weights {weights[li].shape} do not "
                             f"follow layer {li - 1} weights {weights[li - 1].shape}")
    spikes = np.ascontiguousarray(in_raster.T, dtype=np.float64)[:, None]
    histories = _episode(_input_traces(spikes, params), *_one_cell(weights, etas),
                         [b_m], params, soft)
    histories = [LayerHistory(h.p_history[:, 0], h.u_history[:, 0], h.s_history[:, 0])
                 for h in histories]
    return histories[-1].s_history.T.copy(), histories


def _input_gradient(g_in, params):
    """Reverse P/Q filter: dL/dS_in[n] from g_in[n] = dL/dP[n] via U[n].
    g_p[n] = beta g_p[n + 1] + g_in[n], g_q[n] = alpha g_q[n + 1] + g_p[n + 1],
    and S_in[n] feeds Q[n + 1], so dL/dS_in[n] = g_q[n + 1]."""
    return _leaky(_leaky(g_in, params.beta, True)[1:], params.alpha, True)[1:]


def _gradients(histories, weights, etas, g_s_ext, params):
    """Reverse-time weight gradients of a batch of cells.

    histories, weights and etas as _episode takes and gives them; g_s_ext:
    dL/dS of the output layer, (steps, cells, n_out). Empties `histories`,
    dropping each layer's record once its gradient is made, which bounds
    peak memory. Returns one (cells, n_pre, n_post) stack per layer.
    """
    grads = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        p_hist = histories[-1].p_history
        h = surrogate_derivative(histories.pop().u_history, params)
        g_u = np.empty(h.shape)
        g_r = np.zeros(h.shape[1:])
        for n in range(len(h) - 1, -1, -1):
            g_u[n] = (g_s_ext[n] + g_r) * h[n]
            g_r = params.gamma * g_r - params.delta * g_u[n]
        del h, g_s_ext
        # d/d stored = d/d effective / eta
        e = etas[l][:, None, None]
        grads[l] = np.matmul(p_hist.transpose(1, 2, 0), g_u.swapaxes(0, 1))
        grads[l] /= e
        del p_hist
        if l:
            g_s_ext = _input_gradient(
                _stacked_matmul(g_u, (weights[l] / e).swapaxes(1, 2)), params)
        del g_u
    return grads


def bptt_gradients(histories, weights, out_raster, target, params, tau_vr,
                   etas=None):
    """Reverse-time gradients of the van Rossum loss w.r.t. stored weights.

    Unrolls the recurrences backwards with the step derivative replaced by
    surrogate_derivative, evaluated on the recorded membrane history (one
    LayerHistory per layer, as run_episode returns). Returns one
    (n_pre, n_post) array per layer.
    """
    if not histories or len(histories) != len(weights):
        raise ValueError(f"need one recorded history per layer, got "
                         f"{len(histories)} for {len(weights)} layers")
    steps, n_out = histories[-1].u_history.shape
    if steps == 0:
        raise ValueError("episode history is empty")
    want = (n_out, steps)
    for name, raster in (("out_raster", out_raster), ("target", target)):
        if np.shape(raster) != want:
            raise ValueError(f"{name} shape {np.shape(raster)} != {want} "
                             f"of the recorded history")
    _, g_out = _loss(np.asarray(out_raster).T[:, None], vr_filter(target, tau_vr),
                     tau_vr)
    grads = _gradients([LayerHistory(h.p_history[:, None], h.u_history[:, None],
                                     h.s_history[:, None]) for h in histories],
                       *_one_cell(weights, etas), g_out, params)
    return [g[0] for g in grads]


# the training task: per-input Poisson rates drawn from INPUT_RATES, and a
# target that keeps each spike of the clean pattern with TARGET_KEEP_P
INPUT_RATES = (0.02, 0.2)
TARGET_KEEP_P = 0.95


@dataclass
class NetworkConfig:
    layer_sizes: tuple = (200, 100, 50)
    steps: int = 100
    tau_vr: float = 10.0
    lr: float = 5e-4
    lr_anneal: int = 180          # epochs of linear decay to exactly zero; 0 = constant lr

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or any(n < 1 for n in self.layer_sizes):
            raise ValueError(
                f"layer_sizes needs >= 2 positive sizes, got {self.layer_sizes}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (np.isfinite(self.tau_vr) and self.tau_vr > 0):
            raise ValueError(f"tau_vr must be finite and > 0, got {self.tau_vr}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.lr_anneal < 0:
            raise ValueError(f"lr_anneal must be >= 0, got {self.lr_anneal}")


@dataclass
class TrainResult:
    vr_curve: list                 # per-epoch distance, index 0 = pre-training
    nnz: list                      # per-epoch tuple of each layer's nonzero count
    weights: list

    @property
    def final_vr(self):
        return self.vr_curve[-1]

    @property
    def best_vr(self):
        return min(self.vr_curve)

    @property
    def sparsity(self):
        """Per-epoch fraction of exactly-zero weights, built on each access."""
        size = sum(w.size for w in self.weights)
        return [(size - sum(n)) / size for n in self.nnz]

    @property
    def mean_sparsity(self):
        return float(np.mean(self.sparsity)) if self.nnz else 0.0


def _descend(weights, grads, quants, etas, lr, vr, round_rng):
    """Apply one epoch's gradients in place to every cell.

    A quantized cell steps by its quantized gradient, scaled by eta, and is
    rounded stochastically back onto its grid; one block of uniforms per
    layer serves every quantized cell. A full-precision cell descends on
    the squared distance, so its steps shrink as the raster locks in.
    """
    for li, g in enumerate(grads):
        u = round_rng.uniform(g.shape[1:]) if any(quants) else None
        for c, q in enumerate(quants):
            if q:
                stepped = weights[li][c] - lr * etas[li][c] * quantize_error(g[c], q.b_e)
                lo, hi = weight_range(q.b_w)
                weights[li][c] = np.clip(stochastic_round_with(stepped, sigma(q.b_w), u),
                                         lo, hi)
            else:
                weights[li][c] = weights[li][c] - lr * float(vr[c]) * g[c]


def _stack_bytes(weights):
    """Every weight stack's bits. At lr 0 a quantized step is already on its
    grid, so the rounding draws cannot move it: an lr-0 epoch that leaves these
    bits unchanged leaves every later epoch's inputs, rows and prices unchanged."""
    return [w.tobytes() for w in weights]


def train_cells(cfg, quants, epochs, seed):
    """Gradient-descent pattern retention recording each epoch's per-layer
    nonzero counts, one cell per entry of `quants`, trained as one batch.

    quants: one QuantConfig per cell, or None for a full-precision cell.
    Every cell trains on the same seed, so the cells share their inputs,
    target and rounding draws, and each cell's TrainResult equals a run of
    that cell alone. Returns one TrainResult per cell, in the order of
    `quants`; `energy.training_energy` prices its counts.
    """
    quants = list(quants)
    if not quants:
        raise ValueError("quants needs at least one cell")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")

    sizes = cfg.layer_sizes
    params = LifParams()
    rng = CounterRng(seed)
    rates = rng.spawn(0).uniform_range(*INPUT_RATES, (sizes[0], 1))
    in_raster = generate_poisson_input(sizes[0], cfg.steps, rates,
                                       derive_seed(seed, 1))
    clean = clean_pattern(sizes[-1], cfg.steps, derive_seed(seed, 2))
    target = generate_target(clean, TARGET_KEEP_P, derive_seed(seed, 3))
    # the input raster and the target never change: their traces are made once
    p_first = _input_traces(
        np.ascontiguousarray(in_raster.T, dtype=np.float64)[:, None], params)
    target_filtered = vr_filter(target, cfg.tau_vr)

    weights = []       # per layer, (cells, n_pre, n_post)
    etas = []          # per layer, (cells,) scale factors
    for li, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(3.0 / n_in)
        w = rng.spawn(10 + li).uniform_range(-bound, bound, (n_in, n_out))
        etas.append(np.array([eta(q.b_w, n_in) if q else 1.0 for q in quants]))
        weights.append(np.stack([quantize_weights(w * e, q.b_w) if q else w
                                 for q, e in zip(quants, etas[li])]))
    round_rng = rng.spawn(99)
    b_ms = [q.b_m if q else None for q in quants]

    results = [TrainResult([], [], None) for _ in quants]
    histories = _episode(p_first, weights, etas, b_ms, params)
    vr, g_out = _loss(histories[-1].s_history, target_filtered, cfg.tau_vr)
    for res, v in zip(results, vr):
        res.vr_curve.append(float(v))

    for epoch in range(epochs):
        # linear anneal to zero freezes the raster once learning is done;
        # held-at-threshold neurons otherwise chatter forever
        lr = cfg.lr * max(0.0, 1.0 - epoch / cfg.lr_anneal) if cfg.lr_anneal \
            else cfg.lr
        # the schedule never rises, so an lr of 0 stays 0 for every later epoch
        before = _stack_bytes(weights) if lr == 0.0 else None
        _descend(weights, _gradients(histories, weights, etas, g_out, params),
                 quants, etas, lr, vr, round_rng)
        histories = _episode(p_first, weights, etas, b_ms, params)
        vr, g_out = _loss(histories[-1].s_history, target_filtered, cfg.tau_vr)
        counts = zip(*(np.count_nonzero(w, axis=(1, 2)).tolist() for w in weights))
        for res, v, nnz in zip(results, vr, counts):
            res.vr_curve.append(float(v))
            res.nnz.append(nnz)
        if before is not None and _stack_bytes(weights) == before:
            # a fixed point: every later epoch repeats this one exactly
            repeats = epochs - epoch - 1
            for res in results:
                res.vr_curve.extend(res.vr_curve[-1:] * repeats)
                res.nnz.extend(res.nnz[-1:] * repeats)
            break

    for c, res in enumerate(results):
        res.weights = [w[c] for w in weights]
    return results


def train(cfg, scheme, quant, epochs, seed, cost_model=None):
    """The one-cell call of train_cells; quant=None trains in full precision.

    `scheme` and `cost_model` are unused, kept only for the positional call
    in bench/workloads.py until ROADMAP item 1 edits it."""
    return train_cells(cfg, [quant], epochs, seed)[0]
