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
stay only the recurrences that cannot be unrolled cheaply: the P/Q input
filter (n_pre wide), the U/S/R refractory loop (n_post wide), and in
reverse the g_u/g_r loop (n_post) and the g_p/g_q filter (n_pre). The
synaptic products over all steps are one GEMM each: (P @ W) / eta forward,
P^T @ G / eta for the weight gradient and G @ (W/eta)^T for the gradient
at the layer's input. An episode is recorded as one frozen LayerHistory
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

A training run is single-threaded and deterministic under its seed; sweep
cells derive independent seeds and can run in parallel.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import DEFAULT_MODEL, pass_energy
from .quant import (eta, quantize_error, quantize_membrane, quantize_weights,
                    sigma, stochastic_round, weight_range)
from .rng import CounterRng, derive_seed
from .stores import FC_SCHEMES, fc_pass_traces
from .trace import AccessTrace


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
    b_m is given) and the output spikes S (n_post)."""
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
    s = soft_spike(u, params) if soft else (u >= params.theta).astype(np.float64)
    # P[n+1] uses the pre-update Q
    return (u, s, params.beta * p + q, params.alpha * q + in_spikes,
            params.gamma * r + s)


def vr_filter(raster, tau_vr):
    """Leaky accumulation of a (neurons, steps) raster, decay exp(-1/tau)."""
    raster = np.asarray(raster, dtype=np.float64)
    lam = np.exp(-1.0 / tau_vr)
    out = np.empty_like(raster)
    acc = np.zeros(raster.shape[0])
    for n in range(raster.shape[1]):
        acc = lam * acc + raster[:, n]
        out[:, n] = acc
    return out


def _vr_error(s, t, tau_vr):
    """Filtered raster difference and its norm, the van Rossum distance."""
    e = vr_filter(s, tau_vr) - vr_filter(t, tau_vr)
    return e, np.sqrt(np.sum(e * e))


def van_rossum(s, t, tau_vr):
    """Distance between filtered rasters: sqrt of summed squared differences."""
    if np.shape(s) != np.shape(t):
        raise ValueError(f"raster shapes differ: {np.shape(s)} vs {np.shape(t)}")
    return float(_vr_error(s, t, tau_vr)[1])


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
    """P[n] for every step of a (steps, n_pre) input raster."""
    p_hist = np.empty(spikes.shape)
    q = np.zeros(spikes.shape[1])
    p = np.zeros(spikes.shape[1])
    for n in range(len(spikes)):
        p_hist[n] = p
        q, p = params.alpha * q + spikes[n], params.beta * p + q
    return p_hist


def _fire(drive, params, soft):
    """Refractory loop over a (steps, n_post) synaptic drive: U and S."""
    u_hist = np.empty(drive.shape)
    s_hist = np.empty(drive.shape)
    r = np.zeros(drive.shape[1])
    for n in range(len(drive)):
        u = drive[n] - params.delta * r
        s = soft_spike(u, params) if soft else (u >= params.theta).astype(np.float64)
        u_hist[n] = u
        s_hist[n] = s
        r = params.gamma * r + s
    return u_hist, s_hist


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
    etas = etas or [1.0] * len(weights)
    spikes = np.ascontiguousarray(in_raster.T, dtype=np.float64)   # (steps, n_pre)
    histories = []
    for w, e in zip(weights, etas):
        p_hist = _input_traces(spikes, params)
        u_hist, spikes = _fire((p_hist @ w) / e, params, soft)
        if b_m is not None:
            u_hist = quantize_membrane(u_hist, b_m)
        histories.append(LayerHistory(p_hist, u_hist, spikes))
    return spikes.T.copy(), histories


def _loss_spike_gradient(out_raster, target, tau_vr):
    """d(van Rossum)/d(output spikes); zero when the rasters already match."""
    lam = np.exp(-1.0 / tau_vr)
    e, vr = _vr_error(out_raster, target, tau_vr)
    if vr == 0.0:
        return np.zeros_like(e), 0.0
    e = e / vr
    g = np.zeros_like(e)
    acc = np.zeros(e.shape[0])
    for n in range(e.shape[1] - 1, -1, -1):
        acc = lam * acc + e[:, n]
        g[:, n] = acc
    return g, float(vr)


def _input_gradient(g_in, params):
    """Reverse P/Q filter: dL/dS_in[n] from g_in[n] = dL/dP[n] via U[n]."""
    g_s = np.empty(g_in.shape)
    g_p = np.zeros(g_in.shape[1])
    g_q = np.zeros(g_in.shape[1])
    for n in range(len(g_in) - 1, -1, -1):
        g_s[n] = g_q                            # S_in[n] feeds Q[n+1]
        g_p, g_q = params.beta * g_p + g_in[n], params.alpha * g_q + g_p
    return g_s


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
    etas = etas or [1.0] * len(weights)
    g_spikes, _ = _loss_spike_gradient(out_raster, target, tau_vr)
    g_s_ext = g_spikes.T      # (steps, n_out)
    grads = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        hist = histories[l]
        h = surrogate_derivative(hist.u_history, params)
        g_u = np.empty(h.shape)
        g_r = np.zeros(h.shape[1])
        for n in range(steps - 1, -1, -1):
            g_u[n] = (g_s_ext[n] + g_r) * h[n]
            g_r = params.gamma * g_r - params.delta * g_u[n]
        # d/d stored = d/d effective / eta
        grads[l] = (hist.p_history.T @ g_u) / etas[l]
        if l:
            g_s_ext = _input_gradient(g_u @ (weights[l] / etas[l]).T, params)
    return grads


@dataclass
class NetworkConfig:
    layer_sizes: tuple = (200, 100, 50)
    steps: int = 100
    tau_vr: float = 10.0
    lr: float = 5e-4
    lr_anneal: int = 180          # epochs of linear decay to exactly zero; 0 = constant lr
    rate_lo: float = 0.02
    rate_hi: float = 0.2
    target_keep_p: float = 0.95
    params: LifParams = field(default_factory=LifParams)
    pattern_period: int = 20
    pattern_band: int = 3

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
    energy: dict                   # scheme -> list of (fwd_pJ, bwd_pJ) per epoch
    traces: dict                   # scheme -> per-layer accumulated AccessTrace
    sparsity: list                 # per-epoch fraction of exactly-zero weights
    weights: list
    diverged: bool = False

    @property
    def final_vr(self):
        return self.vr_curve[-1]

    @property
    def best_vr(self):
        return min(self.vr_curve)

    @property
    def mean_sparsity(self):
        return float(np.mean(self.sparsity)) if self.sparsity else 0.0

    def total_energy(self, scheme):
        return sum(f + b for f, b in self.energy[scheme])


def _epoch_energy(weights, schemes, steps, quant, cost_model, traces, energy):
    """Account one epoch: `steps` forward and backward scans, one update pass.

    Stores are re-encoded from the current zero pattern, so the sparsity the
    run develops shows up in the sparse schemes' traffic and capacities.
    """
    b_w = quant.b_w if quant else 32
    for scheme in schemes:
        fwd_pj = bwd_pj = 0.0
        for li, w in enumerate(weights):
            nnz = int(np.count_nonzero(w))
            fwd_1, bwd_1, upd_t = fc_pass_traces(scheme, w.shape[0], w.shape[1],
                                                 nnz, b_w)
            fwd_t = fwd_1.scaled(steps)
            bwd_t = bwd_1.scaled(steps)
            fwd_pj += pass_energy(fwd_t, cost_model, scheme).active_energy
            bwd_pj += pass_energy(bwd_t + upd_t, cost_model, scheme).active_energy
            traces[scheme][li] += fwd_t + bwd_t + upd_t
        energy[scheme].append((fwd_pj, bwd_pj))


def train(cfg, scheme, quant, epochs, seed, cost_model=None):
    """Gradient-descent pattern retention with per-epoch energy accounting.

    scheme: one of "CB", "PB-CSR", "PB-BMP", or a list of them (the spike
    dynamics do not depend on the encoding, so one numeric run can be
    accounted under several schemes). quant=None trains in full precision.
    Aborts with diverged=True if the distance stops being finite.
    """
    if cost_model is None:
        cost_model = DEFAULT_MODEL
    schemes = [scheme] if isinstance(scheme, str) else list(scheme)
    for s in schemes:
        if s not in FC_SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"duplicate schemes in {schemes}")

    sizes = cfg.layer_sizes
    rng = CounterRng(seed)
    rates = rng.spawn(0).uniform_range(cfg.rate_lo, cfg.rate_hi, (sizes[0], 1))
    in_raster = generate_poisson_input(sizes[0], cfg.steps, rates,
                                       derive_seed(seed, 1))
    clean = clean_pattern(sizes[-1], cfg.steps, derive_seed(seed, 2),
                          cfg.pattern_period, cfg.pattern_band)
    target = generate_target(clean, cfg.target_keep_p, derive_seed(seed, 3))

    weights = []
    etas = []
    for li, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w_rng = rng.spawn(10 + li)
        bound = np.sqrt(3.0 / n_in)
        w = w_rng.uniform_range(-bound, bound, (n_in, n_out))
        if quant:
            e = eta(quant.b_w, n_in)
            weights.append(quantize_weights(w * e, quant.b_w))
            etas.append(e)
        else:
            weights.append(w)
            etas.append(1.0)
    round_rng = rng.spawn(99)
    b_m = quant.b_m if quant else None

    traces = {s: [AccessTrace() for _ in weights] for s in schemes}
    energy = {s: [] for s in schemes}
    sparsity = []
    out, histories = run_episode(weights, in_raster, cfg.params, etas, b_m)
    vr_curve = [van_rossum(out, target, cfg.tau_vr)]
    diverged = False

    for epoch in range(epochs):
        # linear anneal to zero freezes the raster once learning is done;
        # held-at-threshold neurons otherwise chatter forever
        lr = cfg.lr * max(0.0, 1.0 - epoch / cfg.lr_anneal) if cfg.lr_anneal \
            else cfg.lr
        grads = bptt_gradients(histories, weights, out, target, cfg.params,
                               cfg.tau_vr, etas)
        # descend on the squared distance: steps shrink as the raster locks in
        vr_scale = vr_curve[-1]
        for li, g in enumerate(grads):
            if quant:
                g_q = quantize_error(g, quant.b_e)
                stepped = weights[li] - lr * etas[li] * g_q
                lo, hi = weight_range(quant.b_w)
                weights[li] = np.clip(
                    stochastic_round(stepped, sigma(quant.b_w), round_rng), lo, hi)
            else:
                weights[li] = weights[li] - lr * vr_scale * g
        out, histories = run_episode(weights, in_raster, cfg.params, etas, b_m)
        vr = van_rossum(out, target, cfg.tau_vr)
        vr_curve.append(vr)
        total = sum(w.size for w in weights)
        zeros = sum(int((w == 0.0).sum()) for w in weights)
        sparsity.append(zeros / total)
        _epoch_energy(weights, schemes, cfg.steps, quant, cost_model,
                      traces, energy)
        if not np.isfinite(vr):
            diverged = True
            break

    return TrainResult(vr_curve, energy, traces, sparsity, weights, diverged)
