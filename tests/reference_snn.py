"""Time-major LIF episode, BPTT and quantized training: the test oracle for
the layer-major, batched code.

Every layer advances one step at a time through `lif_step`, carrying its own
mutable traces and appending each step to history lists, and the reverse
pass accumulates one outer product per step. This is the evaluation order
the layer-major `snn.run_episode` and `snn.bptt_gradients` must reproduce:
binary rasters exactly, membrane values and gradients to 1e-12 relative.
`train` trains one quantized cell with them, one epoch after another.
"""

import numpy as np

from synmem.quant import (eta, quantize_error, quantize_membrane, quantize_weights,
                          sigma, stochastic_round, weight_range)
from synmem.rng import CounterRng, derive_seed
from synmem.snn import (INPUT_RATES, TARGET_KEEP_P, LayerHistory, LifParams,
                        clean_pattern, generate_poisson_input, generate_target,
                        lif_step, surrogate_derivative)


def _filter(raster, tau_vr):
    """F[:, n] = x[:, n] + lam * F[:, n - 1], F[:, -1] = 0, lam = exp(-1/tau)."""
    lam = np.exp(-1.0 / tau_vr)
    x = np.asarray(raster, dtype=np.float64)
    f = np.zeros(x.shape)
    for n in range(x.shape[1]):
        f[:, n] = x[:, n] + (lam * f[:, n - 1] if n else 0.0)
    return f


def distance(s, t, tau_vr):
    """van Rossum distance D = sqrt(sum E^2), E = F(s) - F(t)."""
    e = _filter(s, tau_vr) - _filter(t, tau_vr)
    return float(np.sqrt(np.sum(e * e)))


def _loss_spike_gradient(out_raster, target, tau_vr):
    """dD/dS[:, m] = sum_{n >= m} lam^(n - m) E[:, n] / D: the filter run
    backwards in time over E / D; zero when the rasters already match."""
    e = _filter(out_raster, tau_vr) - _filter(target, tau_vr)
    vr = np.sqrt(np.sum(e * e))
    if vr == 0.0:
        return np.zeros_like(e), 0.0
    return _filter(e[:, ::-1] / vr, tau_vr)[:, ::-1], float(vr)


class _StepState:
    """One layer's traces between steps and the lists it has recorded."""

    def __init__(self, n_pre, n_post):
        self.p = np.zeros(n_pre)
        self.q = np.zeros(n_pre)
        self.r = np.zeros(n_post)
        self.p_list, self.u_list, self.s_list = [], [], []

    def step(self, in_spikes, w, params, layer_eta, b_m, soft):
        self.p_list.append(self.p)
        u, s, self.p, self.q, self.r = lif_step(self.p, self.q, self.r, in_spikes,
                                                w, params, layer_eta, soft)
        self.u_list.append(u if b_m is None else quantize_membrane(u, b_m))
        self.s_list.append(s)
        return s

    def history(self):
        steps, n_pre, n_post = len(self.p_list), len(self.p), len(self.r)
        return LayerHistory(np.array(self.p_list).reshape(steps, n_pre),
                            np.array(self.u_list).reshape(steps, n_post),
                            np.array(self.s_list).reshape(steps, n_post))


def run_episode(weights, in_raster, params, etas=None, b_m=None, soft=False):
    """Forward simulation over a full episode.

    weights: list of per-layer (n_pre, n_post) arrays (already on their
    storage grid); etas: per-layer scale factors. Returns the output raster
    and one LayerHistory per layer.
    """
    steps = in_raster.shape[1]
    etas = etas or [1.0] * len(weights)
    states = [_StepState(*w.shape) for w in weights]
    out = np.zeros((weights[-1].shape[1], steps))
    for n in range(steps):
        spikes = in_raster[:, n]
        for st, w, e in zip(states, weights, etas):
            spikes = st.step(spikes, w, params, e, b_m, soft)
        out[:, n] = spikes
    return out, [st.history() for st in states]


def bptt_gradients(histories, weights, out_raster, target, params, tau_vr,
                   etas=None):
    """Reverse-time gradients of the van Rossum loss w.r.t. stored weights.

    Unrolls the recurrences backwards with the step derivative replaced by
    surrogate_derivative, evaluated on the stored membrane history. Returns
    one (n_pre, n_post) array per layer.
    """
    if not histories or not len(histories[0].u_history):
        raise ValueError("episode history is empty")
    etas = etas or [1.0] * len(weights)
    steps = len(histories[0].u_history)
    g_spikes, _ = _loss_spike_gradient(out_raster, target, tau_vr)
    g_s_ext = g_spikes.T      # (steps, n_out)
    grads = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        hist = histories[l]
        n_pre, n_post = weights[l].shape
        w_eff = weights[l] / etas[l]
        g_w = np.zeros_like(weights[l])
        g_p_next = np.zeros(n_pre)
        g_q_next = np.zeros(n_pre)
        g_r_next = np.zeros(n_post)
        g_s_prev = np.zeros((steps, n_pre))
        for n in range(steps - 1, -1, -1):
            g_s_prev[n] = g_q_next           # S_in[n] feeds Q[n+1]
            h = surrogate_derivative(hist.u_history[n], params)
            g_u = (g_s_ext[n] + g_r_next) * h
            g_w += np.outer(hist.p_history[n], g_u)
            g_p = params.beta * g_p_next + w_eff @ g_u
            g_q = params.alpha * g_q_next + g_p_next
            g_r = params.gamma * g_r_next - params.delta * g_u
            g_p_next, g_q_next, g_r_next = g_p, g_q, g_r
        grads[l] = g_w / etas[l]             # d/d stored = d/d effective / eta
        g_s_ext = g_s_prev
    return grads


def train(cfg, quant, epochs, seed):
    """snn.train's quantized run for one cell, from this module's episode and
    gradients: the same inputs, initial weights, lr schedule and rounding
    stream. Returns the per-epoch distances and the final weights."""
    sizes = cfg.layer_sizes
    params = LifParams()
    rng = CounterRng(seed)
    rates = rng.spawn(0).uniform_range(*INPUT_RATES, (sizes[0], 1))
    in_raster = generate_poisson_input(sizes[0], cfg.steps, rates, derive_seed(seed, 1))
    clean = clean_pattern(sizes[-1], cfg.steps, derive_seed(seed, 2))
    target = generate_target(clean, TARGET_KEEP_P, derive_seed(seed, 3))
    etas = [eta(quant.b_w, n) for n in sizes[:-1]]
    weights = []
    for li, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(3.0 / n_in)
        w = rng.spawn(10 + li).uniform_range(-bound, bound, (n_in, n_out))
        weights.append(quantize_weights(w * etas[li], quant.b_w))
    round_rng = rng.spawn(99)
    lo, hi = weight_range(quant.b_w)
    out, histories = run_episode(weights, in_raster, params, etas, quant.b_m)
    curve = [distance(out, target, cfg.tau_vr)]
    for epoch in range(epochs):
        lr = cfg.lr * max(0.0, 1.0 - epoch / cfg.lr_anneal) if cfg.lr_anneal else cfg.lr
        grads = bptt_gradients(histories, weights, out, target, params,
                               cfg.tau_vr, etas)
        for li, g in enumerate(grads):
            stepped = weights[li] - lr * etas[li] * quantize_error(g, quant.b_e)
            weights[li] = np.clip(stochastic_round(stepped, sigma(quant.b_w), round_rng),
                                  lo, hi)
        out, histories = run_episode(weights, in_raster, params, etas, quant.b_m)
        curve.append(distance(out, target, cfg.tau_vr))
    return curve, weights
