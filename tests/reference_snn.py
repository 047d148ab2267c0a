"""Time-major LIF episode and BPTT: the test oracle for the layer-major code.

Every layer advances one step at a time through `lif_step`, and the reverse
pass accumulates one outer product per step. This is the evaluation order
the layer-major `snn.run_episode` and `snn.bptt_gradients` must reproduce:
binary rasters exactly, membrane values and gradients to 1e-12 relative.
"""

import numpy as np

from synmem.snn import LifLayerState, lif_step, surrogate_derivative
from synmem.snn import _loss_spike_gradient


def run_episode(weights, in_raster, params, etas=None, b_m=None, soft=False):
    """Forward simulation over a full episode.

    weights: list of per-layer (n_pre, n_post) arrays (already on their
    storage grid); etas: per-layer scale factors. Returns the output raster
    and the per-layer state objects carrying the recorded history.
    """
    steps = in_raster.shape[1]
    etas = etas or [1.0] * len(weights)
    states = [LifLayerState(w.shape[0], w.shape[1]) for w in weights]
    out = np.zeros((weights[-1].shape[1], steps))
    for n in range(steps):
        spikes = in_raster[:, n]
        for st, w, e in zip(states, weights, etas):
            spikes = lif_step(st, spikes, w, params, layer_eta=e, b_m=b_m, soft=soft)
        out[:, n] = spikes
    return out, states


def bptt_gradients(states, weights, out_raster, target, params, tau_vr,
                   etas=None):
    """Reverse-time gradients of the van Rossum loss w.r.t. stored weights.

    Unrolls the recurrences backwards with the step derivative replaced by
    surrogate_derivative, evaluated on the stored membrane history. Returns
    one (n_pre, n_post) array per layer.
    """
    if not states or not states[0].u_history:
        raise ValueError("episode history is empty")
    etas = etas or [1.0] * len(weights)
    steps = len(states[0].u_history)
    g_spikes, _ = _loss_spike_gradient(out_raster, target, tau_vr)
    g_s_ext = g_spikes.T      # (steps, n_out)
    grads = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        st = states[l]
        w_eff = weights[l] / etas[l]
        g_w = np.zeros_like(weights[l])
        g_p_next = np.zeros(st.n_pre)
        g_q_next = np.zeros(st.n_pre)
        g_r_next = np.zeros(st.n_post)
        g_s_prev = np.zeros((steps, st.n_pre))
        for n in range(steps - 1, -1, -1):
            g_s_prev[n] = g_q_next           # S_in[n] feeds Q[n+1]
            h = surrogate_derivative(st.u_history[n], params)
            g_u = (g_s_ext[n] + g_r_next) * h
            g_w += np.outer(st.p_history[n], g_u)
            g_p = params.beta * g_p_next + w_eff @ g_u
            g_q = params.alpha * g_q_next + g_p_next
            g_r = params.gamma * g_r_next - params.delta * g_u
            g_p_next, g_q_next, g_r_next = g_p, g_q, g_r
        grads[l] = g_w / etas[l]             # d/d stored = d/d effective / eta
        g_s_ext = g_s_prev
    return grads
