"""LIF dynamics, surrogate gradients vs finite differences, van Rossum
distance, task generators and the trainer."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_snn
from synmem import snn
from synmem.energy import DEFAULT_MODEL, pass_energy, training_energy
from synmem.matrix import SynapseMatrix
from synmem.quant import QuantConfig, eta, quantize_weights
from synmem.rng import CounterRng
from synmem.snn import (LifParams, NetworkConfig, _loss, bptt_gradients, clean_pattern,
                        generate_poisson_input, generate_target, lif_step,
                        run_episode, surrogate_derivative, train, train_cells,
                        van_rossum, vr_filter)
from synmem.stores import build_csr, fc_pass_traces
from synmem.trace import AccessTrace


def _rest(n_pre, n_post):
    """Traces p, q and refractory state r of a layer at rest."""
    return np.zeros(n_pre), np.zeros(n_pre), np.zeros(n_post)


class TestLifStep:
    def test_zero_everything_stays_silent(self):
        u, s, _, q, _ = lif_step(*_rest(3, 2), np.zeros(3), np.zeros((3, 2)),
                                 LifParams())
        assert np.array_equal(s, np.zeros(2))
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(q, np.zeros(3))

    def test_threshold_is_inclusive(self):
        p = LifParams(theta=1.0, delta=0.0)
        _, q, r = _rest(1, 1)
        _, s, _, _, _ = lif_step(np.array([1.0]), q, r, np.zeros(1),
                                 np.array([[1.0]]), p)
        assert s[0] == 1.0    # u == theta spikes

    def test_trace_pipeline_order(self):
        # P[n+1] must use the old Q, not the refreshed one
        p = LifParams(alpha=0.5, beta=0.5)
        w = np.zeros((1, 1))
        _, _, tp, tq, r = lif_step(*_rest(1, 1), np.ones(1), w, p)
        assert tq[0] == 1.0 and tp[0] == 0.0          # q: 0->1, p uses old q=0
        _, _, tp, tq, _ = lif_step(tp, tq, r, np.zeros(1), w, p)
        assert tq[0] == 0.5 and tp[0] == 1.0          # q: 0.5, p: 0.5*0 + 1

    def test_binary_network_reduction(self):
        # with the P <- previous spikes substitution the U/S path is a
        # plain binary threshold unit
        p = LifParams(alpha=0.0, beta=0.0, delta=0.0, theta=1.0)
        rng = CounterRng(0)
        w = rng.uniform_range(-1, 1, (8, 4))
        prev_spikes = rng.bernoulli(0.5, 8).astype(np.float64)
        _, q, r = _rest(8, 4)
        _, got, _, _, _ = lif_step(prev_spikes, q, r, np.zeros(8), w, p)
        want = (prev_spikes @ w >= 1.0).astype(np.float64)
        assert np.array_equal(got, want)

    def test_refractory_blocks_next_step(self):
        # delta large: a spiking neuron cannot fire on the following step
        p = LifParams(gamma=0.9, delta=50.0, theta=1.0)
        rng = CounterRng(1)
        w = np.abs(rng.uniform_range(0.5, 1.0, (4, 4)))
        tp, tq, r = _rest(4, 4)
        fired_prev = np.zeros(4)
        for n in range(30):
            _, s, tp, tq, r = lif_step(tp, tq, r, rng.bernoulli(0.8, 4).astype(float),
                                       w, p)
            assert not np.any((s == 1.0) & (fired_prev == 1.0)), f"step {n}"
            fired_prev = s

    def test_constant_drive_double_filter_closed_form(self):
        # single input, w=1, spike every step, no reset: the membrane trace
        # is the double geometric convolution
        #   Q[n] = sum_{k<n} alpha^k,  P[n] = sum_{m<n} beta^(n-1-m) Q[m]
        p = LifParams(alpha=0.5, beta=0.75, delta=0.0, theta=1e9)
        tp, tq, r = _rest(1, 1)
        w = np.array([[1.0]])
        for n in range(12):
            q_want = sum(p.alpha ** k for k in range(n))
            p_want = sum(p.beta ** (n - 1 - m) * sum(p.alpha ** k for k in range(m))
                         for m in range(n))
            assert tq[0] == pytest.approx(q_want, rel=1e-12)
            assert tp[0] == pytest.approx(p_want, rel=1e-12)
            _, _, tp, tq, r = lif_step(tp, tq, r, np.ones(1), w, p)

    def test_membrane_history_quantization(self):
        p = LifParams()
        raster = CounterRng(2).bernoulli(0.6, (2, 12))
        w = [np.eye(2) * 0.9]
        grid = 2.0 ** (1 - 4)
        _, full = run_episode(w, raster, p)
        _, held = run_episode(w, raster, p, b_m=4)
        u_full, u = full[0].u_history, held[0].u_history
        assert not np.allclose(u_full / grid, np.round(u_full / grid))
        assert np.allclose(u / grid, np.round(u / grid))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lif_step(*_rest(3, 2), np.zeros(4), np.zeros((3, 2)), LifParams())
        with pytest.raises(ValueError):
            lif_step(*_rest(3, 2), np.zeros(3), np.zeros((2, 2)), LifParams())


class TestSurrogate:
    def test_peak_at_threshold(self):
        p = LifParams(theta=0.7, beta_s=10.0)
        assert surrogate_derivative(0.7, p) == 1.0

    def test_quarter_at_one_over_beta(self):
        p = LifParams(theta=0.0, beta_s=8.0)
        assert surrogate_derivative(1 / 8.0, p) == pytest.approx(0.25)
        assert surrogate_derivative(-1 / 8.0, p) == pytest.approx(0.25)

    def test_vanishes_far_away(self):
        p = LifParams()
        assert surrogate_derivative(1e9, p) < 1e-12
        u = np.linspace(p.theta, p.theta + 5, 50)
        h = surrogate_derivative(u, p)
        assert np.all(np.diff(h) <= 0)   # nonincreasing in |u - theta|
        assert np.all(surrogate_derivative(2 * p.theta - u, p) == h)


class TestVanRossum:
    def test_identity(self):
        r = CounterRng(3).bernoulli(0.3, (5, 40))
        assert van_rossum(r, r, 10.0) == 0.0

    def test_symmetry(self):
        rng = CounterRng(4)
        a = rng.bernoulli(0.2, (6, 30))
        b = rng.bernoulli(0.2, (6, 30))
        assert van_rossum(a, b, 5.0) == van_rossum(b, a, 5.0)

    def test_single_spike_geometric_closed_form(self):
        steps, n0, tau = 50, 10, 7.0
        s = np.zeros((1, steps))
        s[0, n0] = 1.0
        lam = np.exp(-1.0 / tau)
        want = np.sqrt(sum(lam ** (2 * k) for k in range(steps - n0)))
        assert van_rossum(s, np.zeros((1, steps)), tau) == pytest.approx(want)

    def test_triangle_inequality(self):
        rng = CounterRng(5)
        for _ in range(25):
            a, b, c = (rng.bernoulli(0.3, (4, 20)) for _ in range(3))
            dab = van_rossum(a, b, 6.0)
            dbc = van_rossum(b, c, 6.0)
            dac = van_rossum(a, c, 6.0)
            assert dac <= dab + dbc + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            van_rossum(np.zeros((2, 5)), np.zeros((2, 6)), 5.0)

    def test_filter_is_leaky_accumulation(self):
        s = np.array([[1.0, 0.0, 1.0]])
        lam = np.exp(-1.0 / 2.0)
        got = vr_filter(s, 2.0)
        assert got[0] == pytest.approx([1.0, lam, lam * lam + 1.0])

    @settings(max_examples=100, deadline=None)
    @given(n=hst.integers(1, 12), steps=hst.integers(1, 30), cells=hst.integers(1, 3),
           tau=hst.floats(0.1, 100.0), copy=hst.booleans(),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_filter_and_loss_match_oracle_bit_for_bit(self, n, steps, cells, tau,
                                                      copy, seed):
        rng = CounterRng(seed)
        target = rng.bernoulli(0.3, (n, steps))
        outs = [rng.bernoulli(0.3, (n, steps)).astype(np.float64) for _ in range(cells)]
        if copy:
            outs[0] = target.astype(np.float64)     # a cell whose raster matches
        want = reference_snn._filter(target, tau)
        assert vr_filter(target, tau).tobytes() == want.tobytes()
        assert van_rossum(outs[-1], target, tau) == reference_snn.distance(outs[-1],
                                                                            target, tau)
        s_history = np.ascontiguousarray(np.stack(outs).transpose(2, 0, 1))
        vr, g = _loss(s_history, vr_filter(target, tau), tau)
        for c, out in enumerate(outs):
            want_g, want_vr = reference_snn._loss_spike_gradient(out, target, tau)
            assert np.float64(want_vr).tobytes() == vr[c].tobytes()
            assert np.ascontiguousarray(g[:, c].T).tobytes() == want_g.tobytes()


class TestGenerators:
    def test_poisson_extremes(self):
        assert generate_poisson_input(5, 9, 0.0, 0).sum() == 0
        assert generate_poisson_input(5, 9, 1.0, 0).sum() == 45

    def test_poisson_rate_statistics(self):
        raster = generate_poisson_input(700, 250, 0.1, seed=7)
        n = 700 * 250
        se = np.sqrt(n * 0.1 * 0.9)
        assert abs(int(raster.sum()) - 17_500) < 3 * se

    def test_poisson_determinism(self):
        a = generate_poisson_input(20, 30, 0.3, seed=9)
        b = generate_poisson_input(20, 30, 0.3, seed=9)
        assert np.array_equal(a, b)

    def test_poisson_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            generate_poisson_input(3, 3, 1.5, 0)

    def test_target_extremes(self):
        clean = clean_pattern(10, 40, seed=0)
        assert np.array_equal(generate_target(clean, 1.0, 3), clean)
        assert generate_target(clean, 0.0, 3).sum() == 0

    def test_target_keep_statistics(self):
        clean = np.ones((100, 200), dtype=np.uint8)
        kept = generate_target(clean, 0.95, seed=11).sum()
        n = clean.sum()
        se = np.sqrt(n * 0.95 * 0.05)
        assert abs(int(kept) - 0.95 * n) < 3 * se

    def test_target_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            generate_target(np.full((2, 2), 2.0), 0.9, 0)

    def test_clean_pattern_is_binary_and_seeded(self):
        a = clean_pattern(50, 100, seed=1)
        b = clean_pattern(50, 100, seed=1)
        c = clean_pattern(50, 100, seed=2)
        assert set(np.unique(a)) <= {0, 1}
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert 0 < a.mean() < 1


def finite_difference_grads(weights, in_raster, target, params, tau_vr, eps):
    grads = []
    for li, w in enumerate(weights):
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp = [x.copy() for x in weights]
                wp[li][i, j] += eps
                out_p, _ = run_episode(wp, in_raster, params, soft=True)
                wm = [x.copy() for x in weights]
                wm[li][i, j] -= eps
                out_m, _ = run_episode(wm, in_raster, params, soft=True)
                g[i, j] = (van_rossum(out_p, target, tau_vr)
                           - van_rossum(out_m, target, tau_vr)) / (2 * eps)
        grads.append(g)
    return grads


class TestGradients:
    def test_zero_error_gives_zero_gradients(self):
        rng = CounterRng(6)
        w = [rng.uniform_range(-0.4, 0.4, (4, 3))]
        raster = rng.bernoulli(0.4, (4, 6)).astype(float)
        out, histories = run_episode(w, raster, LifParams())
        grads = bptt_gradients(histories, w, out, out.copy(), LifParams(), 8.0)
        assert np.allclose(grads[0], 0.0)

    def test_hand_unrolled_two_step_single_synapse(self):
        # one input spike at n=0, T=2, no refractory coupling back
        params = LifParams(alpha=0.3, beta=0.6, gamma=0.0, delta=0.0,
                           theta=0.5, beta_s=4.0)
        w_val = 0.8
        w = [np.array([[w_val]])]
        raster = np.array([[1.0, 0.0]])
        out, histories = run_episode(w, raster, params, soft=True)
        target = np.zeros((1, 2))
        grads = bptt_gradients(histories, w, out, target, params, 5.0)
        # by hand: P[0]=0 and P[1]=beta*0+Q[0]=0, so dU[n]/dw = P[n] = 0 at
        # both steps and the two-step gradient vanishes
        assert grads[0][0, 0] == pytest.approx(0.0, abs=1e-12)
        # three steps: P[2] = beta*P[1] + Q[1] = 1 -> dU[2]/dw = 1
        raster = np.array([[1.0, 0.0, 0.0]])
        out, histories = run_episode(w, raster, params, soft=True)
        target = np.zeros((1, 3))
        grads = bptt_gradients(histories, w, out, target, params, 5.0)
        lam = np.exp(-1.0 / 5.0)
        v = vr_filter(out, 5.0)[0]
        vr = np.sqrt(np.sum(v * v))
        # dL/dS[2] = v[2]/vr; dS/dU at U[2]=w: h = 1/(4*|w-0.5|+1)^2
        h = 1.0 / (4.0 * abs(w_val - 0.5) + 1.0) ** 2
        want = (v[2] / vr) * h * 1.0
        assert grads[0][0, 0] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_soft_mode_matches_finite_differences(self, seed):
        rng = CounterRng(100 + seed)
        sizes = [2 + rng.randint(4), 2 + rng.randint(4), 1 + rng.randint(3)]
        steps = 4 + rng.randint(6)
        params = LifParams(theta=0.3, beta_s=5.0)
        weights = [rng.uniform_range(-0.8, 0.8, (a, b))
                   for a, b in zip(sizes[:-1], sizes[1:])]
        raster = rng.bernoulli(0.5, (sizes[0], steps)).astype(float)
        target = rng.bernoulli(0.3, (sizes[-1], steps)).astype(float)
        out, histories = run_episode(weights, raster, params, soft=True)
        if van_rossum(out, target, 6.0) < 1e-9:
            pytest.skip("degenerate zero-loss draw")
        analytic = bptt_gradients(histories, weights, out, target, params, 6.0)
        numeric = finite_difference_grads(weights, raster, target, params,
                                          6.0, eps=1e-6)
        for a, n in zip(analytic, numeric):
            scale = max(np.abs(n).max(), 1e-6)
            assert np.max(np.abs(a - n)) / scale < 1e-4

    def test_missing_history_rejected(self):
        with pytest.raises(ValueError):
            bptt_gradients([], [np.zeros((2, 2))], np.zeros((2, 3)),
                           np.zeros((2, 3)), LifParams(), 5.0)

    def test_state_per_layer_required(self):
        w = [np.zeros((3, 2)), np.zeros((2, 2))]
        out, histories = run_episode(w, np.ones((3, 4)), LifParams())
        with pytest.raises(ValueError):
            bptt_gradients(histories[1:], w, out, out, LifParams(), 5.0)

    def test_zero_step_history_rejected(self):
        w = [np.zeros((3, 2))]
        out, histories = run_episode(w, np.zeros((3, 0)), LifParams())
        with pytest.raises(ValueError):
            bptt_gradients(histories, w, out, out, LifParams(), 5.0)

    @pytest.mark.parametrize("which", ("out_raster", "target"))
    @pytest.mark.parametrize("shape", ((2, 3), (2, 5), (3, 4), (8,)))
    def test_raster_must_match_recorded_history(self, which, shape):
        # shorter rasters used to raise IndexError, longer ones were cut
        w = [np.full((3, 2), 0.5)]
        out, histories = run_episode(w, np.ones((3, 4)), LifParams())
        rasters = {"out_raster": out, "target": out.copy(), which: np.zeros(shape)}
        with pytest.raises(ValueError):
            bptt_gradients(histories, w, rasters["out_raster"], rasters["target"],
                           LifParams(), 5.0)


class TestEpisodeShapes:
    def test_raster_rows_must_match_first_layer(self):
        with pytest.raises(ValueError):
            run_episode([np.zeros((3, 2))], np.zeros((4, 5)), LifParams())
        with pytest.raises(ValueError):
            run_episode([np.zeros((3, 2))], np.zeros(3), LifParams())

    def test_layers_must_chain(self):
        with pytest.raises(ValueError):
            run_episode([np.zeros((3, 2)), np.zeros((3, 2))], np.zeros((3, 5)),
                        LifParams())

    def test_no_layers_rejected(self):
        with pytest.raises(ValueError):
            run_episode([], np.zeros((3, 5)), LifParams())

    def test_hard_mode_distance_is_finite_whatever_the_weights_hold(self):
        # why train_cells needs no divergence check: a hard-mode episode
        # fires binary spikes, so its distance from a target stays finite
        rng = CounterRng(11)
        w_in = rng.uniform_range(-1, 1, (6, 5))
        w_in[0, :4] = [np.inf, -np.inf, np.nan, 1e301]
        w_out = rng.uniform_range(-1, 1, (5, 4))
        w_out[:, :3] = [np.inf, -np.inf, np.nan]
        raster = rng.bernoulli(0.5, (6, 20))
        with np.errstate(over="ignore", invalid="ignore"):
            out, histories = run_episode([w_in, w_out], raster, LifParams(), b_m=16)
        assert not np.isfinite(histories[-1].u_history).all()
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert np.isfinite(van_rossum(out, rng.bernoulli(0.3, (4, 20)), 10.0))


def _rel_diff(got, want):
    """Largest absolute difference over the reference's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if np.array_equal(got, want):
        return 0.0
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _check_against_oracle(weights, raster, target, params, etas, b_m, soft):
    """Layer-major episode and BPTT against the time-major oracle.

    Binary rasters and P histories exactly; membrane values, gradients and
    soft-mode spikes (with the P histories they feed) to 1e-12 relative.
    """
    out, histories = run_episode(weights, raster, params, etas, b_m=b_m, soft=soft)
    ref_out, ref_histories = reference_snn.run_episode(weights, raster, params, etas,
                                                       b_m=b_m, soft=soft)
    for li, (hist, ref) in enumerate(zip(histories, ref_histories)):
        if soft and li:
            assert _rel_diff(hist.p_history, ref.p_history) <= 1e-12
        else:
            assert np.array_equal(hist.p_history, ref.p_history)
        if soft:
            assert _rel_diff(hist.s_history, ref.s_history) <= 1e-12
        else:
            assert np.array_equal(hist.s_history, ref.s_history)
        assert _rel_diff(hist.u_history, ref.u_history) <= 1e-12
    if soft:
        assert _rel_diff(out, ref_out) <= 1e-12
    else:
        assert np.array_equal(out, ref_out)
    grads = bptt_gradients(histories, weights, out, target, params, 6.0, etas)
    ref_grads = reference_snn.bptt_gradients(ref_histories, weights, ref_out, target,
                                             params, 6.0, etas)
    for g, ref in zip(grads, ref_grads):
        assert _rel_diff(g, ref) <= 1e-12


@hst.composite
def small_networks(draw):
    sizes = draw(hst.lists(hst.integers(1, 12), min_size=2, max_size=4))
    return {"sizes": sizes, "steps": draw(hst.integers(1, 30)),
            "soft": draw(hst.booleans()),
            "b_m": draw(hst.sampled_from((None, 4, 16))),
            "store": draw(hst.booleans()),
            "eta": draw(hst.sampled_from((1.0, 4.0))),
            "seed": draw(hst.integers(0, 2 ** 32 - 1))}


class TestLayerMajorOracle:
    """run_episode / bptt_gradients against the time-major reference."""

    @settings(max_examples=200, deadline=None)
    @given(net=small_networks())
    def test_small_networks_match_time_major(self, net):
        rng = CounterRng(net["seed"])
        sizes, steps, e = net["sizes"], net["steps"], net["eta"]
        weights = [rng.uniform_range(-1.5 * e, 1.5 * e, (a, b))
                   for a, b in zip(sizes[:-1], sizes[1:])]
        etas = [e] * len(weights)
        raster = rng.bernoulli(0.5, (sizes[0], steps))
        target = rng.bernoulli(0.3, (sizes[-1], steps)).astype(float)
        if net["store"]:
            # weights read back from a sparse store: 6-bit words hold values
            # up to 31/32, and eta rescales at use
            kept = [np.where(np.abs(w) > 0.2 * e, w / e, 0.0) for w in weights]
            weights = [build_csr(SynapseMatrix(k), 6).to_dense() for k in kept]
        _check_against_oracle(weights, raster, target, LifParams(), etas,
                              net["b_m"], net["soft"])

    @pytest.mark.parametrize("b_w", (2, 3, 4, 5, 6))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_desk_scale_matches_time_major(self, b_w, seed):
        sizes, steps = (200, 100, 50), 100
        rng = CounterRng(1000 * b_w + seed)
        etas = [eta(b_w, n) for n in sizes[:-1]]
        weights = [quantize_weights(rng.uniform_range(-1, 1, (a, b)) * np.sqrt(3 / a) * e, b_w)
                   for a, b, e in zip(sizes[:-1], sizes[1:], etas)]
        raster = rng.bernoulli(rng.uniform_range(0.02, 0.2, (sizes[0], 1)),
                               (sizes[0], steps))
        target = rng.bernoulli(0.1, (sizes[-1], steps)).astype(float)
        _check_against_oracle(weights, raster, target, LifParams(), etas, 16, False)

    def test_quantized_training_matches_time_major(self):
        cfg = NetworkConfig()
        q = QuantConfig(b_w=4, fan_in=cfg.layer_sizes[0])
        got = train(cfg, "CB", q, 20, seed=5)
        want_curve, want_weights = reference_snn.train(cfg, q, 20, seed=5)
        assert got.vr_curve == want_curve
        assert got.vr_curve[-1] != got.vr_curve[0]      # the raster did move
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, want_weights))


def priced(res, scheme, b_w, steps):
    """A TrainResult's per-epoch (fwd_pJ, bwd_pJ) under the default model."""
    return training_energy(scheme, [w.shape for w in res.weights], res.nnz, b_w, steps)


class TestTrain:
    def test_zero_epochs_returns_initial_only(self):
        cfg = NetworkConfig(layer_sizes=(20, 10, 5), steps=20)
        res = train(cfg, "CB", None, 0, seed=1)
        assert len(res.vr_curve) == 1
        energy = priced(res, "CB", 32, cfg.steps)
        assert energy == []
        assert sum(f + b for f, b in energy) == 0.0

    def test_deterministic_replay(self):
        cfg = NetworkConfig(layer_sizes=(20, 10, 5), steps=20)
        q = QuantConfig(b_w=4, fan_in=20)
        a = train(cfg, "CB", q, 5, seed=3)
        b = train(cfg, "CB", q, 5, seed=3)
        assert a.vr_curve == b.vr_curve
        assert a.sparsity == b.sparsity
        assert [w.tolist() for w in a.weights] == [w.tolist() for w in b.weights]

    def test_energy_traces_cover_epochs(self):
        cfg = NetworkConfig(layer_sizes=(16, 8, 4), steps=10)
        res = train(cfg, "CB", None, 3, seed=2)
        # each epoch: steps fwd scans + steps bwd scans + one write pass per
        # layer; full-precision weights are never exactly zero, so a layer's
        # nnz is n_pre * n_post (16 * 8 for the first)
        for scheme in ("CB", "PB-BMP"):
            fwd_pj = bwd_pj = 0.0
            for n_pre, n_post in ((16, 8), (8, 4)):
                fwd, bwd, upd = fc_pass_traces(scheme, n_pre, n_post, n_pre * n_post, 32)
                fwd_pj += pass_energy(fwd.scaled(10), DEFAULT_MODEL).active_energy
                bwd_pj += pass_energy(bwd.scaled(10) + upd, DEFAULT_MODEL).active_energy
            assert priced(res, scheme, 32, 10) == [(fwd_pj, bwd_pj)] * 3

    def test_epoch_traces_compose_from_store_passes(self):
        # an epoch's energy must equal steps x (sum of per-pre lookups)
        # forward, and steps x (amortized scan) + one write per stored weight
        # backward, priced from the final weights' store
        cfg = NetworkConfig(layer_sizes=(10, 6, 4), steps=7, lr_anneal=0, lr=0.0)
        res = train(cfg, "PB-CSR", None, 2, seed=4)
        # lr = 0: weights never change, so the per-epoch structure is fixed
        fwd_pj = bwd_pj = 0.0
        for w in res.weights:
            store = build_csr(SynapseMatrix(w), 32)
            fwd = AccessTrace()
            for i in range(w.shape[0]):
                fwd += store.forward_lookup(i)[1]
            fwd_pj += pass_energy(fwd.scaled(7), DEFAULT_MODEL).active_energy
            bwd_pj += pass_energy(store.backward_scan_trace().scaled(7)
                                  + store.weight_update_trace(),
                                  DEFAULT_MODEL).active_energy
        assert priced(res, "PB-CSR", 32, 7) == [(fwd_pj, bwd_pj)] * 2

    def test_quantized_weights_stay_on_grid(self):
        cfg = NetworkConfig(layer_sizes=(12, 6, 3), steps=12)
        q = QuantConfig(b_w=3, fan_in=12)
        res = train(cfg, "CB", q, 4, seed=5)
        step = 2.0 ** (1 - 3)
        for w in res.weights:
            assert np.allclose(w / step, np.round(w / step))

    def test_learning_reduces_distance(self):
        cfg = NetworkConfig(layer_sizes=(40, 20, 10), steps=40,
                            lr=5e-4, lr_anneal=150)
        res = train(cfg, "CB", None, 300, seed=7)
        assert res.final_vr < res.vr_curve[0]
        assert np.all(np.isfinite(res.vr_curve))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="XYZ"):
            training_energy("XYZ", [(4, 2)], [(8,)], 4, 2)

    def test_cells_with_equal_counts_are_priced_at_their_own_width(self):
        # no weight of these 12- and 16-bit cells rounds to zero, so the two
        # cells share every nonzero count and only b_w tells their epochs apart
        cfg = NetworkConfig(layer_sizes=(6, 3), steps=4)
        quants = [QuantConfig(b_w=b_w, fan_in=6) for b_w in (12, 16)]
        cells = train_cells(cfg, quants, 2, seed=1)
        assert all(c.sparsity == [0.0, 0.0] for c in cells)
        assert cells[0].nnz == cells[1].nnz
        energy = [priced(c, "CB", q.b_w, 4) for q, c in zip(quants, cells)]
        assert energy[0] != energy[1]
        for q, e in zip(quants, energy):
            assert e == priced(train(cfg, "CB", q, 2, seed=1), "CB", q.b_w, 4)

    def test_no_cells_rejected(self):
        with pytest.raises(ValueError, match="quants"):
            train_cells(NetworkConfig(layer_sizes=(4, 2), steps=2), [], 1, seed=0)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            train(NetworkConfig(layer_sizes=(4, 2), steps=2), "CB", None, -3, seed=0)


def assert_same_result(got, want, b_w, steps):
    """Every TrainResult field equal bit for bit (a NaN equals a NaN), and so
    their prices under CB and PB-BMP at width b_w."""
    def bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()
    assert bits(got.vr_curve) == bits(want.vr_curve)
    assert bits(got.sparsity) == bits(want.sparsity)
    assert got.nnz == want.nnz
    for scheme in ("CB", "PB-BMP"):
        assert priced(got, scheme, b_w, steps) == priced(want, scheme, b_w, steps)
    assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in want.weights]


DESK_WIDTHS = (None, 2, 3, 4, 5, 6)     # None: a full-precision cell


def check_cells_match_separate_runs(seed, epochs=190):
    """A desk-scale batch of every width against one train call per width,
    past the epoch where the default lr anneals to zero."""
    cfg = NetworkConfig()
    quants = [QuantConfig(b_w=b, fan_in=cfg.layer_sizes[0]) if b else None
              for b in DESK_WIDTHS]
    cells = train_cells(cfg, quants, epochs, seed)
    assert len(cells) == len(quants)
    for quant, got in zip(quants, cells):
        assert_same_result(got, train(cfg, "CB", quant, epochs, seed),
                           quant.b_w if quant else 32, cfg.steps)
    assert len({tuple(c.vr_curve) for c in cells}) == len(cells)


class TestTrainCells:
    """train_cells against separate train calls. The cells' GEMMs run as one
    stacked matmul, whose bits must not depend on the BLAS thread count."""

    @pytest.mark.parametrize("seed", (0, 9))
    def test_batch_equals_separate_runs(self, seed):
        check_cells_match_separate_runs(seed)

    def test_batch_equals_separate_runs_on_one_blas_thread(self):
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
        script = ("import test_snn\n"
                  "for seed in (0, 9):\n"
                  "    test_snn.check_cells_match_separate_runs(seed)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": path,
                                   "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr


class TestFixedPoint:
    """train_cells stops once an lr-0 epoch leaves every weight bit unchanged
    and repeats that epoch's row; the rows must be those a loop running every
    epoch computes. Each case trains a quantized and a full-precision cell."""

    CELLS = [QuantConfig(b_w=3, fan_in=12), None]

    @pytest.mark.parametrize("lr,lr_anneal,epochs,stops", [
        (0.5, 6, 14, True),        # learns, then crosses the anneal point
        (0.0, 0, 6, True),         # lr 0 from epoch 0
        (0.5, 0, 6, False),        # lr never reaches 0: no fixed point
    ])
    def test_stop_equals_running_every_epoch(self, monkeypatch, lr, lr_anneal,
                                             epochs, stops):
        cfg = NetworkConfig(layer_sizes=(12, 6, 3), steps=12, lr=lr,
                            lr_anneal=lr_anneal)
        episodes = []
        episode = snn._episode
        monkeypatch.setattr(snn, "_episode",
                            lambda *args: episodes.append(1) or episode(*args))
        got = train_cells(cfg, self.CELLS, epochs, seed=3)
        assert (len(episodes) < epochs + 1) == stops
        # no two snapshots compare equal, so every epoch runs
        fresh = itertools.count()
        monkeypatch.setattr(snn, "_stack_bytes", lambda weights: next(fresh))
        want = train_cells(cfg, self.CELLS, epochs, seed=3)
        for q, g, w in zip(self.CELLS, got, want):
            assert len(g.vr_curve) == epochs + 1
            assert_same_result(g, w, q.b_w if q else 32, cfg.steps)
        if lr:
            assert all(len(set(g.vr_curve)) > 1 for g in got)    # the cells learned


class TestNetworkConfig:
    @pytest.mark.parametrize("name,value", [
        ("layer_sizes", (8,)), ("layer_sizes", (8, 0)), ("steps", 0),
        ("tau_vr", 0.0), ("tau_vr", -3.0), ("tau_vr", float("inf")),
        ("tau_vr", float("nan")), ("lr", -1e-4), ("lr", float("nan")),
        ("lr", float("inf")), ("lr_anneal", -5)])
    def test_bad_field_rejected_when_built(self, name, value):
        with pytest.raises(ValueError, match=name):
            NetworkConfig(**{name: value})

    def test_frozen_learning_rate_is_valid(self):
        cfg = NetworkConfig(layer_sizes=(2, 1), steps=1, lr=0.0, lr_anneal=0)
        assert cfg.lr == 0.0 and cfg.lr_anneal == 0
