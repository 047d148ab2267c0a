"""Quantization grid, range, scaling and rounding behavior."""

import numpy as np
import pytest

from synmem.quant import (QuantConfig, eta, quantize_error, quantize_weights,
                          sigma, stochastic_round, weight_range)
from synmem.rng import CounterRng


class TestSigmaAndRange:
    def test_sigma_values(self):
        assert sigma(2) == 0.5
        assert sigma(8) == 0.0078125
        assert sigma(1) == 1.0

    def test_sigma_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            sigma(0)

    def test_weight_range_closed_forms(self):
        assert weight_range(2) == (-0.5, 0.5)
        assert weight_range(8) == (-0.9921875, 0.9921875)
        assert weight_range(6) == (-0.96875, 0.96875)
        assert weight_range(1) == (0.0, 0.0)

    def test_weight_range_symmetric(self):
        for b in range(2, 12):
            lo, hi = weight_range(b)
            assert lo == -hi


class TestEta:
    def test_eta_is_power_of_two(self):
        for b_w in (2, 4, 6, 8):
            for fan_in in (1, 7, 100, 728):
                log = np.log2(eta(b_w, fan_in))
                assert log == round(log), (b_w, fan_in)

    def test_eta_reference_point(self):
        # independent evaluation: (1/s - 0.5)*s = 0.99609375 for 8 bits,
        # sqrt(3/728) = 0.0641689..., ratio 15.5231 -> rounds to 2**4
        assert eta(8, 728) == 16.0

    def test_eta_small_net(self):
        # (2 - 0.5)*0.5 = 0.75, sqrt(3) = 1.732: 0.433 -> round(log2) = -1
        assert eta(2, 1) == 0.5

    def test_eta_rejects_bad_fan_in(self):
        with pytest.raises(ValueError):
            eta(8, 0)


class TestQuantizeWeights:
    def test_zero_stays_zero(self):
        for b_w in (2, 4, 8):
            assert quantize_weights(0.0, b_w) == 0.0

    def test_nearest_grid_point(self):
        assert quantize_weights(0.3, 2) == 0.5

    def test_clipping(self):
        assert quantize_weights(5.0, 8) == 0.9921875
        assert quantize_weights(-5.0, 8) == -0.9921875

    def test_idempotent_on_random_values(self):
        rng = CounterRng(3)
        w = rng.uniform_range(-2.0, 2.0, 10_000)
        for b_w in (2, 5, 8):
            once = quantize_weights(w, b_w)
            assert np.array_equal(once, quantize_weights(once, b_w))
            lo, hi = weight_range(b_w)
            assert once.min() >= lo and once.max() <= hi

    def test_one_bit_grid_is_positive_zero(self):
        x = np.array([-5.0, -1.0, -0.7, -1e-300, -0.0, 0.0, 0.3, 1.0, 5.0])
        q = quantize_weights(x, 1)
        assert q.tobytes() == np.zeros_like(x).tobytes()
        assert not np.signbit(q).any()
        assert not np.signbit(quantize_weights(-0.0, 1))

    def test_ties_round_away_from_zero(self):
        assert quantize_weights(0.25, 2) == 0.5
        assert quantize_weights(-0.25, 2) == -0.5


class TestQuantizeError:
    def test_all_zero_guard(self):
        assert np.array_equal(quantize_error(np.zeros(3), 4), np.zeros(3))

    def test_normalize_then_grid(self):
        out = quantize_error(np.array([2.0, -4.0]), 2)
        assert np.array_equal(out, [0.5, -1.0])

    def test_peak_maps_to_one(self):
        rng = CounterRng(11)
        for trial in range(20):
            e = rng.uniform_range(-7.0, 7.0, 50)
            out = quantize_error(e, 6)
            assert np.max(np.abs(out)) == 1.0
            assert np.all(np.abs(out) <= 1.0)

    def test_scale_invariance(self):
        rng = CounterRng(12)
        e = rng.uniform_range(-1.0, 1.0, 64)
        a = quantize_error(e, 5)
        b = quantize_error(e * 37.5, 5)
        assert np.array_equal(a, b)


class TestStochasticRound:
    def test_on_grid_is_exact(self):
        rng = CounterRng(0)
        for _ in range(100):
            assert stochastic_round(3.0, 1.0, rng) == 3.0

    def test_bracketing(self):
        rng = CounterRng(1)
        outs = {float(stochastic_round(-0.5, 1.0, rng)) for _ in range(200)}
        assert outs == {-1.0, 0.0}

    def test_unbiased(self):
        rng = CounterRng(2)
        n = 100_000
        draws = stochastic_round(np.full(n, 0.25), 1.0, rng)
        se = np.sqrt(0.25 * 0.75 / n)
        assert abs(draws.mean() - 0.25) < 3 * se

    def test_seed_replay_is_bit_identical(self):
        a = stochastic_round(np.full(1000, 0.7), 0.125, CounterRng(5))
        b = stochastic_round(np.full(1000, 0.7), 0.125, CounterRng(5))
        assert np.array_equal(a, b)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            stochastic_round(1.0, 0.0, CounterRng(0))


def test_quant_config_validation():
    cfg = QuantConfig(b_w=6, fan_in=728)
    assert cfg.b_e == 8 and cfg.b_m == 16
    assert cfg.eta == eta(6, 728)
    with pytest.raises(ValueError):
        QuantConfig(b_w=1, fan_in=10)
    assert QuantConfig(b_w=64, fan_in=10, b_e=64, b_m=64).b_m == 64
    for field in ("b_w", "b_e", "b_m"):
        with pytest.raises(ValueError, match=rf"{field} must be in \[2, 64\]"):
            QuantConfig(**{"b_w": 4, "fan_in": 10, field: 65})
    with pytest.raises(ValueError):
        QuantConfig(b_w=4, fan_in=0)
