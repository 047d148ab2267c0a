"""Fixed-point quantization of weights, errors and membrane values."""

from dataclasses import dataclass

import numpy as np


def sigma(bits):
    """Quantization step for a b-bit signed grid: 2**(1 - b)."""
    if bits < 1:
        raise ValueError(f"bit width must be >= 1, got {bits}")
    return 2.0 ** (1 - bits)


def weight_range(b_w):
    """Feasible weight interval (-1 + sigma(b_w), +1 - sigma(b_w)): (0.0, 0.0) at 1 bit."""
    s = sigma(b_w)
    return (-1.0 + s, 1.0 - s)


def eta(b_w, fan_in):
    """Power-of-two layer scale 2**round(log2(((1/s - 0.5) * s) / sqrt(3 / fan_in)))."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    s = sigma(b_w)
    raw = ((1.0 / s - 0.5) * s) / np.sqrt(3.0 / fan_in)
    return 2.0 ** round(float(np.log2(raw)))


def _round_to_grid(x, step):
    # nearest multiple of step, ties away from zero
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) / step + 0.5) * step


def quantize_weights(w, b_w):
    """Clip to weight_range(b_w), then snap to the sigma(b_w) grid. Idempotent."""
    lo, hi = weight_range(b_w)
    return _round_to_grid(np.clip(np.asarray(w, dtype=np.float64), lo, hi), sigma(b_w))


def quantize_error(err, b_e):
    """Normalize by the largest magnitude, then clip and snap to the b_e grid.

    All-zero input returns zeros (no division). Output lies in [-1, 1] and the
    extreme element maps to exactly +/-1.
    """
    err = np.asarray(err, dtype=np.float64)
    if err.size == 0:
        raise ValueError("error tensor is empty")
    peak = np.max(np.abs(err))
    if peak == 0.0:
        return np.zeros_like(err)
    return _round_to_grid(np.clip(err / peak, -1.0, 1.0), sigma(b_e))


def quantize_membrane(u, b_m):
    """Snap membrane values to the sigma(b_m) grid, ties away from zero; no clipping."""
    return _round_to_grid(u, sigma(b_m))


def stochastic_round(x, step, rng):
    """Round x to the step grid stochastically; E[result] == x.

    floor(x/step)*step with probability 1 - frac(x/step), else one step up.
    """
    x = np.asarray(x, dtype=np.float64)
    return stochastic_round_with(x, step, rng.uniform(x.shape if x.shape else None))


def stochastic_round_with(x, step, u):
    """stochastic_round with its uniforms given: u in [0, 1), broadcast
    against x, so one block of draws can round several arrays alike."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    q = np.asarray(x, dtype=np.float64) / step
    lo = np.floor(q)
    return (lo + (u < q - lo)) * step


@dataclass(frozen=True)
class QuantConfig:
    """Bit widths for one training setup.

    b_w: stored weight words; b_e: backpropagated error; b_m: membrane
    history kept for the reverse pass. fan_in is read only by the `eta`
    property: training scales each layer by its own fan-in,
    eta(b_w, n_in), whatever fan_in holds.
    """

    b_w: int
    fan_in: int
    b_e: int = 8
    b_m: int = 16

    def __post_init__(self):
        for field in ("b_w", "b_e", "b_m"):     # a stored word holds at most 64 bits
            if not 2 <= getattr(self, field) <= 64:
                raise ValueError(f"{field} must be in [2, 64], got {getattr(self, field)}")
        if self.fan_in < 1:
            raise ValueError(f"fan_in must be >= 1, got {self.fan_in}")

    @property
    def eta(self):
        return eta(self.b_w, self.fan_in)
