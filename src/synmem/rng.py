"""Counter-based pseudo-random generator used everywhere randomness is needed.

Every output word is splitmix64's finalizer (two xorshift-multiply rounds
plus a final xorshift) applied to ``seed + GOLDEN * (counter + i)``. Because
draw ``i`` depends only on ``(seed, counter + i)``, a whole block of draws is
one vectorized uint64 computation, and any implementation in any language
reproduces the stream bit for bit from the integer seed alone.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
# 2**53; uniforms keep the top 53 bits so they are exactly representable
_INV53 = 1.0 / 9007199254740992.0


def _mix(z):
    """splitmix64 finalizer on a uint64 array (modular arithmetic)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):     # wraparound is the intended semantics
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def derive_seed(master_seed, index):
    """Child seed for worker/stream `index`; deterministic in both arguments."""
    with np.errstate(over="ignore"):
        z = (np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
             + _GOLDEN * np.uint64(index + 1)) & _MASK
    return int(_mix(z))


class CounterRng:
    """Seeded counter generator. Draws advance an internal counter."""

    def __init__(self, seed):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def _raw(self, n):
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            keyed = self.seed + _GOLDEN * idx
        return _mix(keyed)

    def uniform(self, size=None):
        """Uniform float64 in [0, 1): top 53 bits of the raw word / 2**53."""
        n = 1 if size is None else int(np.prod(size))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV53
        if size is None:
            return float(u[0])
        return u.reshape(size)

    def uniform_range(self, lo, hi, size=None):
        return lo + (hi - lo) * self.uniform(size)

    def bernoulli(self, p, size):
        """Bernoulli draws; `p` may be scalar or an array broadcast to size."""
        return (self.uniform(size) < p).astype(np.uint8)

    def randint(self, n):
        """An integer in [0, n) via floor(u * n); deterministic, n < 2**31."""
        return int(self.uniform() * n)

    def choice_without_replacement(self, n, k):
        """k distinct indices from range(n): the k smallest of n random keys."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        keys = self._raw(n)
        return np.sort(np.argpartition(keys, k - 1)[:k]).astype(np.int64)

    def spawn(self, index):
        """Independent child generator; same (master, index) -> same stream."""
        return CounterRng(derive_seed(int(self.seed), index))
