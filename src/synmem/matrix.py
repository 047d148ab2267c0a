"""Dense synaptic weight matrix with an explicit connectivity mask.

This is the ground-truth oracle all encoded stores are checked against:
forward/reverse lookups on any store must return exactly the masked
entries of the matrix it was built from.
"""

import numpy as np


class SynapseMatrix:
    def __init__(self, weights, mask=None):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if mask is None:
            mask = weights != 0.0
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != weights.shape:
            raise ValueError(f"mask shape {mask.shape} != weights shape {weights.shape}")
        # masked-out entries are identically zero
        self.weights = np.where(mask, weights, 0.0)
        self.mask = mask
        self.n_pre, self.n_post = weights.shape

    @property
    def nnz(self):
        return int(self.mask.sum())


def nnz_at_density(n_pre, n_post, density):
    """Synapse count of an n_pre x n_post layer at `density`, checked to lie in [0, 1]."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    return int(round(density * (n_pre * n_post)))


def random_mask(n_pre, n_post, density, rng):
    """Boolean mask with exactly nnz_at_density(n_pre, n_post, density) set slots."""
    nnz = nnz_at_density(n_pre, n_post, density)
    total = n_pre * n_post
    flat = rng.choice_without_replacement(total, nnz)
    mask = np.zeros(total, dtype=bool)
    mask[flat] = True
    return mask.reshape(n_pre, n_post)


def random_synapse_matrix(n_pre, n_post, density, rng, lo=-1.0, hi=1.0):
    """Seeded random matrix at an exact density, weights uniform in [lo, hi)."""
    mask = random_mask(n_pre, n_post, density, rng)
    return SynapseMatrix(rng.uniform_range(lo, hi, (n_pre, n_post)), mask)
