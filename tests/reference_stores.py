"""Test-only oracles of the encoded stores.

The dense matrix a functional store encodes, the masked rows and columns of
a dense SynapseMatrix as (id, weight) pairs, neuron ids of a conv layer from
their coordinates and back, and a trace's reads and writes summed by bank
kind. No library path needs them; the tests compare the stores against them.
"""

import numpy as np

from synmem.matrix import SynapseMatrix
from synmem.stores import check_id


def materialize(store):
    """Dense SynapseMatrix of the convolution a FunctionalStore encodes.

    Test-scale only: allocates n_pre x n_post.
    """
    g = store.geometry
    dense = np.zeros((g.n_pre, g.n_post))
    mask = np.zeros((g.n_pre, g.n_post), dtype=bool)
    for pre_id in range(g.n_pre):
        pairs, _ = store.forward_lookup(pre_id)
        for post_id, w in pairs:
            dense[pre_id, post_id] = w
            mask[pre_id, post_id] = True
    return SynapseMatrix(dense, mask)


def forward_row(m, pre_id):
    """Masked entries of row pre_id of SynapseMatrix m as (post_id, weight) pairs."""
    check_id("pre_id", pre_id, m.n_pre)
    cols = np.nonzero(m.mask[pre_id])[0]
    return [(int(j), float(m.weights[pre_id, j])) for j in cols]


def reverse_col(m, post_id):
    """Masked entries of column post_id of SynapseMatrix m as (pre_id, weight) pairs."""
    check_id("post_id", post_id, m.n_post)
    rows = np.nonzero(m.mask[:, post_id])[0]
    return [(int(i), float(m.weights[i, post_id])) for i in rows]


def pre_index(g, r, c, ic):
    """Pre id of input row r, column c, channel ic of ConvGeometry g."""
    return (r * g.in_w + c) * g.c_in + ic


def post_index(g, r, c, oc):
    """Post id of output row r, column c, channel oc of ConvGeometry g."""
    return (r * g.in_w + c) * g.c_out + oc


def pre_coords(g, pre_id):
    """(row, column, channel) of input neuron pre_id of ConvGeometry g."""
    rc, ic = divmod(pre_id, g.c_in)
    r, c = divmod(rc, g.in_w)
    return r, c, ic


def post_coords(g, post_id):
    """(row, column, channel) of output neuron post_id of ConvGeometry g."""
    rc, oc = divmod(post_id, g.c_out)
    r, c = divmod(rc, g.in_w)
    return r, c, oc


def indirection_reads(t):
    """Reads of index banks (pointers, column indices, bitmaps) in trace t."""
    return sum(r for b, r, _ in t.banks() if b.kind == "index")


def weight_reads(t):
    return sum(r for b, r, _ in t.banks() if b.kind == "weight")


def weight_writes(t):
    return sum(w for b, _, w in t.banks() if b.kind == "weight")
