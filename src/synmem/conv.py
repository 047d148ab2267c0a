"""Functional encoding of convolutional connectivity.

Connectivity is never stored: the fanout of a presynaptic neuron follows
from adding centered kernel offsets to its coordinates (forward), and the
fanin of a postsynaptic neuron from subtracting them (reverse), with a
bounds check rejecting out-of-image candidates so no spurious word is
fetched. Only the kernel weights occupy memory. Each rule lives once:
`_taps` is the bounds check, an in-image mask over the kernel taps of one
position or of a whole array of them, and `_steps` turns each tap's offset
(dr, dc) into a position step dr * in_w + dc. The address generators apply
both to one neuron id in one array pass, and `csr_from_conv` to the whole
image at once. A weight write finds its tap through the forward address
rule, so writes and lookups share one connectivity rule.

Geometry is stride 1 with zero ("same") padding, so input and output share
the spatial extent. Neuron ids flatten as (row * in_w + col) * channels +
channel for both sides.

The functional encoding's closed forms live here once: `functional_banks`
is its bank layout and `functional_pass_traces` its whole-layer traffic.
A conv layer held in CB or PB-CSR is priced by the FC table in stores,
`fc_pass_traces(scheme, g.n_pre, g.n_post, connection_count(g), b_w)`,
which equals building `csr_from_conv` and summing its lookups.
"""

from dataclasses import dataclass

import numpy as np

from .quant import quantize_weights
from .stores import CsrStore, check_id, row_starts
from .trace import AccessTrace, MemBank


@dataclass(frozen=True)
class ConvGeometry:
    in_h: int
    in_w: int
    k_h: int
    k_w: int
    c_in: int
    c_out: int

    def __post_init__(self):
        for name in ("in_h", "in_w", "k_h", "k_w", "c_in", "c_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k_h % 2 == 0 or self.k_w % 2 == 0:
            raise ValueError(
                f"kernel extents must be odd for centered offsets, got "
                f"{self.k_h}x{self.k_w}")

    @property
    def n_pre(self):
        return self.in_h * self.in_w * self.c_in

    @property
    def n_post(self):
        return self.in_h * self.in_w * self.c_out

    @property
    def kernel_words(self):
        return self.c_in * self.c_out * self.k_h * self.k_w


def _offsets(extent):
    """Centered kernel offsets along one axis, -(extent // 2) .. extent // 2."""
    return np.arange(extent) - extent // 2


def _taps(g, r, c, sign):
    """In-image mask of the kernel taps from positions (r, c).

    r and c are positions or broadcasting arrays of them; the mask adds axes
    (k_h, k_w). Entry [..., kr, kc] says whether the tap (r + sign * dr,
    c + sign * dc) of offset (dr, dc) = (kr - k_h // 2, kc - k_w // 2) lands
    inside the image: sign 1 walks a pre's fanout, sign -1 a post's fanin.
    """
    rows = np.add.outer(r, sign * _offsets(g.k_h))
    cols = np.add.outer(c, sign * _offsets(g.k_w))
    return (((0 <= rows) & (rows < g.in_h))[..., :, None]
            & ((0 <= cols) & (cols < g.in_w))[..., None, :])


def _steps(g):
    """Position step dr * in_w + dc of each kernel tap, shape (k_h, k_w)."""
    return np.add.outer(_offsets(g.k_h) * g.in_w, _offsets(g.k_w))


def _addresses(g, pos, sign, channels):
    """(ids, kernel indexes, logic count) of the taps from `pos` = row * in_w + col.

    One id (pos + sign * step) * channels + channel per in-image tap and
    channel, in row-major kernel order with the channel innermost. Every
    candidate, in the image or not, costs one logic evaluation.
    """
    ks = np.flatnonzero(_taps(g, *divmod(pos, g.in_w), sign))
    targets = pos + sign * _steps(g).reshape(-1)[ks]
    ids = (targets * channels)[:, None] + np.arange(channels)
    return ids.reshape(-1), np.repeat(ks, channels), g.k_h * g.k_w * channels


def conv_forward_addresses(g, pre_id):
    """(post_ids, kernel_indexes, logic_evals) of the synapses from `pre_id`.

    Candidates are every output channel and kernel offset; the post at
    row+dr, col+dc is emitted only if it lands inside the image. A kernel
    index is the row-major spatial position in the k_h x k_w kernel.
    """
    check_id("pre_id", pre_id, g.n_pre)
    return _addresses(g, pre_id // g.c_in, 1, g.c_out)


def conv_reverse_addresses(g, post_id):
    """(pre_ids, kernel_indexes, logic_evals) of the synapses into `post_id`.

    Exact relational transpose of conv_forward_addresses: the pre at
    row-dr, col-dc is emitted for each in channel and kernel offset that
    stays in bounds.
    """
    check_id("post_id", post_id, g.n_post)
    return _addresses(g, post_id // g.c_out, -1, g.c_in)


def _valid_1d(extent, kernel):
    """In-image taps summed over every position of one axis, in O(1).

    A window of 2h+1 taps (h = kernel // 2) loses h - x taps off each edge
    at the x-th position from that edge, for x < min(h, extent).
    """
    half = kernel // 2
    t = min(half, extent)
    return extent * (2 * half + 1) - 2 * (t * half - t * (t - 1) // 2)


def connection_count(g):
    """Number of realized (pre, post) pairs across the layer."""
    return _valid_1d(g.in_h, g.k_h) * _valid_1d(g.in_w, g.k_w) * g.c_in * g.c_out


class FunctionalStore:
    """Kernel-only weight storage with computed connectivity.

    The weight bank holds c_in * c_out * k_h * k_w words indexed by
    (ic, oc, kr, kc). A lookup takes its neuron ids and kernel indexes from
    the address generators above and gathers its weights with one index into
    the kernel; the generators' candidate count is its logic cost. A write
    finds its tap among the pre's forward addresses at one logic evaluation.
    """

    scheme = "FUNC"

    def __init__(self, geometry, kernel, b_w):
        self.geometry = geometry
        self.kernel = kernel        # (c_in, c_out, k_h, k_w)
        self.b_w = b_w
        self.n_pre = geometry.n_pre
        self.n_post = geometry.n_post
        (self.weight_bank,) = functional_banks(geometry, b_w)

    @property
    def nnz(self):
        return connection_count(self.geometry)

    def banks(self):
        return (self.weight_bank,)

    def storage_bits(self):
        return {b.name: b.capacity_bits for b in self.banks()}

    def forward_lookup(self, pre_id):
        g = self.geometry
        posts, ks, logic = conv_forward_addresses(g, pre_id)
        weights = self.kernel[pre_id % g.c_in].reshape(g.c_out, -1)   # [oc, k]
        return self._pairs(posts, weights[posts % g.c_out, ks], logic)

    def reverse_lookup(self, post_id):
        g = self.geometry
        pres, ks, logic = conv_reverse_addresses(g, post_id)
        weights = self.kernel[:, post_id % g.c_out].reshape(g.c_in, -1)   # [ic, k]
        return self._pairs(pres, weights[pres % g.c_in, ks], logic)

    def _pairs(self, ids, weights, logic):
        t = AccessTrace()
        t.logic(logic)
        t.read(self.weight_bank, len(ids))
        return list(zip(ids.tolist(), weights.tolist())), t

    def write_weight(self, pre_id, post_id, value):
        g = self.geometry
        posts, ks, _ = conv_forward_addresses(g, pre_id)
        check_id("post_id", post_id, self.n_post)
        k = ks[posts == post_id]
        if not k.size:
            raise KeyError(f"synapse ({pre_id}, {post_id}) not a kernel offset")
        kr, kc = divmod(int(k[0]), g.k_w)
        self.kernel[pre_id % g.c_in, post_id % g.c_out, kr, kc] = \
            quantize_weights(value, self.b_w)
        t = AccessTrace()
        t.logic()
        t.write(self.weight_bank)
        return t

    def forward_pass_trace(self):
        return functional_pass_traces(self.geometry, self.b_w)[0]

    def backward_scan_trace(self):
        return functional_pass_traces(self.geometry, self.b_w)[1]

    def weight_update_trace(self):
        return functional_pass_traces(self.geometry, self.b_w)[2]


def build_functional(g, kernel, b_w):
    kernel = np.asarray(kernel, dtype=np.float64)
    expected = (g.c_in, g.c_out, g.k_h, g.k_w)
    if kernel.shape != expected:
        raise ValueError(f"kernel shape {kernel.shape} != {expected}")
    return FunctionalStore(g, quantize_weights(kernel, b_w), b_w)


def csr_from_conv(g, kernel, b_w):
    """CsrStore of the materialized convolution, built without the dense matrix.

    One broadcast over (row, col, in channel, kernel row, kernel col, out
    channel): its in-image entries in C order are the CSR entries, by pre id
    and then by ascending post id.
    """
    kernel = build_functional(g, kernel, b_w).kernel     # shape-checked and rounded
    shape = (g.in_h, g.in_w, g.c_in, g.k_h, g.k_w, g.c_out)
    taps = _taps(g, np.arange(g.in_h)[:, None], np.arange(g.in_w), 1)
    keep = np.broadcast_to(taps[:, :, None, :, :, None], shape)
    # post id of a tap: (pre position + step) * c_out + out channel
    pos = np.arange(g.in_h * g.in_w).reshape(g.in_h, g.in_w, 1, 1, 1, 1)
    posts = (pos + _steps(g)[:, :, None]) * g.c_out + np.arange(g.c_out)
    col_idx = np.broadcast_to(posts, shape)[keep]
    weights = np.broadcast_to(kernel.transpose(0, 2, 3, 1), shape)[keep]
    counts = np.repeat(taps.sum(axis=(2, 3)).reshape(-1) * g.c_out, g.c_in)
    return CsrStore(row_starts(counts), col_idx, weights, g.n_post, b_w)


def functional_banks(g, b_w):
    """Memory banks of the functional encoding: the kernel weights alone."""
    return (MemBank("weight", "weight", g.kernel_words, b_w),)


def functional_pass_traces(g, b_w):
    """(forward, backward_scan, update) traces of the functional encoding.

    Every candidate address costs one logic evaluation and every in-image
    connection one weight read; shared kernel words are each written once
    per update pass.
    """
    (wt,) = functional_banks(g, b_w)
    nnz = connection_count(g)
    fwd = AccessTrace()
    fwd.logic(g.n_pre * g.c_out * g.k_h * g.k_w)
    fwd.read(wt, nnz)
    bwd = AccessTrace()
    bwd.logic(g.n_post * g.c_in * g.k_h * g.k_w)
    bwd.read(wt, nnz)
    upd = AccessTrace()
    upd.write(wt, g.kernel_words)
    return fwd, bwd, upd
