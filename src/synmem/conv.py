"""Functional encoding of convolutional connectivity.

Connectivity is never stored: the fanout of a presynaptic neuron follows
from adding centered kernel offsets to its coordinates (forward), and the
fanin of a postsynaptic neuron from subtracting them (reverse), with a
bounds check rejecting out-of-image candidates so no spurious word is
fetched. Only the kernel weights occupy memory. That bounds check lives
once, in `_taps`, an in-image mask over the kernel taps of one position
or of a whole array of them: the forward and reverse lookups call it per
neuron, and `csr_from_conv` once for the whole image.

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

from .matrix import SynapseMatrix
from .stores import CsrStore, quantize_for_store, row_starts
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

    def pre_index(self, r, c, ic):
        return (r * self.in_w + c) * self.c_in + ic

    def pre_coords(self, pre_id):
        rc, ic = divmod(pre_id, self.c_in)
        r, c = divmod(rc, self.in_w)
        return r, c, ic

    def post_index(self, r, c, oc):
        return (r * self.in_w + c) * self.c_out + oc

    def post_coords(self, post_id):
        rc, oc = divmod(post_id, self.c_out)
        r, c = divmod(rc, self.in_w)
        return r, c, oc


def _check_spatial(g, r, c, what):
    if not (0 <= r < g.in_h and 0 <= c < g.in_w):
        raise IndexError(f"{what} position ({r}, {c}) outside {g.in_h}x{g.in_w}")


def _taps(g, r, c, sign):
    """In-image mask of the kernel taps from positions (r, c).

    r and c are positions or broadcasting arrays of them; the mask adds axes
    (k_h, k_w). Entry [..., kr, kc] says whether the tap (r + sign * dr,
    c + sign * dc) of offset (dr, dc) = (kr - k_h // 2, kc - k_w // 2) lands
    inside the image: sign 1 walks a pre's fanout, sign -1 a post's fanin.
    """
    kh2, kw2 = g.k_h // 2, g.k_w // 2
    rows = np.add.outer(r, sign * np.arange(-kh2, kh2 + 1))
    cols = np.add.outer(c, sign * np.arange(-kw2, kw2 + 1))
    return (((0 <= rows) & (rows < g.in_h))[..., :, None]
            & ((0 <= cols) & (cols < g.in_w))[..., None, :])


def _tap_pairs(g, r, c, sign, channels):
    """(pairs, logic count) of the lookup from (r, c) over `channels`.

    Pairs are ((row, col, channel), kernel_index) per in-image tap and
    channel, in row-major kernel order. Every candidate, in the image or
    not, costs one logic evaluation.
    """
    kh2, kw2 = g.k_h // 2, g.k_w // 2
    taps = [(r + sign * (k // g.k_w - kh2), c + sign * (k % g.k_w - kw2), k)
            for k in np.flatnonzero(_taps(g, r, c, sign)).tolist()]
    pairs = [((rr, cc, ch), k) for rr, cc, k in taps for ch in range(channels)]
    return pairs, g.k_h * g.k_w * channels


def conv_forward_addresses(g, pre):
    """All (post, kernel_index) pairs fed by presynaptic neuron `pre`.

    pre is (row, col, in_channel). Candidates are every output channel and
    kernel offset; a candidate at row+dr, col+dc is emitted only if it lands
    inside the image. kernel_index is the row-major spatial position in the
    k_h x k_w kernel. Returns (pairs, logic_eval_count) where every
    candidate, valid or not, costs one address-logic evaluation.
    """
    r, c, ic = pre
    _check_spatial(g, r, c, "pre")
    if not 0 <= ic < g.c_in:
        raise IndexError(f"in channel {ic} outside [0, {g.c_in})")
    return _tap_pairs(g, r, c, 1, g.c_out)


def conv_reverse_addresses(g, post):
    """All (pre, kernel_index) pairs feeding postsynaptic neuron `post`.

    Exact relational transpose of conv_forward_addresses: the pre at
    row-dr, col-dc is emitted for each in channel and kernel offset that
    stays in bounds.
    """
    r, c, oc = post
    _check_spatial(g, r, c, "post")
    if not 0 <= oc < g.c_out:
        raise IndexError(f"out channel {oc} outside [0, {g.c_out})")
    return _tap_pairs(g, r, c, -1, g.c_in)


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

    weight_mem holds c_in * c_out * k_h * k_w words indexed by
    (ic, oc, kr, kc); every address is produced by the offset logic above.
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
        if not 0 <= pre_id < self.n_pre:
            raise IndexError(f"pre_id {pre_id} out of range [0, {self.n_pre})")
        r, c, ic = g.pre_coords(pre_id)
        pairs, logic = conv_forward_addresses(g, (r, c, ic))
        t = AccessTrace()
        t.logic(logic)
        t.read(self.weight_bank, len(pairs))
        weights = self.kernel[ic].reshape(g.c_out, -1)      # [oc, kernel index]
        return [(g.post_index(*q), float(weights[q[2], k])) for q, k in pairs], t

    def reverse_lookup(self, post_id):
        g = self.geometry
        if not 0 <= post_id < self.n_post:
            raise IndexError(f"post_id {post_id} out of range [0, {self.n_post})")
        r, c, oc = g.post_coords(post_id)
        pairs, logic = conv_reverse_addresses(g, (r, c, oc))
        t = AccessTrace()
        t.logic(logic)
        t.read(self.weight_bank, len(pairs))
        weights = self.kernel[:, oc].reshape(g.c_in, -1)    # [ic, kernel index]
        return [(g.pre_index(*q), float(weights[q[2], k])) for q, k in pairs], t

    def write_weight(self, pre_id, post_id, value, batched=False):
        g = self.geometry
        if not (0 <= pre_id < self.n_pre and 0 <= post_id < self.n_post):
            raise IndexError(f"synapse ({pre_id}, {post_id}) out of range")
        pr, pc, ic = g.pre_coords(pre_id)
        qr, qc, oc = g.post_coords(post_id)
        dr, dc = qr - pr, qc - pc
        t = AccessTrace()
        if not batched:
            t.logic()
        if abs(dr) > g.k_h // 2 or abs(dc) > g.k_w // 2:
            raise KeyError(f"synapse ({pre_id}, {post_id}) not a kernel offset")
        self.kernel[ic, oc, dr + g.k_h // 2, dc + g.k_w // 2] = \
            quantize_for_store(value, self.b_w)
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
    return FunctionalStore(g, quantize_for_store(kernel, b_w), b_w)


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


def csr_from_conv(g, kernel, b_w):
    """CsrStore of the materialized convolution, built without the dense matrix.

    One broadcast over (row, col, in channel, kernel row, kernel col, out
    channel): its in-image entries in C order are the CSR entries, by pre id
    and then by ascending post id.
    """
    kernel = quantize_for_store(np.asarray(kernel, dtype=np.float64), b_w)
    shape = (g.in_h, g.in_w, g.c_in, g.k_h, g.k_w, g.c_out)
    taps = _taps(g, np.arange(g.in_h)[:, None], np.arange(g.in_w), 1)
    keep = np.broadcast_to(taps[:, :, None, :, :, None], shape)
    # post id of a tap: (pre position + dr * in_w + dc) * c_out + out channel
    kr, kc = np.indices((g.k_h, g.k_w))
    step = (kr - g.k_h // 2) * g.in_w + kc - g.k_w // 2
    pos = np.arange(g.in_h * g.in_w).reshape(g.in_h, g.in_w, 1, 1, 1, 1)
    posts = (pos + step[:, :, None]) * g.c_out + np.arange(g.c_out)
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
