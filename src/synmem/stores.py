"""Encoded synaptic weight stores: crossbar, pointer CSR, pointer bitmap.

Each store answers forward lookups (all posts of a pre), reverse lookups
(all pres of a post) and in-place weight writes, and reports the exact
memory traffic of each operation as an AccessTrace. Connectivity is frozen
at build time for the sparse formats; weight values stay mutable.

Lookup traffic contracts (single query):
  crossbar  fwd: n_post weight reads        rev: n_pre weight reads
  CSR       fwd: 2 row_ptr + k col_idx + k weight reads
            rev: full scan, (n_pre+1) row_ptr + nnz col_idx + match weights
  bitmap    fwd: 1 row_ptr + ceil(n_post/w_word) bitmap + k weight reads
            rev: n_pre row_ptr + per-row rank words + match weights

Whole-layer passes are closed forms: a forward pass is the sum of the
per-pre lookups; a backward pass amortizes to a single scan of the
structure (each pointer/index/bitmap word and each weight read once)
plus, when updating, one write per stored weight.

Each closed form lives in one place. `fc_banks` is the bank layout of CB,
PB-CSR and PB-BMP from (n_pre, n_post, nnz, b_w, w_word), and
`fc_pass_traces` builds the forward, backward-scan and update traces from
those banks. The store classes, the layer sweeps, training's per-epoch
accounting and the container decoder all read them; the functional
encoding's counterparts are `functional_banks` and `functional_pass_traces`
in conv.

Thread contract: any number of concurrent readers or one writer; traces
are returned per call and merged by the caller.
"""

import numpy as np

from .matrix import SynapseMatrix
from .quant import quantize_weights
from .trace import AccessTrace, MemBank


def ceil_log2(n):
    """Bits needed to address n distinct values; 0 for n <= 1."""
    return 0 if n <= 1 else int(n - 1).bit_length()


def quantize_for_store(values, b_w):
    """Weight words for a b_w-bit store.

    The signed grid at one bit degenerates to {0} (its feasible range is
    empty), so 1-bit stores hold zero words; wider stores use the normal
    clip-and-snap grid.
    """
    if b_w < 1:
        raise ValueError(f"b_w must be >= 1, got {b_w}")
    if b_w == 1:
        return np.zeros_like(np.asarray(values, dtype=np.float64))
    return quantize_weights(values, b_w)


def fc_banks(scheme, n_pre, n_post, nnz, b_w, w_word=32):
    """Ordered memory banks of an FC layer held in `scheme`; the weight bank is last.

    CB holds a b_w-bit word for every potential synapse. PB-CSR holds
    n_pre + 1 row pointers of ceil_log2(nnz + 1) bits, nnz column indices of
    ceil_log2(n_post) bits and nnz weights. PB-BMP holds n_pre row pointers,
    ceil(n_post / w_word) bitmap words of w_word bits per row, and nnz weights.
    """
    if b_w < 1:
        raise ValueError(f"b_w must be >= 1, got {b_w}")
    if scheme == "CB":
        return (MemBank("weight", "weight", n_pre * n_post, b_w),)
    p = ceil_log2(nnz + 1)
    weight = MemBank("weight", "weight", nnz, b_w)
    if scheme == "PB-CSR":
        return (MemBank("row_ptr", "index", n_pre + 1, p),
                MemBank("col_idx", "index", nnz, ceil_log2(n_post)), weight)
    if scheme == "PB-BMP":
        if not 1 <= w_word <= 64:
            raise ValueError(f"w_word must be in [1, 64], got {w_word}")
        words_per_row = -(-n_post // w_word)
        return (MemBank("row_ptr", "index", n_pre, p),
                MemBank("bitmap", "index", n_pre * words_per_row, w_word), weight)
    raise ValueError(f"unknown scheme {scheme!r}")


def fc_pass_traces(scheme, n_pre, n_post, nnz, b_w, w_word=32):
    """(forward, backward_scan, update) traces of a layer from its counts.

    The backward scan reads every word of every bank once. The forward pass
    reads the same words, except that each PB-CSR row reads both of its
    bounding pointers. The update writes each stored weight once. Pass
    traffic depends only on the shape, the nonzero count and the word
    widths, so layer-level accounting never builds the store.
    """
    banks = fc_banks(scheme, n_pre, n_post, nnz, b_w, w_word)
    fwd, bwd, upd = AccessTrace(), AccessTrace(), AccessTrace()
    for bank in banks:
        csr_ptr = scheme == "PB-CSR" and bank.name == "row_ptr"
        fwd.read(bank, 2 * n_pre if csr_ptr else bank.n_words)
        bwd.read(bank, bank.n_words)
    upd.write(banks[-1], nnz)
    return fwd, bwd, upd


class _FcStore:
    """Banks, storage and whole-layer traces of an FC store, from the table.

    They are read from the live counts: a crossbar's nnz grows when a weight
    is written to an absent synapse. Each class defines its pass-trace
    methods in its own body, as one-line delegations to `_pass_traces`,
    because bench/tracer.py wraps the methods in a class's own namespace.
    """

    w_word = 32         # the table's bitmap word; only PB-BMP stores set their own

    def banks(self):
        return fc_banks(self.scheme, self.n_pre, self.n_post, self.nnz, self.b_w,
                        self.w_word)

    def storage_bits(self):
        return {b.name: b.capacity_bits for b in self.banks()}

    def _pass_traces(self):
        return fc_pass_traces(self.scheme, self.n_pre, self.n_post, self.nnz,
                              self.b_w, self.w_word)


class CrossbarStore(_FcStore):
    """Dense row-major storage of every potential synapse.

    The slot of synapse (i, j) is word i * n_post + j; absent synapses hold
    zero words. The connectivity mask is kept as bookkeeping so lookups can
    report exactly the built matrix (a present synapse may legitimately
    quantize to zero); it occupies no counted storage.
    """

    scheme = "CB"

    def __init__(self, weights, mask, b_w):
        self.n_pre, self.n_post = weights.shape
        self.b_w = b_w
        self.weights = weights
        self.mask = mask
        (self.weight_bank,) = self.banks()

    @property
    def nnz(self):
        return int(self.mask.sum())

    def to_dense(self):
        return self.weights.copy()

    def forward_lookup(self, pre_id):
        if not 0 <= pre_id < self.n_pre:
            raise IndexError(f"pre_id {pre_id} out of range [0, {self.n_pre})")
        t = AccessTrace()
        t.read(self.weight_bank, self.n_post)
        cols = np.nonzero(self.mask[pre_id])[0]
        return list(zip(cols.tolist(), self.weights[pre_id, cols].tolist())), t

    def reverse_lookup(self, post_id):
        if not 0 <= post_id < self.n_post:
            raise IndexError(f"post_id {post_id} out of range [0, {self.n_post})")
        t = AccessTrace()
        t.read(self.weight_bank, self.n_pre)
        rows = np.nonzero(self.mask[:, post_id])[0]
        return list(zip(rows.tolist(), self.weights[rows, post_id].tolist())), t

    def write_weight(self, pre_id, post_id, value, batched=False):
        if not (0 <= pre_id < self.n_pre and 0 <= post_id < self.n_post):
            raise IndexError(f"synapse ({pre_id}, {post_id}) out of range")
        self.weights[pre_id, post_id] = quantize_for_store(value, self.b_w)
        self.mask[pre_id, post_id] = True
        t = AccessTrace()
        t.write(self.weight_bank)
        return t

    def forward_pass_trace(self):
        return self._pass_traces()[0]

    def backward_scan_trace(self):
        return self._pass_traces()[1]

    def weight_update_trace(self):
        return self._pass_traces()[2]


class CsrStore(_FcStore):
    """Pointer-based compressed sparse row storage.

    Column indices are strictly increasing within a row. Reverse access has
    no transpose table and scans the whole structure.
    """

    scheme = "PB-CSR"

    def __init__(self, row_ptr, col_idx, weights, n_post, b_w):
        self.n_pre = len(row_ptr) - 1
        self.n_post = n_post
        self.b_w = b_w
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.weights = weights
        self.ptr_bank, self.idx_bank, self.weight_bank = self.banks()

    @property
    def nnz(self):
        return len(self.col_idx)

    def to_dense(self):
        dense = np.zeros((self.n_pre, self.n_post))
        for i in range(self.n_pre):
            lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
            dense[i, self.col_idx[lo:hi]] = self.weights[lo:hi]
        return dense

    def forward_lookup(self, pre_id):
        if not 0 <= pre_id < self.n_pre:
            raise IndexError(f"pre_id {pre_id} out of range [0, {self.n_pre})")
        lo, hi = int(self.row_ptr[pre_id]), int(self.row_ptr[pre_id + 1])
        t = AccessTrace()
        t.read(self.ptr_bank, 2)
        t.read(self.idx_bank, hi - lo)
        t.read(self.weight_bank, hi - lo)
        return list(zip(self.col_idx[lo:hi].tolist(), self.weights[lo:hi].tolist())), t

    def reverse_lookup(self, post_id):
        if not 0 <= post_id < self.n_post:
            raise IndexError(f"post_id {post_id} out of range [0, {self.n_post})")
        t = AccessTrace()
        t.read(self.ptr_bank, self.n_pre + 1)
        t.read(self.idx_bank, self.nnz)
        hits = np.nonzero(self.col_idx == post_id)[0]
        t.read(self.weight_bank, len(hits))
        rows = np.searchsorted(self.row_ptr, hits, side="right") - 1
        return list(zip(rows.tolist(), self.weights[hits].tolist())), t

    def _locate(self, pre_id, post_id, t):
        """Find the weight slot of (pre_id, post_id), charging the scan reads."""
        lo, hi = int(self.row_ptr[pre_id]), int(self.row_ptr[pre_id + 1])
        t.read(self.ptr_bank, 2)
        row_cols = self.col_idx[lo:hi]
        pos = int(np.searchsorted(row_cols, post_id))
        # sequential compare hardware: reads up to and including the hit
        if pos == len(row_cols) or row_cols[pos] != post_id:
            t.read(self.idx_bank, len(row_cols))
            raise KeyError(f"synapse ({pre_id}, {post_id}) not present")
        t.read(self.idx_bank, pos + 1)
        return lo + pos

    def write_weight(self, pre_id, post_id, value, batched=False):
        if not (0 <= pre_id < self.n_pre and 0 <= post_id < self.n_post):
            raise IndexError(f"synapse ({pre_id}, {post_id}) out of range")
        t = AccessTrace()
        if batched:
            lo, hi = int(self.row_ptr[pre_id]), int(self.row_ptr[pre_id + 1])
            row_cols = self.col_idx[lo:hi]
            pos = int(np.searchsorted(row_cols, post_id))
            if pos == len(row_cols) or row_cols[pos] != post_id:
                raise KeyError(f"synapse ({pre_id}, {post_id}) not present")
            slot = lo + pos
        else:
            slot = self._locate(pre_id, post_id, t)
        self.weights[slot] = quantize_for_store(value, self.b_w)
        t.write(self.weight_bank)
        return t

    def forward_pass_trace(self):
        return self._pass_traces()[0]

    def backward_scan_trace(self):
        return self._pass_traces()[1]

    def weight_update_trace(self):
        return self._pass_traces()[2]


class BitmapStore(_FcStore):
    """Pointer-based bitmap storage.

    Each row owns a presence bitmap of ceil(n_post / w_word) words plus a
    base pointer into a packed weight memory; the weight of (i, j) sits at
    row_ptr[i] + rank(i, j) where rank counts set bits before column j.
    Rank hardware reads every bitmap word up to and including j's word.
    """

    scheme = "PB-BMP"

    def __init__(self, row_ptr, bitmap, weights, n_post, b_w, w_word):
        self.n_pre = len(row_ptr)
        self.n_post = n_post
        self.b_w = b_w
        self.w_word = w_word
        self.row_ptr = row_ptr
        self.bitmap = bitmap            # (n_pre, words_per_row) uint64, w_word used bits
        self.weights = weights
        self.words_per_row = bitmap.shape[1]
        self.ptr_bank, self.bitmap_bank, self.weight_bank = self.banks()

    @property
    def nnz(self):
        return len(self.weights)

    def _row_cols(self, pre_id):
        words = self.bitmap[pre_id]
        bits = (words[:, None] >> np.arange(self.w_word, dtype=np.uint64)) & np.uint64(1)
        cols = np.nonzero(bits.reshape(-1))[0]
        return cols[cols < self.n_post]

    def to_dense(self):
        dense = np.zeros((self.n_pre, self.n_post))
        for i in range(self.n_pre):
            cols = self._row_cols(i)
            base = int(self.row_ptr[i])
            dense[i, cols] = self.weights[base:base + len(cols)]
        return dense

    def forward_lookup(self, pre_id):
        if not 0 <= pre_id < self.n_pre:
            raise IndexError(f"pre_id {pre_id} out of range [0, {self.n_pre})")
        t = AccessTrace()
        t.read(self.ptr_bank)
        t.read(self.bitmap_bank, self.words_per_row)
        cols = self._row_cols(pre_id)
        t.read(self.weight_bank, len(cols))
        base = int(self.row_ptr[pre_id])
        return list(zip(cols.tolist(), self.weights[base:base + len(cols)].tolist())), t

    def _rank(self, pre_id, post_id):
        """Set bits of row pre_id strictly before column post_id."""
        word, bit = divmod(post_id, self.w_word)
        row = self.bitmap[pre_id]
        below = int(np.bitwise_count(row[:word]).sum()) if word else 0
        partial = int(row[word]) & ((1 << bit) - 1)
        return below + partial.bit_count()

    def reverse_lookup(self, post_id):
        if not 0 <= post_id < self.n_post:
            raise IndexError(f"post_id {post_id} out of range [0, {self.n_post})")
        word, bit = divmod(post_id, self.w_word)
        t = AccessTrace()
        t.read(self.ptr_bank, self.n_pre)
        t.read(self.bitmap_bank, self.n_pre * (word + 1))
        masked = self.bitmap[:, :word + 1].copy()
        masked[:, word] &= np.uint64((1 << bit) - 1)
        ranks = np.bitwise_count(masked).sum(axis=1).astype(np.int64)
        present = (self.bitmap[:, word] >> np.uint64(bit)) & np.uint64(1)
        rows = np.nonzero(present)[0]
        t.read(self.weight_bank, len(rows))
        weights = self.weights[self.row_ptr[rows] + ranks[rows]]
        return list(zip(rows.tolist(), weights.tolist())), t

    def write_weight(self, pre_id, post_id, value, batched=False):
        if not (0 <= pre_id < self.n_pre and 0 <= post_id < self.n_post):
            raise IndexError(f"synapse ({pre_id}, {post_id}) out of range")
        word, bit = divmod(post_id, self.w_word)
        t = AccessTrace()
        if not batched:
            t.read(self.ptr_bank)
            t.read(self.bitmap_bank, word + 1)
        if not (int(self.bitmap[pre_id, word]) >> bit) & 1:
            raise KeyError(f"synapse ({pre_id}, {post_id}) not present")
        slot = int(self.row_ptr[pre_id]) + self._rank(pre_id, post_id)
        self.weights[slot] = quantize_for_store(value, self.b_w)
        t.write(self.weight_bank)
        return t

    def forward_pass_trace(self):
        return self._pass_traces()[0]

    def backward_scan_trace(self):
        return self._pass_traces()[1]

    def weight_update_trace(self):
        return self._pass_traces()[2]


def build_crossbar(m: SynapseMatrix, b_w):
    if b_w < 1:
        raise ValueError(f"b_w must be >= 1, got {b_w}")
    weights = np.where(m.mask, quantize_for_store(m.weights, b_w), 0.0)
    return CrossbarStore(weights, m.mask.copy(), b_w)


def build_csr(m: SynapseMatrix, b_w):
    if b_w < 1:
        raise ValueError(f"b_w must be >= 1, got {b_w}")
    counts = m.mask.sum(axis=1)
    row_ptr = np.zeros(m.n_pre + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    rows, cols = np.nonzero(m.mask)      # row-major: cols ascending per row
    weights = quantize_for_store(m.weights[rows, cols], b_w)
    return CsrStore(row_ptr, cols.astype(np.int64), weights, m.n_post, b_w)


def build_bitmap(m: SynapseMatrix, b_w, w_word=32):
    if b_w < 1:
        raise ValueError(f"b_w must be >= 1, got {b_w}")
    if not 1 <= w_word <= 64:
        raise ValueError(f"w_word must be in [1, 64], got {w_word}")
    words_per_row = -(-m.n_post // w_word)
    bitmap = np.zeros((m.n_pre, words_per_row), dtype=np.uint64)
    rows, cols = np.nonzero(m.mask)
    np.bitwise_or.at(bitmap, (rows, cols // w_word),
                     np.uint64(1) << (cols % w_word).astype(np.uint64))
    counts = m.mask.sum(axis=1)
    row_ptr = np.zeros(m.n_pre, dtype=np.int64)
    np.cumsum(counts[:-1], out=row_ptr[1:])
    weights = quantize_for_store(m.weights[rows, cols], b_w)
    return BitmapStore(row_ptr, bitmap, weights, m.n_post, b_w, w_word)
