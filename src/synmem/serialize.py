"""Binary container for encoded stores.

Container layout (all little-endian):

    magic      4s   b"SYNM"
    version    u16  currently 1
    scheme     u8   1=CB  2=PB-CSR  3=PB-BMP  4=FUNC
    geometry header, scheme-specific:
        CB     u32 n_pre, u32 n_post, u16 b_w
        CSR    u32 n_pre, u32 n_post, u16 b_w, u64 nnz
        BMP    u32 n_pre, u32 n_post, u16 b_w, u16 w_word, u64 nnz
        FUNC   u32 in_h, u32 in_w, u16 k_h, u16 k_w, u32 c_in, u32 c_out, u16 b_w
    bank count u8, then per bank:
        u8 name length, name (ascii), u64 n_words, u16 word_bits,
        n_words words of ceil(word_bits/8) bytes each, little-endian.

The banks and their order are the store's layout table (`stores.fc_banks`,
`conv.functional_banks`), for the encoder and the decoder alike.
Weight-bank words are signed two's-complement multiples of the grid step
2**(1 - b_w), inside the weight range (-1 + step, 1 - step), so at one bit
the only code is 0; index banks (pointers, column indices, bitmaps) are
unsigned. Zero-width banks (an empty structure needs zero-bit pointers)
carry no payload bytes. A crossbar records only weight words, so a reloaded
crossbar treats nonzero words as the connectivity.

`from_bytes` is the checked boundary: it raises `ContainerError` (a
`ValueError`) carrying the byte offset of the fault when a header or bank
is cut short, when bytes trail the last bank, when the bank count, names,
order, word widths or word counts differ from the layout the header implies,
when the geometry or a word width in the header is invalid, when a word has
bits set above its width or a weight code lies outside the weight range,
when PB-CSR pointers do not run monotonically from 0 to nnz or column
indices are not below n_post and strictly increasing within each row, and
when a PB-BMP bitmap has bits set beyond n_post, a popcount other than nnz,
or row pointers other than the exclusive sum of its row popcounts. A store
it returns carries the array dtypes the builders produce. `to_bytes` raises
OverflowError for a word that does not fit its bank instead of wrapping it.
"""

import struct

import numpy as np

from .conv import ConvGeometry, FunctionalStore, functional_banks
from .quant import sigma
from .stores import (BitmapStore, CrossbarStore, CsrStore, bitmap_words, fc_banks,
                     row_starts)

MAGIC = b"SYNM"
VERSION = 1
_SCHEME_TAGS = {"CB": 1, "PB-CSR": 2, "PB-BMP": 3, "FUNC": 4}


class ContainerError(ValueError):
    """A malformed store container; `offset` is the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _word_range(word_bits, signed):
    """Smallest and largest word value a bank holds.

    Signed banks hold weight codes, whose range (-1 + step, 1 - step) in
    grid steps is symmetric and excludes the most negative word.
    """
    if signed:
        hi = (1 << (word_bits - 1)) - 1
        return -hi, hi
    return 0, (1 << word_bits) - 1


def _pack_words(values, word_bits, signed):
    if word_bits > 64:
        raise OverflowError(f"{word_bits}-bit words are wider than 64 bits")
    values = np.asarray(values)
    lo, hi = _word_range(word_bits, signed)
    if values.size and not lo <= int(values.min()) <= int(values.max()) <= hi:
        raise OverflowError(f"word values outside [{lo}, {hi}] of a "
                            f"{word_bits}-bit {'signed' if signed else 'unsigned'} bank")
    if word_bits == 0 or values.size == 0:
        return b""
    words = values.astype(np.int64)     # uint64 bitmap words keep their bits
    if word_bits < 64:
        words &= (1 << word_bits) - 1   # two's complement within the word
    nbytes = -(-word_bits // 8)
    return words.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :nbytes].tobytes()


def _signed(bank):
    return bank.kind == "weight"


def _bank_blob(bank, values):
    head = struct.pack("<B", len(bank.name)) + bank.name.encode("ascii")
    head += struct.pack("<QH", len(values), bank.word_bits)
    return head + _pack_words(values, bank.word_bits, _signed(bank))


def to_bytes(store):
    tag = _SCHEME_TAGS[store.scheme]
    head = struct.pack("<4sHB", MAGIC, VERSION, tag)
    if isinstance(store, CrossbarStore):
        head += struct.pack("<IIH", store.n_pre, store.n_post, store.b_w)
        words = [store.weights]
    elif isinstance(store, CsrStore):
        head += struct.pack("<IIHQ", store.n_pre, store.n_post, store.b_w, store.nnz)
        words = [store.row_ptr, store.col_idx, store.weights]
    elif isinstance(store, BitmapStore):
        head += struct.pack("<IIHHQ", store.n_pre, store.n_post, store.b_w,
                            store.w_word, store.nnz)
        words = [store.row_ptr, store.bitmap, store.weights]
    elif isinstance(store, FunctionalStore):
        g = store.geometry
        head += struct.pack("<IIHHIIH", g.in_h, g.in_w, g.k_h, g.k_w,
                            g.c_in, g.c_out, store.b_w)
        words = [store.kernel]
    else:
        raise TypeError(f"unknown store type {type(store).__name__}")
    *index, weights = [np.asarray(w).reshape(-1) for w in words]
    codes = np.round(weights / sigma(store.b_w)).astype(np.int64)
    banks = [_bank_blob(bank, values)
             for bank, values in zip(store.banks(), [*index, codes])]
    return head + struct.pack("<B", len(banks)) + b"".join(banks)


class _Reader:
    """Cursor over a container that checks every read against its length."""

    def __init__(self, buf):
        self.buf = buf
        self.offset = 0
        self.payload = {}       # bank name -> (payload offset, bytes per word)

    def take(self, size, what):
        start = self.offset
        if size > len(self.buf) - start:
            raise ContainerError(f"{what} cut short: needs {size} bytes, "
                                 f"{len(self.buf) - start} remain", start)
        self.offset += size
        return start

    def unpack(self, fmt, what):
        return struct.unpack_from(fmt, self.buf, self.take(struct.calcsize(fmt), what))

    def banks(self, layout):
        """Read the bank count and banks, which must match `layout`.

        layout is the store's ordered MemBanks from its layout table; returns
        the decoded words by name, int64 codes for the weight bank and uint64
        words for index banks.
        """
        at = self.offset
        (count,) = self.unpack("<B", "bank count")
        if count != len(layout):
            raise ContainerError(f"{count} banks, the header implies {len(layout)}", at)
        return {bank.name: self._bank(bank) for bank in layout}

    def _bank(self, bank):
        name, n_words, word_bits, signed = (bank.name, bank.n_words, bank.word_bits,
                                            _signed(bank))
        at = self.offset
        (name_len,) = self.unpack("<B", f"bank {name!r} header")
        got = bytes(self.buf[self.take(name_len, f"bank {name!r} name"):self.offset])
        if got != name.encode("ascii"):
            raise ContainerError(f"bank {got!r} where the layout has {name!r}", at)
        at = self.offset
        got_words, got_bits = self.unpack("<QH", f"bank {name!r} header")
        if (got_words, got_bits) != (n_words, word_bits):
            raise ContainerError(
                f"bank {name!r} holds {got_words} words of {got_bits} bits, the "
                f"header implies {n_words} words of {word_bits} bits", at)
        nbytes = -(-word_bits // 8)
        start = self.take(n_words * nbytes, f"bank {name!r} payload")
        self.payload[name] = (start, nbytes)
        if word_bits == 0:
            return np.zeros(n_words, dtype=np.int64 if signed else np.uint64)
        padded = np.zeros((n_words, 8), dtype=np.uint8)
        padded[:, :nbytes] = np.frombuffer(self.buf, np.uint8, n_words * nbytes,
                                           start).reshape(n_words, nbytes)
        words = padded.view("<u8").reshape(-1).astype(np.uint64)
        if word_bits < 64:
            self.reject(name, words >> np.uint64(word_bits) != 0,
                        f"bits set above the {word_bits}-bit word")
        if not signed:
            return words
        shift = 64 - word_bits
        codes = (words.astype(np.int64) << shift) >> shift
        lo, hi = _word_range(word_bits, True)
        self.reject(name, codes < lo, f"weight code outside [{lo}, {hi}]")
        return codes

    def fault(self, name, k, what):
        start, nbytes = self.payload[name]
        raise ContainerError(f"bank {name!r} word {k}: {what}", start + k * nbytes)

    def reject(self, name, bad, what):
        """Raise at the first word of bank `name` flagged in `bad`."""
        if bad.any():
            self.fault(name, int(np.argmax(bad)), what)

    def end(self):
        if self.offset != len(self.buf):
            raise ContainerError(
                f"{len(self.buf) - self.offset} bytes trail the last bank", self.offset)


def _check_csr(r, row_ptr, col_idx, n_post, nnz):
    if row_ptr[0] != 0:
        r.fault("row_ptr", 0, "row_ptr does not start at 0")
    r.reject("row_ptr", np.diff(row_ptr, prepend=0) < 0, "row_ptr decreases")
    if row_ptr[-1] != nnz:
        r.fault("row_ptr", len(row_ptr) - 1, f"row_ptr does not end at nnz {nnz}")
    r.reject("col_idx", col_idx >= n_post, f"column index >= n_post {n_post}")
    row_start = np.zeros(nnz + 1, dtype=bool)
    row_start[row_ptr] = True
    r.reject("col_idx", (np.diff(col_idx, prepend=-1) <= 0) & ~row_start[:nnz],
             "column indices not strictly increasing within the row")


def _check_bitmap(r, row_ptr, bitmap, n_post, w_word, nnz, nnz_at):
    words_per_row = bitmap.shape[1]
    used = n_post - (words_per_row - 1) * w_word    # bits of a row's last word
    if words_per_row and used < w_word:
        stray = np.zeros(bitmap.shape, dtype=bool)
        stray[:, -1] = bitmap[:, -1] >> np.uint64(used) != 0
        r.reject("bitmap", stray.reshape(-1), f"bits set beyond n_post {n_post}")
    counts = np.bitwise_count(bitmap).sum(axis=1, dtype=np.int64)
    if counts.sum() != nnz:
        raise ContainerError(f"bitmap holds {counts.sum()} set bits, the header's "
                             f"nnz is {nnz}", nnz_at)
    r.reject("row_ptr", row_ptr != row_starts(counts)[:-1],
             "row_ptr is not the exclusive sum of the row popcounts")


def _check_b_w(b_w, at):
    if not 1 <= b_w <= 64:
        raise ContainerError(f"b_w must be in [1, 64], got {b_w}", at)


def from_bytes(buf):
    """Decode a container written by `to_bytes`; malformed input raises ContainerError."""
    r = _Reader(buf)
    magic, version, tag = r.unpack("<4sHB", "preamble")
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}", 4)
    head = r.offset
    if tag == 1:
        n_pre, n_post, b_w = r.unpack("<IIH", "CB header")
        _check_b_w(b_w, head + 8)
        banks = r.banks(fc_banks("CB", n_pre, n_post, 0, b_w))   # nnz does not shape CB
        r.end()
        weights = banks["weight"].reshape(n_pre, n_post) * sigma(b_w)
        return CrossbarStore(weights, weights != 0.0, b_w)
    if tag == 2:
        n_pre, n_post, b_w, nnz = r.unpack("<IIHQ", "PB-CSR header")
        _check_b_w(b_w, head + 8)
        banks = r.banks(fc_banks("PB-CSR", n_pre, n_post, nnz, b_w))
        r.end()
        row_ptr = banks["row_ptr"].astype(np.int64)
        col_idx = banks["col_idx"].astype(np.int64)
        _check_csr(r, row_ptr, col_idx, n_post, nnz)
        return CsrStore(row_ptr, col_idx, banks["weight"] * sigma(b_w), n_post, b_w)
    if tag == 3:
        n_pre, n_post, b_w, w_word, nnz = r.unpack("<IIHHQ", "PB-BMP header")
        _check_b_w(b_w, head + 8)
        if not 1 <= w_word <= 64:
            raise ContainerError(f"w_word must be in [1, 64], got {w_word}", head + 10)
        banks = r.banks(fc_banks("PB-BMP", n_pre, n_post, nnz, b_w, w_word))
        r.end()
        row_ptr = banks["row_ptr"].astype(np.int64)
        bitmap = banks["bitmap"].reshape(n_pre, bitmap_words(n_post, w_word))
        _check_bitmap(r, row_ptr, bitmap, n_post, w_word, nnz, head + 12)
        return BitmapStore(row_ptr, bitmap, banks["weight"] * sigma(b_w),
                           n_post, b_w, w_word)
    if tag == 4:
        in_h, in_w, k_h, k_w, c_in, c_out, b_w = r.unpack("<IIHHIIH", "FUNC header")
        try:
            g = ConvGeometry(in_h, in_w, k_h, k_w, c_in, c_out)
        except ValueError as e:
            raise ContainerError(f"invalid geometry: {e}", head) from e
        _check_b_w(b_w, head + 20)
        banks = r.banks(functional_banks(g, b_w))
        r.end()
        kernel = banks["weight"].reshape(c_in, c_out, k_h, k_w) * sigma(b_w)
        return FunctionalStore(g, kernel, b_w)
    raise ContainerError(f"unknown scheme tag {tag}", 6)

