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
        b_w lies in [1, 53] (float64's significand), w_word in [1, 64]
    bank count u8, then per bank:
        u8 name length, name (ascii), u64 n_words, u16 word_bits,
        n_words words of ceil(word_bits/8) bytes each, little-endian.

`_FORMATS` is the format's one statement, read by the encoder and the decoder
alike; the listing above is for readers. The banks' sizes and widths are the
store's layout table (`stores.fc_banks`, `conv.functional_banks`).
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
OverflowError for an out-of-bounds width or a word too wide for its bank.
"""

import struct
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .conv import ConvGeometry, FunctionalStore, functional_banks
from .quant import sigma
from .stores import (BitmapStore, CrossbarStore, CsrStore, bitmap_words, fc_banks,
                     row_starts)

MAGIC = b"SYNM"
VERSION = 1


class _Format(NamedTuple):
    tag: int
    header: str         # struct format of the header, one code per field
    fields: tuple       # store attributes the header holds, in order
    arrays: tuple       # store arrays the banks hold, in layout order


_FORMATS = {
    "CB": _Format(1, "<IIH", ("n_pre", "n_post", "b_w"), ("weights",)),
    "PB-CSR": _Format(2, "<IIHQ", ("n_pre", "n_post", "b_w", "nnz"),
                      ("row_ptr", "col_idx", "weights")),
    "PB-BMP": _Format(3, "<IIHHQ", ("n_pre", "n_post", "b_w", "w_word", "nnz"),
                      ("row_ptr", "bitmap", "weights")),
    "FUNC": _Format(4, "<IIHHIIH", ("geometry.in_h", "geometry.in_w", "geometry.k_h",
                                    "geometry.k_w", "geometry.c_in", "geometry.c_out",
                                    "b_w"), ("kernel",)),
}
_WIDTHS = {"b_w": 53, "w_word": 64}     # widest value of each header width field


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


def _bank_blob(bank, values):
    head = struct.pack("<B", len(bank.name)) + bank.name.encode("ascii")
    head += struct.pack("<QH", len(values), bank.word_bits)
    return head + _pack_words(values, bank.word_bits, bank.kind == "weight")


def _check_widths(header, error):
    """Raise error(message, name) for the first width field outside [1, its widest]."""
    for name, top in _WIDTHS.items():
        if name in header and not 1 <= header[name] <= top:
            raise error(f"{name} must be in [1, {top}], got {header[name]}", name)


def to_bytes(store):
    if (fmt := _FORMATS.get(getattr(store, "scheme", None))) is None:
        raise TypeError(f"unknown store type {type(store).__name__}")
    values = attrgetter(*fmt.fields)(store)
    _check_widths(dict(zip(fmt.fields, values)), lambda msg, _: OverflowError(msg))
    head = struct.pack("<4sHB", MAGIC, VERSION, fmt.tag) + struct.pack(fmt.header, *values)
    *index, weights = [np.asarray(getattr(store, a)).reshape(-1) for a in fmt.arrays]
    codes = np.round(weights / sigma(store.b_w)).astype(np.int64)
    banks = [_bank_blob(b, words) for b, words in zip(store.banks(), [*index, codes])]
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
                                            bank.kind == "weight")
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


def from_bytes(buf):
    """Decode a container written by `to_bytes`; malformed input raises ContainerError."""
    r = _Reader(buf)
    magic, version, tag = r.unpack("<4sHB", "preamble")
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}", 4)
    scheme = next((name for name, f in _FORMATS.items() if f.tag == tag), None)
    if scheme is None:
        raise ContainerError(f"unknown scheme tag {tag}", 6)
    fmt = _FORMATS[scheme]
    at = {f: r.offset + struct.calcsize(fmt.header[:k + 1])    # each field's byte offset
          for k, f in enumerate(fmt.fields)}
    h = dict(zip(fmt.fields, r.unpack(fmt.header, f"{scheme} header")))
    if scheme == "FUNC":
        try:
            g = ConvGeometry(*list(h.values())[:-1])    # the geometry leads the header
        except ValueError as e:
            raise ContainerError(f"invalid geometry: {e}", at["geometry.in_h"]) from e
    _check_widths(h, lambda msg, name: ContainerError(msg, at[name]))
    b_w = h["b_w"]
    banks = r.banks(functional_banks(g, b_w) if scheme == "FUNC" else
                    fc_banks(scheme, **{"nnz": 0, **h}))    # nnz does not shape CB
    r.end()
    weights = banks["weight"] * sigma(b_w)
    if scheme == "CB":
        weights = weights.reshape(h["n_pre"], h["n_post"])
        return CrossbarStore(weights, weights != 0.0, b_w)
    if scheme == "FUNC":
        return FunctionalStore(g, weights.reshape(g.c_in, g.c_out, g.k_h, g.k_w), b_w)
    row_ptr = banks["row_ptr"].astype(np.int64)
    if scheme == "PB-CSR":
        col_idx = banks["col_idx"].astype(np.int64)
        _check_csr(r, row_ptr, col_idx, h["n_post"], h["nnz"])
        return CsrStore(row_ptr, col_idx, weights, h["n_post"], b_w)
    bitmap = banks["bitmap"].reshape(h["n_pre"], bitmap_words(h["n_post"], h["w_word"]))
    _check_bitmap(r, row_ptr, bitmap, h["n_post"], h["w_word"], h["nnz"], at["nnz"])
    return BitmapStore(row_ptr, bitmap, weights, h["n_post"], b_w, h["w_word"])
