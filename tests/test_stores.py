"""Store construction, lookups against the dense oracle, trace contracts,
storage closed forms and the binary container."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synmem
from synmem.conv import ConvGeometry, build_functional
from synmem.matrix import SynapseMatrix, random_synapse_matrix
from synmem.quant import quantize_weights, sigma
from synmem.rng import CounterRng
from synmem.serialize import ContainerError, from_bytes, to_bytes
from synmem.stores import (BitmapStore, CrossbarStore, CsrStore, build_bitmap,
                            build_crossbar, build_csr, ceil_log2, fc_pass_traces)
from synmem.trace import AccessTrace

from reference_stores import (forward_row, indirection_reads, reverse_col,
                              weight_reads, weight_writes)

ALL_BUILDERS = [build_crossbar, build_csr, build_bitmap]


def quantized_oracle(m, b_w):
    return SynapseMatrix(np.where(m.mask, quantize_weights(m.weights, b_w), 0.0),
                         m.mask)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_lookups_match_dense_oracle(self, seed):
        rng = CounterRng(seed)
        n_pre = 1 + rng.randint(32)
        n_post = 1 + rng.randint(32)
        density = rng.uniform()
        m = random_synapse_matrix(n_pre, n_post, density, rng)
        oracle = quantized_oracle(m, 8)
        for build in ALL_BUILDERS:
            s = build(m, 8)
            for i in range(n_pre):
                got, _ = s.forward_lookup(i)
                assert got == forward_row(oracle, i), (s.scheme, "fwd", i)
            for j in range(n_post):
                got, _ = s.reverse_lookup(j)
                assert got == reverse_col(oracle, j), (s.scheme, "rev", j)

    def test_present_synapse_quantized_to_zero_is_still_reported(self):
        # |w| below half a grid step snaps to 0 but stays a synapse
        m = SynapseMatrix(np.array([[0.001, 0.9], [0.0, 0.4]]),
                          np.array([[True, True], [False, True]]))
        for build in ALL_BUILDERS:
            s = build(m, 8)
            got, _ = s.forward_lookup(0)
            assert got[0] == (0, 0.0)
            assert len(got) == 2

    def test_empty_mask(self):
        m = SynapseMatrix(np.zeros((4, 6)), np.zeros((4, 6), dtype=bool))
        csr = build_csr(m, 4)
        assert csr.nnz == 0
        assert np.array_equal(csr.row_ptr, np.zeros(5, dtype=np.int64))
        assert csr.forward_lookup(2)[0] == []
        cb = build_crossbar(m, 4)
        assert np.count_nonzero(cb.weights) == 0

    @pytest.mark.parametrize("scheme", ["CB", "PB-CSR", "PB-BMP", "FUNC"])
    def test_index_errors(self, scheme):
        if scheme == "FUNC":
            g = ConvGeometry(2, 3, 3, 1, 2, 4)
            s = build_functional(g, np.zeros((2, 4, 3, 1)), 8)
        else:
            m = random_synapse_matrix(5, 7, 0.5, CounterRng(0))
            s = {"CB": build_crossbar, "PB-CSR": build_csr,
                 "PB-BMP": build_bitmap}[scheme](m, 8)
        cases = [("pre_id", s.n_pre, s.forward_lookup),
                 ("pre_id", s.n_pre, lambda i: s.write_weight(i, 0, 0.1)),
                 ("post_id", s.n_post, s.reverse_lookup),
                 ("post_id", s.n_post, lambda i: s.write_weight(0, i, 0.1))]
        for kind, n, call in cases:
            for bad in (-1, n):
                with pytest.raises(IndexError,
                                   match=rf"^{kind} {bad} out of range \[0, {n}\)$"):
                    call(bad)

    @pytest.mark.parametrize("w_word", [1, 7, 64])
    @pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
    def test_to_dense_is_the_quantized_oracle(self, density, w_word):
        m = random_synapse_matrix(9, 67, density, CounterRng(24))
        want = quantized_oracle(m, 8).weights
        for s in (build_csr(m, 8), build_bitmap(m, 8, w_word)):
            got = s.to_dense()
            assert (got.dtype, got.shape) == (want.dtype, want.shape), s.scheme
            assert got.tobytes() == want.tobytes(), s.scheme

    @pytest.mark.parametrize("w_word", [1, 7, 32, 64])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.75, 1.0])
    def test_bitmap_words_match_per_bit_or(self, density, w_word):
        # 67 columns: no width above 1 divides them, so the last word is partial
        m = random_synapse_matrix(9, 67, density, CounterRng(31))
        want = np.zeros((9, -(-67 // w_word)), dtype=np.uint64)
        rows, cols = np.nonzero(m.mask)
        np.bitwise_or.at(want, (rows, cols // w_word),
                         np.uint64(1) << (cols % w_word).astype(np.uint64))
        got = build_bitmap(m, 8, w_word).bitmap
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTraceContracts:
    def test_crossbar_forward_reads_full_row(self):
        m = random_synapse_matrix(16, 128, 0.1, CounterRng(1))
        s = build_crossbar(m, 8)
        _, t = s.forward_lookup(3)
        assert weight_reads(t) == 128
        assert indirection_reads(t) == 0

    def test_crossbar_reverse_reads_full_column(self):
        m = random_synapse_matrix(728, 128, 0.3, CounterRng(2))
        s = build_crossbar(m, 8)
        _, t = s.reverse_lookup(10)
        assert weight_reads(t) == 728
        assert indirection_reads(t) == 0

    def test_csr_forward_trace(self):
        # row with exactly 3 nonzeros: 2 ptr + 3 idx + 3 weight reads
        mask = np.zeros((4, 8), dtype=bool)
        mask[1, [0, 3, 7]] = True
        m = SynapseMatrix(np.where(mask, 0.5, 0.0), mask)
        s = build_csr(m, 8)
        _, t = s.forward_lookup(1)
        reads = {b.name: r for b, r, _ in t.banks()}
        assert reads == {"row_ptr": 2, "col_idx": 3, "weight": 3}

    def test_csr_reverse_is_full_scan(self):
        m = SynapseMatrix(np.eye(8), np.eye(8, dtype=bool))
        s = build_csr(m, 8)
        _, t = s.reverse_lookup(3)
        reads = {b.name: r for b, r, _ in t.banks()}
        assert reads == {"row_ptr": 9, "col_idx": 8, "weight": 1}

    def test_bitmap_forward_trace(self):
        mask = np.zeros((2, 128), dtype=bool)
        mask[0, [0, 31, 64, 100, 127]] = True
        m = SynapseMatrix(np.where(mask, 0.25, 0.0), mask)
        s = build_bitmap(m, 8, w_word=32)
        _, t = s.forward_lookup(0)
        reads = {b.name: r for b, r, _ in t.banks()}
        assert reads == {"row_ptr": 1, "bitmap": 4, "weight": 5}

    def test_bitmap_reverse_rank_words(self):
        # column 70 lives in word 2 of 32-bit words: 3 words read per row
        m = random_synapse_matrix(6, 128, 0.5, CounterRng(3))
        s = build_bitmap(m, 8, w_word=32)
        matches, t = s.reverse_lookup(70)
        reads = {b.name: r for b, r, _ in t.banks()}
        assert reads["row_ptr"] == 6
        assert reads["bitmap"] == 6 * 3
        assert reads["weight"] == len(matches)

    def test_bitmap_rank_example(self):
        mask = np.zeros((1, 32), dtype=bool)
        mask[0, [0, 31]] = True
        m = SynapseMatrix(np.where(mask, 0.5, 0.0), mask)
        s = build_bitmap(m, 8)
        assert s.nnz == 2
        assert s._rank(0, 31) == 1

    def test_write_traces(self):
        m = random_synapse_matrix(8, 64, 0.4, CounterRng(4))
        present = [(i, j) for i in range(8) for j in range(64) if m.mask[i, j]]
        i, j = present[5]
        cb = build_crossbar(m, 8)
        t = cb.write_weight(i, j, 0.25)
        assert weight_writes(t) == 1 and indirection_reads(t) == 0
        bmp = build_bitmap(m, 8, w_word=32)
        t = bmp.write_weight(i, j, 0.25)
        reads = {b.name: r for b, r, _ in t.banks()}
        assert reads["row_ptr"] == 1
        assert reads["bitmap"] == j // 32 + 1
        assert weight_writes(t) == 1
        got, _ = bmp.forward_lookup(i)
        assert (j, 0.25) in got

    def test_csr_write_scan_cost(self):
        mask = np.zeros((2, 16), dtype=bool)
        mask[0, [2, 5, 9, 14]] = True
        m = SynapseMatrix(np.where(mask, 0.5, 0.0), mask)
        s = build_csr(m, 8)
        t = s.write_weight(0, 9, -0.5)
        reads = {b.name: r for b, r, _ in t.banks() if r}
        assert reads == {"row_ptr": 2, "col_idx": 3}   # scan stops at the hit
        assert weight_writes(t) == 1
        assert s.forward_lookup(0)[0][2] == (9, -0.5)

    def test_column_writes_each_search_less_than_a_scan(self):
        # writing a whole column: each write searches only its own row
        m = random_synapse_matrix(12, 12, 0.6, CounterRng(5))
        s = build_csr(m, 8)
        matches, scan = s.reverse_lookup(4)
        writes = AccessTrace()
        for i, _ in matches:
            writes += s.write_weight(i, 4, 0.125)
        assert weight_writes(writes) == len(matches)
        assert indirection_reads(writes) < indirection_reads(scan) * len(matches)

    def test_writes_to_absent_synapses(self):
        m = random_synapse_matrix(6, 6, 0.3, CounterRng(6))
        absent = [(i, j) for i in range(6) for j in range(6) if not m.mask[i, j]]
        i, j = absent[0]
        for build in (build_csr, build_bitmap):
            with pytest.raises(KeyError):
                build(m, 8).write_weight(i, j, 0.5)
        cb = build_crossbar(m, 8)
        cb.write_weight(i, j, 0.5)     # crossbar has the dense slot
        assert (j, 0.5) in cb.forward_lookup(i)[0]

    def test_trace_determinism(self):
        m = random_synapse_matrix(10, 20, 0.5, CounterRng(7))
        for build in ALL_BUILDERS:
            a = build(m, 8).forward_lookup(4)[1]
            b = build(m, 8).forward_lookup(4)[1]
            assert a == b


class TestPassTraces:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_forward_pass_is_sum_of_lookups(self, build):
        m = random_synapse_matrix(14, 37, 0.35, CounterRng(8))
        s = build(m, 6)
        total = AccessTrace()
        for i in range(m.n_pre):
            total += s.forward_lookup(i)[1]
        assert total == s.forward_pass_trace()

    def test_crossbar_backward_scan_is_sum_of_reverse_lookups(self):
        m = random_synapse_matrix(9, 13, 0.5, CounterRng(9))
        s = build_crossbar(m, 8)
        total = AccessTrace()
        for j in range(m.n_post):
            total += s.reverse_lookup(j)[1]
        assert total == s.backward_scan_trace()

    @pytest.mark.parametrize("build", [build_csr, build_bitmap])
    def test_sparse_backward_scan_touches_each_word_once(self, build):
        m = random_synapse_matrix(11, 40, 0.4, CounterRng(10))
        s = build(m, 8)
        scan = s.backward_scan_trace()
        assert weight_reads(scan) == s.nnz
        # the amortized scan is strictly cheaper than per-post scans
        per_post = AccessTrace()
        for j in range(m.n_post):
            per_post += s.reverse_lookup(j)[1]
        assert indirection_reads(scan) < indirection_reads(per_post)
        assert weight_reads(per_post) == s.nnz

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_update_writes_one_per_synapse(self, build):
        m = random_synapse_matrix(13, 17, 0.45, CounterRng(11))
        s = build(m, 8)
        assert weight_writes(s.weight_update_trace()) == m.nnz

    def test_scaled_trace_additivity(self):
        m = random_synapse_matrix(5, 5, 0.6, CounterRng(12))
        s = build_csr(m, 8)
        t = s.forward_pass_trace()
        assert t.scaled(3) == t + t + t

    @pytest.mark.parametrize("seed", range(4))
    def test_count_based_traces_equal_store_traces(self, seed):
        rng = CounterRng(200 + seed)
        n_pre = 1 + rng.randint(48)
        n_post = 1 + rng.randint(48)
        b_w = 2 + rng.randint(7)
        m = random_synapse_matrix(n_pre, n_post, rng.uniform(), rng)
        for scheme, build in (("CB", build_crossbar), ("PB-CSR", build_csr),
                              ("PB-BMP", build_bitmap)):
            s = build(m, b_w)
            fwd, bwd, upd = fc_pass_traces(scheme, n_pre, n_post, m.nnz, b_w)
            assert fwd == s.forward_pass_trace(), scheme
            assert bwd == s.backward_scan_trace(), scheme
            assert upd == s.weight_update_trace(), scheme
        with pytest.raises(ValueError):
            fc_pass_traces("XYZ", 4, 4, 4, 8)


class TestStorageBits:
    def test_crossbar_closed_form(self):
        m = random_synapse_matrix(2, 2, 1.0, CounterRng(13))
        assert sum(build_crossbar(m, 8).storage_bits().values()) == 32
        m = random_synapse_matrix(728, 128, 0.75, CounterRng(14))
        assert sum(build_crossbar(m, 8).storage_bits().values()) == 745_472
        m0 = SynapseMatrix(np.zeros((3, 5)), np.zeros((3, 5), dtype=bool))
        assert sum(build_crossbar(m0, 4).storage_bits().values()) == 3 * 5 * 4

    def test_csr_identity_closed_form(self):
        m = SynapseMatrix(np.eye(4) * 0.5, np.eye(4, dtype=bool))
        s = build_csr(m, 8)
        bits = s.storage_bits()
        assert bits == {"row_ptr": 5 * 3, "col_idx": 4 * 2, "weight": 4 * 8}
        assert sum(bits.values()) == 55

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_forms_random(self, seed):
        rng = CounterRng(100 + seed)
        n_pre = 1 + rng.randint(64)
        n_post = 1 + rng.randint(64)
        m = random_synapse_matrix(n_pre, n_post, rng.uniform(), rng)
        nnz = m.nnz
        b_w = 2 + rng.randint(7)
        p = ceil_log2(nnz + 1)
        c = ceil_log2(n_post)
        csr = build_csr(m, b_w)
        assert sum(csr.storage_bits().values()) == (n_pre + 1) * p + nnz * c + nnz * b_w
        w_word = 32
        wpr = -(-n_post // w_word)
        bmp = build_bitmap(m, b_w, w_word)
        assert sum(bmp.storage_bits().values()) == \
            n_pre * p + n_pre * wpr * w_word + nnz * b_w
        cb = build_crossbar(m, b_w)
        assert sum(cb.storage_bits().values()) == n_pre * n_post * b_w

    def test_one_bit_stores_hold_zero_words(self):
        # the signed grid at one bit is the single point 0
        m = random_synapse_matrix(6, 10, 0.5, CounterRng(20))
        # sha256 of each container in ALL_BUILDERS order, recorded when 1-bit
        # stores had a quantizer of their own
        containers = [
            "5ed07c9d39fd673af187159f42b507e03f22b454392b1b52dc5ef481ed904b50",
            "03f4eae74fac3bc865d9631b3e670caa49e43e61db25fa95b17375f10ab388a9",
            "b4df4e2205a2b354cc57cf7f8f0608a8164a3088e0c7be546c37208577da8b4e"]
        for build, sha256 in zip(ALL_BUILDERS, containers, strict=True):
            s = build(m, 1)
            assert np.count_nonzero(s.to_dense()) == 0
            assert hashlib.sha256(to_bytes(s)).hexdigest() == sha256
        assert sum(build_crossbar(m, 1).storage_bits().values()) == 60

    def test_density_monotonicity(self):
        sizes = []
        for density in (0.1, 0.3, 0.5, 0.8, 1.0):
            m = random_synapse_matrix(32, 32, density, CounterRng(15))
            sizes.append((
                sum(build_csr(m, 8).storage_bits().values()),
                sum(build_bitmap(m, 8).storage_bits().values()),
                sum(build_crossbar(m, 8).storage_bits().values()),
            ))
        csr_bits, bmp_bits, cb_bits = zip(*sizes)
        assert list(csr_bits) == sorted(csr_bits)
        assert list(bmp_bits) == sorted(bmp_bits)
        assert len(set(cb_bits)) == 1


class TestSerialization:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_round_trip_lookups(self, build):
        rng = CounterRng(16)
        m = random_synapse_matrix(9, 21, 0.5, rng, lo=0.1, hi=0.9)
        s = build(m, 8)
        back = from_bytes(to_bytes(s))
        assert back.scheme == s.scheme
        for i in range(9):
            assert back.forward_lookup(i)[0] == s.forward_lookup(i)[0]
        assert back.storage_bits() == s.storage_bits()

    def test_magic_and_version_checked(self):
        m = random_synapse_matrix(3, 3, 0.5, CounterRng(17))
        blob = bytearray(to_bytes(build_csr(m, 8)))
        blob[0] = ord("X")
        with pytest.raises(ValueError):
            from_bytes(bytes(blob))

    def test_round_trip_reverse_lookups(self):
        # reloaded pointers and indices are int64 like built ones, so the
        # reverse scans index and search them the same way
        m = random_synapse_matrix(7, 9, 0.5, CounterRng(19), lo=0.1, hi=0.9)
        for build in ALL_BUILDERS:
            s = build(m, 8)
            back = from_bytes(to_bytes(s))
            for j in range(9):
                assert back.reverse_lookup(j)[0] == s.reverse_lookup(j)[0]

    def test_round_trip_word64_bitmap(self):
        mask = np.zeros((2, 64), dtype=bool)
        mask[0, [0, 63]] = True
        m = SynapseMatrix(np.where(mask, 0.5, 0.0), mask)
        s = build_bitmap(m, 8, w_word=64)
        assert s._rank(0, 63) == 1
        back = from_bytes(to_bytes(s))
        assert back.forward_lookup(0)[0] == [(0, 0.5), (63, 0.5)]
        assert back.reverse_lookup(63)[0] == [(0, 0.5)]

    def test_round_trip_empty_structure(self):
        # zero nonzeros means zero-width pointer words and empty payloads
        m = SynapseMatrix(np.zeros((3, 4)), np.zeros((3, 4), dtype=bool))
        back = from_bytes(to_bytes(build_csr(m, 4)))
        assert back.nnz == 0
        assert back.forward_lookup(1)[0] == []
        assert back.reverse_lookup(2)[0] == []


# ------------------------------------------------------- container boundary

def _ref_words(values, word_bits):
    """Per-word reference packer: little-endian two's complement words."""
    if word_bits == 0:
        return b""
    nbytes = -(-word_bits // 8)
    return b"".join((int(v) % (1 << word_bits)).to_bytes(nbytes, "little")
                    for v in values)


def _bank(name, values, word_bits, n_words=None, payload=None):
    n_words = len(values) if n_words is None else n_words
    payload = _ref_words(values, word_bits) if payload is None else payload
    return (struct.pack("<B", len(name)) + name.encode("ascii")
            + struct.pack("<QH", n_words, word_bits) + payload)


def _container(tag, head_fmt, head, banks, count=None):
    return (struct.pack("<4sHB", b"SYNM", 1, tag) + struct.pack(head_fmt, *head)
            + struct.pack("<B", len(banks) if count is None else count)
            + b"".join(banks))


def _codes(weights, b_w):
    return [round(w / sigma(b_w)) for w in np.ravel(weights).tolist()]


def _reference_bytes(s):
    """The container of `s`, written field by field with the reference packer."""
    if s.scheme == "CB":
        return _container(1, "<IIH", (s.n_pre, s.n_post, s.b_w),
                          [_bank("weight", _codes(s.weights, s.b_w), s.b_w)])
    if s.scheme == "PB-CSR":
        return _container(2, "<IIHQ", (s.n_pre, s.n_post, s.b_w, s.nnz), [
            _bank("row_ptr", s.row_ptr, ceil_log2(s.nnz + 1)),
            _bank("col_idx", s.col_idx, ceil_log2(s.n_post)),
            _bank("weight", _codes(s.weights, s.b_w), s.b_w)])
    if s.scheme == "PB-BMP":
        return _container(3, "<IIHHQ", (s.n_pre, s.n_post, s.b_w, s.w_word, s.nnz), [
            _bank("row_ptr", s.row_ptr, ceil_log2(s.nnz + 1)),
            _bank("bitmap", s.bitmap.reshape(-1), s.w_word),
            _bank("weight", _codes(s.weights, s.b_w), s.b_w)])
    g = s.geometry
    return _container(4, "<IIHHIIH", (g.in_h, g.in_w, g.k_h, g.k_w, g.c_in, g.c_out,
                                      s.b_w),
                      [_bank("weight", _codes(s.kernel, s.b_w), s.b_w)])


@st.composite
def built_stores(draw, max_pre=24, max_post=80):
    """A built store of any scheme: random shape, density, b_w and w_word."""
    scheme = draw(st.sampled_from(["CB", "PB-CSR", "PB-BMP", "FUNC"]))
    b_w = draw(st.integers(1, 12))
    rng = CounterRng(draw(st.integers(0, 2**32 - 1)))
    if scheme == "FUNC":
        dims = [draw(st.integers(1, 5)) for _ in range(2)]
        kernel = [draw(st.sampled_from([1, 3])) for _ in range(2)]
        chans = [draw(st.integers(1, 3)) for _ in range(2)]
        g = ConvGeometry(*dims, *kernel, *chans)
        return build_functional(
            g, rng.uniform_range(-1.2, 1.2, (g.c_in, g.c_out, g.k_h, g.k_w)), b_w)
    m = random_synapse_matrix(draw(st.integers(1, max_pre)),
                              draw(st.integers(1, max_post)),
                              draw(st.floats(0.0, 1.0)), rng, lo=-1.2, hi=1.2)
    if scheme == "CB":
        return build_crossbar(m, b_w)
    if scheme == "PB-CSR":
        return build_csr(m, b_w)
    return build_bitmap(m, b_w, draw(st.sampled_from([8, 32, 64])))


def assert_same_store(back, s):
    assert type(back) is type(s)
    for attr in ("scheme", "n_pre", "n_post", "b_w"):
        assert getattr(back, attr) == getattr(s, attr), attr
    assert back.storage_bits() == s.storage_bits()
    if s.scheme == "CB":
        # the container holds no mask: a present synapse on code 0 reloads absent
        assert np.array_equal(back.mask, s.weights != 0.0)
    if s.scheme == "FUNC":
        assert back.geometry == s.geometry
        assert np.array_equal(back.kernel, s.kernel)
        return
    for attr in ("row_ptr", "col_idx", "bitmap"):
        if hasattr(s, attr):
            got, want = getattr(back, attr), getattr(s, attr)
            assert got.dtype == want.dtype and got.shape == want.shape, attr
            assert np.array_equal(got, want), attr
    if s.scheme != "CB":
        assert back.nnz == s.nnz
    assert np.array_equal(back.weights, s.weights)
    assert np.array_equal(back.to_dense(), s.to_dense())


def assert_structurally_valid(s):
    """The invariants lookups, writes and re-encoding rely on."""
    step = sigma(s.b_w)
    weights = s.kernel if s.scheme == "FUNC" else s.weights
    codes = weights / step
    assert np.array_equal(codes, np.round(codes))
    assert np.abs(codes).max(initial=0) <= (1 << (s.b_w - 1)) - 1
    if s.scheme == "PB-CSR":
        assert s.row_ptr.dtype == s.col_idx.dtype == np.int64
        assert s.row_ptr[0] == 0 and s.row_ptr[-1] == s.nnz
        assert np.all(np.diff(s.row_ptr) >= 0)
        for i in range(s.n_pre):
            cols = s.col_idx[s.row_ptr[i]:s.row_ptr[i + 1]]
            assert np.all(np.diff(cols) > 0)
            assert np.all((0 <= cols) & (cols < s.n_post))
    if s.scheme == "PB-BMP":
        assert s.row_ptr.dtype == np.int64 and s.bitmap.dtype == np.uint64
        assert s.bitmap.shape == (s.n_pre, -(-s.n_post // s.w_word))
        counts = []
        for row in s.bitmap.tolist():
            bits = sum(w << (k * s.w_word) for k, w in enumerate(row))
            assert bits >> s.n_post == 0
            counts.append(bits.bit_count())
        assert sum(counts) == s.nnz
        assert s.row_ptr.tolist() == [sum(counts[:i]) for i in range(s.n_pre)]
    if s.scheme != "FUNC":
        dense = s.to_dense()
        fwd = {(i, j, w) for i in range(s.n_pre) for j, w in s.forward_lookup(i)[0]}
        rev = {(i, j, w) for j in range(s.n_post) for i, w in s.reverse_lookup(j)[0]}
        assert fwd == rev
        assert all(dense[i, j] == w for i, j, w in fwd)
    assert_same_store(from_bytes(to_bytes(s)), s)


class TestContainerProperties:
    @settings(max_examples=150, deadline=None)
    @given(s=built_stores())
    def test_round_trip_is_identity(self, s):
        blob = to_bytes(s)
        assert blob == _reference_bytes(s)
        back = from_bytes(blob)
        assert_same_store(back, s)
        assert to_bytes(back) == blob

    @settings(max_examples=40, deadline=None)
    @given(s=built_stores(max_pre=6, max_post=20), extra=st.binary(min_size=1, max_size=9))
    def test_every_prefix_and_any_suffix_is_rejected(self, s, extra):
        blob = to_bytes(s)
        for n in range(len(blob)):
            with pytest.raises(ContainerError):
                from_bytes(blob[:n])
        with pytest.raises(ContainerError):
            from_bytes(blob + extra)

    @settings(max_examples=60, deadline=None)
    @given(s=built_stores(max_pre=6, max_post=20), data=st.data())
    def test_single_byte_corruption_is_rejected_or_valid(self, s, data):
        blob = to_bytes(s)
        for pos in range(len(blob)):
            flip = data.draw(st.integers(1, 255))
            bad = bytearray(blob)
            bad[pos] ^= flip
            try:
                back = from_bytes(bytes(bad))
            except ContainerError:
                continue
            assert_structurally_valid(back)


def _csr_blob(row_ptr=(0, 2, 2, 5), col_idx=(1, 3, 0, 2, 4), codes=(1, -2, 3, 4, -5),
              nnz=5, n_post=5, b_w=8):
    return _container(2, "<IIHQ", (len(row_ptr) - 1, n_post, b_w, nnz), [
        _bank("row_ptr", row_ptr, ceil_log2(nnz + 1)),
        _bank("col_idx", col_idx, ceil_log2(n_post)),
        _bank("weight", codes, b_w)])


def _bmp_blob(row_ptr=(0, 2), bitmap=(1, 2, 8, 0), codes=(5, -6, 7), nnz=3,
              n_post=10, w_word=8, b_w=8):
    # row 0 holds columns 0 and 9, row 1 column 3
    return _container(3, "<IIHHQ", (len(row_ptr), n_post, b_w, w_word, nnz), [
        _bank("row_ptr", row_ptr, ceil_log2(nnz + 1)),
        _bank("bitmap", bitmap, w_word),
        _bank("weight", codes, b_w)])


def _csr_32():
    m = random_synapse_matrix(8, 8, 0.5, CounterRng(21))
    s = build_csr(m, 8)
    assert s.nnz == 32
    return s, to_bytes(s)


def _rejects(blob, match=None):
    with pytest.raises(ContainerError, match=match) as err:
        from_bytes(blob)
    return err.value.offset


class TestContainerChecks:
    def test_crafted_containers_decode(self):
        # the crafted bases differ from each rejected container in one fault
        step = sigma(8)
        csr = from_bytes(_csr_blob())
        assert csr.forward_lookup(0)[0] == [(1, step), (3, -2 * step)]
        assert csr.forward_lookup(1)[0] == []
        assert csr.reverse_lookup(4)[0] == [(2, -5 * step)]
        bmp = from_bytes(_bmp_blob())
        assert bmp.forward_lookup(0)[0] == [(0, 5 * step), (9, -6 * step)]
        assert bmp.reverse_lookup(3)[0] == [(1, 7 * step)]

    def test_container_error_is_an_exported_value_error(self):
        assert synmem.ContainerError is ContainerError
        assert issubclass(ContainerError, ValueError)

    def test_cut_weight_payload_is_rejected(self):
        s, blob = _csr_32()
        weight_payload = len(blob) - s.nnz
        assert _rejects(blob[:-1], "cut short") == weight_payload
        m = random_synapse_matrix(7, 9, 0.5, CounterRng(22), lo=0.1, hi=0.9)
        cb = to_bytes(build_crossbar(m, 8))
        _rejects(cb[:len(cb) // 2], "cut short")

    def test_trailing_bytes_are_rejected(self):
        _, blob = _csr_32()
        assert _rejects(blob + b"junk", "trail") == len(blob)

    def test_cut_header_is_a_container_error(self):
        _, blob = _csr_32()
        assert _rejects(blob[:12], "PB-CSR header cut short") == 7
        assert _rejects(b"SYN", "preamble") == 0

    def test_magic_version_and_tag_checked(self):
        _, blob = _csr_32()
        for pos, value, match in ((4, 2, "version"), (6, 9, "scheme tag")):
            bad = bytearray(blob)
            bad[pos] = value
            _rejects(bytes(bad), match)

    def test_bank_count_must_match(self):
        blob = _container(1, "<IIH", (1, 2, 8), [_bank("weight", [1, 2], 8)], count=2)
        assert _rejects(blob, "2 banks") == 17

    def test_bank_names_and_order_must_match(self):
        banks = [_bank("col_idx", (1, 3, 0, 2, 4), 3), _bank("row_ptr", (0, 2, 2, 5), 3),
                 _bank("weight", (1, -2, 3, 4, -5), 8)]
        _rejects(_container(2, "<IIHQ", (3, 5, 8, 5), banks), "'row_ptr'")
        blob = _container(1, "<IIH", (1, 2, 8), [_bank("weigh", [1, 2], 8)])
        _rejects(blob, "'weight'")

    def test_word_bits_must_match_layout(self):
        banks = [_bank("row_ptr", (0, 2, 2, 5), 4), _bank("col_idx", (1, 3, 0, 2, 4), 3),
                 _bank("weight", (1, -2, 3, 4, -5), 8)]
        _rejects(_container(2, "<IIHQ", (3, 5, 8, 5), banks), "4 bits")

    def test_word_count_must_match_layout(self):
        blob = _container(1, "<IIH", (2, 2, 8), [_bank("weight", [1, 2, 3], 8)])
        _rejects(blob, "3 words")

    def test_nnz_beyond_the_payload_is_rejected(self):
        _, blob = _csr_32()
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, 17, 999)
        _rejects(bytes(bad), "header implies")

    def test_csr_row_ptr_must_start_at_zero(self):
        _rejects(_csr_blob(row_ptr=(1, 2, 2, 5)), "start at 0")

    def test_csr_row_ptr_must_be_monotone(self):
        _rejects(_csr_blob(row_ptr=(0, 3, 2, 5)), "decreases")

    def test_csr_row_ptr_must_end_at_nnz(self):
        _rejects(_csr_blob(row_ptr=(0, 2, 2, 4)), "end at nnz")

    def test_csr_col_idx_must_be_below_n_post(self):
        _rejects(_csr_blob(col_idx=(1, 3, 0, 2, 5)), "n_post")

    def test_csr_col_idx_must_increase_within_a_row(self):
        _rejects(_csr_blob(col_idx=(3, 1, 0, 2, 4)), "strictly increasing")
        _rejects(_csr_blob(col_idx=(1, 3, 0, 2, 2)), "strictly increasing")

    def test_bitmap_bits_beyond_n_post_are_rejected(self):
        blob = _bmp_blob(bitmap=(1, 2, 8, 4), codes=(5, -6, 7, 1), nnz=4)
        _rejects(blob, "beyond n_post")

    def test_bitmap_popcount_must_equal_nnz(self):
        assert _rejects(_bmp_blob(bitmap=(1, 0, 8, 0)), "set bits") == 19

    def test_bitmap_row_ptr_must_be_exclusive_cumsum(self):
        _rejects(_bmp_blob(row_ptr=(0, 1)), "exclusive sum")

    def test_weight_codes_must_lie_in_the_weight_range(self):
        _rejects(_container(1, "<IIH", (1, 2, 8), [_bank("weight", [1, -128], 8)]),
                 "weight code")
        _rejects(_container(1, "<IIH", (1, 1, 1), [_bank("weight", [-1], 1)]),
                 "weight code")
        back = from_bytes(_container(1, "<IIH", (1, 2, 8),
                                     [_bank("weight", [127, -127], 8)]))
        assert back.weights.tolist() == [[127 * sigma(8), -127 * sigma(8)]]

    def test_bits_above_the_word_width_are_rejected(self):
        payload = (7).to_bytes(2, "little") + (0x1005).to_bytes(2, "little")
        blob = _container(1, "<IIH", (1, 2, 12), [_bank("weight", [], 12, 2, payload)])
        assert _rejects(blob, "above the 12-bit word") == len(blob) - 2

    def test_invalid_geometry_is_a_container_error(self):
        for dims in ((4, 4, 2, 3, 1, 1), (4, 4, 3, 3, 0, 1)):
            blob = _container(4, "<IIHHIIH", (*dims, 8), [_bank("weight", [], 8)])
            assert _rejects(blob, "geometry") == 7

    def test_invalid_word_widths_in_the_header(self):
        # a fault's offset is its field's first byte: the 7-byte preamble, then
        # the header fields before it
        for b_w in (0, 65):
            blob = _container(1, "<IIH", (1, 1, b_w), [_bank("weight", [0], 8)])
            assert _rejects(blob, "b_w") == 15
            assert _rejects(_csr_blob(b_w=b_w), "b_w") == 15
            assert _rejects(_bmp_blob(b_w=b_w), "b_w") == 15
            blob = _container(4, "<IIHHIIH", (1, 1, 1, 1, 1, 1, b_w),
                              [_bank("weight", [0], 8)])
            assert _rejects(blob, "b_w") == 27
        for w_word in (0, 65):
            assert _rejects(_bmp_blob(w_word=w_word), "w_word") == 17

    def test_weight_words_wider_than_53_bits_are_rejected(self):
        # float64 holds every weight of at most 53 bits exactly; at 60 bits the
        # top code 2**59 - 1 would decode to 1.0, outside the weight range
        for b_w in (54, 60):
            blob = _container(1, "<IIH", (1, 1, b_w),
                              [_bank("weight", [(1 << (b_w - 1)) - 1], b_w)])
            assert _rejects(blob, r"b_w must be in \[1, 53\]") == 15
        back = from_bytes(_container(1, "<IIH", (1, 1, 53),
                                     [_bank("weight", [(1 << 52) - 1], 53)]))
        assert back.weights.tolist() == [[1 - sigma(53)]]
        assert_structurally_valid(back)

    def test_encoder_refuses_weight_words_wider_than_53_bits(self):
        # refused before the weights are cast to codes: at 64 bits the cast of
        # 1.0 / 2**-63 would overflow int64
        m = random_synapse_matrix(3, 4, 1.0, CounterRng(24))
        g = ConvGeometry(2, 2, 1, 1, 1, 1)
        for b_w in (54, 64):
            stores = [build(m, b_w) for build in ALL_BUILDERS]
            for s in stores:
                s.write_weight(0, 0, 1.2)
            for s in (*stores, build_functional(g, np.full((1, 1, 1, 1), 1.2), b_w)):
                with pytest.raises(OverflowError, match=r"b_w must be in \[1, 53\]"):
                    to_bytes(s)
        for build in ALL_BUILDERS:
            s = build(m, 53)
            s.write_weight(0, 0, 1.2)       # clipped to the grid's edge, 1 - 2**-52
            assert s.to_dense()[0, 0] == 1 - sigma(53)
            assert_structurally_valid(s)

    def test_encoder_refuses_words_that_do_not_fit(self):
        for value in (2.0, -1.0):      # code 256, and -128 outside the weight range
            s = CrossbarStore(np.array([[value]]), np.array([[True]]), 8)
            with pytest.raises(OverflowError):
                to_bytes(s)
        s = CsrStore(np.array([0, 1]), np.array([4]), np.array([0.5]), 4, 8)
        with pytest.raises(OverflowError):
            to_bytes(s)         # column 4 needs 3 bits, c_bits is 2
        s = BitmapStore(np.array([0]), np.array([[1 << 8]], dtype=np.uint64),
                        np.array([0.5]), 8, 8, 8)
        with pytest.raises(OverflowError):
            to_bytes(s)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_lookups_return_python_scalars(self, build):
        m = random_synapse_matrix(6, 40, 0.5, CounterRng(23))
        s = build(m, 8)
        for store in (s, from_bytes(to_bytes(s))):
            pairs = store.forward_lookup(2)[0] + store.reverse_lookup(5)[0]
            assert pairs
            assert all(type(k) is int and type(w) is float for k, w in pairs)
