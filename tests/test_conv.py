"""Functional encoding: address generation, store equivalence, pass traces."""

import hashlib

import numpy as np
import pytest

from synmem.conv import (ConvGeometry, _valid_1d, build_functional, connection_count,
                         conv_forward_addresses, conv_reverse_addresses,
                         csr_from_conv, functional_pass_traces)
from synmem.quant import sigma
from synmem.rng import CounterRng
from synmem.stores import build_csr, fc_pass_traces
from synmem.trace import AccessTrace

from reference_stores import (materialize, post_coords, post_index, pre_coords,
                              pre_index, weight_reads, weight_writes)


def random_kernel(g, seed):
    rng = CounterRng(seed)
    return rng.uniform_range(-0.9, 0.9, (g.c_in, g.c_out, g.k_h, g.k_w))


LOOKUP_GEOMETRIES = [
    (6, 5, 3, 3, 2, 2), (1, 1, 1, 1, 1, 1), (1, 1, 3, 5, 2, 3), (5, 6, 3, 1, 2, 3),
    (4, 7, 1, 5, 3, 1), (2, 3, 5, 7, 2, 2), (3, 2, 9, 3, 1, 4)]
LOOKUP_IDS = ["square", "one-pixel-1x1", "one-pixel-3x5", "kernel-3x1", "kernel-1x5",
              "kernel-wider-than-image", "kernel-taller-than-image"]
LOOKUP_DIGESTS = {
    (6, 5, 3, 3, 2, 2): "1918aa412f614d7f4eb6dafaa1bee7822c2578710b416765c60c7cf75c872a49",
    (1, 1, 1, 1, 1, 1): "bea53c9c165ab479b2e54a6bb692f1aac9a58e47daf199e561313198cd0d60db",
    (1, 1, 3, 5, 2, 3): "01dc56f61a797f9d4566d430270c3539077b77d311eea459da9e7fc97c63cded",
    (5, 6, 3, 1, 2, 3): "e6db33434621da38a9ec07fe8939946ed9f23a25ae8d045cd6939ea826f2b036",
    (4, 7, 1, 5, 3, 1): "15ab69ae13472b8f4859b5f4c360a66d0a6efafc8da95df8c61bb1963539f901",
    (2, 3, 5, 7, 2, 2): "34ce013af1b3cc69894f96be1ca22bb89c40bb6dfa6dce622323dd686dc0a9a7",
    (3, 2, 9, 3, 1, 4): "8cb127e12752ca52e189acb3add807efb4e55db87595998c8982c593438d1295",
}


class TestGeometry:
    def test_rejects_even_kernels(self):
        with pytest.raises(ValueError):
            ConvGeometry(4, 4, 2, 3, 1, 1)
        with pytest.raises(ValueError):
            ConvGeometry(4, 4, 3, 4, 1, 1)

    def test_index_round_trip(self):
        g = ConvGeometry(5, 7, 3, 3, 2, 3)
        for pre_id in range(g.n_pre):
            assert pre_index(g, *pre_coords(g, pre_id)) == pre_id
        for post_id in range(g.n_post):
            assert post_index(g, *post_coords(g, post_id)) == post_id


class TestAddresses:
    def test_corner_clipping(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        posts, ks, logic = conv_forward_addresses(g, pre_index(g, 0, 0, 0))
        assert logic == 9
        assert posts.dtype == ks.dtype == np.int64
        assert {post_coords(g, p)[:2] for p in posts.tolist()} == \
            {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert ks.tolist() == [4, 5, 7, 8]

    def test_interior_full_fanout(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        posts, ks, logic = conv_forward_addresses(g, pre_index(g, 2, 2, 0))
        assert len(posts) == len(ks) == 9 and logic == 9

    def test_interior_fanout_with_channels(self):
        g = ConvGeometry(28, 28, 3, 3, 32, 32)
        posts, ks, logic = conv_forward_addresses(g, pre_index(g, 14, 14, 7))
        assert len(posts) == 9 * 32
        assert logic == 9 * 32
        # row-major kernel order, out channel innermost
        assert ks.tolist() == np.repeat(np.arange(9), 32).tolist()
        assert posts[:32].tolist() == [post_index(g, 13, 13, oc) for oc in range(32)]

    def test_reverse_corner(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        pres, ks, _ = conv_reverse_addresses(g, post_index(g, 0, 0, 0))
        assert len(pres) == 4
        assert pres.dtype == ks.dtype == np.int64
        # the pre at (1, 1) feeds (0, 0) through offset (-1, -1), kernel index 0
        assert (pre_index(g, 1, 1, 0), 0) in zip(pres.tolist(), ks.tolist())

    def test_reverse_interior_full_fanin(self):
        g = ConvGeometry(9, 9, 3, 5, 4, 2)
        pres, _, logic = conv_reverse_addresses(g, post_index(g, 4, 4, 1))
        assert len(pres) == 3 * 5 * 4
        assert logic == 3 * 5 * 4

    def test_out_of_range_rejected(self):
        g = ConvGeometry(4, 4, 3, 3, 2, 3)
        for bad in (-1, g.n_pre):
            with pytest.raises(IndexError, match=rf"pre_id {bad} out of range \[0, 32\)"):
                conv_forward_addresses(g, bad)
        for bad in (-1, g.n_post):
            with pytest.raises(IndexError, match=rf"post_id {bad} out of range \[0, 48\)"):
                conv_reverse_addresses(g, bad)

    @pytest.mark.parametrize("dims", [(8, 8, 3, 3, 2, 2), (5, 6, 3, 1, 2, 3)])
    def test_reverse_is_transpose_of_forward(self, dims):
        g = ConvGeometry(*dims)
        fwd = set()
        for pre in range(g.n_pre):
            posts, ks, _ = conv_forward_addresses(g, pre)
            fwd.update((pre, post, k) for post, k in zip(posts.tolist(), ks.tolist()))
        rev = set()
        for post in range(g.n_post):
            pres, ks, _ = conv_reverse_addresses(g, post)
            rev.update((pre, post, k) for pre, k in zip(pres.tolist(), ks.tolist()))
        assert fwd == rev

    def test_connection_count_matches_enumeration(self):
        g = ConvGeometry(6, 5, 3, 3, 2, 4)
        total = sum(len(conv_forward_addresses(g, pre)[0]) for pre in range(g.n_pre))
        assert total == connection_count(g)

    def test_valid_taps_closed_form_matches_per_position_sum(self):
        # even kernels and kernels wider than the extent included
        for extent in range(1, 60):
            for kernel in range(1, 40):
                half = kernel // 2
                want = sum(min(extent - 1, x + half) - max(0, x - half) + 1
                           for x in range(extent))
                assert _valid_1d(extent, kernel) == want, (extent, kernel)

    def test_connection_count_is_constant_time(self):
        # an in_h read from a container header can be as large as u32 allows
        g = ConvGeometry(2 ** 31, 5, 3, 3, 2, 4)
        assert connection_count(g) == (3 * 2 ** 31 - 2) * 13 * 2 * 4


class TestFunctionalStore:
    def test_identity_geometry(self):
        g = ConvGeometry(1, 1, 1, 1, 1, 1)
        s = build_functional(g, np.full((1, 1, 1, 1), 0.5), 8)
        got, t = s.forward_lookup(0)
        assert got == [(0, 0.5)]
        assert t.logic_evals == 1 and weight_reads(t) == 1
        assert sum(s.storage_bits().values()) == 8

    def test_storage_closed_form(self):
        g = ConvGeometry(28, 28, 3, 3, 32, 32)
        s = build_functional(g, np.zeros((32, 32, 3, 3)), 8)
        assert sum(s.storage_bits().values()) == 73_728

    def test_materialized_matches_direct_convolution(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        kernel = random_kernel(g, 0)
        s = build_functional(g, kernel, 8)
        mat = materialize(s)
        # independent oracle: zero-padded direct convolution, entry by entry
        img = np.zeros((4, 4))
        for pr in range(4):
            for pc in range(4):
                img[:] = 0.0
                img[pr, pc] = 1.0
                padded = np.pad(img, 1)
                for qr in range(4):
                    for qc in range(4):
                        acc = (padded[qr:qr + 3, qc:qc + 3] *
                               np.flip(s.kernel[0, 0], (0, 1))).sum()
                        pre = pre_index(g, pr, pc, 0)
                        post = post_index(g, qr, qc, 0)
                        assert mat.weights[pre, post] == pytest.approx(acc, abs=1e-12)

    @pytest.mark.parametrize("dims", [(8, 8, 3, 3, 2, 2), (4, 4, 3, 3, 1, 1),
                                      (3, 7, 1, 3, 2, 1)])
    def test_lookups_match_csr_of_materialized(self, dims):
        g = ConvGeometry(*dims)
        s = build_functional(g, random_kernel(g, 1), 8)
        csr = build_csr(materialize(s), 8)
        for pre_id in range(g.n_pre):
            assert sorted(s.forward_lookup(pre_id)[0]) == csr.forward_lookup(pre_id)[0]
        for post_id in range(g.n_post):
            assert sorted(s.reverse_lookup(post_id)[0]) == csr.reverse_lookup(post_id)[0]

    @pytest.mark.parametrize("b_w", [1, 8])
    @pytest.mark.parametrize("dims", LOOKUP_GEOMETRIES, ids=LOOKUP_IDS)
    def test_csr_from_conv_equals_csr_of_materialized(self, dims, b_w):
        g = ConvGeometry(*dims)
        kernel = random_kernel(g, 2)
        direct = csr_from_conv(g, kernel, b_w)
        via_dense = build_csr(materialize(build_functional(g, kernel, b_w)), b_w)
        for name in ("row_ptr", "col_idx", "weights"):
            got, want = getattr(direct, name), getattr(via_dense, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("dims", LOOKUP_GEOMETRIES, ids=LOOKUP_IDS)
    def test_lookups_are_fixed(self, dims):
        # every forward and reverse lookup at b_w 1 and 8, pinned to a
        # recorded digest of its ids, weights, their Python types and its trace
        g = ConvGeometry(*dims)
        digest = hashlib.sha256()
        for b_w in (1, 8):
            s = build_functional(g, random_kernel(g, 8), b_w)
            for lookup, n in ((s.forward_lookup, g.n_pre), (s.reverse_lookup, g.n_post)):
                for i in range(n):
                    pairs, t = lookup(i)
                    digest.update(repr(([(type(j).__name__, j, type(w).__name__, w.hex())
                                         for j, w in pairs],
                                        list(t.banks()), t.logic_evals)).encode())
        assert digest.hexdigest() == LOOKUP_DIGESTS[dims]

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 3, 3)])
    def test_builders_reject_a_mis_shaped_kernel(self, shape):
        g = ConvGeometry(4, 4, 3, 3, 2, 2)
        for build in (build_functional, csr_from_conv):
            with pytest.raises(ValueError, match=r"!= \(2, 2, 3, 3\)"):
                build(g, np.full(shape, 0.5), 8)

    def test_reverse_weight_reads_equal_transpose_count(self):
        g = ConvGeometry(8, 8, 3, 3, 2, 2)
        s = build_functional(g, random_kernel(g, 3), 8)
        total_reads = 0
        for post_id in range(g.n_post):
            _, t = s.reverse_lookup(post_id)
            total_reads += weight_reads(t)
        assert total_reads == connection_count(g)

    def test_write_weight_updates_shared_word(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        s = build_functional(g, random_kernel(g, 4), 8)
        pre = pre_index(g, 1, 1, 0)
        post = post_index(g, 2, 2, 0)     # offset (+1, +1)
        t = s.write_weight(pre, post, 0.5)
        assert weight_writes(t) == 1 and t.logic_evals == 1
        # every pair at the same offset shares the stored word
        assert (post_index(g, 1, 1, 0), 0.5) in s.forward_lookup(pre_index(g, 0, 0, 0))[0]

    def test_write_to_non_offset_pair_rejected(self):
        g = ConvGeometry(5, 5, 3, 3, 1, 1)
        s = build_functional(g, random_kernel(g, 5), 8)
        with pytest.raises(KeyError):
            s.write_weight(pre_index(g, 0, 0, 0), post_index(g, 4, 4, 0), 0.1)

    @pytest.mark.parametrize("b_w", [1, 8])
    @pytest.mark.parametrize("dims", LOOKUP_GEOMETRIES, ids=LOOKUP_IDS)
    def test_writes_follow_the_lookup_rule(self, dims, b_w):
        # every (pre, post) pair: a write is refused exactly when the pair's
        # coordinate offset lies outside the kernel; otherwise both lookups
        # then report the written value clipped and rounded to the b_w grid
        g = ConvGeometry(*dims)
        s = build_functional(g, random_kernel(g, 9), b_w)
        values = CounterRng(10).uniform_range(-1.5, 1.5, (g.n_pre, g.n_post))
        step = sigma(b_w)
        for pre in range(g.n_pre):
            pr, pc, _ = pre_coords(g, pre)
            for post in range(g.n_post):
                qr, qc, _ = post_coords(g, post)
                v = float(values[pre, post])
                if abs(qr - pr) > g.k_h // 2 or abs(qc - pc) > g.k_w // 2:
                    before = s.kernel.tobytes()
                    with pytest.raises(KeyError) as err:
                        s.write_weight(pre, post, v)
                    assert err.value.args[0] == \
                        f"synapse ({pre}, {post}) not a kernel offset"
                    assert s.kernel.tobytes() == before
                    continue
                t = s.write_weight(pre, post, v)
                assert weight_writes(t) == 1 and t.logic_evals == 1
                want = np.sign(v) * np.floor(min(abs(v), 1.0 - step) / step + 0.5) * step
                assert dict(s.forward_lookup(pre)[0])[post] == want
                assert dict(s.reverse_lookup(post)[0])[pre] == want


class TestPassTraces:
    def test_functional_pass_traces_match_lookup_sums(self):
        g = ConvGeometry(5, 4, 3, 3, 2, 3)
        s = build_functional(g, random_kernel(g, 6), 8)
        fwd = AccessTrace()
        for pre_id in range(g.n_pre):
            fwd += s.forward_lookup(pre_id)[1]
        assert fwd == s.forward_pass_trace()
        bwd = AccessTrace()
        for post_id in range(g.n_post):
            bwd += s.reverse_lookup(post_id)[1]
        assert bwd == s.backward_scan_trace()
        f2, b2, u2 = functional_pass_traces(g, 8)
        assert f2 == fwd and b2 == bwd
        assert u2 == s.weight_update_trace()
        assert weight_writes(u2) == g.kernel_words

    def test_conv_csr_pass_traces_match_real_store(self):
        g = ConvGeometry(5, 4, 3, 3, 2, 3)
        csr = csr_from_conv(g, random_kernel(g, 7), 8)
        f, b, u = fc_pass_traces("PB-CSR", g.n_pre, g.n_post, connection_count(g), 8)
        assert f == csr.forward_pass_trace()
        assert b == csr.backward_scan_trace()
        assert u == csr.weight_update_trace()

    def test_conv_crossbar_pass_traces_shapes(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 2)
        f, b, u = fc_pass_traces("CB", g.n_pre, g.n_post, connection_count(g), 8)
        assert weight_reads(f) == g.n_pre * g.n_post
        assert weight_writes(u) == connection_count(g)

    @pytest.mark.parametrize("dims,sha256", [
        ((28, 28, 3, 3, 8, 8),
         "31335d8c2f9391849d4628b6fcdb6fe1b99eb3a9aed92d0c6841e313fe91a877"),
        ((28, 28, 3, 3, 32, 32),
         "a7b862e2d3050e54a0ecdc922c9ea136eccc05ee08d33991ead513de9770f9b8"),
    ], ids=["store-workload", "reference"])
    def test_csr_from_conv_bytes_are_fixed(self, dims, sha256):
        # too large to materialize: the arrays' dtypes, shapes and bytes are
        # pinned to a recorded digest instead
        g = ConvGeometry(*dims)
        kernel = CounterRng(1).uniform_range(-0.9, 0.9, (g.c_in, g.c_out, g.k_h, g.k_w))
        csr = csr_from_conv(g, kernel, 8)
        digest = hashlib.sha256()
        for a in (csr.row_ptr, csr.col_idx, csr.weights):
            digest.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())
        assert digest.hexdigest() == sha256

    def test_closed_forms_hold_at_reference_geometry(self):
        # the sweep path never builds the production-size store; prove the
        # closed forms equal a real build once at the full geometry
        g = ConvGeometry(28, 28, 3, 3, 32, 32)
        kernel = CounterRng(1).uniform_range(-0.9, 0.9, (32, 32, 3, 3))
        csr = csr_from_conv(g, kernel, 8)
        assert csr.nnz == connection_count(g) == 6_885_376
        f, b, u = fc_pass_traces("PB-CSR", g.n_pre, g.n_post, connection_count(g), 8)
        assert f == csr.forward_pass_trace()
        assert b == csr.backward_scan_trace()
        assert u == csr.weight_update_trace()
        got, _ = csr.forward_lookup(pre_index(g, 14, 14, 7))
        assert len(got) == 9 * 32
