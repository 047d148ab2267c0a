"""Functional encoding: address generation, store equivalence, pass traces."""

import numpy as np
import pytest

from synmem.conv import (ConvGeometry, _valid_1d, build_functional, connection_count,
                         conv_forward_addresses, conv_reverse_addresses,
                         csr_from_conv, functional_pass_traces, materialize)
from synmem.rng import CounterRng
from synmem.stores import build_csr, fc_pass_traces
from synmem.trace import AccessTrace


def random_kernel(g, seed):
    rng = CounterRng(seed)
    return rng.uniform_range(-0.9, 0.9, (g.c_in, g.c_out, g.k_h, g.k_w))


class TestGeometry:
    def test_rejects_even_kernels(self):
        with pytest.raises(ValueError):
            ConvGeometry(4, 4, 2, 3, 1, 1)
        with pytest.raises(ValueError):
            ConvGeometry(4, 4, 3, 4, 1, 1)

    def test_index_round_trip(self):
        g = ConvGeometry(5, 7, 3, 3, 2, 3)
        for pre_id in range(g.n_pre):
            assert g.pre_index(*g.pre_coords(pre_id)) == pre_id
        for post_id in range(g.n_post):
            assert g.post_index(*g.post_coords(post_id)) == post_id


class TestAddresses:
    def test_corner_clipping(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        pairs, logic = conv_forward_addresses(g, (0, 0, 0))
        assert logic == 9
        assert {p[0][:2] for p in pairs} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_interior_full_fanout(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        pairs, logic = conv_forward_addresses(g, (2, 2, 0))
        assert len(pairs) == 9 and logic == 9

    def test_interior_fanout_with_channels(self):
        g = ConvGeometry(28, 28, 3, 3, 32, 32)
        pairs, logic = conv_forward_addresses(g, (14, 14, 7))
        assert len(pairs) == 9 * 32
        assert logic == 9 * 32

    def test_reverse_corner(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        pairs, _ = conv_reverse_addresses(g, (0, 0, 0))
        assert len(pairs) == 4

    def test_reverse_interior_full_fanin(self):
        g = ConvGeometry(9, 9, 3, 5, 4, 2)
        pairs, logic = conv_reverse_addresses(g, (4, 4, 1))
        assert len(pairs) == 3 * 5 * 4
        assert logic == 3 * 5 * 4

    def test_out_of_range_rejected(self):
        g = ConvGeometry(4, 4, 3, 3, 2, 2)
        with pytest.raises(IndexError):
            conv_forward_addresses(g, (4, 0, 0))
        with pytest.raises(IndexError):
            conv_forward_addresses(g, (0, 0, 2))
        with pytest.raises(IndexError):
            conv_reverse_addresses(g, (0, -1, 0))

    @pytest.mark.parametrize("dims", [(8, 8, 3, 3, 2, 2), (5, 6, 3, 1, 2, 3)])
    def test_reverse_is_transpose_of_forward(self, dims):
        g = ConvGeometry(*dims)
        fwd = set()
        for r in range(g.in_h):
            for c in range(g.in_w):
                for ic in range(g.c_in):
                    pairs, _ = conv_forward_addresses(g, (r, c, ic))
                    for post, kidx in pairs:
                        fwd.add(((r, c, ic), post, kidx))
        rev = set()
        for r in range(g.in_h):
            for c in range(g.in_w):
                for oc in range(g.c_out):
                    pairs, _ = conv_reverse_addresses(g, (r, c, oc))
                    for pre, kidx in pairs:
                        rev.add((pre, (r, c, oc), kidx))
        assert fwd == rev

    def test_connection_count_matches_enumeration(self):
        g = ConvGeometry(6, 5, 3, 3, 2, 4)
        total = 0
        for r in range(g.in_h):
            for c in range(g.in_w):
                for ic in range(g.c_in):
                    total += len(conv_forward_addresses(g, (r, c, ic))[0])
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
        assert t.logic_evals == 1 and t.weight_reads == 1
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
                        pre = g.pre_index(pr, pc, 0)
                        post = g.post_index(qr, qc, 0)
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

    def test_csr_from_conv_equals_csr_of_materialized(self):
        g = ConvGeometry(6, 5, 3, 3, 2, 2)
        kernel = random_kernel(g, 2)
        direct = csr_from_conv(g, kernel, 8)
        via_dense = build_csr(materialize(build_functional(g, kernel, 8)), 8)
        assert np.array_equal(direct.row_ptr, via_dense.row_ptr)
        assert np.array_equal(direct.col_idx, via_dense.col_idx)
        assert np.array_equal(direct.weights, via_dense.weights)

    def test_reverse_weight_reads_equal_transpose_count(self):
        g = ConvGeometry(8, 8, 3, 3, 2, 2)
        s = build_functional(g, random_kernel(g, 3), 8)
        total_reads = 0
        for post_id in range(g.n_post):
            _, t = s.reverse_lookup(post_id)
            total_reads += t.weight_reads
        assert total_reads == connection_count(g)

    def test_write_weight_updates_shared_word(self):
        g = ConvGeometry(4, 4, 3, 3, 1, 1)
        s = build_functional(g, random_kernel(g, 4), 8)
        pre = g.pre_index(1, 1, 0)
        post = g.post_index(2, 2, 0)     # offset (+1, +1)
        t = s.write_weight(pre, post, 0.5)
        assert t.weight_writes == 1 and t.logic_evals == 1
        # every pair at the same offset shares the stored word
        assert (g.post_index(1, 1, 0), 0.5) in s.forward_lookup(g.pre_index(0, 0, 0))[0]

    def test_write_to_non_offset_pair_rejected(self):
        g = ConvGeometry(5, 5, 3, 3, 1, 1)
        s = build_functional(g, random_kernel(g, 5), 8)
        with pytest.raises(KeyError):
            s.write_weight(g.pre_index(0, 0, 0), g.post_index(4, 4, 0), 0.1)


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
        assert u2.weight_writes == g.kernel_words

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
        assert f.weight_reads == g.n_pre * g.n_post
        assert u.weight_writes == connection_count(g)

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
        got, _ = csr.forward_lookup(g.pre_index(14, 14, 7))
        assert len(got) == 9 * 32
