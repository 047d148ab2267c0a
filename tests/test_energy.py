"""Cost model algebra, pass energy accounting, sweeps and calibration."""

import math

import pytest

import reference_sweeps
from synmem.conv import ConvGeometry
from synmem.energy import (CalibrationError, ConvLayer, CostModel,
                           DEFAULT_ANCHORS, DEFAULT_MODEL, EnergyOverflowError,
                           FACTORY_CONSTANTS, FcLayer, calibrate_defaults, layer_sweep,
                           load_cost_model, next_pow2, pass_energy, pass_pair,
                           sweep_density_leakage)
from synmem.matrix import nnz_at_density, random_mask, random_synapse_matrix
from synmem.rng import CounterRng
from synmem.stores import FC_SCHEMES, build_crossbar, build_csr, fc_pass_traces
from synmem.trace import AccessTrace, MemBank


def simple_model(**overrides):
    base = dict(a_read=1.0, b_read=0.0, a_write=1.0, b_write=0.0,
                a_leak=1e-6, e_logic=1.0, t_access=1.0, round_pow2=False)
    base.update(overrides)
    return CostModel(**base)


class TestCostModel:
    def test_monotone_in_capacity_and_width(self):
        m = DEFAULT_MODEL
        assert m.e_read(1024, 8) < m.e_read(4096, 8)
        assert m.e_read(1024, 8) < m.e_read(1024, 16)
        assert m.e_write(1024, 8) < m.e_write(4096, 8)
        assert m.p_leak(1024) < m.p_leak(2048)

    def test_positive_for_positive_inputs(self):
        m = DEFAULT_MODEL
        assert m.e_read(1, 1) > 0 and m.e_write(1, 1) > 0 and m.p_leak(1) > 0

    def test_pow2_rounding_of_depth(self):
        bank = MemBank("weight", "weight", 1000, 8)
        assert CostModel(round_pow2=True).bank_capacity(bank) == 1024 * 8
        assert CostModel(round_pow2=False).bank_capacity(bank) == 1000 * 8
        assert next_pow2(1) == 1 and next_pow2(5) == 8

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            CostModel(a_read=0.0)
        with pytest.raises(ValueError):
            CostModel(b_write=-1.0)

    def test_load_from_dict_and_unknown_key(self):
        m = load_cost_model({"b_read": 0.5})
        assert m.b_read == 0.5
        assert m.a_read == FACTORY_CONSTANTS["a_read"]
        with pytest.raises(ValueError):
            load_cost_model({"nope": 1})


class TestPassEnergy:
    def test_empty_trace_is_free(self):
        rep = pass_energy(AccessTrace(), DEFAULT_MODEL)
        assert rep.active_energy == 0.0 and rep.leakage_energy == 0.0

    @pytest.mark.parametrize("constants,total", [
        ({"a_read": 1e308}, "active energy"), ({"a_leak": 1e308}, "leakage")],
        ids=["active", "leakage"])
    def test_overflowing_total_raises(self, constants, total):
        t = AccessTrace()
        t.read(MemBank("weight", "weight", 64, 2), 10)
        with pytest.raises(EnergyOverflowError, match=f"CB {total} is inf"):
            pass_energy(t, simple_model(**constants), "CB")

    def test_flat_cost_example(self):
        bank = MemBank("weight", "weight", 64, 2)
        t = AccessTrace()
        t.read(bank, 10)
        rep = pass_energy(t, simple_model())   # e_read = 1 * word_bits = 2
        assert rep.active_energy == 20.0

    def test_empty_bank_holds_no_capacity(self):
        # PB-CSR's col_idx bank at nnz 0: with or without rounding the depth
        # up to a power of two it stores nothing and leaks nothing
        empty = MemBank("col_idx", "index", 0, 7)
        row_ptr = MemBank("row_ptr", "index", 5, 3)
        t = AccessTrace()
        t.read(empty, 0)
        t.read(row_ptr, 4)
        for round_pow2 in (True, False):
            m = simple_model(round_pow2=round_pow2)
            assert m.bank_capacity(empty) == 0
            rep = pass_energy(t, m)
            assert rep.leak_rate == m.p_leak(m.bank_capacity(row_ptr))
            assert rep.leakage_energy == rep.leak_rate * 4
            alone = AccessTrace()
            alone.read(empty, 0)
            assert pass_energy(alone, m).active_energy == 0.0

    def test_linearity(self):
        m = DEFAULT_MODEL
        rng = CounterRng(0)
        mat = random_synapse_matrix(20, 30, 0.4, rng)
        s = build_csr(mat, 8)
        t1 = s.forward_lookup(3)[1]
        t2 = s.reverse_lookup(7)[1]
        a = pass_energy(t1, m).active_energy
        b = pass_energy(t2, m).active_energy
        both = pass_energy(t1 + t2, m).active_energy
        assert both == pytest.approx(a + b, rel=1e-12)

    def test_full_pass_equals_per_event_sum(self):
        mat = random_synapse_matrix(728, 128, 0.75, CounterRng(1))
        s = build_crossbar(mat, 8)
        per_neuron = sum(
            pass_energy(s.forward_lookup(i)[1], DEFAULT_MODEL).active_energy
            for i in range(0, 728, 91))      # sample rows, all identical cost
        whole = pass_energy(s.forward_pass_trace(), DEFAULT_MODEL).active_energy
        assert whole == pytest.approx(per_neuron * 91, rel=1e-9)

    def test_monotonicity_in_counters(self):
        bank = MemBank("weight", "weight", 256, 8)
        t = AccessTrace()
        t.read(bank, 5)
        base = pass_energy(t, DEFAULT_MODEL).active_energy
        t2 = AccessTrace()
        t2.read(bank, 6)
        assert pass_energy(t2, DEFAULT_MODEL).active_energy > base
        t3 = AccessTrace()
        t3.read(bank, 5)
        t3.logic(1)
        assert pass_energy(t3, DEFAULT_MODEL).active_energy > base

    def test_scheme_independence(self):
        bank = MemBank("weight", "weight", 512, 4)
        t = AccessTrace()
        t.read(bank, 9)
        t.write(bank, 2)
        a = pass_energy(t, DEFAULT_MODEL, scheme="CB")
        b = pass_energy(t, DEFAULT_MODEL, scheme="PB-BMP")
        assert a.active_energy == b.active_energy
        assert a.leakage_energy == b.leakage_energy

    @pytest.mark.parametrize("scheme", FC_SCHEMES)
    def test_pair_prices_backward_as_scan_plus_update(self, scheme):
        fwd_t, scan_t, upd_t = traces = fc_pass_traces(scheme, 48, 32, 700, 6)
        fwd, bwd = pass_pair(traces, DEFAULT_MODEL, scheme)
        assert fwd == pass_energy(fwd_t, DEFAULT_MODEL)
        assert bwd == pass_energy(scan_t + upd_t, DEFAULT_MODEL)


class TestLayerSweep:
    def test_fc_bitmap_wins_forward_at_8_bits(self):
        rows = layer_sweep(FcLayer(), [8], DEFAULT_MODEL)
        by = {r["scheme"]: r for r in rows}
        assert by["PB-BMP"]["forward_pJ"] < by["CB"]["forward_pJ"]
        assert by["PB-BMP"]["forward_pJ"] < by["PB-CSR"]["forward_pJ"]

    def test_conv_ratios_under_default_model(self):
        rows = layer_sweep(ConvLayer(), [8], DEFAULT_MODEL)
        by = {r["scheme"]: r for r in rows}
        bwd_ratio = by["FUNC"]["backward_pJ"] / by["PB-CSR"]["backward_pJ"]
        fwd_ratio = by["FUNC"]["forward_pJ"] / by["PB-CSR"]["forward_pJ"]
        assert 0.30 <= bwd_ratio <= 0.60
        assert fwd_ratio <= 1.10

    def test_single_bit_width_single_row_per_scheme(self):
        rows = layer_sweep(FcLayer(16, 8, 0.5), [4], DEFAULT_MODEL)
        assert len(rows) == 3
        assert {r["b_w"] for r in rows} == {4}

    def test_deterministic_under_seed(self):
        a = layer_sweep(FcLayer(64, 32, 0.3), [2, 4], DEFAULT_MODEL)
        b = layer_sweep(FcLayer(64, 32, 0.3), [2, 4], DEFAULT_MODEL)
        assert a == b


class TestDensityLeakGrid:
    def test_corners_and_crossover(self):
        densities = [0.05 + 0.95 * k / 9 for k in range(10)]
        rows = sweep_density_leakage(densities, [0.0, 0.5], DEFAULT_MODEL)
        winners = {(round(r["density"], 4), r["leak_fraction"]): r["scheme"]
                   for r in rows if r["winner"]}
        assert winners[(1.0, 0.0)] == "CB"
        assert winners[(0.05, 0.0)] in ("PB-CSR", "PB-BMP")
        # at least one switch along the zero-leak axis
        order = [winners[(round(d, 4), 0.0)] for d in densities]
        assert any(a != b for a, b in zip(order, order[1:]))

    def test_winner_is_argmin_and_oom_exact(self):
        rows = sweep_density_leakage([0.2, 0.8], [0.0, 0.3], DEFAULT_MODEL,
                                     n_pre=64, n_post=48)
        groups = {}
        for r in rows:
            groups.setdefault((r["density"], r["leak_fraction"]), []).append(r)
        for group in groups.values():
            best = min(group, key=lambda r: r["total_pJ"])
            assert best["winner"] == 1
            assert sum(r["winner"] for r in group) == 1
            assert best["winner_oom"] == math.floor(math.log10(best["total_pJ"]))

    def test_tied_schemes_are_all_winners_in_both_sweeps(self, monkeypatch):
        # every scheme priced on CB's traces ties at every point; the sweeps
        # share one rule, and bench/checks.py holds every CSV to it
        monkeypatch.setattr("synmem.energy.fc_pass_traces",
                            lambda name, *args: fc_pass_traces("CB", *args))
        swept = layer_sweep(FcLayer(64, 48, 0.3), [2, 8], DEFAULT_MODEL)
        grid = sweep_density_leakage([0.2, 0.8], [0.0, 0.3], DEFAULT_MODEL,
                                     n_pre=64, n_post=48)
        for rows in (swept, grid):
            assert len(rows) > len(FC_SCHEMES)
            assert [r["winner"] for r in rows] == [1] * len(rows)

    def test_leak_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            sweep_density_leakage([0.1, 0.9], [0.0, 1.0], DEFAULT_MODEL)

    def test_tiny_grids_rejected(self):
        with pytest.raises(ValueError):
            sweep_density_leakage([0.5], [0.0, 0.5], DEFAULT_MODEL)


class TestCountPath:
    """The sweeps price layers from counts, equal to building the stores."""

    LAYERS = [FcLayer(728, 128, d) for d in (0.0, 0.05, 0.75, 1.0)] + [
        FcLayer(3, 5, 0.1)]          # 1.5 synapses: a rounding tie

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("w_word", [32, 7])
    def test_layer_sweep_equals_store_building_sweep(self, seed, w_word):
        for layer in self.LAYERS:
            want = reference_sweeps.layer_sweep(layer, range(1, 9), DEFAULT_MODEL,
                                                seed, w_word)
            assert layer_sweep(layer, range(1, 9), DEFAULT_MODEL,
                               w_word=w_word) == want, layer

    @pytest.mark.parametrize("include_crossbar", [False, True])
    def test_conv_sweep_equals_store_building_sweep(self, include_crossbar):
        for dims in ((4, 5, 3, 3, 2, 3), (1, 2, 3, 5, 1, 2), (6, 3, 1, 3, 3, 1)):
            layer = ConvLayer(ConvGeometry(*dims))
            want = reference_sweeps.layer_sweep(layer, range(1, 9), DEFAULT_MODEL,
                                                include_crossbar=include_crossbar)
            assert layer_sweep(layer, range(1, 9), DEFAULT_MODEL,
                               include_crossbar=include_crossbar) == want, dims

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("w_word", [32, 7])
    def test_density_grid_equals_store_building_grid(self, seed, w_word):
        fractions = [0.0, 0.3, 0.9]
        for b_w in range(1, 9):
            for n_pre, n_post, densities in ((728, 128, [0.05, 0.75, 1.0]),
                                             (3, 5, [0.1, 0.5])):
                want = reference_sweeps.sweep_density_leakage(
                    densities, fractions, DEFAULT_MODEL, n_pre, n_post, b_w, seed,
                    w_word)
                assert sweep_density_leakage(
                    densities, fractions, DEFAULT_MODEL, n_pre, n_post, b_w,
                    w_word) == want, (b_w, n_pre)

    def test_empty_layer_grid_equals_the_store_building_grid(self):
        # at density 0 a PB-CSR layer has 0-bit pointers and no other words,
        # so it holds no capacity, leaks nothing and totals 0 pJ at every
        # leak fraction; the order of magnitude, log10(0), is undefined and
        # both paths leave it empty
        rows = sweep_density_leakage([0.0, 0.5], [0.0, 0.5], DEFAULT_MODEL)
        assert rows == reference_sweeps.sweep_density_leakage(
            [0.0, 0.5], [0.0, 0.5], DEFAULT_MODEL)
        for r in rows:
            empty = r["density"] == 0.0
            assert (r["winner_oom"] == "") == empty, r
            if empty and r["winner"]:
                assert (r["scheme"], r["total_pJ"]) == ("PB-CSR", 0.0)

    def test_count_is_the_random_mask_count(self):
        assert nnz_at_density(3, 5, 0.1) == 2
        for density in (0.0, 0.1, 0.5, 0.7, 1.0):
            mask = random_mask(3, 5, density, CounterRng(4))
            assert mask.sum() == nnz_at_density(3, 5, density)

    def test_out_of_range_density_rejected(self):
        with pytest.raises(ValueError):
            layer_sweep(FcLayer(4, 4, 1.5), [8])
        with pytest.raises(ValueError):
            sweep_density_leakage([-0.1, 0.5], [0.0, 0.5])
        with pytest.raises(ValueError):
            nnz_at_density(4, 4, float("nan"))

    def test_word_widths_checked_by_the_layout_table(self):
        with pytest.raises(ValueError, match="b_w"):
            layer_sweep(FcLayer(4, 4, 0.5), [0])
        with pytest.raises(ValueError, match="b_w"):
            layer_sweep(ConvLayer(ConvGeometry(4, 4, 3, 3, 1, 1)), [0])
        with pytest.raises(ValueError, match="w_word"):
            layer_sweep(FcLayer(4, 4, 0.5), [8], w_word=0)
        with pytest.raises(ValueError, match="w_word"):
            sweep_density_leakage([0.1, 0.5], [0.0, 0.5], w_word=65)


class TestCalibration:
    def test_factory_constants_are_the_default_anchor_solution(self):
        c = calibrate_defaults(DEFAULT_ANCHORS)
        assert c == FACTORY_CONSTANTS

    def test_empty_anchors_return_factory(self):
        assert calibrate_defaults({}) == dict(FACTORY_CONSTANTS)
        assert calibrate_defaults(None) == dict(FACTORY_CONSTANTS)

    @pytest.mark.parametrize("rho_f,rho_b", [(1.05, 0.5), (1.03, 0.05), (1.03, 1.0)])
    def test_anchored_ratios_are_reproduced(self, rho_f, rho_b):
        anchors = {"conv_forward_ratio": rho_f, "conv_backward_ratio": rho_b}
        model = CostModel(**calibrate_defaults(anchors))
        rows = layer_sweep(ConvLayer(), [8], model)
        by = {r["scheme"]: r for r in rows}
        assert by["FUNC"]["forward_pJ"] / by["PB-CSR"]["forward_pJ"] == \
            pytest.approx(rho_f, rel=1e-6)
        assert by["FUNC"]["backward_pJ"] / by["PB-CSR"]["backward_pJ"] == \
            pytest.approx(rho_b, rel=1e-6)

    def test_perturbed_anchors_keep_orderings(self):
        for df, db in ((1.1, 1.1), (0.9, 0.9), (1.1, 0.9)):
            anchors = {
                "conv_forward_ratio": DEFAULT_ANCHORS["conv_forward_ratio"] * df,
                "conv_backward_ratio": DEFAULT_ANCHORS["conv_backward_ratio"] * db,
            }
            model = CostModel(**calibrate_defaults(anchors))
            rows = layer_sweep(FcLayer(), [8], model)
            by = {r["scheme"]: r for r in rows}
            assert by["PB-BMP"]["forward_pJ"] < by["CB"]["forward_pJ"]

    def test_backward_anchor_out_of_reach_fails_loudly(self):
        # at this ratio FUNC's and PB-CSR's backward energies grow alike in
        # b_write, so no finite b_write meets the anchor
        def backward(b_write):
            model = CostModel(**{**FACTORY_CONSTANTS, "b_write": b_write})
            return {r["scheme"]: r["backward_pJ"]
                    for r in layer_sweep(ConvLayer(), [8], model)}
        at0, at1 = backward(0.0), backward(1.0)
        rho_b = (at1["FUNC"] - at0["FUNC"]) / (at1["PB-CSR"] - at0["PB-CSR"])
        with pytest.raises(CalibrationError, match="backward anchor"):
            calibrate_defaults({"conv_backward_ratio": rho_b})

    def test_infeasible_anchors_fail_loudly(self):
        with pytest.raises(CalibrationError):
            calibrate_defaults({"conv_forward_ratio": 1e-6})
        with pytest.raises(CalibrationError):
            calibrate_defaults({"conv_backward_ratio": 50.0})
        with pytest.raises(CalibrationError):
            calibrate_defaults({"not_an_anchor": 1.0})
