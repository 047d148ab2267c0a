"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each test
also enforces its stated runtime budget.
"""

import json
import time

import numpy as np
import pytest

from synmem.cli import main as cli_main
from synmem.conv import (ConvGeometry, build_functional, connection_count,
                         conv_forward_addresses, conv_reverse_addresses,
                         materialize)
from synmem.energy import ConvLayer, DEFAULT_MODEL, FcLayer, layer_sweep, \
    sweep_density_leakage
from synmem.matrix import SynapseMatrix, random_synapse_matrix
from synmem.quant import (QuantConfig, eta, quantize_weights, sigma,
                          stochastic_round, weight_range)
from synmem.rng import CounterRng
from synmem.snn import (LifParams, NetworkConfig, bptt_gradients, run_episode,
                        train, train_cells, van_rossum)
from synmem.stores import build_bitmap, build_crossbar, build_csr, ceil_log2

from test_snn import finite_difference_grads


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: PASS{suffix}")


def quantized_oracle(m, b_w):
    return SynapseMatrix(np.where(m.mask, quantize_weights(m.weights, b_w), 0.0),
                         m.mask)


def test_c01_store_equivalence():
    start = time.time()
    rng = CounterRng(2024)
    densities = [0.05 + 0.95 * k / 9 for k in range(10)]
    mismatches = 0
    for trial in range(200):
        n_pre = 1 + rng.randint(64)
        n_post = 1 + rng.randint(64)
        density = densities[trial % len(densities)]
        m = random_synapse_matrix(n_pre, n_post, density, rng)
        oracle = quantized_oracle(m, 8)
        stores = (build_crossbar(m, 8), build_csr(m, 8), build_bitmap(m, 8))
        for s in stores:
            for i in range(n_pre):
                if s.forward_lookup(i)[0] != oracle.forward_row(i):
                    mismatches += 1
            for j in range(n_post):
                if s.reverse_lookup(j)[0] != oracle.reverse_col(j):
                    mismatches += 1
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 60.0
    report(1, "store equivalence", f"200 matrices, 0 mismatches, {elapsed:.1f}s")


def test_c02_functional_correctness():
    geometries = [(1, 1, 1, 1, 1, 1), (4, 4, 3, 3, 1, 1), (5, 6, 3, 1, 2, 2),
                  (6, 5, 1, 3, 1, 2), (8, 8, 3, 3, 2, 2)]
    mismatches = 0
    for dims in geometries:
        g = ConvGeometry(*dims)
        kernel = CounterRng(sum(dims)).uniform_range(
            -0.9, 0.9, (g.c_in, g.c_out, g.k_h, g.k_w))
        s = build_functional(g, kernel, 8)
        csr = build_csr(materialize(s), 8)
        for pre_id in range(g.n_pre):
            if sorted(s.forward_lookup(pre_id)[0]) != csr.forward_lookup(pre_id)[0]:
                mismatches += 1
        for post_id in range(g.n_post):
            if sorted(s.reverse_lookup(post_id)[0]) != csr.reverse_lookup(post_id)[0]:
                mismatches += 1
        fwd = set()
        for r in range(g.in_h):
            for c in range(g.in_w):
                for ic in range(g.c_in):
                    for post, kidx in conv_forward_addresses(g, (r, c, ic))[0]:
                        fwd.add(((r, c, ic), post, kidx))
        rev = set()
        for r in range(g.in_h):
            for c in range(g.in_w):
                for oc in range(g.c_out):
                    for pre, kidx in conv_reverse_addresses(g, (r, c, oc))[0]:
                        rev.add((pre, (r, c, oc), kidx))
        if fwd != rev:
            mismatches += 1
    assert mismatches == 0
    report(2, "functional correctness",
           f"{len(geometries)} geometries, 0 mismatches")


def test_c03_storage_closed_forms():
    rng = CounterRng(11)
    for _ in range(100):
        n_pre = 1 + rng.randint(64)
        n_post = 1 + rng.randint(64)
        b_w = 2 + rng.randint(7)
        m = random_synapse_matrix(n_pre, n_post, rng.uniform(), rng)
        nnz = m.nnz
        p = ceil_log2(nnz + 1)
        c = ceil_log2(n_post)
        assert sum(build_crossbar(m, b_w).storage_bits().values()) == \
            n_pre * n_post * b_w
        assert sum(build_csr(m, b_w).storage_bits().values()) == \
            (n_pre + 1) * p + nnz * c + nnz * b_w
        wpr = -(-n_post // 32)
        assert sum(build_bitmap(m, b_w).storage_bits().values()) == \
            n_pre * p + n_pre * wpr * 32 + nnz * b_w
    big = random_synapse_matrix(728, 128, 0.75, CounterRng(12))
    assert sum(build_crossbar(big, 8).storage_bits().values()) == 745_472
    g = ConvGeometry(28, 28, 3, 3, 32, 32)
    s = build_functional(g, np.zeros((32, 32, 3, 3)), 8)
    assert sum(s.storage_bits().values()) == 73_728
    report(3, "storage closed forms",
           "100 instances per scheme, CB 745472, FUNC 73728")


@pytest.fixture(scope="module")
def conv_sweep_rows():
    return layer_sweep(ConvLayer(), [8], DEFAULT_MODEL)


def test_c04_conv_backward_advantage(conv_sweep_rows):
    start = time.time()
    by = {r["scheme"]: r for r in conv_sweep_rows}
    ratio = by["FUNC"]["backward_pJ"] / by["PB-CSR"]["backward_pJ"]
    assert 0.30 <= ratio <= 0.60
    g = ConvGeometry(28, 28, 3, 3, 32, 32)
    from synmem.conv import connection_count, functional_pass_traces
    from synmem.stores import fc_pass_traces
    _, csr_bwd, _ = fc_pass_traces("PB-CSR", g.n_pre, g.n_post, connection_count(g), 8)
    _, fun_bwd, _ = functional_pass_traces(g, 8)
    csr_total_reads = csr_bwd.weight_reads + csr_bwd.indirection_reads
    assert fun_bwd.weight_reads < csr_total_reads
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(4, "conv backward advantage",
           f"energy ratio {ratio:.3f} in [0.30, 0.60]; "
           f"reads {fun_bwd.weight_reads} < {csr_total_reads}")


def test_c05_conv_forward_overhead(conv_sweep_rows):
    by = {r["scheme"]: r for r in conv_sweep_rows}
    ratio = by["FUNC"]["forward_pJ"] / by["PB-CSR"]["forward_pJ"]
    assert ratio <= 1.10
    report(5, "conv forward overhead", f"ratio {ratio:.3f} <= 1.10")


def test_c06_density_crossover():
    start = time.time()
    densities = [0.05 + 0.95 * k / 9 for k in range(10)]
    fractions = [0.9 * k / 9 for k in range(10)]
    rows = sweep_density_leakage(densities, fractions, DEFAULT_MODEL)
    winners = {}
    for r in rows:
        if r["winner"]:
            winners[(round(r["density"], 6), round(r["leak_fraction"], 6))] = \
                r["scheme"]
    assert winners[(1.0, 0.0)] == "CB"
    assert winners[(0.05, 0.0)] in ("PB-CSR", "PB-BMP")
    zero_leak = [winners[(round(d, 6), 0.0)] for d in densities]
    switches = sum(a != b for a, b in zip(zero_leak, zero_leak[1:]))
    assert switches >= 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(6, "density crossover",
           f"winners along zero leak: {'-'.join(zero_leak)}; {elapsed:.1f}s")


def test_c07_quantization_suite():
    assert sigma(2) == 0.5 and sigma(8) == 0.0078125 and sigma(1) == 1.0
    assert weight_range(2) == (-0.5, 0.5)
    assert weight_range(8) == (-0.9921875, 0.9921875)
    assert weight_range(6) == (-0.96875, 0.96875)
    for b_w in range(2, 10):
        for fan_in in (1, 3, 64, 728, 4096):
            log = np.log2(eta(b_w, fan_in))
            assert log == round(log)
    assert eta(8, 728) == 16.0
    rng = CounterRng(77)
    draws = stochastic_round(np.full(100_000, 0.25), 1.0, rng)
    se = np.sqrt(0.25 * 0.75 / 100_000)
    assert abs(draws.mean() - 0.25) < 3 * se
    w = CounterRng(78).uniform_range(-2, 2, 10_000)
    for b_w in (2, 4, 6, 8):
        once = quantize_weights(w, b_w)
        assert np.array_equal(once, quantize_weights(once, b_w))
    report(7, "quantization suite",
           f"eta(8,728)={eta(8, 728):.0f}, rounding bias "
           f"{abs(draws.mean() - 0.25):.2e} < {3 * se:.2e}")


def test_c08_gradient_check():
    start = time.time()
    rng = CounterRng(2025)
    worst = 0.0
    checked = 0
    while checked < 20:
        n_in = 2 + rng.randint(4)
        n_hid = 2 + rng.randint(4)
        n_out = 1 + rng.randint(3)
        if n_in + n_hid + n_out > 10:
            continue
        steps = 4 + rng.randint(7)
        params = LifParams(theta=0.3, beta_s=5.0)
        weights = [rng.uniform_range(-0.8, 0.8, (n_in, n_hid)),
                   rng.uniform_range(-0.8, 0.8, (n_hid, n_out))]
        raster = rng.bernoulli(0.5, (n_in, steps)).astype(float)
        target = rng.bernoulli(0.3, (n_out, steps)).astype(float)
        out, histories = run_episode(weights, raster, params, soft=True)
        if van_rossum(out, target, 6.0) < 1e-9:
            continue
        analytic = bptt_gradients(histories, weights, out, target, params, 6.0)
        numeric = finite_difference_grads(weights, raster, target, params,
                                          6.0, eps=1e-6)
        for a, n in zip(analytic, numeric):
            rel = np.max(np.abs(a - n)) / max(np.abs(n).max(), 1e-9)
            worst = max(worst, rel)
        checked += 1
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report(8, "gradient check",
           f"20 networks, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_c09_desk_scale_learning():
    start = time.time()
    cfg = NetworkConfig()     # 200-100-50, 100 steps
    res = train(cfg, "CB", None, 2000, seed=42)
    curve = np.array(res.vr_curve)
    ratio = curve[-1] / curve[0]
    assert np.all(np.isfinite(curve))
    assert ratio < 0.5
    moving = np.convolve(curve, np.ones(100) / 100, mode="valid")
    tail = np.diff(moving[200:])
    assert np.all(tail <= 0.0)
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(9, "desk-scale learning",
           f"vr {curve[0]:.1f} -> {curve[-1]:.1f} (ratio {ratio:.2f}), "
           f"moving average monotone, {elapsed:.0f}s")


def test_c10_precision_sparsity_direction():
    start = time.time()
    cfg = NetworkConfig()
    widths = (2, 5, 6)
    quants = [QuantConfig(b_w=b_w, fan_in=cfg.layer_sizes[0]) for b_w in widths]
    cells = dict(zip(widths, train_cells(cfg, ["CB", "PB-BMP"], quants, 2000, seed=42)))
    sp2 = cells[2].mean_sparsity
    sp6 = cells[6].mean_sparsity
    assert sp2 > sp6
    ratio2 = cells[2].total_energy("PB-BMP") / cells[2].total_energy("CB")
    ratio5 = cells[5].total_energy("PB-BMP") / cells[5].total_energy("CB")
    assert ratio2 < ratio5
    elapsed = time.time() - start
    report(10, "precision-sparsity direction",
           f"sparsity {sp2:.3f}@2b > {sp6:.3f}@6b; "
           f"BMP/CB {ratio2:.3f}@2b < {ratio5:.3f}@5b; {elapsed:.0f}s")


def test_c11_cli_determinism(tmp_path):
    configs = {
        "fc-sweep": {"fc_sweep": {"n_pre": 64, "n_post": 32, "density": 0.6,
                                  "bit_widths": [4, 8]}},
        "conv-sweep": {"conv_sweep": {"in_h": 6, "in_w": 6, "k_h": 3, "k_w": 3,
                                      "c_in": 2, "c_out": 2, "bit_widths": [8]}},
        "density-leak-grid": {"density_leak_grid": {
            "n_pre": 64, "n_post": 32, "densities": [0.1, 0.5, 1.0],
            "leak_fractions": [0.0, 0.4]}},
        "train-frontier": {"train_frontier": {
            "layer_sizes": [20, 10, 5], "steps": 10, "epochs": 3,
            "bit_widths": [2, 4], "schemes": ["CB", "PB-BMP"]}},
    }
    for command, section in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(section))
        out_a = tmp_path / command / "a"
        out_b = tmp_path / command / "b"
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out_a), "--seed", "9"]) == 0
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out_b), "--seed", "9"]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                (command, name)
    report(11, "CLI determinism", "4 commands, byte-identical reruns")
