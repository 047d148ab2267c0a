"""Each benchmark check passes on the program's real output and fails on a
wrong one. Run with `python3 -m pytest bench/test_checks.py`."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from synmem import cli, conv, energy, serialize, snn, stores  # noqa: E402
from synmem.matrix import SynapseMatrix, random_synapse_matrix  # noqa: E402
from synmem.rng import CounterRng  # noqa: E402


def _scaled(rows, index, key, factor):
    rows = [dict(r) for r in rows]
    rows[index][key] = repr(float(rows[index][key]) * factor)
    return rows


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = out / "cfg.json"
    config.write_text("{}")
    rows = {}
    for command, name in (("fc-sweep", "fc_sweep.csv"), ("conv-sweep", "conv_sweep.csv"),
                          ("density-leak-grid", "density_leak_grid.csv")):
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
        rows[name] = checks.read_rows(out / name)
    return rows


def test_fc_sweep_rejects_a_perturbed_energy_row(sweep_rows):
    rows = sweep_rows["fc_sweep.csv"]
    checks.check_fc_sweep(rows, checks.Cost())
    for key in ("forward_pJ", "backward_pJ", "leak_pJ"):
        with pytest.raises(CheckError, match=key):
            checks.check_fc_sweep(_scaled(rows, 4, key, 1 + 1e-9), checks.Cost())


def test_winner_must_be_the_argmin(sweep_rows):
    rows = [dict(r) for r in sweep_rows["fc_sweep.csv"]]
    loser = next(r for r in rows if r["winner"] == "0")
    loser["winner"] = "1"
    with pytest.raises(CheckError, match="winner"):
        checks.check_winners(rows, ("b_w",), "fc-sweep")


def test_conv_ratios_are_bounded(sweep_rows):
    rows = sweep_rows["conv_sweep.csv"]
    checks.check_conv_sweep(rows)
    func8 = next(i for i, r in enumerate(rows) if r["scheme"] == "FUNC" and r["b_w"] == "8")
    with pytest.raises(CheckError, match="backward ratio"):
        checks.check_conv_sweep(_scaled(rows, func8, "backward_pJ", 2.0))
    with pytest.raises(CheckError, match="forward ratio"):
        checks.check_conv_sweep(_scaled(rows, func8, "forward_pJ", 1.2))


def test_density_grid_corners(sweep_rows):
    rows = sweep_rows["density_leak_grid.csv"]
    checks.check_density_grid(rows)
    swapped = [dict(r) for r in rows]
    for r in swapped:
        if round(float(r["density"]), 9) == 1.0 and float(r["leak_fraction"]) == 0.0:
            r["total_pJ"] = repr(-float(r["total_pJ"]) if r["scheme"] == "PB-CSR"
                                 else float(r["total_pJ"]))
            r["winner"] = str(int(r["scheme"] == "PB-CSR"))
    with pytest.raises(CheckError, match=r"\(1.0, 0.0\)"):
        checks.check_density_grid(swapped)


def test_calibration_must_reproduce_the_frozen_constants():
    got = energy.calibrate_defaults(energy.DEFAULT_ANCHORS)
    checks.check_constants(got)
    with pytest.raises(CheckError, match="b_write"):
        checks.check_constants({**got, "b_write": got["b_write"] * (1 + 1e-9)})


@pytest.fixture(scope="module")
def train_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    config = out / "cfg.json"
    config.write_text('{"train_frontier": {"layer_sizes": [20, 10, 5], "steps": 10,'
                      ' "epochs": 3, "bit_widths": [2, 4], "schemes": ["CB", "PB-BMP"]}}')
    run = out / "run"
    assert cli.main(["train-frontier", "--config", str(config), "--out", str(run),
                     "--seed", "5"]) == 0
    return run


def test_cb_curve_rejects_a_perturbed_epoch(train_out):
    rows = checks.read_rows(train_out / "curve_CB_4b.csv")
    checks.check_cb_curve(rows, checks.Cost(), (20, 10, 5), 10, 4, 3, "CB 4b")
    with pytest.raises(CheckError, match="epoch 2 fwd_pJ"):
        checks.check_cb_curve(_scaled(rows, 2, "fwd_pJ", 1 + 1e-9), checks.Cost(),
                              (20, 10, 5), 10, 4, 3, "CB 4b")


def test_frontier_rejects_a_diverged_cell(train_out):
    rows = checks.read_rows(train_out / "frontier.csv")
    checks.check_frontier(rows, 4)
    rows[1]["diverged"] = "1"
    with pytest.raises(CheckError, match="diverged"):
        checks.check_frontier(rows, 4)


def test_repeated_outputs_must_match_byte_for_byte(train_out, tmp_path):
    copy = tmp_path / "copy"
    copy.mkdir()
    for p in train_out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    checks.check_same_files(train_out, copy)
    target = copy / "frontier.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    with pytest.raises(CheckError, match="frontier.csv"):
        checks.check_same_files(train_out, copy)


def _episode_inputs(seed=3):
    rng = np.random.default_rng(seed)
    weights = [checks.grid_round(rng.uniform(-1, 1, (30, 20)), 4),
               checks.grid_round(rng.uniform(-1, 1, (20, 10)), 4)]
    raster = (rng.random((30, 40)) < 0.3).astype(np.uint8)
    return weights, raster, [2.0, 2.0]


def test_reference_episode_catches_one_flipped_spike():
    weights, raster, etas = _episode_inputs()
    out, states = snn.run_episode(weights, raster, snn.LifParams(**checks.LIF), etas)
    got = [np.array(st.s_history).T for st in states]
    want = checks.reference_episode(weights, raster, etas)
    assert want[0].any() and want[1].any()
    checks.check_rasters(got, want, "episode")
    got[1][3, 7] = 1.0 - got[1][3, 7]
    with pytest.raises(CheckError, match="1 spikes differ"):
        checks.check_rasters(got, want, "episode")


def test_gradients_must_match_finite_differences():
    rng = np.random.default_rng(1)
    lif = {**checks.LIF, "theta": 0.3, "beta_s": 5.0}
    params = snn.LifParams(**lif)
    weights = [rng.uniform(-0.8, 0.8, (3, 3)), rng.uniform(-0.8, 0.8, (3, 2))]
    raster = (rng.random((3, 6)) < 0.5).astype(np.float64)
    target = (rng.random((2, 6)) < 0.3).astype(np.float64)
    out, states = snn.run_episode(weights, raster, params, soft=True)
    analytic = snn.bptt_gradients(states, weights, out, target, params, 6.0)
    numeric = checks.finite_difference(weights, raster, target, 6.0, lif)
    checks.check_gradients(analytic, numeric, "net")
    analytic[0][1, 2] *= 1.01
    with pytest.raises(CheckError, match="finite differences"):
        checks.check_gradients(analytic, numeric, "net")


def test_weights_must_stay_on_the_grid_and_in_range():
    w = [checks.grid_round(np.linspace(-1, 1, 50).reshape(5, 10), 3)]
    checks.check_on_grid(w, 3, "w")
    off = [w[0].copy()]
    off[0][2, 2] += 0.01
    with pytest.raises(CheckError, match="off the 3-bit grid"):
        checks.check_on_grid(off, 3, "w")
    wide = [w[0].copy()]
    wide[0][0, 0] = 1.0
    with pytest.raises(CheckError, match="outside"):
        checks.check_on_grid(wide, 3, "w")


@pytest.fixture(scope="module")
def matrix():
    return random_synapse_matrix(40, 24, 0.4, CounterRng(9))


@pytest.mark.parametrize("build", [stores.build_crossbar, stores.build_csr,
                                   stores.build_bitmap])
def test_lookups_must_equal_the_rounded_matrix(matrix, build):
    s = build(matrix, 6)
    fwd = [s.forward_lookup(i)[0] for i in range(matrix.n_pre)]
    rev = [s.reverse_lookup(j)[0] for j in range(matrix.n_post)]
    checks.check_lookups(fwd, rev, matrix.weights, matrix.mask, 6, s.scheme)
    row = next(i for i, r in enumerate(fwd) if r)
    fwd[row][0] = (fwd[row][0][0], fwd[row][0][1] + 2.0 ** -5)
    with pytest.raises(CheckError, match="forward weights"):
        checks.check_lookups(fwd, rev, matrix.weights, matrix.mask, 6, s.scheme)


def test_written_synapses_must_read_back_rounded(matrix):
    s = stores.build_csr(matrix, 6)
    pre, post = np.nonzero(matrix.mask)
    writes = (pre[:3], post[:3], np.array([0.3, -2.0, 0.51]))
    for p, q, v in zip(*writes):
        s.write_weight(int(p), int(q), float(v))
    checks.check_written(s.to_dense(), matrix.weights, matrix.mask, 6, writes, "csr")
    unrounded = s.to_dense()
    unrounded[pre[0], post[0]] = 0.3
    with pytest.raises(CheckError, match="after the write batch"):
        checks.check_written(unrounded, matrix.weights, matrix.mask, 6, writes, "csr")


def test_decoded_store_rejects_one_corrupted_weight(matrix):
    s = stores.build_bitmap(matrix, 6)
    back = serialize.from_bytes(serialize.to_bytes(s))
    checks.check_decoded(back, s, "bmp")
    back.weights[5] += 2.0 ** -5
    with pytest.raises(CheckError, match="1 decoded weights differ"):
        checks.check_decoded(back, s, "bmp")


@pytest.mark.parametrize("build", [stores.build_crossbar, stores.build_csr,
                                   stores.build_bitmap])
def test_a_container_that_loads_but_is_wrong_is_caught(matrix, build):
    weights = matrix.weights.copy()
    weights[-1, -1] = 0.5
    mask = matrix.mask.copy()
    mask[-1, -1] = True
    matrix = SynapseMatrix(weights, mask)
    s = build(matrix, 6)
    blob = serialize.to_bytes(s)
    checks.check_layout(s, blob, s.scheme, matrix.n_pre, matrix.n_post, matrix.nnz, 6,
                        s.scheme)
    # the last byte is the last synapse's nonzero weight word; the decoder
    # reads the missing word as 0 and accepts the cut container
    cut = blob[:-1]
    loaded = serialize.from_bytes(cut)
    with pytest.raises(CheckError, match="decoded weights differ"):
        checks.check_decoded(loaded, s, s.scheme)
    with pytest.raises(CheckError, match="layout says"):
        checks.check_layout(s, cut, s.scheme, matrix.n_pre, matrix.n_post, matrix.nnz,
                            6, s.scheme)
    flipped = bytearray(blob)
    flipped[-1] ^= 0x01
    with pytest.raises(CheckError, match="decoded weights differ"):
        checks.check_decoded(serialize.from_bytes(bytes(flipped)), s, s.scheme)


def test_storage_bits_must_match_the_layout(matrix):
    s = stores.build_csr(matrix, 6)
    blob = serialize.to_bytes(s)
    with pytest.raises(CheckError, match="storage_bits"):
        checks.check_layout(s, blob, "PB-CSR", matrix.n_pre, matrix.n_post,
                            matrix.nnz + 1, 6, "csr")


def test_func_lookups_must_equal_csr_from_conv():
    g = conv.ConvGeometry(6, 5, 3, 3, 2, 3)
    kernel = CounterRng(4).uniform_range(-1, 1, (2, 3, 3, 3))
    func = conv.build_functional(g, kernel, 8)
    csr = conv.csr_from_conv(g, kernel, 8)
    assert csr.nnz == checks.conv_connections(6, 5, 3, 3, 2, 3)
    f = [func.forward_lookup(p)[0] for p in range(g.n_pre)]
    c = [csr.forward_lookup(p)[0] for p in range(g.n_pre)]
    checks.check_conv_lookups(f, c, "conv")
    f[7] = [(post, w + 2.0 ** -7) for post, w in f[7]]
    with pytest.raises(CheckError, match="#7"):
        checks.check_conv_lookups(f, c, "conv")
