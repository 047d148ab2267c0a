"""Command-line interface: outputs, schemas, determinism, exit codes."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from synmem.cli import (CONFIG_KEYS, CURVE_COLUMNS, ConfigError, DEFAULT_CONFIG,
                        SWEEP_COLUMNS, build_parser, load_config, main)
from synmem.energy import (DEFAULT_ANCHORS, calibrate_defaults, load_cost_model,
                           pass_energy, training_energy)
from synmem.quant import QuantConfig
from synmem.snn import NetworkConfig, TrainResult, train_cells
from synmem.stores import FC_SCHEMES, fc_pass_traces


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides or {}))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh), None)


def run(args):
    return main([str(a) for a in args])


SMALL_FC = {"fc_sweep": {"n_pre": 48, "n_post": 32, "density": 0.5,
                         "bit_widths": [4, 8]}}
SMALL_CONV = {"conv_sweep": {"in_h": 6, "in_w": 6, "k_h": 3, "k_w": 3,
                             "c_in": 2, "c_out": 2, "bit_widths": [8]}}
SMALL_GRID = {"density_leak_grid": {"n_pre": 48, "n_post": 32,
                                    "densities": [0.1, 0.9],
                                    "leak_fractions": [0.0, 0.5]}}
SMALL_TRAIN = {"train_frontier": {"layer_sizes": [16, 8, 4], "steps": 8,
                                  "epochs": 2, "bit_widths": [2, 4],
                                  "schemes": ["CB", "PB-BMP"],
                                  "lr_anneal": 0}}
COMMAND_SECTIONS = [
    ("fc-sweep", SMALL_FC),
    ("conv-sweep", SMALL_CONV),
    ("density-leak-grid", SMALL_GRID),
    ("train-frontier", SMALL_TRAIN),
]


class TestConfig:
    def test_defaults_merge(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FC))
        assert cfg["fc_sweep"]["n_pre"] == 48
        assert cfg["fc_sweep"]["w_word"] == 32       # untouched default
        assert cfg["conv_sweep"] == DEFAULT_CONFIG["conv_sweep"]

    def test_invalid_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"fc_sweep": {\n  "n_pre": }\n}')
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert ":2:" in str(err.value)               # line number surfaced

    def test_unknown_section_and_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, {"nope": {}}))
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, {"fc_sweep": {"bogus": 1}}))

    def test_missing_file_is_config_error_exit_code(self, tmp_path):
        assert run(["fc-sweep", "--config", tmp_path / "absent.json",
                    "--out", tmp_path]) == 2

    def test_bad_leak_fraction_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {"density_leak_grid":
                                   {"leak_fractions": [0.0, 1.0]}})
        assert run(["density-leak-grid", "--config", cfg,
                    "--out", tmp_path]) == 2

    def test_cost_model_from_file(self, tmp_path):
        constants = tmp_path / "model.json"
        constants.write_text(json.dumps({"b_read": 0.0, "b_write": 0.0}))
        over = dict(SMALL_FC)
        over["cost_model"] = str(constants)
        cfg = write_cfg(tmp_path, over)
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 0
        # flat model: crossbar forward is exactly n_pre*n_post*b_w
        rows = read_rows(tmp_path / "fc_sweep.csv")
        cb4 = next(r for r in rows if r["scheme"] == "CB" and r["b_w"] == "4")
        assert float(cb4["forward_pJ"]) == 48 * 32 * 4

    def test_inline_cost_model_equals_file_form(self, tmp_path):
        constants = {"b_read": 0.0, "b_write": 0.0}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(constants))
        written = {}
        for form, source in (("file", str(model)), ("inline", constants)):
            cfg = write_cfg(tmp_path, {**SMALL_FC, "cost_model": source},
                            name=f"{form}.json")
            assert run(["fc-sweep", "--config", cfg, "--out", tmp_path / form]) == 0
            written[form] = (tmp_path / form / "fc_sweep.csv").read_bytes()
        assert written["inline"] == written["file"]

    def test_unknown_inline_cost_model_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**SMALL_FC, "cost_model": {"a_raed": 2.0}})
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 2
        assert "a_raed" in capsys.readouterr().err

    @pytest.mark.parametrize("constants", [
        {"a_read": float("nan")}, {"a_read": "x"}, {"round_pow2": "no"}, [], 5, None],
        ids=["non-finite", "non-numeric", "round-pow2-not-bool", "top-level-list",
             "top-level-number", "top-level-null"])
    def test_bad_cost_model_constant_exit_code(self, tmp_path, constants):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(constants))
        cfg = write_cfg(tmp_path, {**SMALL_FC, "cost_model": str(model)})
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("command,section,constants", [
        ("fc-sweep", SMALL_FC, {"a_read": 1e308}),
        ("fc-sweep", SMALL_FC, {"a_read": 1e303}),
        ("fc-sweep", SMALL_FC, {"a_leak": 3e300}),
        ("train-frontier", SMALL_TRAIN, {"a_read": 1e308}),
        ("train-frontier", SMALL_TRAIN, {"a_read": 2e303}),
        ("density-leak-grid", SMALL_GRID, {"a_read": 1e308}),
        ("density-leak-grid", SMALL_GRID, {"a_leak": 1e-320}),
    ], ids=["fc-pass", "fc-row-sum", "fc-row-leak-sum", "train-pass", "train-epoch-sum", "grid-pass",
            "grid-leak-scaling"])
    def test_overflowing_cost_model_exit_code(self, tmp_path, capsys, command,
                                              section, constants):
        # every constant is finite, but an energy figure they form is not
        cfg = write_cfg(tmp_path, {**section, "cost_model": constants})
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert "config error: cost_model:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cost_model_file(self, tmp_path):
        over = dict(SMALL_FC)
        over["cost_model"] = str(tmp_path / "absent.json")
        cfg = write_cfg(tmp_path, over)
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 2

    def test_out_of_range_density_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {"fc_sweep": {"density": 1.5}})
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 2

    def test_bad_network_shape_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {"train_frontier": {"layer_sizes": [8],
                                                      "epochs": 1}})
        assert run(["train-frontier", "--config", cfg, "--out", tmp_path]) == 2


def _just_outside(key):
    """Values of `key`'s type that lie just outside its range."""
    item = {"int": True, "int list": True, "distinct int list": True, "float": False,
            "grid axis": False}
    if key.type not in item or (key.lo is None and key.hi is None):
        return []
    integer = item[key.type]
    outside = []
    if key.lo is not None:
        outside.append(key.lo - 1 if integer else math.nextafter(key.lo, -math.inf))
    if key.hi is not None:
        outside.append(key.hi if key.hi_open
                       else key.hi + 1 if integer else math.nextafter(key.hi, math.inf))
    if key.type == "grid axis":
        return [[x, key.lo] for x in outside]
    if key.type in ("int list", "distinct int list"):
        return [[key.lo, x] for x in outside]
    return outside


TABLE_KEYS = [(section, name) for section, keys in CONFIG_KEYS.items()
              for name in keys]


class TestConfigTable:
    @pytest.mark.parametrize("section,name", TABLE_KEYS)
    def test_each_key_checks_its_type_and_range(self, tmp_path, capsys, section,
                                                name):
        key = CONFIG_KEYS[section][name]
        cfg = load_config(write_cfg(tmp_path, {section: {name: key.default}}))
        assert cfg[section][name] == key.default
        command = section.replace("_", "-")
        bad = ["x", *_just_outside(key)]
        assert len(bad) > 1 or (key.lo is None and key.hi is None)
        for value in bad:
            cfg = write_cfg(tmp_path, {section: {name: value}})
            assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2, value
            assert f"{section}.{name}" in capsys.readouterr().err, value
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,override,names", [
        ("fc_sweep", {"bit_widths": "2345"}, "fc_sweep.bit_widths"),
        ("fc_sweep", {"bit_widths": [4, 4]}, "fc_sweep.bit_widths"),
        ("conv_sweep", {"bit_widths": [8, 8]}, "conv_sweep.bit_widths"),
        ("fc_sweep", {"n_pre": 7.9}, "fc_sweep.n_pre"),
        ("fc_sweep", {"n_pre": True}, "fc_sweep.n_pre"),
        ("fc_sweep", {"density": "0.5"}, "fc_sweep.density"),
        ("conv_sweep", {"include_crossbar": "false"}, "conv_sweep.include_crossbar"),
        ("density_leak_grid", {"densities": {"min": 0.1, "max": 1.0, "steps": 2.7}},
         "density_leak_grid.densities"),
        ("density_leak_grid", {"densities": "ab"}, "density_leak_grid.densities"),
        ("density_leak_grid", {"densities": {"min": 0.1}}, "density_leak_grid.densities"),
        ("density_leak_grid", {"leak_fractions": [0.0, 0.0]},
         "density_leak_grid.leak_fractions"),
        ("density_leak_grid", {"densities": {"min": 0.5, "max": 0.5, "steps": 3}},
         "density_leak_grid.densities"),
        ("train_frontier", {"steps": None}, "train_frontier.steps"),
        ("train_frontier", {"layer_sizes": 6}, "train_frontier.layer_sizes"),
        ("train_frontier", {"tau_vr": 0.0}, "train_frontier: tau_vr"),
        ("train_frontier", {"tau_vr": -3.0}, "train_frontier: tau_vr"),
        ("train_frontier", {"lr_anneal": -5}, "train_frontier: lr_anneal"),
        ("train_frontier", {"epochs": -1}, "train_frontier.epochs"),
        ("train_frontier", {"layer_sizes": [6.5, 3]}, "train_frontier.layer_sizes"),
        ("train_frontier", {"schemes": "CB"}, "train_frontier.schemes"),
        ("train_frontier", {"schemes": ["CB", "CB"]}, "train_frontier.schemes"),
        ("train_frontier", {"bit_widths": [4, 4]}, "train_frontier.bit_widths"),
        ("train_frontier", {"lr": float("nan")}, "train_frontier.lr"),
        ("train_frontier", {"lr": -1e-4}, "train_frontier: lr"),
        ("conv_sweep", {"k_h": 2}, "conv_sweep: kernel extents must be odd"),
        ("train_frontier", {"bit_widths": [1100]},
         "train_frontier: b_w must be in [2, 64]"),
        ("train_frontier", {"b_e": 1100, "b_m": 1100},
         "train_frontier: b_e must be in [2, 64]"),
        ("fc_sweep", {"bit_widths": [10 ** 330]}, "fc_sweep.bit_widths"),
        ("fc_sweep", {"n_pre": 10 ** 200, "n_post": 10 ** 200}, "fc_sweep.n_pre"),
    ], ids=["bit-widths-string", "fc-bit-widths-repeated", "conv-bit-widths-repeated",
            "n-pre-fraction", "n-pre-bool", "density-string",
            "include-crossbar-string", "fractional-steps", "axis-string",
            "axis-without-max-and-steps", "axis-list-repeated", "axis-range-repeated",
            "steps-null", "layer-sizes-int",
            "tau-vr-zero", "tau-vr-negative", "lr-anneal-negative",
            "epochs-negative", "layer-sizes-fraction", "schemes-string",
            "schemes-duplicate", "bit-widths-repeated", "lr-nan", "lr-negative",
            "conv-kernel-even", "bit-width-past-64", "error-and-membrane-past-64",
            "sweep-bit-width-huge", "layer-huge"])
    def test_probed_fault_is_a_config_error(self, tmp_path, capsys, section,
                                            override, names):
        base = dict(SMALL_TRAIN["train_frontier"]) if section == "train_frontier" else {}
        cfg = write_cfg(tmp_path, {section: {**base, **override}})
        command = section.replace("_", "-")
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert names in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_int_for_a_float_key_reads_as_float(self, tmp_path):
        written = {}
        for density in (1, 1.0):
            cfg = write_cfg(tmp_path, {"fc_sweep": {**SMALL_FC["fc_sweep"],
                                                    "density": density}},
                            name=f"{density!r}.json")
            out = tmp_path / repr(density)
            assert run(["fc-sweep", "--config", cfg, "--out", out]) == 0
            written[density] = (out / "fc_sweep.csv").read_bytes()
        assert written[1] == written[1.0]
        assert {r["density"] for r in read_rows(tmp_path / "1" / "fc_sweep.csv")} == {"1.0"}

    def test_sweeps_run_at_the_config_maxima(self, tmp_path):
        # the widest layers and words the table admits price to finite figures
        sections = {}
        for section in ("fc_sweep", "conv_sweep", "density_leak_grid"):
            sections[section] = {
                name: [key.lo, key.hi] if key.type == "distinct int list" else key.hi
                for name, key in CONFIG_KEYS[section].items()
                if key.type in ("int", "distinct int list") and key.hi is not None}
        sections["conv_sweep"]["include_crossbar"] = True
        cfg = write_cfg(tmp_path, sections)
        for section in sections:
            out = tmp_path / section
            assert run([section.replace("_", "-"), "--config", cfg, "--out", out]) == 0
            rows = read_rows(out / f"{section}.csv")
            assert rows
            for row in rows:
                for column in ("forward_pJ", "backward_pJ", "leak_pJ", "total_pJ"):
                    assert math.isfinite(float(row[column])), (section, row)

    @pytest.mark.parametrize("parts", [(), ("sub",)], ids=["a-file", "under-a-file"])
    def test_out_that_is_not_a_directory_is_refused_before_the_run(
            self, tmp_path, capsys, monkeypatch, parts):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr("synmem.cli.layer_sweep", never)
        cfg = write_cfg(tmp_path, SMALL_FC)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert run(["fc-sweep", "--config", cfg, "--out", afile.joinpath(*parts)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err
        assert afile.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]

    def test_library_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug in the library")
        monkeypatch.setattr("synmem.cli.layer_sweep", broken)
        cfg = write_cfg(tmp_path, SMALL_FC)
        with pytest.raises(ValueError, match="a bug in the library"):
            run(["fc-sweep", "--config", cfg, "--out", tmp_path])

    def test_full_scale_manifest_hashes_the_config_that_ran(self, tmp_path,
                                                             monkeypatch):
        ran = []

        def fake_train_cells(net, quants, epochs, seed):
            ran.append((list(net.layer_sizes), net.steps, epochs))
            return [TrainResult([1.0], [], []) for _ in quants]
        monkeypatch.setattr("synmem.cli.train_cells", fake_train_cells)
        cfg = write_cfg(tmp_path, {})
        digests = {}
        for scale, flags in (("desk", []), ("full", ["--full-scale"])):
            out = tmp_path / scale
            assert run(["train-frontier", "--config", cfg, "--out", out, *flags]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            digests[scale] = manifest["config_sha256"]
        assert ran[-1] == ([700, 400, 250], 250, 10000)
        effective = load_config(cfg)
        assert digests["desk"] == hashlib.sha256(
            json.dumps(effective, sort_keys=True).encode()).hexdigest()
        effective["train_frontier"].update(
            {"layer_sizes": [700, 400, 250], "steps": 250, "epochs": 10000})
        assert digests["full"] == hashlib.sha256(
            json.dumps(effective, sort_keys=True).encode()).hexdigest()
        assert digests["desk"] != digests["full"]


class TestCommands:
    def test_fc_sweep_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_FC)
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 0
        out = tmp_path / "fc_sweep.csv"
        assert read_header(out) == SWEEP_COLUMNS
        rows = read_rows(out)
        assert len(rows) == 6    # 3 schemes x 2 bit widths
        assert {r["scheme"] for r in rows} == {"CB", "PB-CSR", "PB-BMP"}
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "fc-sweep"
        assert manifest["outputs"]["fc_sweep.csv"] == "sweep_v1"

    def test_conv_sweep_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CONV)
        assert run(["conv-sweep", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "conv_sweep.csv")
        assert {r["scheme"] for r in rows} == {"PB-CSR", "FUNC"}

    def test_density_grid_winner_consistency(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID)
        assert run(["density-leak-grid", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "density_leak_grid.csv")
        groups = {}
        for r in rows:
            key = (r["density"], r["leak_fraction"])
            groups.setdefault(key, []).append(r)
        for group in groups.values():
            best = min(group, key=lambda r: float(r["total_pJ"]))
            assert best["winner"] == "1"
            assert sum(int(r["winner"]) for r in group) == 1

    def test_density_grid_with_an_empty_layer(self, tmp_path):
        # every 0-density point is won by a 0 pJ PB-CSR layer (its empty banks
        # hold no capacity and leak nothing), whose order of magnitude is
        # undefined and left empty
        cfg = write_cfg(tmp_path, {"density_leak_grid": {"densities": [0.0, 0.5]}})
        assert run(["density-leak-grid", "--config", cfg, "--out", tmp_path]) == 0
        for r in read_rows(tmp_path / "density_leak_grid.csv"):
            empty = r["density"] == "0.0"
            assert (r["winner_oom"] == "") == empty, r

    def test_train_frontier_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        assert run(["train-frontier", "--config", cfg, "--out", tmp_path,
                    "--seed", 5]) == 0
        rows = read_rows(tmp_path / "frontier.csv")
        assert len(rows) == 4    # 2 schemes x 2 bit widths
        assert read_header(tmp_path / "curve_CB_2b.csv") == CURVE_COLUMNS
        curve = read_rows(tmp_path / "curve_PB_BMP_4b.csv")
        assert len(curve) == 3   # initial + 2 epochs
        assert curve[0]["fwd_pJ"] == "0.0"



class TestTrainFrontierEnergy:
    """Every train-frontier energy figure, recomputed from the layers' counts:
    per layer, `steps` forward scans, and `steps` backward scans plus one
    update pass, priced by pass_energy and summed in layer order from 0.0."""

    COST_MODEL = {"e_logic": 3.0, "b_write": 0.25}

    def check(self, out, section, layer_nnz):
        """layer_nnz(b_w, curve row): each layer's nnz in that row's epoch."""
        model = load_cost_model(self.COST_MODEL)
        sizes, steps = section["layer_sizes"], section["steps"]
        frontier = {(r["scheme"], int(r["b_w"])): r
                    for r in read_rows(out / "frontier.csv")}
        for (scheme, b_w), summary in frontier.items():
            curve = read_rows(out / f"curve_{scheme.replace('-', '_')}_{b_w}b.csv")
            assert len(curve) == section["epochs"] + 1
            total = 0.0
            for row in curve[1:]:
                fwd = bwd = 0.0
                for n_pre, n_post, nnz in zip(sizes, sizes[1:], layer_nnz(b_w, row)):
                    fwd_1, bwd_1, upd = fc_pass_traces(scheme, n_pre, n_post, nnz, b_w)
                    fwd += pass_energy(fwd_1.scaled(steps), model).active_energy
                    bwd += pass_energy(bwd_1.scaled(steps) + upd, model).active_energy
                assert (row["fwd_pJ"], row["bwd_pJ"]) == (repr(fwd), repr(bwd))
                total += float(row["fwd_pJ"]) + float(row["bwd_pJ"])
            assert summary["energy_total_pJ"] == repr(total)
        assert len(frontier) == len(FC_SCHEMES) * len(section["bit_widths"])

    def test_frozen_weights(self, tmp_path, monkeypatch):
        # lr 0: the quantized weights never move, so the final weights'
        # nnz gives every epoch's traffic
        section = {**SMALL_TRAIN["train_frontier"], "epochs": 3, "lr": 0.0,
                   "schemes": list(FC_SCHEMES)}
        cells = []

        def recorded(*args):
            cells.extend(train_cells(*args))
            return cells
        monkeypatch.setattr("synmem.cli.train_cells", recorded)
        cfg = write_cfg(tmp_path, {"cost_model": self.COST_MODEL,
                                   "train_frontier": section})
        assert run(["train-frontier", "--config", cfg, "--out", tmp_path,
                    "--seed", 3]) == 0
        final = dict(zip(section["bit_widths"], cells))
        self.check(tmp_path, section, lambda b_w, row: [
            int(np.count_nonzero(w)) for w in final[b_w].weights])

    def test_moving_weights(self, tmp_path):
        # at the default lr the weights move; with one weight layer, each
        # epoch's sparsity column gives that layer's nnz
        section = {"layer_sizes": [200, 50], "steps": 100, "epochs": 4,
                   "bit_widths": [2, 4], "schemes": list(FC_SCHEMES)}
        size = 200 * 50
        nnz_seen = set()

        def layer_nnz(b_w, row):
            zeros = round(float(row["sparsity"]) * size)
            assert repr(zeros / size) == row["sparsity"]
            nnz_seen.add((b_w, size - zeros))
            return [size - zeros]
        cfg = write_cfg(tmp_path, {"cost_model": self.COST_MODEL,
                                   "train_frontier": section})
        assert run(["train-frontier", "--config", cfg, "--out", tmp_path,
                    "--seed", 3]) == 0
        self.check(tmp_path, section, layer_nnz)
        assert len(nnz_seen) > len(section["bit_widths"])     # some nnz moved

    @pytest.mark.parametrize("constants", [
        {"round_pow2": False}, calibrate_defaults(DEFAULT_ANCHORS)],
        ids=["no-pow2", "calibrated"])
    def test_repriced_counts_equal_a_priced_run(self, tmp_path, constants):
        # the counts do not depend on the cost model: one run's counts, priced
        # under another model, give every figure a run under that model writes
        section = {"layer_sizes": [60, 20, 10], "steps": 40, "epochs": 8,
                   "bit_widths": [2, 3], "schemes": list(FC_SCHEMES)}
        sizes = section["layer_sizes"]
        quants = [QuantConfig(b_w=b_w, fan_in=sizes[0]) for b_w in section["bit_widths"]]
        cells = train_cells(NetworkConfig(layer_sizes=sizes, steps=section["steps"]),
                            quants, section["epochs"], seed=3)
        assert all(len(set(c.nnz)) > 1 for c in cells)      # the counts moved
        cfg = write_cfg(tmp_path, {"cost_model": constants, "train_frontier": section})
        assert run(["train-frontier", "--config", cfg, "--out", tmp_path / "out",
                    "--seed", 3]) == 0
        model = load_cost_model(constants)
        frontier = {(r["scheme"], int(r["b_w"])): r
                    for r in read_rows(tmp_path / "out" / "frontier.csv")}
        for quant, cell in zip(quants, cells):
            for scheme in section["schemes"]:
                pairs = training_energy(scheme, list(zip(sizes, sizes[1:])), cell.nnz,
                                        quant.b_w, section["steps"], model)
                curve = read_rows(tmp_path / "out" /
                                  f"curve_{scheme.replace('-', '_')}_{quant.b_w}b.csv")
                assert [(r["fwd_pJ"], r["bwd_pJ"]) for r in curve[1:]] == \
                    [(repr(f), repr(b)) for f, b in pairs]
                assert frontier[(scheme, quant.b_w)]["energy_total_pJ"] == \
                    repr(sum(f + b for f, b in pairs))


class TestDeterminism:
    @pytest.mark.parametrize("command,section", COMMAND_SECTIONS)
    def test_rerun_is_byte_identical(self, tmp_path, command, section):
        cfg = write_cfg(tmp_path, section)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run([command, "--config", cfg, "--out", out_a, "--seed", 7]) == 0
        assert run([command, "--config", cfg, "--out", out_b, "--seed", 7]) == 0
        files_a = sorted(os.listdir(out_a))
        assert files_a == sorted(os.listdir(out_b))
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_recorded_and_changes_training(self, tmp_path):
        # sweep energies are closed forms in the counts, so the fc CSV does
        # not vary with the mask seed; training outputs do
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["train-frontier", "--config", cfg, "--out", out_a, "--seed", 1])
        run(["train-frontier", "--config", cfg, "--out", out_b, "--seed", 2])
        assert (out_a / "frontier.csv").read_bytes() != \
            (out_b / "frontier.csv").read_bytes()
        seed_a = json.loads((out_a / "run_manifest.json").read_text())["seed"]
        seed_b = json.loads((out_b / "run_manifest.json").read_text())["seed"]
        assert (seed_a, seed_b) == (1, 2)


# sha256 of each sweep CSV at the default config, recorded from the
# store-building sweeps before they were replaced by the count-based ones
DEFAULT_SWEEP_SHA256 = {
    "fc-sweep": ("fc_sweep.csv",
                 "91eb091ed79c2a2a76634a65defc80d642b879ef81df08666279b3331e242008"),
    "conv-sweep": ("conv_sweep.csv",
                   "cba3559be453b9b767399f3794344b571220c0f23d3f18c07eba46ac22184628"),
    "density-leak-grid": (
        "density_leak_grid.csv",
        "d159c1626a0586fdaac21727a954a039a11606249f480fccaddc8f2aa6a0f282"),
}


@pytest.mark.parametrize("command", sorted(DEFAULT_SWEEP_SHA256))
def test_default_sweep_bytes_are_fixed_and_seed_free(tmp_path, command):
    name, digest = DEFAULT_SWEEP_SHA256[command]
    cfg = write_cfg(tmp_path, {})
    for seed in (0, 9):
        assert run([command, "--config", cfg, "--out", tmp_path / str(seed),
                    "--seed", seed]) == 0
    data = (tmp_path / "0" / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert (tmp_path / "9" / name).read_bytes() == data


# sha256 of every train-frontier file, manifest included, at the benchmark's
# `train` workload config, recorded before the training engine's leaky
# filters became one
TRAIN_WORKLOAD = {"train_frontier": {"layer_sizes": [200, 100, 50], "steps": 100,
                                     "epochs": 10, "bit_widths": [2, 3, 4, 5, 6],
                                     "schemes": ["CB", "PB-BMP", "PB-CSR"]}}
TRAIN_WORKLOAD_SHA256 = {
    0: {
        "curve_CB_2b.csv":
            "9bde7bbb4e8d7c8ee2aad52009ca869636c9ecdf79b1be3573672a362f6f0b8a",
        "curve_CB_3b.csv":
            "a665b90a0343fee700f2b260a9e8ecef075423cec2828472aaa05a9287af19ef",
        "curve_CB_4b.csv":
            "44c86116720ef429ab44b0c0d536d232e0f71acbd23d3c88c0ff3987d5c011ba",
        "curve_CB_5b.csv":
            "73e2156f2b8b8ba044a857069e787431217b998de6e1b2b3e885d1b50a12ad83",
        "curve_CB_6b.csv":
            "606f09447704b7b7f72d0bfaf4143151e2faa64db7bae7008477fa4b297770ee",
        "curve_PB_BMP_2b.csv":
            "75adce9c3c9cd349df3899366aab19fb4b8868a7a805d009c6902964c0b7bbb3",
        "curve_PB_BMP_3b.csv":
            "40478e14f12910184ff4219749dadee22d87bac028e4f1b2af857cd169292350",
        "curve_PB_BMP_4b.csv":
            "79d8c91885b0b8e1ad028f81208dcfd756f2f8499125bfa51b89f7db54465704",
        "curve_PB_BMP_5b.csv":
            "9936e307d3538232a1eb222caa3acb0ee54c3721839c0bed97a292f332e68ff3",
        "curve_PB_BMP_6b.csv":
            "9bd033494d966399086350f4f6fbfd28d8ff388010cf2a8d39aa02c6cad63a80",
        "curve_PB_CSR_2b.csv":
            "cf16e1249787336aba71a8111950156305af7bdb2ca69db502951d6fd0b1c5bc",
        "curve_PB_CSR_3b.csv":
            "62ea61d1a7d7c5548ee31ac9298b4377f607629269918246c38754c73597b2ed",
        "curve_PB_CSR_4b.csv":
            "5d98677a0b5a0560b2b0399625a25a3c56be2b0468fead7aa55f8dd5e6eb1f29",
        "curve_PB_CSR_5b.csv":
            "935f42bcc861c7a20c87c50ac1ddb136f75f05ff1012613ede80370e48dfa56d",
        "curve_PB_CSR_6b.csv":
            "b0b08b4bd366cd1461967e62acbbacf8494e4209170bff0a16ff8839e1b05673",
        "frontier.csv":
            "2e0931ea341f9d49c987876d13ee89594ce771b154ddf70d8fb2dea6c38ebf33",
        "run_manifest.json":
            "28a789e8e7132843cfb907800a303b015585dd948f98c0ab472a68ef9001bc96",
    },
    9: {
        "curve_CB_2b.csv":
            "96e25a601b596f9467ca16142f0d4ae9679f23b5f5c31e87e9467f12b3f4aebd",
        "curve_CB_3b.csv":
            "a99ef417b7c2713f06bb250cc54960742fc3f38cb48ddc83e27f4a9c0a4ed11a",
        "curve_CB_4b.csv":
            "f1869bf0ccc8d45b12173885fda61621fa055234071691b6ff7c3f64444d73fc",
        "curve_CB_5b.csv":
            "2a9c5a12b9694bc2068db683e6e777952fa89f518411ec8782ca3c5c53a8d8cd",
        "curve_CB_6b.csv":
            "6a5468bb28f7b41c74aaa26cebb1cb23bf2159637a9e050a5cf3c98f06d8ac66",
        "curve_PB_BMP_2b.csv":
            "7b6394e9e22906d60597abb0535732770ce0e8b3b3b15874e128f76cad535c2f",
        "curve_PB_BMP_3b.csv":
            "9d78381cf734df67b291b624c6d9b5b79a5328e89a0c72331acbaee9768e19a5",
        "curve_PB_BMP_4b.csv":
            "703f9e34454d80bb01fc08aee474d0bfd28b663f0727c1afca92cacccebbb987",
        "curve_PB_BMP_5b.csv":
            "aa8fd5581917a4c07c11ebbf0945a46eb111cd025d371cc530a70039f94ae74f",
        "curve_PB_BMP_6b.csv":
            "efb68da03fd97b36b598212e4ffc6ffa8bd70d361734e3308e7d768fb96025bf",
        "curve_PB_CSR_2b.csv":
            "60dcb456aab9cf14c4301f3f9c5fecbf7af8e1f38d66c89dd51cb438f3ec166a",
        "curve_PB_CSR_3b.csv":
            "561336637a60d6f33eb89257837b03920b9004c58cc9cb1235bbd129e8389d1b",
        "curve_PB_CSR_4b.csv":
            "55b3a63da01147b4b4ffc9aa1cff288076efd8573241f94c6e3a5f1ab381c730",
        "curve_PB_CSR_5b.csv":
            "5efc18bacb65363f4b98183ab4b445422a5d7f95b35af321f3e68fcc673084cf",
        "curve_PB_CSR_6b.csv":
            "4e067415a02758097ce15579344aa046cf13d5055aaf3961f0a8e72eb537a6de",
        "frontier.csv":
            "e65f117e2ff91e006d8e12c26c2538379d7687b9b369be3b50ef410cb562a39b",
        "run_manifest.json":
            "0c909528e133f56eb4f4904e9c062a9674ccbe72851c06890927cc4c7f419bf0",
    },
}


@pytest.mark.parametrize("seed", sorted(TRAIN_WORKLOAD_SHA256))
def test_train_workload_bytes_are_fixed(tmp_path, seed):
    cfg = write_cfg(tmp_path, TRAIN_WORKLOAD)
    out = tmp_path / "out"
    assert run(["train-frontier", "--config", cfg, "--out", out, "--seed", seed]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in os.listdir(out)} == TRAIN_WORKLOAD_SHA256[seed]


# the default train-frontier at seed 0, as written by a loop that ran all 2000
# epochs (on one and on two BLAS threads alike): the run stops at its fixed
# point from epoch 180 on and must repeat those bytes
DEFAULT_TRAIN_SHA256 = {
    "frontier.csv": "5e61ad748a338765b215a7cb5d668d4c5ee92088d3050b195e96584640e5f8d2",
    "run_manifest.json":
        "fdb6ebb245b03af4900405a4cfa87904e142280e4278bfd45075bd4df5899464",
}


def test_default_train_frontier_bytes_are_fixed(tmp_path):
    out = tmp_path / "out"
    assert run(["train-frontier", "--config", write_cfg(tmp_path), "--out", out]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in DEFAULT_TRAIN_SHA256} == DEFAULT_TRAIN_SHA256


@pytest.mark.parametrize("command,section", COMMAND_SECTIONS)
def test_out_holds_exactly_the_manifest_outputs(tmp_path, command, section):
    cfg = write_cfg(tmp_path, section)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sorted(os.listdir(out)) == sorted([*manifest["outputs"], "run_manifest.json"])


class TestRerunIntoAUsedOut:
    """A rerun removes the files its command's previous manifest lists and
    it no longer writes, and nothing else."""

    def test_fewer_bit_widths_leave_no_stale_curve(self, tmp_path):
        out = tmp_path / "out"
        for widths in ([2, 4], [2]):
            section = {**SMALL_TRAIN["train_frontier"], "bit_widths": widths}
            cfg = write_cfg(tmp_path, {"train_frontier": section})
            assert run(["train-frontier", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted([*manifest["outputs"],
                                                  "run_manifest.json"])
        assert not (out / "curve_CB_4b.csv").exists()

    def test_other_commands_files_are_kept(self, tmp_path):
        out = tmp_path / "out"
        for command, section in COMMAND_SECTIONS:
            cfg = write_cfg(tmp_path, section)
            assert run([command, "--config", cfg, "--out", out]) == 0
        names = set(os.listdir(out))
        assert {"fc_sweep.csv", "conv_sweep.csv", "density_leak_grid.csv",
                "frontier.csv"} <= names
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        assert run(["train-frontier", "--config", cfg, "--out", out]) == 0
        assert set(os.listdir(out)) == names

    @pytest.mark.parametrize("manifest", [
        {"command": "fc-sweep", "outputs": {"../x": "sweep_v1",
                                            "sub/x": "sweep_v1"}},
        '{"command": "fc-sweep", "outputs": {"x": "sweep_v1"}'],
        ids=["path-names", "cut-short"])
    def test_only_plain_names_of_a_parsed_manifest_are_removed(self, tmp_path,
                                                                manifest):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        for path in (tmp_path / "x", out / "sub" / "x", out / "x"):
            path.write_text("kept")
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        (out / "run_manifest.json").write_text(text)
        assert run(["fc-sweep", "--config", write_cfg(tmp_path, SMALL_FC),
                    "--out", out]) == 0
        for path in (tmp_path / "x", out / "sub" / "x", out / "x"):
            assert path.read_text() == "kept"


class TestSchemaValidation:
    def test_malformed_golden_file_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_FC)
        run(["fc-sweep", "--config", cfg, "--out", tmp_path])
        path = tmp_path / "fc_sweep.csv"
        assert read_header(path) == SWEEP_COLUMNS
        content = path.read_text().splitlines()
        content[0] = content[0].replace("forward_pJ", "fwd")
        path.write_text("\n".join(content))
        assert read_header(path) != SWEEP_COLUMNS


def test_parser_requires_subcommand():
    assert build_parser() is build_parser()       # one parser per process
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    # a refused argv leaves the shared parser working
    args = build_parser().parse_args(["fc-sweep", "--config", "c.json", "--out", "o"])
    assert (args.command, args.seed) == ("fc-sweep", 0)


def test_parser_full_scale_flag():
    args = build_parser().parse_args(
        ["train-frontier", "--config", "c.json", "--out", "o", "--full-scale"])
    assert args.full_scale
    # the shared parser keeps no value from the parse before
    args = build_parser().parse_args(
        ["train-frontier", "--config", "c.json", "--out", "o"])
    assert not args.full_scale
    args = build_parser().parse_args(
        ["fc-sweep", "--config", "c.json", "--out", "o", "--seed", "3"])
    assert args.seed == 3
