"""Command-line interface: outputs, schemas, determinism, exit codes."""

import csv
import hashlib
import json
import os

import pytest

from synmem.cli import (ConfigError, DEFAULT_CONFIG, build_parser, load_config,
                        main, validate_csv)


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides or {}))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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


class TestCommands:
    def test_fc_sweep_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_FC)
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 0
        out = tmp_path / "fc_sweep.csv"
        assert validate_csv(str(out), "sweep_v1")
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

    def test_train_frontier_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        assert run(["train-frontier", "--config", cfg, "--out", tmp_path,
                    "--seed", 5]) == 0
        rows = read_rows(tmp_path / "frontier.csv")
        assert len(rows) == 4    # 2 schemes x 2 bit widths
        assert validate_csv(str(tmp_path / "curve_CB_2b.csv"), "curve_v1")
        curve = read_rows(tmp_path / "curve_PB_BMP_4b.csv")
        assert len(curve) == 3   # initial + 2 epochs
        assert curve[0]["fwd_pJ"] == "0.0"

    def test_audit_mode_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYNMEM_AUDIT", "1")
        cfg = write_cfg(tmp_path, SMALL_FC)
        assert run(["fc-sweep", "--config", cfg, "--out", tmp_path]) == 0


class TestDeterminism:
    @pytest.mark.parametrize("command,section", [
        ("fc-sweep", SMALL_FC),
        ("conv-sweep", SMALL_CONV),
        ("density-leak-grid", SMALL_GRID),
        ("train-frontier", SMALL_TRAIN),
    ])
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


class TestSchemaValidation:
    def test_malformed_golden_file_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_FC)
        run(["fc-sweep", "--config", cfg, "--out", tmp_path])
        path = tmp_path / "fc_sweep.csv"
        content = path.read_text().splitlines()
        content[0] = content[0].replace("forward_pJ", "fwd")
        path.write_text("\n".join(content))
        with pytest.raises(ConfigError):
            validate_csv(str(path), "sweep_v1")

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_csv(str(tmp_path / "x.csv"), "nope_v9")


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_full_scale_flag():
    args = build_parser().parse_args(
        ["train-frontier", "--config", "c.json", "--out", "o", "--full-scale"])
    assert args.full_scale
    args = build_parser().parse_args(
        ["fc-sweep", "--config", "c.json", "--out", "o", "--seed", "3"])
    assert args.seed == 3
