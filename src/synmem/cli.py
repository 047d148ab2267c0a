"""Command-line front end producing the experiment CSV artifacts.

    synmem fc-sweep          --config cfg.json --out DIR [--seed N]
    synmem conv-sweep        --config cfg.json --out DIR [--seed N]
    synmem density-leak-grid --config cfg.json --out DIR [--seed N]
    synmem train-frontier    --config cfg.json --out DIR [--seed N] [--full-scale]

The config file is a JSON tree with one section per command (see
DEFAULT_CONFIG) plus an optional "cost_model" section of constant
overrides. Outputs are CSV files and a run_manifest.json recording the
command, the config hash, the seed and the schema versions; no timestamps
or absolute paths, so reruns are byte-identical.

Exit codes: 0 ok, 2 config error, 3 calibration failure, 4 every training
cell diverged.
"""

import argparse
import csv
import hashlib
import json
import os
import sys

from . import __version__
from .conv import ConvGeometry
from .energy import (CalibrationError, ConvLayer, DEFAULT_MODEL, FcLayer,
                     layer_sweep, load_cost_model, pass_energy_call_count,
                     sweep_density_leakage)
from .quant import QuantConfig
from .snn import NetworkConfig, train


class ConfigError(Exception):
    pass


SWEEP_SCHEMA = "sweep_v1"
SWEEP_COLUMNS = ["scheme", "b_w", "density", "leak_fraction", "forward_pJ",
                 "backward_pJ", "leak_pJ", "total_pJ", "winner", "winner_oom"]
FRONTIER_SCHEMA = "frontier_v1"
FRONTIER_COLUMNS = ["scheme", "b_w", "vr_final", "vr_best", "energy_total_pJ",
                    "sparsity_mean", "diverged"]
CURVE_SCHEMA = "curve_v1"
CURVE_COLUMNS = ["epoch", "vr_distance", "fwd_pJ", "bwd_pJ", "sparsity"]

_SCHEMAS = {
    SWEEP_SCHEMA: SWEEP_COLUMNS,
    FRONTIER_SCHEMA: FRONTIER_COLUMNS,
    CURVE_SCHEMA: CURVE_COLUMNS,
}

DEFAULT_CONFIG = {
    "cost_model": {},
    "fc_sweep": {
        "n_pre": 728, "n_post": 128, "density": 0.75,
        "bit_widths": [2, 3, 4, 5, 6, 7, 8],
        "w_word": 32,
    },
    "conv_sweep": {
        "in_h": 28, "in_w": 28, "k_h": 3, "k_w": 3, "c_in": 32, "c_out": 32,
        "bit_widths": [2, 3, 4, 5, 6, 7, 8],
        "include_crossbar": False,
    },
    "density_leak_grid": {
        "n_pre": 728, "n_post": 128, "b_w": 8,
        "densities": {"min": 0.05, "max": 1.0, "steps": 10},
        "leak_fractions": {"min": 0.0, "max": 0.9, "steps": 10},
        "w_word": 32,
    },
    "train_frontier": {
        "layer_sizes": [200, 100, 50], "steps": 100, "epochs": 2000,
        "bit_widths": [2, 3, 4, 5, 6],
        "schemes": ["CB", "PB-BMP", "PB-CSR"],
        "b_e": 8, "b_m": 16,
        "lr": 0.0005, "lr_anneal": 180, "tau_vr": 10.0,
    },
}

_FULL_SCALE = {"layer_sizes": [700, 400, 250], "steps": 250, "epochs": 10000}


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, schema, rows):
    columns = _SCHEMAS[schema]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row.get(c, "")) for c in columns])


def validate_csv(path, schema):
    """Reject files whose header does not match the declared schema."""
    columns = _SCHEMAS.get(schema)
    if columns is None:
        raise ConfigError(f"unknown schema {schema!r}")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header != columns:
        raise ConfigError(
            f"{path}: header {header} does not match schema {schema} {columns}")
    return True


def load_config(path):
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be an object")
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, val in user.items():
        if key not in merged:
            raise ConfigError(f"{path}: unknown section {key!r}")
        if key == "cost_model" and isinstance(val, str):
            merged[key] = val          # path to a constants file
            continue
        if not isinstance(val, dict):
            raise ConfigError(f"{path}: section {key!r} must be an object")
        unknown = set(val) - set(merged[key])
        if unknown:
            raise ConfigError(
                f"{path}: unknown keys in {key!r}: {sorted(unknown)}")
        merged[key].update(val)
    return merged


def _cost_model(cfg):
    source = cfg["cost_model"]
    try:
        return load_cost_model(source)
    except OSError as exc:
        raise ConfigError(f"cannot read cost model {source!r}: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad cost model {source!r}: {exc}") from exc


def _grid_axis(axis_cfg):
    if isinstance(axis_cfg, list):
        axis = [float(x) for x in axis_cfg]
    else:
        steps = int(axis_cfg["steps"])
        if steps < 2:
            raise ConfigError("grid axes need at least 2 steps")
        lo, hi = float(axis_cfg["min"]), float(axis_cfg["max"])
        axis = [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]
    if len(axis) < 2:
        raise ConfigError("grid axes need at least 2 points")
    return axis


def _require_nonempty(name, values):
    if not values:
        raise ConfigError(f"{name} must be nonempty")
    return values


def _manifest(out_dir, command, cfg, seed, files):
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "synmem_version": __version__,
        "units": "pJ (model-relative)",
        "outputs": {name: schema for name, schema in sorted(files.items())},
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_fc_sweep(cfg, out_dir, seed):
    sec = cfg["fc_sweep"]
    model = _cost_model(cfg)
    layer = FcLayer(int(sec["n_pre"]), int(sec["n_post"]), float(sec["density"]))
    bit_widths = _require_nonempty("bit_widths", [int(b) for b in sec["bit_widths"]])
    audit_before = pass_energy_call_count()
    rows = layer_sweep(layer, bit_widths, model, w_word=int(sec["w_word"]))
    _audit(2 * len(rows), audit_before)        # one fwd + one bwd call per row
    for r in rows:
        r["density"] = layer.density
        r["leak_fraction"] = ""
        r["winner_oom"] = ""
    path = os.path.join(out_dir, "fc_sweep.csv")
    write_csv(path, SWEEP_SCHEMA, rows)
    _manifest(out_dir, "fc-sweep", cfg, seed, {"fc_sweep.csv": SWEEP_SCHEMA})
    return 0


def cmd_conv_sweep(cfg, out_dir, seed):
    sec = cfg["conv_sweep"]
    model = _cost_model(cfg)
    try:
        geometry = ConvGeometry(int(sec["in_h"]), int(sec["in_w"]),
                                int(sec["k_h"]), int(sec["k_w"]),
                                int(sec["c_in"]), int(sec["c_out"]))
    except ValueError as exc:
        raise ConfigError(f"conv_sweep: {exc}") from exc
    bit_widths = _require_nonempty("bit_widths", [int(b) for b in sec["bit_widths"]])
    audit_before = pass_energy_call_count()
    rows = layer_sweep(ConvLayer(geometry), bit_widths, model,
                       include_crossbar=bool(sec["include_crossbar"]))
    _audit(2 * len(rows), audit_before)
    for r in rows:
        r["density"] = ""
        r["leak_fraction"] = ""
        r["winner_oom"] = ""
    path = os.path.join(out_dir, "conv_sweep.csv")
    write_csv(path, SWEEP_SCHEMA, rows)
    _manifest(out_dir, "conv-sweep", cfg, seed, {"conv_sweep.csv": SWEEP_SCHEMA})
    return 0


def cmd_density_leak_grid(cfg, out_dir, seed):
    sec = cfg["density_leak_grid"]
    model = _cost_model(cfg)
    densities = _grid_axis(sec["densities"])
    fractions = _grid_axis(sec["leak_fractions"])
    if any(not 0.0 <= f < 1.0 for f in fractions):
        raise ConfigError("leak_fractions must lie in [0, 1)")
    audit_before = pass_energy_call_count()
    rows = sweep_density_leakage(densities, fractions, model,
                                 n_pre=int(sec["n_pre"]),
                                 n_post=int(sec["n_post"]),
                                 b_w=int(sec["b_w"]),
                                 w_word=int(sec["w_word"]))
    _audit(2 * 3 * len(densities), audit_before)   # fwd+bwd per scheme per density
    path = os.path.join(out_dir, "density_leak_grid.csv")
    write_csv(path, SWEEP_SCHEMA, rows)
    _manifest(out_dir, "density-leak-grid", cfg, seed,
              {"density_leak_grid.csv": SWEEP_SCHEMA})
    return 0


def cmd_train_frontier(cfg, out_dir, seed, full_scale=False):
    sec = dict(cfg["train_frontier"])
    if full_scale:
        sec.update(_FULL_SCALE)
    model = _cost_model(cfg)
    schemes = _require_nonempty("schemes", list(sec["schemes"]))
    bit_widths = _require_nonempty("bit_widths", [int(b) for b in sec["bit_widths"]])
    net = NetworkConfig(layer_sizes=tuple(int(n) for n in sec["layer_sizes"]),
                        steps=int(sec["steps"]), tau_vr=float(sec["tau_vr"]),
                        lr=float(sec["lr"]), lr_anneal=int(sec["lr_anneal"]))
    epochs = int(sec["epochs"])
    frontier = []
    files = {"frontier.csv": FRONTIER_SCHEMA}
    diverged_cells = 0
    for b_w in bit_widths:
        quant = QuantConfig(b_w=b_w, fan_in=net.layer_sizes[0],
                            b_e=int(sec["b_e"]), b_m=int(sec["b_m"]))
        # one numeric run per bit width: spike dynamics do not depend on the
        # encoding, only the energy accounting does
        result = train(net, schemes, quant, epochs, seed, model)
        for scheme in schemes:
            frontier.append({
                "scheme": scheme,
                "b_w": b_w,
                "vr_final": result.final_vr,
                "vr_best": result.best_vr,
                "energy_total_pJ": result.total_energy(scheme),
                "sparsity_mean": result.mean_sparsity,
                "diverged": int(result.diverged),
            })
            if result.diverged:
                diverged_cells += 1
            curve_name = f"curve_{scheme.replace('-', '_')}_{b_w}b.csv"
            curve_rows = []
            for epoch, vr in enumerate(result.vr_curve):
                if epoch == 0:
                    fwd = bwd = 0.0
                    sp = ""
                else:
                    fwd, bwd = result.energy[scheme][epoch - 1]
                    sp = result.sparsity[epoch - 1]
                curve_rows.append({"epoch": epoch, "vr_distance": vr,
                                   "fwd_pJ": fwd, "bwd_pJ": bwd, "sparsity": sp})
            write_csv(os.path.join(out_dir, curve_name), CURVE_SCHEMA, curve_rows)
            files[curve_name] = CURVE_SCHEMA
    write_csv(os.path.join(out_dir, "frontier.csv"), FRONTIER_SCHEMA, frontier)
    _manifest(out_dir, "train-frontier", cfg, seed, files)
    if frontier and diverged_cells == len(frontier):
        return 4
    return 0


def _audit(expected_calls, calls_before):
    """Debug check: every energy figure must originate in pass_energy."""
    if os.environ.get("SYNMEM_AUDIT") != "1":
        return
    delta = pass_energy_call_count() - calls_before
    if delta < expected_calls:
        raise AssertionError(
            f"only {delta} pass_energy calls for {expected_calls} energy figures")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="synmem",
        description="Energy profiling of synaptic connectivity storage schemes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fc-sweep", "conv-sweep", "density-leak-grid", "train-frontier"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        if name == "train-frontier":
            p.add_argument("--full-scale", action="store_true")
    return parser


_COMMANDS = {
    "fc-sweep": cmd_fc_sweep,
    "conv-sweep": cmd_conv_sweep,
    "density-leak-grid": cmd_density_leak_grid,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "train-frontier":
            return cmd_train_frontier(cfg, args.out, args.seed,
                                      full_scale=args.full_scale)
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid numeric settings surface from the library as ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
