"""Command-line front end producing the experiment CSV artifacts.

    synmem fc-sweep          --config cfg.json --out DIR [--seed N]
    synmem conv-sweep        --config cfg.json --out DIR [--seed N]
    synmem density-leak-grid --config cfg.json --out DIR [--seed N]
    synmem train-frontier    --config cfg.json --out DIR [--seed N] [--full-scale]

The config file is a JSON tree with one section per command (see
DEFAULT_CONFIG) plus an optional "cost_model" section of constant
overrides, given inline as an object or as the path of a JSON file.
Every key a section may hold, with its default, its JSON type and the
range of its values, is declared once in CONFIG_KEYS; load_config rejects
any other value with a ConfigError naming `section.key`. Rules that a
library type checks when it is built (ConvGeometry, QuantConfig,
NetworkConfig, CostModel) are reported as config errors naming the
section. Outputs are CSV files and a run_manifest.json recording the
command, the hash of the config that ran, the seed and the schema
versions; no timestamps or absolute paths, so reruns are byte-identical.

Exit codes: 0 ok, 2 config error. A cost model whose constants are each
valid but together overflow an energy figure (EnergyOverflowError) is a
config error too, as are a config or cost-model file that is not UTF-8
JSON or names a key twice in one object, and an --out that is empty,
names a file or lies under one (refused before the command runs). Any
other exception raised while a command computes is a bug and propagates.
--out is created only once every row is computed.
"""

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import sys
from typing import NamedTuple

from . import __version__
from .conv import ConvGeometry
from .energy import (ConvLayer, EnergyOverflowError, FcLayer, finite_energy,
                     layer_sweep, load_cost_model, sweep_density_leakage,
                     training_energy, unique_keys)
from .quant import QuantConfig
from .snn import NetworkConfig, train_cells
from .stores import FC_SCHEMES


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


class Key(NamedTuple):
    """One config key: its default, its JSON type, and the range each number
    in it must lie in, [lo, hi] or [lo, hi) when hi_open (None: unbounded)."""
    default: object
    type: str
    lo: float = None
    hi: float = None
    hi_open: bool = False


# what each type accepts; an int is a number, so a float key reads it as a float
_TYPE_TEXT = {
    "int": "an integer",
    "float": "a finite number",
    "bool": "true or false",
    "int list": "a nonempty list of integers",
    "distinct int list": "a nonempty list of distinct integers",
    "grid axis": 'a list of at least 2 distinct numbers or {"min", "max", "steps"} '
                 "with integer steps >= 2 giving distinct points",
    "scheme list": f"a nonempty list of distinct names from {', '.join(FC_SCHEMES)}",
}
# list type -> (item type, least length, whether items must differ)
_LISTS = {"int list": ("int", 1, False), "distinct int list": ("int", 1, True),
          "grid axis": ("float", 2, True), "scheme list": ("scheme", 1, True)}

# section -> key -> Key. Extents stop at the container's u32 and u16 fields, word
# widths at 64 bits. Ranges that ConvGeometry (odd kernels), QuantConfig (b_w, b_e,
# b_m in [2, 64]) and NetworkConfig (layer shape, steps, tau_vr, lr, lr_anneal)
# check when they are built are left to them.
_U32, _U16 = 2 ** 32 - 1, 2 ** 16 - 1
CONFIG_KEYS = {
    "fc_sweep": {
        "n_pre": Key(728, "int", 1, _U32),
        "n_post": Key(128, "int", 1, _U32),
        "density": Key(0.75, "float", 0.0, 1.0),
        "bit_widths": Key([2, 3, 4, 5, 6, 7, 8], "distinct int list", 1, 64),
        "w_word": Key(32, "int", 1, 64),
    },
    "conv_sweep": {
        "in_h": Key(28, "int", 1, _U32),
        "in_w": Key(28, "int", 1, _U32),
        "k_h": Key(3, "int", 1, _U16),
        "k_w": Key(3, "int", 1, _U16),
        "c_in": Key(32, "int", 1, _U32),
        "c_out": Key(32, "int", 1, _U32),
        "bit_widths": Key([2, 3, 4, 5, 6, 7, 8], "distinct int list", 1, 64),
        "include_crossbar": Key(False, "bool"),
    },
    "density_leak_grid": {
        "n_pre": Key(728, "int", 1, _U32),
        "n_post": Key(128, "int", 1, _U32),
        "b_w": Key(8, "int", 1, 64),
        "densities": Key({"min": 0.05, "max": 1.0, "steps": 10}, "grid axis", 0.0, 1.0),
        "leak_fractions": Key({"min": 0.0, "max": 0.9, "steps": 10}, "grid axis",
                              0.0, 1.0, hi_open=True),
        "w_word": Key(32, "int", 1, 64),
    },
    "train_frontier": {
        "layer_sizes": Key([200, 100, 50], "int list"),
        "steps": Key(100, "int"),
        "epochs": Key(2000, "int", 0),
        "bit_widths": Key([2, 3, 4, 5, 6], "distinct int list"),
        "schemes": Key(["CB", "PB-BMP", "PB-CSR"], "scheme list"),
        "b_e": Key(8, "int"),
        "b_m": Key(16, "int"),
        "lr": Key(0.0005, "float"),
        "lr_anneal": Key(180, "int"),
        "tau_vr": Key(10.0, "float"),
    },
}

DEFAULT_CONFIG = {
    "cost_model": {},
    **{section: {name: key.default for name, key in keys.items()}
       for section, keys in CONFIG_KEYS.items()},
}

_FULL_SCALE = {"layer_sizes": [700, 400, 250], "steps": 250, "epochs": 10000}


def write_csv(path, schema, rows):
    columns = _SCHEMAS[schema]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            # csv writes str(x); a float's str is its shortest round-trip repr
            w.writerow([row.get(c, "") for c in columns])


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:     # JSON is UTF-8 (RFC 8259)
            user = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    except (OSError, ValueError) as exc:    # not UTF-8, or a key given twice
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be an object")
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for section, val in user.items():
        if section not in merged:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if section == "cost_model":
            if not isinstance(val, (str, dict)):
                raise ConfigError(f"{path}: cost_model must be an object or a file path")
            merged[section] = val      # load_cost_model checks its keys
            continue
        if not isinstance(val, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        keys = CONFIG_KEYS[section]
        unknown = set(val) - set(keys)
        if unknown:
            raise ConfigError(
                f"{path}: unknown keys in {section!r}: {sorted(unknown)}")
        for name, value in val.items():
            typed = _typed(keys[name], value)
            if typed is None:
                raise ConfigError(
                    f"{path}: {section}.{name} must be {_describe(keys[name])}, "
                    f"got {json.dumps(value)}")
            merged[section][name] = typed
    return merged


def _describe(key):
    text = _TYPE_TEXT[key.type]
    if key.lo is None:
        return text
    text += ", each value" if key.type in _LISTS else ""
    if key.hi is None:
        return f"{text} >= {key.lo}"
    return f"{text} in [{key.lo}, {key.hi}{')' if key.hi_open else ']'}"


def _scalar(kind, value):
    """`value` as a `kind` scalar ("int", "float", "bool" or "scheme"), or None."""
    if kind == "bool":
        return value if isinstance(value, bool) else None
    if kind == "scheme":
        return value if isinstance(value, str) and value in FC_SCHEMES else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if kind == "int":
        return value if isinstance(value, int) else None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _typed(key, value):
    """`value` read as the key's type, or None if it is not one or lies out of range."""
    if key.type == "grid axis" and isinstance(value, dict):
        if set(value) != {"min", "max", "steps"}:
            return None
        typed = {"min": _scalar("float", value["min"]),
                 "max": _scalar("float", value["max"]),
                 "steps": _scalar("int", value["steps"])}
        if None in typed.values() or typed["steps"] < 2:
            return None
        points = _grid_axis(typed)
    elif key.type in _LISTS:
        item, least, _ = _LISTS[key.type]
        if not isinstance(value, list) or len(value) < least:
            return None
        typed = points = [_scalar(item, v) for v in value]
        if None in typed:
            return None
    else:
        typed = _scalar(key.type, value)
        if typed is None:
            return None
        points = [typed]
    if key.type in _LISTS and _LISTS[key.type][2] and len(set(points)) < len(points):
        return None
    if key.lo is not None and any(x < key.lo for x in points):
        return None
    if key.hi is not None and any(x >= key.hi if key.hi_open else x > key.hi
                                  for x in points):
        return None
    return typed


def _cost_model(cfg):
    source = cfg["cost_model"]
    try:
        return load_cost_model(source)
    except OSError as exc:
        raise ConfigError(f"cannot read cost model {source!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad cost model {source!r}: {exc}") from exc


@contextlib.contextmanager
def _built_from(section):
    """Report a rule a library type checks when built from `section` as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _grid_axis(axis):
    if isinstance(axis, list):
        return axis
    lo, hi, steps = axis["min"], axis["max"], axis["steps"]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _check_out(out_dir):
    """Refuse an empty output directory name, or one that names a file or lies
    under one."""
    if not out_dir:
        raise ConfigError("--out must name a directory, got ''")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out_dir}: {path} is not a directory")


def _stale_outputs(out_dir, command, outputs):
    """Files that the manifest already in `out_dir` lists for this same command
    and that `outputs` does not hold: plain file names only, none at all when
    the manifest does not parse. Other commands' files are kept."""
    try:
        with open(os.path.join(out_dir, "run_manifest.json")) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return []
    if not (isinstance(previous, dict) and previous.get("command") == command
            and isinstance(previous.get("outputs"), dict)):
        return []
    return [name for name in previous["outputs"]
            if name not in outputs and os.path.basename(name) == name
            and os.path.isfile(os.path.join(out_dir, name))]


def _write_outputs(out_dir, command, cfg, seed, outputs):
    """Create `out_dir`, remove the files a previous run of this command left
    there that this run does not write, and write each {file name: (schema,
    rows)} CSV and the manifest listing them."""
    os.makedirs(out_dir, exist_ok=True)
    for name in _stale_outputs(out_dir, command, outputs):
        os.remove(os.path.join(out_dir, name))
    for name, (schema, rows) in outputs.items():
        write_csv(os.path.join(out_dir, name), schema, rows)
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "synmem_version": __version__,
        "units": "pJ (model-relative)",
        "outputs": {name: schema for name, (schema, _) in sorted(outputs.items())},
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_fc_sweep(cfg, model, seed):
    sec = cfg["fc_sweep"]
    layer = FcLayer(sec["n_pre"], sec["n_post"], sec["density"])
    rows = layer_sweep(layer, sec["bit_widths"], model, w_word=sec["w_word"])
    for r in rows:
        r["density"] = layer.density
    return {"fc_sweep.csv": (SWEEP_SCHEMA, rows)}


def cmd_conv_sweep(cfg, model, seed):
    sec = cfg["conv_sweep"]
    with _built_from("conv_sweep"):
        geometry = ConvGeometry(sec["in_h"], sec["in_w"], sec["k_h"], sec["k_w"],
                                sec["c_in"], sec["c_out"])
    rows = layer_sweep(ConvLayer(geometry), sec["bit_widths"], model,
                       include_crossbar=sec["include_crossbar"])
    return {"conv_sweep.csv": (SWEEP_SCHEMA, rows)}


def cmd_density_leak_grid(cfg, model, seed):
    sec = cfg["density_leak_grid"]
    rows = sweep_density_leakage(_grid_axis(sec["densities"]),
                                 _grid_axis(sec["leak_fractions"]), model,
                                 n_pre=sec["n_pre"], n_post=sec["n_post"],
                                 b_w=sec["b_w"], w_word=sec["w_word"])
    return {"density_leak_grid.csv": (SWEEP_SCHEMA, rows)}


def cmd_train_frontier(cfg, model, seed):
    sec = cfg["train_frontier"]
    with _built_from("train_frontier"):
        net = NetworkConfig(layer_sizes=sec["layer_sizes"], steps=sec["steps"],
                            tau_vr=sec["tau_vr"], lr=sec["lr"],
                            lr_anneal=sec["lr_anneal"])
        quants = [QuantConfig(b_w=b_w, fan_in=net.layer_sizes[0],
                              b_e=sec["b_e"], b_m=sec["b_m"])
                  for b_w in sec["bit_widths"]]
    frontier = []
    outputs = {"frontier.csv": (FRONTIER_SCHEMA, frontier)}
    # one numeric run per bit width, all widths in one batch: spike dynamics
    # do not depend on the encoding, only the pricing of their counts does
    results = train_cells(net, quants, sec["epochs"], seed)
    shapes = list(zip(net.layer_sizes, net.layer_sizes[1:]))
    for quant, result in zip(quants, results):
        b_w = quant.b_w
        sparsity = result.sparsity
        for scheme in sec["schemes"]:
            pairs = training_energy(scheme, shapes, result.nnz, b_w, net.steps, model)
            frontier.append({
                "scheme": scheme,
                "b_w": b_w,
                "vr_final": result.final_vr,
                "vr_best": result.best_vr,
                "energy_total_pJ": finite_energy(sum(f + b for f, b in pairs),
                                                 "%s training energy", scheme),
                "sparsity_mean": result.mean_sparsity,
                "diverged": 0,      # kept so frontier_v1 keeps its columns
            })
            curve_name = f"curve_{scheme.replace('-', '_')}_{b_w}b.csv"
            curve_rows = []
            for epoch, vr in enumerate(result.vr_curve):
                if epoch == 0:
                    fwd = bwd = 0.0
                    sp = ""
                else:
                    fwd, bwd = pairs[epoch - 1]
                    sp = sparsity[epoch - 1]
                curve_rows.append({"epoch": epoch, "vr_distance": vr,
                                   "fwd_pJ": fwd, "bwd_pJ": bwd, "sparsity": sp})
            outputs[curve_name] = (CURVE_SCHEMA, curve_rows)
    return outputs


# command -> function of (config, cost model, seed) giving {file: (schema, rows)}
_COMMANDS = {
    "fc-sweep": cmd_fc_sweep,
    "conv-sweep": cmd_conv_sweep,
    "density-leak-grid": cmd_density_leak_grid,
    "train-frontier": cmd_train_frontier,
}


@functools.cache
def build_parser():
    """The one argument parser of the process: parse_args leaves it unchanged,
    so repeated `main` calls share it."""
    parser = argparse.ArgumentParser(
        prog="synmem",
        description="Energy profiling of synaptic connectivity storage schemes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        if name == "train-frontier":
            p.add_argument("--full-scale", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "train-frontier" and args.full_scale:
            cfg["train_frontier"].update(_FULL_SCALE)
        _check_out(args.out)
        outputs = _COMMANDS[args.command](cfg, _cost_model(cfg), args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EnergyOverflowError as exc:
        print(f"config error: cost_model: {exc}", file=sys.stderr)
        return 2
    _write_outputs(args.out, args.command, cfg, args.seed, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
