"""Analytic memory energy model and the layer-level sweep machinery.

Energy units are picojoules under the default constants but are
model-relative: the constants are calibrated so that desk-scale ratios
between schemes come out in realistic bands, not to any physical node.

Access costs grow with memory capacity:

    e_read  = a_read  * word_bits * (1 + b_read  * sqrt(capacity_bits))
    e_write = a_write * word_bits * (1 + b_write * sqrt(capacity_bits))
    p_leak  = a_leak  * capacity_bits          (per time unit)

plus a flat e_logic per address-logic evaluation. When round_pow2 is set
(the default), the word count of a bank is rounded up to the next power of
two before computing its capacity, the way synthesized SRAM depths come;
a bank of 0 words has capacity 0 either way.
"""

import json
import math
import numbers
from dataclasses import dataclass, asdict

from .conv import ConvGeometry, connection_count, functional_pass_traces
from .matrix import nnz_at_density
from .stores import FC_SCHEMES, ceil_log2, fc_pass_traces


class CalibrationError(Exception):
    """No positive constant assignment reproduces the anchored ratios."""


class EnergyOverflowError(OverflowError):
    """An energy figure is not finite: every constant is, but together they
    overflow a float for this traffic."""


def finite_energy(value, what, *args):
    """`value`, or EnergyOverflowError naming `what % args` if it is inf or NaN.
    The name is formatted only on failure: sweeps check every figure."""
    if not math.isfinite(value):
        raise EnergyOverflowError(
            f"{what % args} is {value!r}; the cost model's constants overflow it")
    return value


# Frozen output of calibrate_defaults() at the canonical anchors
# (forward overhead 1.03, backward ratio 0.42 on the reference conv layer).
FACTORY_CONSTANTS = {
    "a_read": 1.0,
    "b_read": 0.1,
    "a_write": 1.0,
    "b_write": 0.5190291737030296,
    "a_leak": 1e-6,
    "e_logic": 22701.3570907843,
    "t_access": 1.0,
    "round_pow2": True,
}

def next_pow2(n):
    return 2 ** ceil_log2(n)


@dataclass(frozen=True)
class CostModel:
    a_read: float = FACTORY_CONSTANTS["a_read"]
    b_read: float = FACTORY_CONSTANTS["b_read"]
    a_write: float = FACTORY_CONSTANTS["a_write"]
    b_write: float = FACTORY_CONSTANTS["b_write"]
    a_leak: float = FACTORY_CONSTANTS["a_leak"]
    e_logic: float = FACTORY_CONSTANTS["e_logic"]
    t_access: float = FACTORY_CONSTANTS["t_access"]
    round_pow2: bool = FACTORY_CONSTANTS["round_pow2"]

    def __post_init__(self):
        if not isinstance(self.round_pow2, bool):
            raise ValueError(f"round_pow2 must be true or false, got {self.round_pow2!r}")
        for name in ("a_read", "b_read", "a_write", "b_write", "a_leak", "e_logic",
                     "t_access"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if name in ("a_read", "a_write", "a_leak", "t_access") and value <= 0:
                raise ValueError(f"{name} must be positive")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")

    def e_read(self, capacity_bits, word_bits):
        return self.a_read * word_bits * (1.0 + self.b_read * math.sqrt(capacity_bits))

    def e_write(self, capacity_bits, word_bits):
        return self.a_write * word_bits * (1.0 + self.b_write * math.sqrt(capacity_bits))

    def p_leak(self, capacity_bits):
        return self.a_leak * capacity_bits

    def bank_capacity(self, bank):
        n = bank.n_words
        words = next_pow2(n) if self.round_pow2 and n else n     # 0 words hold nothing
        return words * bank.word_bits

    def constants(self):
        return asdict(self)


DEFAULT_MODEL = CostModel()


def load_cost_model(source):
    """Cost model from a dict or a JSON file of constant overrides."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict):
        raise ValueError(
            f"a cost model must be a JSON object, got {type(source).__name__}")
    unknown = set(source) - set(FACTORY_CONSTANTS)
    if unknown:
        raise ValueError(f"unknown cost model keys: {sorted(unknown)}")
    return CostModel(**{**FACTORY_CONSTANTS, **source})


@dataclass
class PassEnergyReport:
    active_energy: float
    leakage_energy: float
    leak_rate: float        # summed p_leak of the trace's banks, per time unit


def pass_energy(trace, model, scheme=""):
    """Exact weighted sum of a trace under a cost model.

    active = sum over banks of reads * e_read + writes * e_write, plus
    logic_evals * e_logic. Leakage is reported separately: every bank in
    the trace leaks for the pass duration t_access * total access count.
    Raises EnergyOverflowError, naming `scheme`, if either total is not finite.
    """
    active = trace.logic_evals * model.e_logic
    leak_rate = 0.0
    for bank, reads, writes in trace.banks():
        if bank.word_bits < 0 or bank.n_words < 0:
            raise ValueError(f"invalid bank metadata {bank}")
        capacity = model.bank_capacity(bank)
        active += (reads * model.e_read(capacity, bank.word_bits)
                   + writes * model.e_write(capacity, bank.word_bits))
        leak_rate += model.p_leak(capacity)
    t_pass = trace.total_accesses * model.t_access
    return PassEnergyReport(finite_energy(active, "%s active energy", scheme),
                            finite_energy(leak_rate * t_pass, "%s leakage", scheme),
                            leak_rate)


def pass_pair(traces, model, scheme=""):
    """(forward, backward) PassEnergyReports of a layer's (forward,
    backward_scan, update) traces: the backward pass is the scan plus the update."""
    fwd, scan, update = traces
    return pass_energy(fwd, model, scheme), pass_energy(scan + update, model, scheme)


_REFERENCE_CONV = ConvGeometry(28, 28, 3, 3, 32, 32)


@dataclass(frozen=True)
class FcLayer:
    n_pre: int = 728
    n_post: int = 128
    density: float = 0.75


@dataclass(frozen=True)
class ConvLayer:
    geometry: ConvGeometry = _REFERENCE_CONV


def _fc_traces(n_pre, n_post, nnz, b_w, w_word, schemes=FC_SCHEMES):
    return {name: fc_pass_traces(name, n_pre, n_post, nnz, b_w, w_word)
            for name in schemes}


def _layer_traces(layer, b_w, w_word, include_crossbar):
    if isinstance(layer, FcLayer):
        nnz = nnz_at_density(layer.n_pre, layer.n_post, layer.density)
        return _fc_traces(layer.n_pre, layer.n_post, nnz, b_w, w_word)
    g = layer.geometry
    schemes = ("PB-CSR", "CB") if include_crossbar else ("PB-CSR",)
    traces = _fc_traces(g.n_pre, g.n_post, connection_count(g), b_w, w_word, schemes)
    traces["FUNC"] = functional_pass_traces(g, b_w)
    return traces


def layer_sweep(layer, bit_widths, model=DEFAULT_MODEL, w_word=32,
                include_crossbar=False):
    """Forward/backward pass energy per (scheme, b_w).

    The forward pass visits every presynaptic neuron; the backward pass is
    one amortized scan of the structure plus a write per stored weight.
    Traffic comes from the closed forms in the layer's counts (an FC layer
    holds nnz_at_density synapses), so no store is built and no matrix drawn.
    Returns rows of dicts sorted by (b_w, scheme).
    """
    rows = []
    for b_w in bit_widths:
        triples = _layer_traces(layer, b_w, w_word, include_crossbar)
        group = []
        for name in sorted(triples):
            fwd, bwd = pass_pair(triples[name], model, name)
            group.append({
                "scheme": name,
                "b_w": b_w,
                "forward_pJ": fwd.active_energy,
                "backward_pJ": bwd.active_energy,
                "leak_pJ": finite_energy(fwd.leakage_energy + bwd.leakage_energy,
                                         "%s leakage at b_w %d", name, b_w),
                "total_pJ": finite_energy(fwd.active_energy + bwd.active_energy,
                                          "%s total at b_w %d", name, b_w),
            })
        best = min(r["total_pJ"] for r in group)
        for r in group:
            r["winner"] = int(r["total_pJ"] == best)
        rows.extend(group)
    return rows


def sweep_density_leakage(densities, leak_fractions, model=DEFAULT_MODEL,
                          n_pre=728, n_post=128, b_w=8, w_word=32):
    """Winning scheme over a density x leakage-fraction grid.

    Per grid point, total = forward + backward active energy plus leakage
    scaled so that it contributes the requested fraction of the crossbar
    reference total at that density; sparse input activity stretches the
    pass wall-clock, which is what the fraction axis stands for. The order
    of magnitude reported for a point is floor(log10(winning total)), or ""
    when the winning total is 0 pJ (an empty PB-CSR layer).
    """
    if len(densities) < 2 or len(leak_fractions) < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if any(not 0.0 <= f < 1.0 for f in leak_fractions):
        raise ValueError("leak fractions must lie in [0, 1)")
    counts = [nnz_at_density(n_pre, n_post, d) for d in densities]
    rows = []
    for density, nnz in zip(densities, counts):
        traces = _fc_traces(n_pre, n_post, nnz, b_w, w_word)
        active = {}
        leak_rate = {}
        for name, triple in traces.items():
            fwd, bwd = pass_pair(triple, model, name)
            active[name] = (fwd.active_energy, bwd.active_energy)
            # the forward trace lists every bank of the layout
            leak_rate[name] = fwd.leak_rate
        ref_active = sum(active["CB"])
        ref_rate = leak_rate["CB"]
        for frac in leak_fractions:
            t_wall = frac / (1.0 - frac) * ref_active / ref_rate
            totals = {name: finite_energy(
                sum(active[name]) + leak_rate[name] * t_wall,
                "%s total at density %r, leak fraction %r", name, density, frac)
                for name in traces}
            winner = min(sorted(totals), key=totals.get)
            best = totals[winner]
            oom = math.floor(math.log10(best)) if best > 0 else ""
            for name in sorted(traces):
                rows.append({
                    "scheme": name,
                    "b_w": b_w,
                    "density": density,
                    "leak_fraction": frac,
                    "forward_pJ": active[name][0],
                    "backward_pJ": active[name][1],
                    "leak_pJ": leak_rate[name] * t_wall,
                    "total_pJ": totals[name],
                    "winner": int(name == winner),
                    "winner_oom": oom,
                })
    return rows


_REFERENCE_BW = 8
DEFAULT_ANCHORS = {"conv_forward_ratio": 1.03, "conv_backward_ratio": 0.42}


def calibrate_defaults(anchors=None):
    """Solve e_logic and b_write so the reference conv layer hits the anchors.

    anchors: {"conv_forward_ratio": x, "conv_backward_ratio": y}. An empty or
    missing anchor set returns the factory constants unchanged. Active energy
    is affine in e_logic and in b_write, so the anchors are two linear
    equations in `pass_pair` energies of the layer. PB-CSR's forward pass
    evaluates no logic, so the forward anchor fixes e_logic alone; with it,
    FUNC's and PB-CSR's backward energies at b_write 0 and 1 fix b_write.
    Raises CalibrationError when the anchors admit no positive constants or
    fail the qualitative orderings.
    """
    if not anchors:
        return dict(FACTORY_CONSTANTS)
    unknown = set(anchors) - set(DEFAULT_ANCHORS)
    if unknown:
        raise CalibrationError(f"unknown anchors: {sorted(unknown)}")
    rho_f = anchors.get("conv_forward_ratio", DEFAULT_ANCHORS["conv_forward_ratio"])
    rho_b = anchors.get("conv_backward_ratio", DEFAULT_ANCHORS["conv_backward_ratio"])
    if rho_f <= 0 or rho_b <= 0:
        raise CalibrationError("anchor ratios must be positive")

    traces = _layer_traces(ConvLayer(), _REFERENCE_BW, w_word=32, include_crossbar=False)

    def priced(e_logic, b_write):
        """{scheme: (forward_pJ, backward_pJ)} of the layer at these constants."""
        model = CostModel(**{**FACTORY_CONSTANTS, "e_logic": e_logic, "b_write": b_write})
        return {name: tuple(r.active_energy for r in pass_pair(t, model, name))
                for name, t in traces.items()}

    base = priced(0.0, 0.0)
    e_logic = ((rho_f * base["PB-CSR"][0] - base["FUNC"][0])
               / traces["FUNC"][0].logic_evals)
    if e_logic <= 0:
        raise CalibrationError(
            f"forward anchor {rho_f} needs nonpositive logic energy")

    at0, at1 = priced(e_logic, 0.0), priced(e_logic, 1.0)
    c0, c1 = at0["PB-CSR"][1], at1["PB-CSR"][1]
    f0, f1 = at0["FUNC"][1], at1["FUNC"][1]
    # rho_b * (c0 + b * (c1 - c0)) == f0 + b * (f1 - f0); a level slope has no root
    slope = rho_b * (c1 - c0) - (f1 - f0)
    b_write = (f0 - rho_b * c0) / slope if slope else 0.0
    if b_write <= 0:
        raise CalibrationError(
            f"backward anchor {rho_b} needs nonpositive write energy")

    constants = {**FACTORY_CONSTANTS, "e_logic": e_logic, "b_write": b_write}
    _check_orderings(CostModel(**constants))
    return constants


def _check_orderings(model):
    """Qualitative sanity of a calibrated model on the reference layers."""
    fc = layer_sweep(FcLayer(), [8], model)
    by = {r["scheme"]: r for r in fc}
    if not (by["PB-BMP"]["forward_pJ"] < by["CB"]["forward_pJ"]
            and by["PB-BMP"]["forward_pJ"] < by["PB-CSR"]["forward_pJ"]):
        raise CalibrationError("bitmap scheme no longer wins the dense-layer forward pass")
    grid = sweep_density_leakage([0.05, 1.0], [0.0, 0.5], model)
    corner = {(r["density"], r["scheme"]): r for r in grid if r["leak_fraction"] == 0.0}
    if not corner[(1.0, "CB")]["winner"]:
        raise CalibrationError("crossbar no longer wins at full density")
    if corner[(0.05, "CB")]["winner"]:
        raise CalibrationError("a sparse scheme no longer wins at 5% density")
