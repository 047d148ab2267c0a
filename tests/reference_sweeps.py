"""Store-building FC sweeps: the test oracle for the count-based sweeps.

Every bit width or density draws a seeded random matrix, builds the three
stores from it and reads their pass traces. This is what `energy.layer_sweep`
and `energy.sweep_density_leakage` must reproduce, row for row and float for
float, from the layer's counts alone and for any seed. (The stores' own pass
traces are checked against their summed per-neuron lookups in test_stores.)
"""

import math

from synmem.energy import DEFAULT_MODEL, pass_energy
from synmem.matrix import random_synapse_matrix
from synmem.rng import CounterRng
from synmem.stores import build_bitmap, build_crossbar, build_csr


def fc_stores(n_pre, n_post, density, b_w, seed, w_word):
    m = random_synapse_matrix(n_pre, n_post, density, CounterRng(seed))
    return {
        "CB": build_crossbar(m, b_w),
        "PB-CSR": build_csr(m, b_w),
        "PB-BMP": build_bitmap(m, b_w, w_word),
    }


def layer_sweep(layer, bit_widths, model=DEFAULT_MODEL, seed=0, w_word=32):
    """Forward/backward pass energy per (scheme, b_w) of an FcLayer."""
    rows = []
    for b_w in bit_widths:
        stores = fc_stores(layer.n_pre, layer.n_post, layer.density, b_w, seed, w_word)
        group = []
        for name in sorted(stores):
            s = stores[name]
            fwd = pass_energy(s.forward_pass_trace(), model, name)
            bwd = pass_energy(s.backward_scan_trace() + s.weight_update_trace(),
                              model, name)
            group.append({
                "scheme": name,
                "b_w": b_w,
                "forward_pJ": fwd.active_energy,
                "backward_pJ": bwd.active_energy,
                "leak_pJ": fwd.leakage_energy + bwd.leakage_energy,
                "total_pJ": fwd.active_energy + bwd.active_energy,
            })
        best = min(r["total_pJ"] for r in group)
        for r in group:
            r["winner"] = int(r["total_pJ"] == best)
        rows.extend(group)
    return rows


def sweep_density_leakage(densities, leak_fractions, model=DEFAULT_MODEL,
                          n_pre=728, n_post=128, b_w=8, seed=0, w_word=32):
    """Winning scheme over a density x leakage-fraction grid."""
    rows = []
    for density in densities:
        stores = fc_stores(n_pre, n_post, density, b_w, seed, w_word)
        active = {}
        leak_rate = {}
        for name, s in stores.items():
            fwd = pass_energy(s.forward_pass_trace(), model, name)
            bwd = pass_energy(s.backward_scan_trace() + s.weight_update_trace(),
                              model, name)
            active[name] = (fwd.active_energy, bwd.active_energy)
            leak_rate[name] = sum(model.p_leak(model.bank_capacity(b))
                                  for b in s.banks())
        ref_active = sum(active["CB"])
        ref_rate = leak_rate["CB"]
        for frac in leak_fractions:
            t_wall = frac / (1.0 - frac) * ref_active / ref_rate
            totals = {name: sum(active[name]) + leak_rate[name] * t_wall
                      for name in stores}
            winner = min(sorted(totals), key=totals.get)
            oom = math.floor(math.log10(totals[winner]))
            for name in sorted(stores):
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
