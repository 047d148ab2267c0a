"""Counter RNG reproducibility and trace bookkeeping."""

import numpy as np
import pytest

from synmem.energy import CostModel, pass_energy
from synmem.rng import CounterRng, derive_seed
from synmem.trace import AccessTrace, MemBank

from reference_stores import indirection_reads, weight_reads, weight_writes


class TestRng:
    def test_same_seed_same_stream(self):
        a = CounterRng(123).uniform(1000)
        b = CounterRng(123).uniform(1000)
        assert np.array_equal(a, b)

    def test_block_splitting_matches_one_shot(self):
        one = CounterRng(5).uniform(100)
        r = CounterRng(5)
        parts = np.concatenate([r.uniform(30), r.uniform(50), r.uniform(20)])
        assert np.array_equal(one, parts)

    def test_uniform_bounds_and_mean(self):
        u = CounterRng(9).uniform(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_spawn_streams_differ_and_replay(self):
        base = CounterRng(7)
        a = base.spawn(0).uniform(100)
        b = base.spawn(1).uniform(100)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, CounterRng(7).spawn(0).uniform(100))

    def test_derive_seed_is_stable(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(41, 3) != derive_seed(42, 3)

    def test_bernoulli_rate(self):
        hits = CounterRng(1).bernoulli(0.2, 100_000).mean()
        assert abs(hits - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 100_000)

    def test_choice_without_replacement_properties(self):
        rng = CounterRng(3)
        for _ in range(50):
            k = rng.randint(20)
            idx = rng.choice_without_replacement(20, k)
            assert len(set(idx.tolist())) == k
            assert np.array_equal(idx, np.sort(idx))
        with pytest.raises(ValueError):
            rng.choice_without_replacement(5, 6)


class TestTrace:
    def test_additive_merge_by_bank_identity(self):
        bank = MemBank("weight", "weight", 64, 8)
        other = MemBank("weight", "weight", 128, 8)   # different config
        a = AccessTrace()
        a.read(bank, 3)
        b = AccessTrace()
        b.read(MemBank("weight", "weight", 64, 8), 2)  # built apart, same key
        b.read(other, 5)
        b.logic(4)
        merged = a + b
        counts = {bk: r for bk, r, _ in merged.banks()}
        assert counts == {bank: 5, other: 5}
        assert merged.logic_evals == 4

    def test_kind_rollups(self):
        t = AccessTrace()
        t.read(MemBank("row_ptr", "index", 10, 4), 7)
        t.read(MemBank("weight", "weight", 10, 8), 2)
        t.write(MemBank("weight", "weight", 10, 8), 3)
        assert indirection_reads(t) == 7
        assert weight_reads(t) == 2
        assert weight_writes(t) == 3
        # every bank leaks for t_access per access: 12 reads and writes
        model = CostModel(a_leak=1.0, t_access=1.0, round_pow2=False)
        assert pass_energy(t, model).leakage_energy == (40 + 80) * 12

    def test_equality_ignores_zero_entries(self):
        bank = MemBank("weight", "weight", 4, 4)
        a = AccessTrace()
        a.read(bank, 0)
        assert a == AccessTrace()

    def test_scaled(self):
        bank = MemBank("bitmap", "index", 4, 32)
        t = AccessTrace()
        t.read(bank, 2)
        t.logic(3)
        s = t.scaled(4)
        assert indirection_reads(s) == 8 and s.logic_evals == 12
        assert t.scaled(0) == AccessTrace()
        with pytest.raises(ValueError):
            t.scaled(-1)

    def test_capacity_bits(self):
        assert MemBank("weight", "weight", 100, 8).capacity_bits == 800

    def test_repr_names_every_field(self):
        # error messages such as pass_energy's "invalid bank metadata" embed it
        assert repr(MemBank("weight", "weight", 4, 4)) == (
            "MemBank(name='weight', kind='weight', n_words=4, word_bits=4)")
