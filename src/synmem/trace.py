"""Per-bank memory access accounting.

An AccessTrace counts reads and writes per memory bank plus address-logic
evaluations. Banks are identified by (name, kind, n_words, word_bits), so
traces taken against identical memory configurations merge, and traces are
additive: the trace of a whole pass is the sum of its per-event traces.
"""

from typing import NamedTuple


class MemBank(NamedTuple):
    """A bank's identity; a tuple, so trace dicts hash it in C."""
    name: str        # "weight", "row_ptr", "col_idx", "bitmap"
    kind: str        # "weight" or "index"
    n_words: int
    word_bits: int

    @property
    def capacity_bits(self):
        return self.n_words * self.word_bits


class AccessTrace:
    __slots__ = ("_banks", "logic_evals")

    def __init__(self):
        self._banks = {}     # MemBank -> [reads, writes]
        self.logic_evals = 0

    def read(self, bank, n=1):
        self._banks.setdefault(bank, [0, 0])[0] += n

    def write(self, bank, n=1):
        self._banks.setdefault(bank, [0, 0])[1] += n

    def logic(self, n=1):
        self.logic_evals += n

    def banks(self):
        """Yield (bank, reads, writes) in insertion order."""
        for bank, (r, w) in self._banks.items():
            yield bank, r, w

    def __iadd__(self, other):
        for bank, r, w in other.banks():
            acc = self._banks.setdefault(bank, [0, 0])
            acc[0] += r
            acc[1] += w
        self.logic_evals += other.logic_evals
        return self

    def __add__(self, other):
        out = AccessTrace()
        out += self
        out += other
        return out

    def scaled(self, k):
        """Trace of k identical passes (k nonnegative integer)."""
        if k < 0:
            raise ValueError("scale must be nonnegative")
        out = AccessTrace()
        out._banks = {bank: [r * k, w * k] for bank, (r, w) in self._banks.items()}
        out.logic_evals = self.logic_evals * k
        return out

    def __eq__(self, other):
        if not isinstance(other, AccessTrace):
            return NotImplemented
        mine = {b: tuple(c) for b, c in self._banks.items() if c != [0, 0]}
        theirs = {b: tuple(c) for b, c in other._banks.items() if c != [0, 0]}
        return mine == theirs and self.logic_evals == other.logic_evals

    def __repr__(self):
        parts = [f"{b.name}:r{r}/w{w}" for b, r, w in self.banks()]
        parts.append(f"logic:{self.logic_evals}")
        return f"AccessTrace({', '.join(parts)})"
