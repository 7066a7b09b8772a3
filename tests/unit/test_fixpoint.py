"""Unit tests for the shared worklist engine of the static passes.

A toy pass counts around a two-instruction loop: ``0: nop`` falls
through to ``1: inc``, which jumps back to 0 (and exits to 2).  The
state is an upper bound that grows by one per trip, so only widening
ends the iteration.
"""

import math
from types import SimpleNamespace

from repro.analysis.fixpoint import WIDEN_AFTER, Fixpoint


def _ins(addr, mnemonic, payload=None):
    return SimpleNamespace(addr=addr, mnemonic=mnemonic, payload=payload)


def _loop_binary():
    inc = _ins(1, "inc")
    text_map = {
        0: _ins(0, "nop"),
        # a correctness trap: the engine compiles its original
        1: _ins(1, "fpvm_trap", {"original": inc}),
        2: _ins(2, "ret"),
    }
    binary = SimpleNamespace(entry=0, text_map=text_map)
    cfg = SimpleNamespace(succ={0: [1], 1: [0, 2], 2: []})
    return binary, cfg


class CountingPass(Fixpoint):
    """Upper bound of a counter; logs every join and every record."""

    value_join = staticmethod(max)
    value_bottom = -math.inf
    value_top = math.inf

    def __init__(self):
        super().__init__(*_loop_binary())
        self.joins = {}      # key -> [(widened, joined state), ...]
        self.recorded = []   # ((ctx, addr), state) seen while recording
        self.compiled = []   # mnemonics compiled
        self._counted = {}

    def join(self, old, new, widen):
        # the engine counted this join just before calling: find its key
        key = next(k for k, n in self.join_counts.items()
                   if self._counted.get(k) != n)
        self._counted[key] = self.join_counts[key]
        out = old if new <= old else math.inf if widen else new
        self.joins.setdefault(key, []).append((widen, out))
        return out

    def _compile(self, ins):
        self.compiled.append(ins.mnemonic)
        step = 1 if ins.mnemonic == "inc" else 0

        def transfer(st, work):
            if self._recording:
                self.recorded.append(((self._ctx, ins.addr), st))
            return st + step
        return transfer, tuple(self.cfg.succ[ins.addr])

    def _seed(self, gkey):
        return 0


def test_twelfth_join_joins_and_thirteenth_widens():
    p = CountingPass()
    p._solve(0)
    assert WIDEN_AFTER == 12
    head = p.joins[0, 0]
    assert [widen for widen, _ in head[:13]] == [False] * 12 + [True]
    assert all(widen for widen, _ in head[12:])
    # the 12th join still held the exact count; the 13th widened
    assert head[11] == (False, 12)
    assert head[12] == (True, math.inf)
    assert p.join_counts[0, 0] == len(head)
    assert p.states[0, 0] == p.states[0, 2] == math.inf


def test_each_instruction_compiles_once_through_its_trap():
    p = CountingPass()
    p._solve(0)
    assert sorted(p.compiled) == ["inc", "nop", "ret"]
    assert p.iterations > 3  # the loop was visited many times


def test_record_pass_sees_only_converged_states():
    p = CountingPass()
    p._solve(0)
    assert p.recorded == []  # the fixpoint itself records nothing
    converged = sorted(p.states.items())
    p._record_pass()
    assert p.recorded == converged
    assert all(st == math.inf for _, st in p.recorded)
    assert p._compiled == {}


def test_global_word_update_requeues_readers_and_poison_tops():
    p = CountingPass()
    p._ctx = 7
    gkey = ("g", 0x1000)
    assert p._join_global_reads(0x40, [gkey]) == 0  # the seed
    work = []
    p._update_global(gkey, 5, work)
    assert work == [(7, 0x40)]
    assert p._join_global_reads(0x40, [gkey]) == 5
    work.clear()
    p._update_global(gkey, 3, work)  # below the current value: no move
    assert work == []
    p._poison_globals(0x1000, 0x1007, work)
    assert work == [(7, 0x40)]
    assert p._join_global_reads(0x40, [gkey]) == math.inf
    assert p._join_global_reads(0x48, [("g", 0x2000)]) == 0
