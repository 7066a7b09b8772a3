"""The one worklist fixpoint engine of the static passes.

The value-set analysis (:mod:`repro.analysis.vsa`), the interval-range
pass (:mod:`repro.analysis.ranges`) and the box-liveness refinement
(:mod:`repro.analysis.liveness`) subclass :class:`Fixpoint`.  A pass
gives its state join ``join(old, new, widen)`` — which returns ``old``
itself exactly when nothing moved, the re-queue test — and
``_compile(ins)``: ``(closure, successors)``, where the closure maps
``(state, work)`` to the out state, or with successors ``None`` (a
call) to its own ``[((ctx, addr), state), ...]`` edges.  The engine
owns the rest: the states keyed ``(ctx, addr)`` (``ctx`` is the k=1
call-string context, 0 for the root function), the widening rule, the
LIFO worklist, the recording pass and the global-word map.
"""

from __future__ import annotations

#: a key's 13th and later joins widen: small enough to terminate
#: quickly, large enough that short monotone-decreasing chains (e.g.
#: multigrid's n = n/2 + 1 level sizes) reach their exact fixpoint
#: before widening blows their lower bound to -2^32
WIDEN_AFTER = 12

_EVERYWHERE = (-(1 << 62), 1 << 62)


class Fixpoint:
    """Worklist fixpoint over the ``(ctx, addr)`` keys of one binary.

    The flow-insensitive global-word map takes the pass's value join
    (``value_join(value_bottom, x)`` is ``x``), its ``value_top`` and
    :meth:`_seed`, a data word's value before any store.
    """

    join = value_join = value_bottom = value_top = None

    def __init__(self, binary, cfg) -> None:
        self.binary = binary
        self.cfg = cfg
        #: (ctx, addr) -> [state, joins]: a key's state and the number
        #: of joins into it so far, in one entry so a merge hashes the
        #: key once
        self._entries: dict[tuple[int, int], list] = {}
        self.iterations = 0
        self._ctx = 0
        #: the closures record their results (the pass at fixpoint)
        self._recording = False
        self._compiled: dict[int, tuple] = {}
        self.global_vals: dict[tuple, object] = {}
        self.global_readers: dict[tuple, set[tuple[int, int]]] = {}
        self._poisoned: list[tuple[int, int]] = []

    def state_at(self, key: tuple[int, int]):
        """The state at ``key`` (None where the pass never reached)."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    @property
    def states(self) -> dict[tuple[int, int], object]:
        """A copy of every state, keyed ``(ctx, addr)``."""
        return {key: entry[0] for key, entry in self._entries.items()}

    @property
    def join_counts(self) -> dict[tuple[int, int], int]:
        """A copy of the join count of every key joined at least once."""
        return {key: entry[1] for key, entry in self._entries.items()
                if entry[1]}

    def _transfer_for(self, addr: int):
        """The compiled instruction at ``addr`` (a correctness trap's
        original instruction), or None outside the text."""
        compiled = self._compiled.get(addr)
        if compiled is None:
            ins = self.binary.text_map.get(addr)
            if ins is None:
                return None
            if ins.mnemonic in ("fpvm_trap", "fpvm_patch") and ins.payload:
                ins = ins.payload["original"]
            compiled = self._compiled[addr] = self._compile(ins)
        return compiled

    def _merge_in(self, key, state, work) -> None:
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = [state, 0]
            work.append(key)
            return
        old = entry[0]
        if old is None:
            entry[0] = state
            work.append(key)
            return
        entry[1] = count = entry[1] + 1
        new = self.join(old, state, count > WIDEN_AFTER)
        if new is not old:
            entry[0] = new
            work.append(key)

    def _solve(self, init) -> None:
        """Iterate from ``init`` at the entry to the fixpoint."""
        work: list[tuple[int, int]] = []
        merge = self._merge_in
        compiled_get = self._compiled.get
        transfer_for = self._transfer_for
        entries = self._entries
        merge((0, self.binary.entry), init, work)
        while work:
            key = work.pop()
            entry = entries.get(key)
            state = entry[0] if entry is not None else None
            compiled = compiled_get(key[1]) or transfer_for(key[1])
            if state is None or compiled is None:
                continue
            self.iterations += 1
            ctx = self._ctx = key[0]
            transfer, succs = compiled
            out = transfer(state, work)
            if succs is None:
                for succ_key, succ_state in out:
                    merge(succ_key, succ_state, work)
            else:
                for succ in succs:
                    merge((ctx, succ), out, work)

    def _record_pass(self) -> None:
        """Run every closure once more, recording, on the converged
        states only: a record made during the fixpoint would keep
        transient values (a loop index seen as [0..12] the iteration
        before widening enumerates words past the array it indexes).
        Then drop the closures, which refer back to the pass, so the
        pass is freed by reference counting when its caller lets go."""
        self._recording = True
        sink: list = []  # transfer at fixpoint re-queues nothing real
        for (ctx, addr), st in sorted(self.states.items()):
            compiled = self._transfer_for(addr)
            if compiled is not None:
                self._ctx = ctx
                compiled[0](st, sink)
        self._compiled.clear()

    # the global-word map: flow-insensitive, weak-updated -------------- #
    def _join_global_reads(self, addr: int, keys):
        """Join of the words ``keys`` read at ``addr``; the reader is
        re-queued whenever one of them moves."""
        val, join = self.value_bottom, self.value_join
        reader = (self._ctx, addr)
        readers = self.global_readers
        for gkey in keys:
            readers.setdefault(gkey, set()).add(reader)
            if self._poisoned and self._global_poisoned(gkey[1]):
                return self.value_top
            cur = self.global_vals.get(gkey)
            val = join(val, self._seed(gkey) if cur is None else cur)
        return val

    def _update_global(self, gkey, val, work) -> None:
        """Monotone weak update; re-queues affected readers."""
        old = self.global_vals.get(gkey)
        seeded = old if old is not None else self._seed(gkey)
        new = self.value_join(seeded, val)
        if new != seeded or old is None:
            self.global_vals[gkey] = new
            work.extend(self.global_readers.get(gkey, ()))

    def _poison_globals(self, lo, hi, work) -> None:
        """A write that cannot be enumerated: the words in ``[lo, hi]``
        (everything when ``lo`` is None) are TOP from now on."""
        rng = (lo, hi) if lo is not None else _EVERYWHERE
        for existing in self._poisoned:
            if existing[0] <= rng[0] and rng[1] <= existing[1]:
                return
        self._poisoned.append(rng)
        for readers in self.global_readers.values():
            work.extend(readers)

    def _global_poisoned(self, addr: int) -> bool:
        return any(lo <= addr <= hi for lo, hi in self._poisoned)
