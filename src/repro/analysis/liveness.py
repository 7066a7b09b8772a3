"""Box-liveness refinement (analysis v2, phase 3).

The source/sink intersection of :mod:`repro.analysis.sources_sinks` is
flow-insensitive: a load intersecting *any* FP store's write set is
patched, even when every path from those stores to the load overwrites
the shared words with integer data first.  This pass runs a forward
may-box dataflow over the CFG and prunes exactly those sinks:

* **gen** — an FP store marks its (symbol-clamped) write set as
  possibly box-holding;
* **kill** — an integer store whose access set is a *single exact
  global word* written with the full 8 bytes on every flow strongly
  clears that word.  Stack and heap a-locs are summary locations (one
  a-loc stands for many concrete frames/allocations), so they are
  never strongly killed — the textbook rule that keeps the pass sound
  under recursion and frame reuse;
* **call** — an internal call unions the transitive FP-write summary
  of the callee into the return-site state (the callee may re-box
  words the caller killed); the callee entry receives the caller's
  state so loads inside callees stay covered.  Interposed externs
  (libm, printf) never store FP data into program memory, so extern
  calls are no-ops here, mirroring the VSA's phase-2 treatment.

A sink is pruned iff its load access is exact (no TOP, no ranges) and
does not intersect the may-box set flowing into the load.  Integer
stores cannot re-introduce boxes because GPRs never hold live boxes
(the package-level soundness invariant), so a strongly cleared word
stays clear until the next FP store — which the dataflow re-gens.

It runs on :mod:`repro.analysis.fixpoint` with every state keyed
``(0, addr)``; its lattice (sets of the binary's a-locs and ranges) is
finite, so it ignores the engine's widening flag.

The dynamic soundness oracle (:mod:`repro.analysis.oracle`) cross
checks every prune decision against instrumented runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.domain import AccessSet
from repro.analysis.fixpoint import Fixpoint
from repro.analysis.sources_sinks import accesses_intersect

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.report import AnalysisReport
    from repro.analysis.vsa import ValueSetAnalysis

_EMPTY = AccessSet(frozenset(), (), False)


def _union(a: AccessSet, b: AccessSet) -> AccessSet:
    """Join for the may-box lattice (ranges kept sorted so equality
    works as the fixpoint test)."""
    return AccessSet(a.alocs | b.alocs,
                     tuple(sorted(set(a.ranges) | set(b.ranges))),
                     a.top or b.top)


def _join(old: AccessSet, new: AccessSet, widen: bool) -> AccessSet:
    joined = _union(old, new)
    return old if joined == old else joined


class BoxLiveness(Fixpoint):
    """Forward may-box dataflow over one analyzed binary; ``states``
    holds the may-box set flowing *into* each ``(0, addr)``."""

    join = staticmethod(_join)

    def __init__(self, vsa: "ValueSetAnalysis") -> None:
        super().__init__(vsa.binary, vsa.cfg)
        self.vsa = vsa
        self._callee_fp = self._function_fp_summaries()

    # ------------------------------------------------------------------ #
    def _function_fp_summaries(self) -> dict[int, AccessSet]:
        """Transitive clamped FP-write set per function entry."""
        cfg = self.vsa.cfg
        summary: dict[int, AccessSet] = {}
        for entry, addrs in cfg.functions.items():
            acc = _EMPTY
            for a in addrs:
                w = self.vsa.writes_fp.get(a)
                if w is not None:
                    acc = _union(acc, w)
            summary[entry] = acc
        callees: dict[int, set[int]] = {e: set() for e in cfg.functions}
        for site, callee in cfg.calls.items():
            owner = cfg.owner.get(site)
            if owner in callees:
                callees[owner].add(callee)
        changed = True
        while changed:
            changed = False
            for entry, outs in callees.items():
                acc = summary[entry]
                for c in outs:
                    acc = _union(acc, summary.get(c, _EMPTY))
                if acc != summary[entry]:
                    summary[entry] = acc
                    changed = True
        return summary

    # ------------------------------------------------------------------ #
    def _compile(self, ins):
        """The gen/kill transfer of ``ins``, resolved once: the word a
        full-width integer store to one exact global a-loc strongly
        kills, and the clamped FP-write set an FP store gens."""
        vsa, addr = self.vsa, ins.addr
        kill = None
        w = vsa.writes_int.get(addr)
        if (w is not None and vsa.write_widths.get(addr, 0) >= 8
                and not w.top and not w.ranges and len(w.alocs) == 1):
            (aloc,) = w.alocs
            if aloc[0] == "g":
                kill = aloc
        gen = vsa.writes_fp.get(addr)

        def transfer(st, work):
            if kill is not None and kill in st.alocs:
                st = AccessSet(st.alocs - {kill}, st.ranges, st.top)
            return st if gen is None else _union(st, gen)

        succs = tuple(self.cfg.succ.get(addr, ()))
        callee = self.cfg.calls.get(addr)
        if callee is None:
            return transfer, succs
        # the callee entry receives the caller's state; the return site
        # also gets everything the callee may have FP-stored
        summary = self._callee_fp.get(callee, _EMPTY)

        def call(st, work):
            out = transfer(st, work)
            ret = _union(out, summary)
            return [((0, callee), out)] + [((0, s), ret) for s in succs]
        return call, None

    def run(self) -> None:
        self._solve(_EMPTY)


def refine(vsa: "ValueSetAnalysis", report: "AnalysisReport") -> None:
    """Run the liveness pass and prune dead sinks from ``report``.

    Pruned addresses move from ``report.sinks`` to
    ``report.pruned_sinks``; every candidate gets a provenance list
    (the FP-store sites whose write sets intersect its load) and a
    human-readable keep/prune reason.
    """
    live = BoxLiveness(vsa)
    live.run()
    fp_writes = sorted(vsa.writes_fp.items())

    kept: list[int] = []
    for addr in report.sinks:
        access = vsa.reads_int[addr].access
        report.provenance[addr] = [w for w, acc in fp_writes
                                   if accesses_intersect(acc, access)]
        if access.top or access.ranges:
            report.prune_reasons[addr] = \
                "kept: conservative access (TOP/range escapes the prune)"
            kept.append(addr)
            continue
        st = live.state_at((0, addr))
        if st is None:
            report.prune_reasons[addr] = \
                "kept: not reached by the liveness walk"
            kept.append(addr)
            continue
        if accesses_intersect(access, st):
            report.prune_reasons[addr] = \
                "kept: an FP-stored word may still be boxed at the load"
            kept.append(addr)
        else:
            report.prune_reasons[addr] = \
                "pruned: every intersecting word is strongly overwritten " \
                "by integer stores on all paths to the load"
            report.pruned_sinks.append(addr)
    report.sinks = kept
