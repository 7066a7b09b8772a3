"""Phase 2: intersect FP-write sources with integer-load candidates.

    "In FPVM, a *source* is any instruction that stores a floating
    point value to memory, and a *sink* is any instruction that later
    loads from any memory location that was previously been written to
    by a source."

The intersection is over a-loc sets; conservative escapes (TOP
pointers, over-wide ranges) intersect everything, so the corresponding
loads are patched "just in case" — those are exactly the dynamic
checks that usually succeed at run time (the paper's Enzo discussion).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.domain import AccessSet
from repro.analysis.report import AnalysisReport
from repro.analysis.vsa import INTERPOSED_EXTERNS, NO_FP_EXTERNS

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.vsa import ValueSetAnalysis


def _ranges_overlap_aloc(ranges, aloc) -> bool:
    for r in ranges:
        if r[0] == "gr" and aloc[0] == "g" and r[1] <= aloc[1] <= r[2]:
            return True
        if (r[0] == "sr" and aloc[0] == "s" and aloc[1] == r[1]
                and r[2] <= aloc[2] <= r[3]):
            return True
    return False


def _range_pairs_overlap(ra, rb) -> bool:
    if ra[0] == "gr" and rb[0] == "gr":
        return ra[1] <= rb[2] and rb[1] <= ra[2]
    if ra[0] == "sr" and rb[0] == "sr":
        return ra[1] == rb[1] and ra[2] <= rb[3] and rb[2] <= ra[3]
    return False


def accesses_intersect(a: AccessSet, b: AccessSet) -> bool:
    """Could the two access sets touch a common memory word?"""
    if a.top or b.top:
        return not (a.is_empty() or b.is_empty())
    if a.alocs & b.alocs:
        return True
    for aloc in a.alocs:
        if _ranges_overlap_aloc(b.ranges, aloc):
            return True
    for aloc in b.alocs:
        if _ranges_overlap_aloc(a.ranges, aloc):
            return True
    for ra in a.ranges:
        for rb in b.ranges:
            if _range_pairs_overlap(ra, rb):
                return True
    return False


def classify(vsa: "ValueSetAnalysis") -> AnalysisReport:
    """Build the final report from the fixpoint's accumulated events."""
    report = AnalysisReport()
    report.instructions = len(vsa.binary.text)
    report.functions = len(vsa.cfg.functions)
    report.contexts = len(vsa.contexts)
    report.vsa_iterations = vsa.iterations
    report.fp_store_sites = len(vsa.writes_fp)
    report.int_load_sites = len(vsa.reads_int)

    # the union of everything FP stores may have written
    fp_union_alocs: set = set()
    fp_ranges: list = []
    fp_top = False
    for acc in vsa.writes_fp.values():
        fp_union_alocs |= acc.alocs
        fp_ranges.extend(acc.ranges)
        fp_top = fp_top or acc.top
    fp_set = AccessSet(frozenset(fp_union_alocs), tuple(fp_ranges), fp_top)
    report.fp_alocs = len(fp_union_alocs)
    any_fp = bool(fp_union_alocs or fp_ranges or fp_top)

    for addr, ev in sorted(vsa.reads_int.items()):
        if not any_fp:
            break
        access = ev.access
        conservative = access.top or bool(access.ranges)
        if accesses_intersect(access, fp_set):
            report.sinks.append(addr)
            if conservative:
                report.conservative_reads += 1

    report.bitwise_sites = sorted(vsa.bitwise_sites)
    report.movq_sites = sorted(vsa.movq_sinks)

    for addr, name in sorted(vsa.cfg.extern_calls.items()):
        if name in INTERPOSED_EXTERNS or name in NO_FP_EXTERNS:
            continue
        report.extern_demote_sites.append((addr, name))
    return report
