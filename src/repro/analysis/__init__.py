"""Static binary analysis and transformation (paper §4.2).

x64 FP is not fully virtualizable: integer loads (``mov r,[m]``),
``movq r,xmm``, and the bitwise FP ops (``xorpd``/``andpd``/…) consume
NaN-boxed values without faulting.  This package finds those sites in
an *unmodified* binary and patches them with **correctness traps**
that demote boxes back to IEEE doubles before re-executing:

* :mod:`repro.analysis.si`      — strided-interval abstract values
* :mod:`repro.analysis.domain`  — registers/a-locs value-set domain
  (values are flat tagged tuples, compared and hashed in C)
* :mod:`repro.analysis.cfg`     — control-flow recovery over a Binary
* :mod:`repro.analysis.fixpoint` — the one worklist engine (widening,
  recording pass, global-word map) of the VSA, ranges and liveness
* :mod:`repro.analysis.vsa`     — worklist value-set analysis (each
  instruction is its own basic block, as in the paper) with k=1
  call-string contexts; each instruction is compiled once into a
  transfer closure, and one recording pass over the converged states
  collects the memory *source* (FP store) and candidate *sink* (int
  load) events
* :mod:`repro.analysis.sources_sinks` — classification of sinks
* :mod:`repro.analysis.liveness` — box-liveness refinement: prunes
  sinks whose loaded words are strongly overwritten by integer stores
  on every path from the FP stores that marked them
* :mod:`repro.analysis.signatures` — per-callee FP-argument counts
  for call-site demotion
* :mod:`repro.analysis.oracle`  — dynamic soundness oracle: an
  instrumented unpatched run cross-checks every box consumption
  against the static patch set (``repro analyze --validate``)
* :mod:`repro.analysis.patcher` — e9patch stand-in: installs the traps
* :mod:`repro.analysis.report`  — the analysis artifact

Soundness argument (tested in ``tests/integration/test_analysis.py``):
boxes live only in XMM registers and FP-stored 8-byte memory words.
They can enter a GPR only via (a) an integer load from FP-marked
memory — found by VSA; (b) ``movq r64, xmm`` — patched
unconditionally; both are demoted before execution.  Hence GPRs never
hold live boxes and integer stores never propagate them.  Bitwise FP
ops and un-interposed external calls are likewise patched.  The
liveness refinement preserves the invariant: it only unpatches a load
when the words it reads were strongly overwritten by integer stores —
which, by the same GPR invariant, cannot have stored a box — since
the last FP store on every path (see :mod:`repro.analysis.liveness`).

Reports are cached by :meth:`repro.asm.program.Binary.content_hash`,
so an experiment matrix that rebuilds the same workload per cell pays
for one analysis; cached reports are shared objects and must not be
mutated by callers.
"""

from time import perf_counter

from repro.analysis.vsa import ValueSetAnalysis
from repro.analysis.liveness import refine
from repro.analysis.patcher import apply_patches
from repro.analysis.report import AnalysisReport

#: content-hash -> report; process-wide (matrix runs skip re-analysis)
_REPORT_CACHE: dict[str, AnalysisReport] = {}
#: cumulative hit/miss counters for the cache (trace + bench surface)
CACHE_STATS = {"hits": 0, "misses": 0}


def analyze(binary, *, cache: bool = True) -> AnalysisReport:
    """Run the static analysis; returns the report (no mutation).

    The report always carries the box-liveness refinement record
    (``pruned_sinks`` / ``provenance``); whether the pruned sites stay
    unpatched is the patcher's choice (``apply_patches(conservative=)``).
    """
    return _analyze(binary, cache)[0]


def _analyze(binary, cache: bool):
    """:func:`analyze` plus the converged :class:`ValueSetAnalysis`
    behind the report, or ``None`` on a cache hit.  The cache keeps
    only reports: a VSA lives as long as its caller holds it."""
    key = binary.content_hash()
    if cache:
        hit = _REPORT_CACHE.get(key)
        if hit is not None:
            CACHE_STATS["hits"] += 1
            hit.cache_hit = True
            return hit, None
        CACHE_STATS["misses"] += 1
    t0 = perf_counter()
    vsa = ValueSetAnalysis(binary)
    report = vsa.run()
    report.vsa_ms = (perf_counter() - t0) * 1e3
    t1 = perf_counter()
    refine(vsa, report)
    report.refine_ms = (perf_counter() - t1) * 1e3
    report.binary_hash = key
    report.cache_hit = False
    if cache:
        _REPORT_CACHE[key] = report
    return report, vsa


def clear_cache() -> None:
    """Drop all cached reports (tests / fresh measurement runs)."""
    _REPORT_CACHE.clear()
    CACHE_STATS["hits"] = CACHE_STATS["misses"] = 0


def analyze_and_patch(binary, *, conservative: bool = False,
                      cache: bool = True, keep_vsa: bool = False):
    """Run the analysis and install the correctness traps in place.

    ``conservative=True`` also patches the refinement-pruned sinks —
    the v1 behavior, kept for differential testing (pruned and
    conservative runs must be observationally identical).

    Returns the report, or with ``keep_vsa=True`` the pair ``(report,
    vsa)``: the converged :class:`ValueSetAnalysis` (``None`` when the
    report came from the cache) for a follow-on pass over the same
    binary — the sanitizer's interval-range pass reuses it instead of
    re-running the VSA on the patched binary.
    """
    report, vsa = _analyze(binary, cache)
    apply_patches(binary, report, conservative=conservative)
    return (report, vsa) if keep_vsa else report


__all__ = ["ValueSetAnalysis", "AnalysisReport", "analyze",
           "analyze_and_patch", "apply_patches", "clear_cache",
           "CACHE_STATS"]
