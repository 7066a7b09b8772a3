"""Outside-in layer tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  A traced round wraps
the public functions and per-run objects of each layer from here, so
the untraced rounds run exactly the code users run:

* module functions (patched for the duration of :func:`instrument`):
  ``repro.session.analyze_and_patch`` / ``load_binary``,
  ``ValueSetAnalysis.run``, ``repro.analysis.refine`` /
  ``apply_patches``, ``repro.analysis.ranges.analyze_ranges`` and each
  workload module's ``compile_source``;
* per-run objects (:meth:`Tracer.instrument_session`): ``Machine.run``,
  the machine's FP-trap and correctness handlers, every extern,
  the FPVM decode/bind caches, the emulator and the GC;
* the arithmetic port (:meth:`Tracer.arith`), wrapped on the instance
  before it reaches ``Session`` because the emulator binds ``a.add``
  and friends at construction.

Coarse spans (job, session build, analysis phases, load, run,
run_batch) are kept one by one with their parent and job id.  Hot
spans (traps, caches, emulation, arithmetic, externs, GC) are only
aggregated per job as count, total and self time: a warm Fig. 12 round
makes hundreds of thousands of them.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter
from contextlib import contextmanager

import repro.analysis as analysis
import repro.analysis.ranges as ranges
import repro.session as session_module
from repro.analysis.vsa import ValueSetAnalysis
from repro.arith import from_spec, normalize_spec
from repro.arith.interface import ARITH_OPS, COMPARISON_OPS, CONVERSION_OPS
from repro.workloads import WORKLOADS

#: spans recorded individually; every other name is aggregated per job
COARSE = frozenset({
    "job", "compiler.build", "session.build", "analysis", "analysis.vsa",
    "analysis.liveness", "analysis.patch", "analysis.ranges",
    "machine.load", "machine.run", "machine.batch",
})


class Tracer:
    """Span recorder driven by wrappers installed from the outside.

    ``clock`` is injectable so the self-time arithmetic can be tested
    on synthetic spans.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: coarse spans: id, name, start, end, parent id, job id, self
        self.spans: list[dict] = []
        #: (job id, span name) -> [count, total s, self s]
        self.hot: dict[tuple, list] = {}
        self.job = None
        #: layer counters read from public result objects after each run
        self.counts: Counter = Counter()
        self.pygc_s = 0.0
        self.pygc_collections = 0
        self._stack: list[list] = []   # frames: [child s, span id, parent]
        self._next_id = 0
        self._gc_t0 = 0.0

    # ------------------------------------------------------------------ #
    # span bookkeeping                                                    #
    # ------------------------------------------------------------------ #

    def _enter(self, name: str) -> tuple[list, float]:
        frame = [0.0, None, None]
        if name in COARSE:
            frame[1] = self._next_id
            self._next_id += 1
            frame[2] = next((f[1] for f in reversed(self._stack)
                             if f[1] is not None), None)
        self._stack.append(frame)
        return frame, self.clock()

    def _exit(self, name: str, frame: list, t0: float) -> None:
        t1 = self.clock()
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        if stack:
            stack[-1][0] += dt
        self_s = dt - frame[0]
        agg = self.hot.get((self.job, name))
        if agg is None:
            agg = self.hot[(self.job, name)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += self_s
        if frame[1] is not None:
            self.spans.append({"id": frame[1], "name": name, "start": t0,
                               "end": t1, "parent": frame[2],
                               "job": self.job, "self": self_s})

    @contextmanager
    def span(self, name: str, job=None):
        """Time a block as one span; ``job`` starts a new job id."""
        if job is not None:
            self.job = job
        frame, t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame, t0)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame, t0 = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame, t0)
        traced.__wrapped__ = fn
        return traced

    def _on_pygc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = self.clock()
        else:
            self.pygc_s += self.clock() - self._gc_t0
            self.pygc_collections += 1

    # ------------------------------------------------------------------ #
    # wrapping the layers                                                 #
    # ------------------------------------------------------------------ #

    def arith(self, spec):
        """The arithmetic port for ``spec`` with its 37 interface
        functions wrapped as ``arith.<kind>`` spans (None stays None)."""
        if spec is None:
            return None
        port = from_spec(spec)
        name = f"arith.{normalize_spec(spec)[0]}"
        for op in ARITH_OPS + CONVERSION_OPS + COMPARISON_OPS:
            setattr(port, op, self.wrap(name, getattr(port, op)))
        return port

    def instrument_session(self, session) -> None:
        """Wrap the per-run objects of a freshly built Session."""
        m = session.machine
        m.run = self.wrap("machine.run", m.run)
        if m.fp_trap_handler is not None:
            m.fp_trap_handler = self.wrap("fpvm.trap", m.fp_trap_handler)
        if m.correctness_handler is not None:
            m.correctness_handler = self.wrap("fpvm.correctness",
                                              m.correctness_handler)
        for addr, impl in list(m.externs.items()):
            m.externs[addr] = self.wrap("machine.extern", impl)
        f = session.fpvm
        if f is not None:
            f.decode_cache.lookup = self.wrap("fpvm.decode",
                                              f.decode_cache.lookup)
            f.bind_cache.lookup = self.wrap("fpvm.bind", f.bind_cache.lookup)
            f.emulator.emulate = self.wrap("fpvm.emulate", f.emulator.emulate)
            f.gc.collect = self.wrap("fpvm.gc", f.gc.collect)
        session.run_batch = self.wrap("machine.batch", session.run_batch)

    @contextmanager
    def instrument(self):
        """Patch the layers' module functions for the duration of the
        block, and count Python GC time through ``gc.callbacks``."""
        patches = [
            (session_module, "analyze_and_patch", "analysis"),
            (session_module, "load_binary", "machine.load"),
            (ValueSetAnalysis, "run", "analysis.vsa"),
            (analysis, "refine", "analysis.liveness"),
            (analysis, "apply_patches", "analysis.patch"),
            (ranges, "analyze_ranges", "analysis.ranges"),
        ]
        builders = {sys.modules[spec.build.__module__]
                    for spec in WORKLOADS.values()}
        patches += [(mod, "compile_source", "compiler.build")
                    for mod in builders]
        saved = []
        try:
            for owner, attr, name in patches:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig))
            gc.callbacks.append(self._on_pygc)
            yield self
        finally:
            if self._on_pygc in gc.callbacks:
                gc.callbacks.remove(self._on_pygc)
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def count_run(self, session, result) -> None:
        """Add one job's layer counters: RunResult / BatchResult, the
        AnalysisReport, FPVMStats and the GC's pass records."""
        c = self.counts
        lanes = getattr(result, "lanes", None)
        if lanes is not None:
            c["batch.lanes"] += len(lanes)
            c["batch.spilled"] += result.spilled_lanes
            c["machine.batch_dispatches"] += result.dispatches
            c["machine.batch_lane_instrs"] += sum(r.instr_count
                                                  for r in lanes)
        else:
            c["machine.instrs"] += result.instr_count
            c["fpvm.correctness_traps"] += result.correctness_traps
        report = session.analysis
        if report is not None:
            c["analysis.hits" if report.cache_hit else "analysis.runs"] += 1
            if not report.cache_hit:
                c["analysis.vsa_iterations"] += report.vsa_iterations
        f = session.fpvm
        if f is None:
            return
        st = f.stats
        for name, value in (
                ("fpvm.traps", st.fp_traps),
                ("fpvm.decode_hits", st.decode_hits),
                ("fpvm.decode_lookups", st.decode_hits + st.decode_misses),
                ("fpvm.bind_hits", st.bind_hits),
                ("fpvm.bind_lookups", st.bind_hits + st.bind_misses),
                ("fpvm.gc_passes", len(f.gc.passes)),
                ("fpvm.gc_words_scanned",
                 sum(p.words_scanned for p in f.gc.passes)),
                ("jit.sites_compiled", st.jit_sites_compiled),
                ("jit.hits", st.jit_hits),
                ("tracejit.loops_compiled", st.trace_loops_compiled),
                ("tracejit.hits", st.trace_hits),
                ("tracejit.deopts", st.trace_deopts),
                ("tracejit.side_exits", st.trace_side_exits),
                ("tracejit.record_aborts", st.trace_record_aborts)):
            c[name] += value

    # ------------------------------------------------------------------ #
    # reading the trace                                                   #
    # ------------------------------------------------------------------ #

    def layer_metrics(self, rounds: int, overhead_x: float) -> dict:
        """Per-layer metrics per traced round (see the README map).

        Times are self times, except ``fpvm.ns_per_trap``, which is the
        whole host round trip of one trap.  ``overhead_x`` is the traced
        round's wall time over the untraced one's.
        """
        layers, c = self.layers(), self.counts
        zero = [0, 0.0, 0.0]

        def self_s(name):
            return layers.get(name, zero)[2] / rounds

        def calls(name):
            return layers.get(name, zero)[0] / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "compiler.build_s": self_s("compiler.build"),
            "analysis.vsa_s": self_s("analysis.vsa"),
            "analysis.liveness_s": self_s("analysis.liveness"),
            "analysis.patch_s": self_s("analysis.patch"),
            "analysis.ranges_s": self_s("analysis.ranges"),
            "analysis.runs": c["analysis.runs"] / rounds,
            "analysis.cache_hit_rate": ratio(
                c["analysis.hits"], c["analysis.hits"] + c["analysis.runs"]),
            "analysis.vsa_iterations": c["analysis.vsa_iterations"] / rounds,
            "session.build_self_s": self_s("session.build"),
            "machine.load_s": self_s("machine.load"),
            "machine.run_self_s": self_s("machine.run"),
            "machine.instrs": c["machine.instrs"] / rounds,
            "machine.ns_per_instr": ratio(
                1e9 * layers.get("machine.run", zero)[2],
                c["machine.instrs"]),
            "machine.extern_s": self_s("machine.extern"),
            "machine.extern_calls": calls("machine.extern"),
            "fpvm.traps": c["fpvm.traps"] / rounds,
            "fpvm.trap_self_s": self_s("fpvm.trap"),
            "fpvm.ns_per_trap": ratio(1e9 * layers.get("fpvm.trap", zero)[1],
                                      layers.get("fpvm.trap", zero)[0]),
            "fpvm.decode_s": self_s("fpvm.decode"),
            "fpvm.decode_hit_rate": ratio(c["fpvm.decode_hits"],
                                          c["fpvm.decode_lookups"]),
            "fpvm.bind_s": self_s("fpvm.bind"),
            "fpvm.bind_hit_rate": ratio(c["fpvm.bind_hits"],
                                        c["fpvm.bind_lookups"]),
            "fpvm.emulate_self_s": self_s("fpvm.emulate"),
            "fpvm.correctness_traps": c["fpvm.correctness_traps"] / rounds,
            "fpvm.correctness_s": self_s("fpvm.correctness"),
            "fpvm.gc_s": self_s("fpvm.gc"),
            "fpvm.gc_passes": c["fpvm.gc_passes"] / rounds,
            "fpvm.gc_words_scanned": c["fpvm.gc_words_scanned"] / rounds,
            "jit.hit_rate": ratio(c["jit.hits"], c["jit.hits"]
                                  + c["fpvm.traps"]),
            "machine.batch_s": self_s("machine.batch"),
            "machine.batch_dispatches": c["machine.batch_dispatches"] / rounds,
            "machine.batch_lane_instrs":
                c["machine.batch_lane_instrs"] / rounds,
            "machine.batch_spill_rate": ratio(c["batch.spilled"],
                                              c["batch.lanes"]),
            "pygc.s": self.pygc_s / rounds,
            "pygc.collections": self.pygc_collections / rounds,
            "bench.attributed_frac": 1.0 - ratio(
                layers.get("job", zero)[2], layers.get("job", zero)[1]),
            "bench.trace_overhead_x": overhead_x,
        }
        for name in ("jit.sites_compiled", "jit.hits",
                     "tracejit.loops_compiled", "tracejit.hits",
                     "tracejit.deopts", "tracejit.side_exits",
                     "tracejit.record_aborts"):
            m[name] = c[name] / rounds
        for port in ("vanilla", "mpfr", "posit", "sanitize"):
            span = layers.get(f"arith.{port}", zero)
            m[f"arith.{port}_s"] = span[2] / rounds
            m[f"arith.{port}_ops"] = span[0] / rounds
            m[f"arith.{port}_ns_per_op"] = ratio(1e9 * span[2], span[0])
        return m

    def layers(self) -> dict[str, list]:
        """Span name -> [count, total s, self s] summed over jobs."""
        out: dict[str, list] = {}
        for (_, name), (count, total, self_s) in self.hot.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += self_s
        return out

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [{"job": job, "name": name, "count": c, "total_s": t,
                     "self_s": s}
                    for (job, name), (c, t, s) in self.hot.items()],
            "pygc_s": self.pygc_s,
            "pygc_collections": self.pygc_collections,
        }


def render_layers(layers: dict[str, list]) -> str:
    """Layer table: self time, share of traced job wall time, calls."""
    wall = layers.get("job", [0, 0.0, 0.0])[1]
    rows = sorted(layers.items(), key=lambda kv: -kv[1][2])
    out = [f"  {'layer span':20s} {'self s':>9s} {'share':>7s} "
           f"{'calls':>10s}"]
    for name, (count, _, self_s) in rows:
        label = "(unattributed)" if name == "job" else name
        share = self_s / wall if wall else 0.0
        out.append(f"  {label:20s} {self_s:9.3f} {100 * share:6.1f}% "
                   f"{count:10d}")
    return "\n".join(out)
