"""Fault-injection subsystem: plans, injectors, typed errors, crash
reports, and the graceful-degradation ladder."""

import io
import json
import pickle
import threading

import pytest

from repro.arith import VanillaArithmetic
from repro.compiler import compile_source
from repro.errors import (MachineError, MemoryFault, NanBoxError,
                          ReproError, UnknownSegment, WatchdogExpired)
from repro.faults import (STAGES, FaultInjector, FaultPlan, FaultPlanError,
                          FaultRule, InjectedFault, build_crash_report,
                          write_crash_report)
from repro.fpvm.nanbox import NaNBoxCodec
from repro.fpvm.runtime import FPVM, FPVMConfig
from repro.fpvm.shadow import ShadowStore
from repro.machine.memory import Memory
from repro.session import Session
from repro.trace.events import event_from_dict

TRAPPY_SRC = """
long main() {
    double x = 1.0;
    for (long i = 0; i < 80; i = i + 1) { x = x / 3.0 + 1.0; }
    printf("%.17g\\n", x);
    return 0;
}
"""


def _run(plan=None, storm_threshold=8):
    cfg = FPVMConfig(faults=plan, storm_threshold=storm_threshold)
    s = Session(lambda: compile_source(TRAPPY_SRC), VanillaArithmetic(),
                config=cfg)
    return s, s.run()


# --------------------------------------------------------------------------- #
# plans and rules                                                              #
# --------------------------------------------------------------------------- #

class TestFaultPlan:
    def test_every_stage_is_valid(self):
        for stage in STAGES:
            FaultRule(stage, probability=0.5).validate()

    @pytest.mark.parametrize("rule", [
        FaultRule("frobnicate", probability=0.5),
        FaultRule("decode", probability=1.5),
        FaultRule("decode", probability=-0.1),
        FaultRule("decode"),                      # can never fire
        FaultRule("decode", nth=0),
        FaultRule("decode", probability=0.5, max_fires=0),
    ])
    def test_invalid_rules_rejected(self, rule):
        with pytest.raises(FaultPlanError):
            rule.validate()

    def test_plan_validates_rules_eagerly(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(seed=1, rules=(FaultRule("nope", nth=1),))

    def test_plan_is_picklable_and_hashable(self):
        plan = FaultPlan(seed=3, rules=(FaultRule("emulate", nth=2),))
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))

    def test_stages_in_pipeline_order(self):
        plan = FaultPlan(rules=(FaultRule("gc_sweep", nth=1),
                                FaultRule("decode", nth=1)))
        assert plan.stages == ("decode", "gc_sweep")

    def test_describe_mentions_triggers(self):
        plan = FaultPlan(seed=9, rules=(
            FaultRule("bind", probability=0.25, nth=4),))
        text = plan.describe()
        assert "bind" in text and "nth=4" in text and "p=0.25" in text
        assert "zero-fault" in FaultPlan(seed=9).describe()


class TestFaultInjector:
    def test_nth_fires_exactly_once(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("decode", nth=3),)))
        hits = [inj.fires("decode") for _ in range(10)]
        assert hits == [False, False, True] + [False] * 7

    def test_probability_stream_is_deterministic(self):
        plan = FaultPlan(seed=5, rules=(
            FaultRule("emulate", probability=0.3, max_fires=None),))
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.fires("emulate") for _ in range(200)]
        seq_b = [b.fires("emulate") for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_stage_streams_are_independent(self):
        """Probing one stage never perturbs another stage's stream."""
        plan = FaultPlan(seed=5, rules=(
            FaultRule("emulate", probability=0.3, max_fires=None),
            FaultRule("bind", probability=0.3, max_fires=None),))
        a = FaultInjector(plan)
        b = FaultInjector(FaultPlan(seed=5, rules=(
            FaultRule("emulate", probability=0.3, max_fires=None),)))
        seq_a = []
        for i in range(100):
            a.fires("bind")
            seq_a.append(a.fires("emulate"))
        assert seq_a == [b.fires("emulate") for _ in range(100)]

    def test_max_fires_caps_rule(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule("gc_sweep", probability=1.0, max_fires=2),)))
        assert [inj.fires("gc_sweep") for _ in range(5)] == [
            True, True, False, False, False]

    def test_unplanned_stage_is_free(self):
        inj = FaultInjector(FaultPlan(seed=1))
        assert not inj.fires("decode")
        assert inj.total_fired == 0 and inj.fired == {}

    def test_fire_raises_injected_fault(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("bind", nth=1),)))
        with pytest.raises(InjectedFault) as ei:
            inj.fire("bind", "mulsd")
        assert ei.value.stage == "bind" and ei.value.occurrence == 1
        assert isinstance(ei.value, ReproError)

    def test_summary_is_picklable(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("decode", nth=1),)))
        inj.fires("decode")
        summary = pickle.loads(pickle.dumps(inj.summary()))
        assert summary["fired"] == {"decode": 1}
        assert summary["occurrences"] == {"decode": 1}

    def test_nanbox_corrupt_onto_a_live_handle_reads_that_cell(self):
        # handles are small free-listed integers, so a low-bit flip can
        # name another live cell: its value is read and nothing degrades
        seed = next(s for s in range(2000) if FaultInjector(
            FaultPlan(seed=s)).rng("nanbox_corrupt").randrange(51) == 0)
        plan = FaultPlan(seed=seed, rules=(
            FaultRule("nanbox_corrupt", nth=1),))
        fpvm = FPVM(VanillaArithmetic(), FPVMConfig(faults=plan))
        emu = fpvm.emulator
        h1, h2, h3 = (emu.store.alloc(v) for v in (1.5, 2.5, 3.5))
        assert (h1, h2, h3) == (1, 2, 3)
        assert emu.unbox(emu.codec.encode(h2)) == 3.5   # 2 ^ 1 == 3
        assert emu.corrupted_boxes == 1
        assert emu.universal_nans == 0
        assert fpvm.stats.degradations == 0
        assert emu.unbox(emu.codec.encode(h2)) == 2.5   # fired once


# --------------------------------------------------------------------------- #
# typed error satellites                                                       #
# --------------------------------------------------------------------------- #

class TestTypedErrors:
    def test_map_rejects_non_positive_size_as_memory_fault(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.map("bad", 0x1000, 0)
        with pytest.raises(MachineError):
            mem.map("bad", 0x1000, -8)

    def test_unknown_segment_is_machine_and_key_error(self):
        mem = Memory()
        with pytest.raises(UnknownSegment) as ei:
            mem.segment_named("nope")
        assert isinstance(ei.value, MachineError)
        assert isinstance(ei.value, KeyError)
        assert "nope" in str(ei.value) and ei.value.name == "nope"

    def test_nanbox_encode_out_of_range(self):
        codec = NaNBoxCodec()
        with pytest.raises(NanBoxError) as ei:
            codec.encode(1 << 52)
        assert isinstance(ei.value, ValueError)
        assert isinstance(ei.value, ReproError)

    def test_shadow_fetch_dangling_handle(self):
        store = ShadowStore()
        h = store.alloc(1.5)
        assert store.get(h) == 1.5
        store.clear_marks()
        store.sweep()
        assert store.get(h) is None


# --------------------------------------------------------------------------- #
# the degradation ladder                                                       #
# --------------------------------------------------------------------------- #

class TestDegradation:
    def test_injected_faults_degrade_and_preserve_output(self):
        _, clean = _run()
        s, res = _run(FaultPlan(seed=2, rules=(
            FaultRule("emulate", probability=0.3, max_fires=None),)),
            storm_threshold=0)
        assert res.exit_code == 0
        assert res.stdout == clean.stdout  # vanilla-correct degradation
        assert s.fpvm.stats.degradations > 0
        assert s.fpvm.injector.total_fired == s.fpvm.stats.degradations

    def test_storm_detector_demotes_hot_site(self):
        s, res = _run(FaultPlan(seed=2, rules=(
            FaultRule("emulate", probability=1.0, max_fires=None),)),
            storm_threshold=4)
        st = s.fpvm.stats
        assert st.sites_short_circuited >= 1
        assert st.short_circuit_execs > 0
        # demoted sites stop degrading: far fewer degradations than traps
        assert st.degradations < st.fp_traps

    def test_zero_threshold_disables_storm_detector(self):
        s, _ = _run(FaultPlan(seed=2, rules=(
            FaultRule("emulate", probability=1.0, max_fires=None),)),
            storm_threshold=0)
        assert s.fpvm.stats.sites_short_circuited == 0

    def test_degrade_events_traced(self):
        from repro.trace.sinks import RingBufferSink

        ring = RingBufferSink(capacity=4096)
        cfg = FPVMConfig(
            faults=FaultPlan(seed=2, rules=(
                FaultRule("emulate", nth=1),)),
            trace=ring)
        s = Session(lambda: compile_source(TRAPPY_SRC),
                    VanillaArithmetic(), config=cfg)
        s.run()
        degrades = [e for e in ring.events if e.kind == "degrade"]
        assert len(degrades) == 1
        ev = degrades[0]
        assert ev.stage == "emulate" and ev.injected
        assert event_from_dict(ev.to_dict()) == ev

    def test_gc_sweep_skip_keeps_shadows_alive(self):
        s, res = _run(FaultPlan(seed=0, rules=(
            FaultRule("gc_sweep", probability=1.0, max_fires=None),)))
        assert res.exit_code == 0
        assert s.fpvm.gc.sweeps_skipped == len(s.fpvm.gc.passes)
        assert all(p.freed == 0 for p in s.fpvm.gc.passes)

    def test_watchdog_expired_is_typed(self):
        s = Session(lambda: compile_source(TRAPPY_SRC),
                    VanillaArithmetic())
        with pytest.raises(WatchdogExpired) as ei:
            s.run(max_instructions=50)
        assert ei.value.kind == "instructions"
        assert isinstance(ei.value, MachineError)
        # crash containment captured the structured report
        kinds = [r["kind"] for r in s.crash_records]
        assert kinds[0] == "crash" and "registers" in kinds

    def test_cycle_watchdog(self):
        s = Session(lambda: compile_source(TRAPPY_SRC),
                    VanillaArithmetic())
        with pytest.raises(WatchdogExpired) as ei:
            s.run(max_cycles=10_000)
        assert ei.value.kind == "cycles"


# --------------------------------------------------------------------------- #
# crash reports                                                                #
# --------------------------------------------------------------------------- #

class TestCrashReport:
    def _crash(self):
        s = Session(lambda: compile_source(TRAPPY_SRC),
                    VanillaArithmetic(), label="unit-crash")
        try:
            s.run(max_instructions=50)
        except WatchdogExpired as exc:
            return s, exc
        raise AssertionError("expected WatchdogExpired")

    def test_records_are_json_safe_and_kind_tagged(self, tmp_path):
        s, exc = self._crash()
        records = build_crash_report(exc, s.machine, s.fpvm,
                                     label="unit-crash")
        kinds = [r["kind"] for r in records]
        assert kinds == ["crash", "disassembly", "registers",
                         "trap_context"]
        head = records[0]
        assert head["error"] == "WatchdogExpired"
        assert head["rip"] == s.machine.regs.rip
        window = records[1]["window"]
        assert any(is_rip for _, _, is_rip in window)
        path = tmp_path / "crash.ndjson"
        write_crash_report(path, records)
        lines = path.read_text().splitlines()
        assert [json.loads(l)["kind"] for l in lines] == kinds

    def test_report_without_machine_still_valid(self):
        records = build_crash_report(ValueError("boom"), label="bare")
        assert records == [{"kind": "crash", "error": "ValueError",
                            "message": "boom", "label": "bare"}]

    def test_untagged_by_default(self):
        records = build_crash_report(RuntimeError("boom"))
        assert set(records[0]) == {"kind", "error", "message", "label"}

    def test_append_mode_accumulates(self, tmp_path):
        path = tmp_path / "crash.ndjson"
        r1 = build_crash_report(RuntimeError("a"), label="a")
        r2 = build_crash_report(RuntimeError("b"), label="b")
        write_crash_report(path, r1, append=True, fsync=True)
        write_crash_report(path, r2, append=True, fsync=True)
        lines = [json.loads(x) for x in
                 path.read_text().strip().splitlines()]
        assert [rec["label"] for rec in lines] == ["a", "b"]

    def test_concurrent_appends_keep_lines_whole(self, tmp_path):
        path = tmp_path / "crash.ndjson"
        lock = threading.Lock()

        def writer(i):
            recs = build_crash_report(RuntimeError(f"e{i}"), label=f"w{i}")
            with lock:
                write_crash_report(path, recs, append=True, fsync=True)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = path.read_text().strip().splitlines()
        parsed = [json.loads(x) for x in lines]  # every line valid JSON
        assert {rec["label"] for rec in parsed} == {f"w{i}" for i in range(8)}

    def test_file_object_target(self):
        buf = io.StringIO()
        write_crash_report(buf, build_crash_report(RuntimeError("x")),
                           fsync=True)
        assert buf.getvalue().strip()
