"""Tests for the repro.trace subsystem: events, sinks, profiler."""

import json

import pytest

from repro.session import Session
from repro.trace import (
    CacheMissEvent,
    CorrectnessTrapEvent,
    DemotionEvent,
    ExternCallEvent,
    GCEpochEvent,
    NDJSONSink,
    PatchEvent,
    ProfilerSink,
    RingBufferSink,
    RunMetaEvent,
    TeeSink,
    TraceSink,
    TrapEvent,
    event_from_dict,
    read_ndjson,
    summarize_events,
    summarize_file,
)
from repro.trace.events import flag_names


def _one_of_each():
    return [
        RunMetaEvent(label="t", arith="mpfr200", mode="trap-and-emulate",
                     platform="R815", fp_sites=[[0x400000, "addsd"]]),
        TrapEvent(cycles=10.0, addr=0x400000, mnemonic="addsd", flags=0x20,
                  decode_cycles=1.0, bind_cycles=2.0, emulate_cycles=3.0,
                  decode_hit=True, bind_hit=False),
        GCEpochEvent(cycles=20.0, words_scanned=64, bytes_scanned=512,
                     boxes_marked=3, alive_before=5, freed=2, alive_after=3,
                     scan_cycles=40.0),
        CorrectnessTrapEvent(cycles=30.0, addr=0x400010, mnemonic="mov",
                             trap_kind="sink", demotions=1),
        DemotionEvent(cycles=40.0, location="xmm0[0]", reason="call",
                      handle=7, bits=0x3FF0000000000000),
        PatchEvent(cycles=50.0, addr=0x400020, mnemonic="mulsd",
                   patch_kind="trap-and-patch", source="runtime"),
        ExternCallEvent(cycles=60.0, addr=0x400030, name="printf",
                        cycles_spent=100.0),
        CacheMissEvent(cycles=70.0, stage="bind", addr=0x400000,
                       mnemonic="addsd"),
    ]


class TestEvents:
    def test_dict_round_trip_every_kind(self):
        for ev in _one_of_each():
            d = ev.to_dict()
            assert d["kind"] == type(ev).kind
            back = event_from_dict(json.loads(json.dumps(d)))
            assert back == ev
            assert type(back) is type(ev)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "nope"})

    def test_stale_fields_rejected_by_name(self):
        # a gc_epoch record written before the incremental GC mode was
        # removed still carries its four page/remembered-set fields
        stale = {"kind": "gc_epoch", "cycles": 5000000.0,
                 "words_scanned": 101, "bytes_scanned": 808,
                 "boxes_marked": 3, "alive_before": 40, "freed": 37,
                 "alive_after": 3, "scan_cycles": 4322.0,
                 "incremental": False, "pages_scanned": 0,
                 "pages_total": 0, "remembered_marks": 0}
        with pytest.raises(ValueError, match=r"'gc_epoch' event has "
                           r"unknown fields \['incremental', "
                           r"'pages_scanned', 'pages_total', "
                           r"'remembered_marks'\]"):
            event_from_dict(stale)

    def test_flag_names(self):
        assert flag_names(0) == []
        names = flag_names(0x3F)
        assert names == ["IE", "DE", "ZE", "OE", "UE", "PE"]

    def test_trap_event_stage_cycles(self):
        ev = TrapEvent(decode_cycles=1.0, bind_cycles=2.0,
                       emulate_cycles=4.0)
        assert ev.stage_cycles == 7.0


class TestRingBufferSink:
    def test_truncation_keeps_most_recent(self):
        ring = RingBufferSink(capacity=4)
        for i in range(10):
            ring.emit(TrapEvent(cycles=float(i)))
        assert len(ring) == 4
        assert ring.emitted == 10
        assert ring.dropped == 6
        assert [e.cycles for e in ring.events] == [6.0, 7.0, 8.0, 9.0]

    def test_no_drop_below_capacity(self):
        ring = RingBufferSink(capacity=8)
        for i in range(5):
            ring.emit(TrapEvent(cycles=float(i)))
        assert ring.dropped == 0
        assert [e.cycles for e in ring] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_clear(self):
        ring = RingBufferSink(capacity=2)
        ring.emit(TrapEvent())
        ring.clear()
        assert len(ring) == 0 and ring.emitted == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_satisfies_protocol(self):
        assert isinstance(RingBufferSink(), TraceSink)
        assert isinstance(ProfilerSink(), TraceSink)


class TestNDJSONSink:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NDJSONSink(path)
        events = _one_of_each()
        for ev in events:
            sink.emit(ev)
        sink.close()
        back = read_ndjson(path)
        assert back == events

    def test_every_line_is_json_object_with_kind(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NDJSONSink(path)
        for ev in _one_of_each():
            sink.emit(ev)
        sink.close()
        for line in path.read_text().splitlines():
            d = json.loads(line)
            assert isinstance(d, dict) and "kind" in d

    def test_wraps_open_file_without_closing(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with path.open("w") as fh:
            sink = NDJSONSink(fh)
            sink.emit(TrapEvent(cycles=1.0))
            sink.close()
            assert not fh.closed
        assert len(read_ndjson(path)) == 1


class TestTeeSink:
    def test_fans_out(self):
        a, b = RingBufferSink(), RingBufferSink()
        tee = TeeSink(a, b, None)
        tee.emit(TrapEvent(cycles=1.0))
        tee.close()
        assert len(a) == len(b) == 1


class TestProfiler:
    def test_aggregation_and_views(self):
        prof = ProfilerSink()
        for ev in _one_of_each():
            prof.emit(ev)
        prof.emit(TrapEvent(cycles=11.0, addr=0x400000, mnemonic="addsd",
                            flags=0x01, decode_cycles=1.0, bind_cycles=1.0,
                            emulate_cycles=1.0, decode_hit=True,
                            bind_hit=True))
        assert prof.total_traps == 2
        hot = prof.hot_sites(1)
        assert hot[0].addr == 0x400000 and hot[0].traps == 2
        assert prof.flag_histogram["IE"] == 1
        assert prof.flag_histogram["PE"] == 1
        cov = prof.coverage()
        assert cov["static_sites"] == 1 and cov["trapped"] == 1
        assert prof.gc_summary()["epochs"] == 1
        assert prof.extern_calls["printf"] == 1

    def test_coverage_reports_never_trapped(self):
        prof = ProfilerSink()
        prof.emit(RunMetaEvent(fp_sites=[[0x10, "addsd"], [0x20, "mulsd"]]))
        prof.emit(TrapEvent(addr=0x10, mnemonic="addsd", flags=0x20))
        cov = prof.coverage()
        assert cov["static_sites"] == 2
        assert cov["trapped"] == 1
        assert cov["never_trapped"] == [(0x20, "mulsd")]
        assert cov["fraction"] == 0.5

    def test_render_contains_tables(self):
        text = summarize_events(_one_of_each())
        assert "per-site hot spots" in text
        assert "per-flag trap histogram" in text
        assert "exception-flow coverage" in text
        assert "addsd" in text

    def test_summarize_file(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NDJSONSink(path)
        for ev in _one_of_each():
            sink.emit(ev)
        sink.close()
        assert "exception-flow coverage: 1/1" in summarize_file(path)


class TestEndToEndTracing:
    def test_lorenz_emits_all_five_event_families(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NDJSONSink(path)
        with Session("lorenz", "mpfr:80", size="test", trace=sink) as s:
            s.run()
        kinds = {type(e) for e in read_ndjson(path)}
        assert TrapEvent in kinds
        assert GCEpochEvent in kinds
        assert DemotionEvent in kinds
        assert PatchEvent in kinds
        assert ExternCallEvent in kinds
        assert RunMetaEvent in kinds

    def test_trace_summarize_cli(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "t.ndjson"
        sink = NDJSONSink(path)
        with Session("lorenz", "mpfr:80", size="test", trace=sink) as s:
            s.run()
        assert main(["trace", "summarize", str(path)]) == 0

    def test_tracing_does_not_change_execution(self):
        """Differential: instruction counts and modeled cycles must be
        bit-identical with tracing off vs on (zero-cost guarantee)."""
        base = Session("lorenz", "mpfr:80", size="test").run()
        ring = RingBufferSink(capacity=1 << 20)
        traced = Session("lorenz", "mpfr:80", size="test",
                         trace=ring).run()
        assert ring.emitted > 0
        assert traced.instr_count == base.instr_count
        assert traced.fp_instr_count == base.fp_instr_count
        assert traced.fp_traps == base.fp_traps
        assert traced.cycles == base.cycles  # bit-identical floats
        assert traced.buckets == base.buckets
        assert traced.stdout == base.stdout

    def test_native_tracing_differential(self):
        base = Session("lorenz", None, size="test").run()
        ring = RingBufferSink()
        traced = Session("lorenz", None, size="test", trace=ring).run()
        assert traced.instr_count == base.instr_count
        assert traced.cycles == base.cycles
        assert any(isinstance(e, ExternCallEvent) for e in ring)
