"""Unit tests for the serving tier's pieces: the job protocol, the
result cache, JobRecord's exactly-once contract, the tagged crash
writer, and the serve telemetry events."""

import io
import json
import threading

import pytest

from repro.faults.crashreport import build_crash_report, write_crash_report
from repro.serve.cache import ResultCache
from repro.serve.jobs import VANILLA, JobError, JobRequest
from repro.harness.pool import JobRecord
from repro.trace.events import (EVENT_KINDS, ServeJobEvent, ServeShedEvent,
                                ServeWorkerEvent, event_from_dict)
from repro.trace.profiler import ProfilerSink


# --------------------------------------------------------------------- #
# JobRequest wire validation                                            #
# --------------------------------------------------------------------- #

class TestJobRequest:
    def test_minimal_workload_job(self):
        req = JobRequest.from_wire({"workload": "lorenz"})
        assert req.workload == "lorenz"
        assert req.arith == VANILLA
        assert req.size == "test"

    def test_source_job(self):
        req = JobRequest.from_wire(
            {"source": "long main() { return 0; }", "arith": "mpfr:64"})
        assert req.source
        assert req.arith == ("mpfr", 64)
        assert req.arith_text == "mpfr:64"

    def test_native_arith(self):
        req = JobRequest.from_wire({"workload": "lorenz", "arith": None})
        assert req.arith is None
        assert req.arith_text == "native"
        assert not req.sheddable

    @pytest.mark.parametrize("doc", [
        "not a dict",
        {},                                        # neither workload nor src
        {"workload": "lorenz", "source": "x"},     # both
        {"workload": "no_such_workload"},
        {"workload": "lorenz", "size": "XXL"},
        {"workload": "lorenz", "arith": "martian:7"},
        {"workload": "lorenz", "stdin": 42},
        {"workload": "lorenz", "params": {"x": "one"}},
        {"workload": "lorenz", "params": {"x": True}},
        {"workload": "lorenz", "max_instructions": -5},
        {"workload": "lorenz", "max_cycles": 0},
        {"workload": "lorenz", "tenant": "x" * 65},
        {"workload": "lorenz", "trace": "yes"},
        {"workload": "lorenz", "frobnicate": 1},   # unknown field
        {"workload": "lorenz", "chaos": {"explode": 1}},
    ])
    def test_rejected_submissions(self, doc):
        with pytest.raises(JobError):
            JobRequest.from_wire(doc)

    def test_shed_to_vanilla(self):
        req = JobRequest.from_wire(
            {"workload": "lorenz", "arith": "mpfr:128", "tenant": "t1"})
        assert req.sheddable
        shed = req.shed_to_vanilla()
        assert shed.arith == VANILLA
        assert not shed.sheddable
        assert shed.tenant == "t1"           # everything else preserved
        assert req.arith == ("mpfr", 128)    # original untouched

    def test_vanilla_not_sheddable(self):
        assert not JobRequest.from_wire({"workload": "lorenz"}).sheddable

    def test_cache_key_separates_inputs(self):
        base = {"workload": "lorenz", "arith": "mpfr:64"}
        a = JobRequest.from_wire(base)
        b = JobRequest.from_wire({**base, "stdin": "xyz"})
        c = JobRequest.from_wire({**base, "max_instructions": 123})
        keys = {r.cache_key("h") for r in (a, b, c)}
        assert len(keys) == 3
        assert a.cache_key("h1") != a.cache_key("h2")

    def test_binary_key_workload_vs_source(self):
        w = JobRequest.from_wire({"workload": "lorenz", "size": "test"})
        assert w.binary_key == ("workload", "lorenz", "test")
        s1 = JobRequest.from_wire({"source": "long main() { return 0; }"})
        s2 = JobRequest.from_wire({"source": "long main() { return 1; }"})
        assert s1.binary_key != s2.binary_key

    def test_request_is_picklable(self):
        import pickle

        req = JobRequest.from_wire(
            {"workload": "lorenz", "params": {"a": 1.5}, "stdin": "hi"})
        assert pickle.loads(pickle.dumps(req)) == req


# --------------------------------------------------------------------- #
# ResultCache                                                           #
# --------------------------------------------------------------------- #

class TestResultCache:
    def test_miss_then_hit(self):
        c = ResultCache(4)
        assert c.get(("k",)) is None
        c.put(("k",), {"ok": True})
        assert c.get(("k",)) == {"ok": True}
        assert c.stats["hits"] == 1 and c.stats["misses"] == 1

    def test_lru_eviction_order(self):
        c = ResultCache(2)
        c.put(("a",), {"v": 1})
        c.put(("b",), {"v": 2})
        assert c.get(("a",))  # a is now most-recent
        c.put(("c",), {"v": 3})  # evicts b
        assert c.get(("b",)) is None
        assert c.get(("a",)) and c.get(("c",))
        assert c.stats["evictions"] == 1

    def test_returned_dict_is_a_copy(self):
        c = ResultCache(4)
        c.put(("k",), {"ok": True})
        c.get(("k",))["ok"] = False
        assert c.get(("k",))["ok"] is True

    def test_zero_capacity_disables(self):
        c = ResultCache(0)
        c.put(("k",), {"ok": True})
        assert c.get(("k",)) is None


# --------------------------------------------------------------------- #
# JobRecord: exactly-once completion                                    #
# --------------------------------------------------------------------- #

class TestJobRecord:
    def _rec(self):
        req = JobRequest.from_wire({"workload": "lorenz"})
        return JobRecord(1, req)

    def test_first_complete_wins(self):
        rec = self._rec()
        assert rec.complete({"ok": True, "n": 1})
        assert not rec.complete({"ok": True, "n": 2})
        assert rec.result["n"] == 1

    def test_concurrent_completes_once(self):
        rec = self._rec()
        wins = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            if rec.complete({"winner": i}):
                wins.append(i)

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert rec.result["winner"] == wins[0]

    def test_callback_after_completion_fires_immediately(self):
        rec = self._rec()
        rec.complete({"ok": True})
        seen = []
        rec.add_done_callback(lambda r: seen.append(r.result))
        assert seen == [{"ok": True}]

    def test_callback_fires_exactly_once(self):
        rec = self._rec()
        seen = []
        rec.add_done_callback(lambda r: seen.append(1))
        rec.complete({"ok": True})
        rec.complete({"ok": False})
        assert seen == [1]

    def test_wait_returns_result(self):
        rec = self._rec()
        threading.Timer(0.02, rec.complete, ({"ok": True},)).start()
        assert rec.wait(5.0) == {"ok": True}


# --------------------------------------------------------------------- #
# crash records: job/tenant tagging + fsync-safe NDJSON writer          #
# --------------------------------------------------------------------- #

class TestTaggedCrashRecords:
    def test_job_id_and_tenant_on_every_record(self):
        records = build_crash_report(RuntimeError("boom"),
                                     job_id=42, tenant="acme")
        assert records
        for rec in records:
            assert rec["job_id"] == 42
            assert rec["tenant"] == "acme"

    def test_untagged_by_default(self):
        records = build_crash_report(RuntimeError("boom"))
        assert all("job_id" not in rec for rec in records)

    def test_append_mode_accumulates(self, tmp_path):
        path = tmp_path / "crash.ndjson"
        r1 = build_crash_report(RuntimeError("a"), job_id=1, tenant="t")
        r2 = build_crash_report(RuntimeError("b"), job_id=2, tenant="t")
        write_crash_report(path, r1, append=True, fsync=True)
        write_crash_report(path, r2, append=True, fsync=True)
        lines = [json.loads(x) for x in
                 path.read_text().strip().splitlines()]
        ids = {rec["job_id"] for rec in lines}
        assert ids == {1, 2}

    def test_concurrent_appends_keep_lines_whole(self, tmp_path):
        path = tmp_path / "crash.ndjson"
        lock = threading.Lock()

        def writer(i):
            recs = build_crash_report(RuntimeError(f"e{i}"), job_id=i,
                                      tenant=f"t{i}")
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
        assert {rec["job_id"] for rec in parsed} == set(range(8))

    def test_file_object_target(self):
        buf = io.StringIO()
        write_crash_report(buf, build_crash_report(RuntimeError("x")),
                           fsync=True)
        assert buf.getvalue().strip()


# --------------------------------------------------------------------- #
# serve telemetry events + profiler serving table                       #
# --------------------------------------------------------------------- #

class TestServeEvents:
    def test_registered_kinds(self):
        for kind in ("serve_job", "serve_shed", "serve_worker"):
            assert kind in EVENT_KINDS

    def test_round_trip(self):
        ev = ServeJobEvent(job_id=7, tenant="t", workload="lorenz",
                           arith="mpfr:64", outcome="ok", shed=True,
                           cached=False, retries=1, wall_ms=12.5,
                           queue_depth=3)
        back = event_from_dict(ev.to_dict())
        assert isinstance(back, ServeJobEvent)
        assert back.job_id == 7 and back.shed and back.retries == 1

    def test_profiler_serving_summary(self):
        prof = ProfilerSink()
        prof.emit(ServeJobEvent(job_id=1, outcome="ok", wall_ms=10.0))
        prof.emit(ServeJobEvent(job_id=2, outcome="ok", wall_ms=30.0,
                                cached=True))
        prof.emit(ServeJobEvent(job_id=3, outcome="error", wall_ms=50.0,
                                retries=2))
        prof.emit(ServeJobEvent(job_id=4, outcome="rejected"))
        prof.emit(ServeShedEvent(job_id=5, from_arith="mpfr:128"))
        prof.emit(ServeWorkerEvent(worker=0, action="chaos-kill"))
        prof.emit(ServeWorkerEvent(worker=0, action="respawn"))
        s = prof.serve_summary()
        assert s["jobs"] == 4
        assert s["outcomes"] == {"ok": 2, "error": 1, "rejected": 1}
        assert s["sheds"] == 1
        assert s["cached"] == 1
        assert s["retries"] == 2
        assert s["worker_actions"] == {"chaos-kill": 1, "respawn": 1}
        # rejected jobs never ran: excluded from the latency population
        assert s["p99_ms"] == 50.0
        assert "serving tier" in prof.render()

    def test_render_skips_serving_section_when_idle(self):
        assert "serving tier" not in ProfilerSink().render()
