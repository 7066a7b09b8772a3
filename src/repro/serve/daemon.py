"""The serve daemon: admission control, shedding, and the HTTP front.

A single asyncio event loop owns admission and the (hand-rolled,
stdlib-only) HTTP/1.1 front end; all guest execution happens in the
:class:`~repro.harness.pool.WorkerPool`'s processes, bridged back to the
loop with ``call_soon_threadsafe``.  The admission ladder runs, in
order, for every ``POST /jobs``:

1. **validate** — malformed submissions answer 400 with the
   :class:`~repro.serve.jobs.JobError` message; they never reach the
   queue.
2. **cache** — a deterministic repeat of a finished job answers from
   the :class:`~repro.serve.cache.ResultCache` without touching the
   pool (bit-identical by construction).
3. **reject** — backlog at ``queue_limit`` answers a structured 429:
   better an honest "overloaded" than an unbounded queue.
4. **shed** — backlog at ``shed_watermark`` demotes sheddable jobs
   (MPFR/posit/... arith) to vanilla-precision execution *before*
   anything is rejected — the graceful-degradation ladder used as an
   SLO valve, one :class:`~repro.trace.events.ServeShedEvent` per
   demotion.
5. **run** — the job enters the pool with per-job timeout and bounded
   backoff retries.

Every retired job emits one :class:`~repro.trace.events.ServeJobEvent`
into the daemon's trace bus (a ProfilerSink always listens; ``/stats``
serves its serving summary).  ``/health`` cross-checks the books:
``accepted == completed + in_flight`` — the "no lost jobs" invariant,
live.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.harness.pool import JobRecord, WorkerPool
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobError, JobRequest, error_result
from repro.serve.worker import execute_job
from repro.trace.events import ServeJobEvent, ServeShedEvent
from repro.trace.profiler import ProfilerSink

_COMPLETED_KEPT = 512


@dataclass
class ServeConfig:
    """Tunables for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 → kernel-assigned, see .port
    socket_path: str | None = None     # unix socket instead of TCP
    workers: int = 2
    queue_limit: int = 16              # backlog ceiling → 429 above
    shed_watermark: int = 8            # backlog level that starts shedding
    job_timeout_s: float = 30.0
    retries: int = 2
    backoff_s: float = 0.05
    cache_entries: int = 256
    selftest: bool = True
    crash_log: str | None = None       # NDJSON crash-record append target
    trace: object | None = None        # extra TraceSink for serve events


class Daemon:
    """One serve daemon: pool + cache + admission + HTTP front end."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.profiler = ProfilerSink()
        self.cache = ResultCache(self.config.cache_entries)
        self.pool = WorkerPool(self.config.workers, execute_job,
                               error_result,
                               job_timeout_s=self.config.job_timeout_s,
                               retries=self.config.retries,
                               backoff_s=self.config.backoff_s,
                               on_event=self._emit)
        self._ids = itertools.count(1)
        #: binary_key → content_hash, learned from completed jobs so a
        #: repeat submission can probe the result cache before building
        self._hash_hints: dict[tuple, str] = {}
        self._inflight: dict[int, JobRecord] = {}
        self._completed: OrderedDict[int, dict] = OrderedDict()
        self._books_lock = threading.Lock()
        self.accepted = 0
        self.completed = 0
        self.rejected = 0
        self.selftest_ok: bool | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._crash_lock = threading.Lock()

    # ------------------------------------------------------------- events

    def _emit(self, event) -> None:
        self.profiler.emit(event)
        extra = self.config.trace
        if extra is not None:
            extra.emit(event)

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self.pool.start()
        if self.config.selftest:
            self.selftest_ok = await self._selftest()
            if not self.selftest_ok:
                raise RuntimeError("serve self-test failed: a trivial job "
                                   "did not complete cleanly")
        self._loop = asyncio.get_running_loop()
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.config.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle, self.config.host, self.config.port)
            self.port = self._server.sockets[0].getsockname()[1]

    async def _selftest(self) -> bool:
        """Run one trivial compiled job end to end before listening."""
        req = JobRequest.from_wire({
            "source": ("long main() { double x = 1.0 + 2.0; "
                       "printf(\"selftest %f\\n\", x); return 0; }"),
            "arith": "vanilla",
            "tenant": "selftest",
        })
        rec = self._admit(req, force=True)
        result = await self._await_record(rec, timeout=60.0)
        return bool(result and result.get("ok")
                    and result.get("exit_code") == 0)

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        self.pool.stop()

    # ---------------------------------------------------------- admission

    def _admit(self, req: JobRequest, *, force: bool = False) -> JobRecord:
        """Queue a validated request; caller has already passed the
        reject/shed ladder (``force`` bypasses it for the self-test)."""
        job_id = next(self._ids)
        shed = False
        requested = req.arith_text
        backlog = self.pool.backlog
        if not force and backlog >= self.config.shed_watermark \
                and req.sheddable:
            self._emit(ServeShedEvent(job_id=job_id, tenant=req.tenant,
                                      queue_depth=backlog,
                                      watermark=self.config.shed_watermark,
                                      from_arith=requested))
            req = req.shed_to_vanilla()
            shed = True
        rec = JobRecord(job_id, req)
        with self._books_lock:
            self.accepted += 1
            self._inflight[job_id] = rec
        rec.add_done_callback(functools.partial(
            self._on_done, shed=shed, requested_arith=requested))
        self.pool.submit(rec)
        return rec

    def _on_done(self, rec: JobRecord, *, shed: bool,
                 requested_arith: str) -> None:
        """Pool-side completion: bookkeeping, cache fill, telemetry.

        ``shed``/``requested_arith`` record whether admission demoted
        the job's arith spec, and from what."""
        req = rec.payload
        result = dict(rec.result or {})
        wall_ms = (time.perf_counter() - rec.submitted_at) * 1e3
        result.update(
            job_id=rec.id,
            tenant=req.tenant,
            shed=shed,
            requested_arith=requested_arith,
            wall_ms=wall_ms,
            cached=False,
            retries=max(rec.attempts - 1, 0),
        )
        if result.get("ok") and result.get("binary_hash") \
                and not req.trace and not req.no_cache and not req.chaos:
            self._hash_hints[req.binary_key] = result["binary_hash"]
            self.cache.put(req.cache_key(result["binary_hash"]), result)
        if result.get("crash_records") and self.config.crash_log:
            from repro.faults.crashreport import write_crash_report

            with self._crash_lock:
                write_crash_report(self.config.crash_log,
                                   result["crash_records"],
                                   append=True, fsync=True)
        with self._books_lock:
            self.completed += 1
            self._inflight.pop(rec.id, None)
            self._completed[rec.id] = result
            while len(self._completed) > _COMPLETED_KEPT:
                self._completed.popitem(last=False)
        outcome = ("ok" if result.get("ok")
                   else "timeout" if result.get("error_type") == "JobTimeout"
                   else "error")
        self._emit(ServeJobEvent(
            job_id=rec.id, tenant=req.tenant,
            workload=req.workload or "<source>",
            arith=req.arith_text, outcome=outcome, shed=shed,
            cached=False, retries=result["retries"], wall_ms=wall_ms,
            queue_depth=self.pool.backlog))

    def _try_cache(self, req: JobRequest) -> dict | None:
        if req.trace or req.no_cache or req.chaos:
            return None
        binary_hash = self._hash_hints.get(req.binary_key)
        if binary_hash is None:
            return None
        hit = self.cache.get(req.cache_key(binary_hash))
        if hit is None:
            return None
        job_id = next(self._ids)
        hit.update(job_id=job_id, tenant=req.tenant, cached=True,
                   shed=False, requested_arith=req.arith_text,
                   wall_ms=0.0, retries=0)
        with self._books_lock:
            self.accepted += 1
            self.completed += 1
            self._completed[job_id] = hit
            while len(self._completed) > _COMPLETED_KEPT:
                self._completed.popitem(last=False)
        self._emit(ServeJobEvent(
            job_id=job_id, tenant=req.tenant,
            workload=req.workload or "<source>",
            arith=req.arith_text, outcome="ok", cached=True,
            queue_depth=self.pool.backlog))
        return hit

    def _reject(self, req: JobRequest) -> dict:
        job_id = next(self._ids)
        with self._books_lock:
            self.rejected += 1
        backlog = self.pool.backlog
        self._emit(ServeJobEvent(
            job_id=job_id, tenant=req.tenant,
            workload=req.workload or "<source>",
            arith=req.arith_text, outcome="rejected",
            queue_depth=backlog))
        return {
            "error": "overloaded",
            "error_type": "Overloaded",
            "queue_depth": backlog,
            "queue_limit": self.config.queue_limit,
            "retry_after_s": self.config.job_timeout_s / 10,
        }

    # ----------------------------------------------------------- awaiting

    async def _await_record(self, rec: JobRecord,
                            timeout: float | None = None) -> dict | None:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()

        def _done(r: JobRecord) -> None:
            def _set() -> None:
                if not fut.done():
                    fut.set_result(r.result)
            loop.call_soon_threadsafe(_set)

        rec.add_done_callback(_done)
        try:
            await asyncio.wait_for(asyncio.shield(fut), timeout)
        except asyncio.TimeoutError:
            return None
        # _on_done enriched the stored copy; serve that one
        with self._books_lock:
            stored = self._completed.get(rec.id)
        return stored if stored is not None else fut.result()

    # --------------------------------------------------------------- HTTP

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, doc = await self._dispatch(reader)
        except Exception as exc:  # noqa: BLE001 - front end must not die
            status, doc = 500, {"error": str(exc),
                                "error_type": type(exc).__name__}
        body = json.dumps(doc).encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 429: "Too Many Requests",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _dispatch(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, target = parts[0], parts[1]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        raw = await reader.readexactly(length) if length else b""

        path, _, query = target.partition("?")
        if method == "POST" and path == "/jobs":
            return await self._post_job(raw, query)
        if method == "GET" and path.startswith("/jobs/"):
            return self._get_job(path[len("/jobs/"):])
        if method == "GET" and path == "/health":
            return 200, self.health()
        if method == "GET" and path == "/stats":
            return 200, self.stats()
        if method == "POST" and path == "/shutdown":
            asyncio.get_running_loop().call_soon(self._server.close)
            return 200, {"ok": True, "shutting_down": True}
        return 404, {"error": f"no route {method} {path}"}

    async def _post_job(self, raw: bytes, query: str) -> tuple[int, dict]:
        try:
            doc = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"bad JSON: {exc}",
                         "error_type": "JobError"}
        try:
            req = JobRequest.from_wire(doc)
        except JobError as exc:
            return 400, {"error": str(exc), "error_type": "JobError"}

        hit = self._try_cache(req)
        if hit is not None:
            return 200, hit
        if self.pool.backlog >= self.config.queue_limit:
            return 429, self._reject(req)
        rec = self._admit(req)
        if "wait=false" in query:
            return 202, {"job_id": rec.id, "pending": True,
                         "shed": rec.payload.arith != req.arith}
        result = await self._await_record(rec)
        if result is None:  # only on daemon-side await failure
            return 500, {"error": "job did not complete",
                         "job_id": rec.id}
        return 200, result

    def _get_job(self, tail: str) -> tuple[int, dict]:
        try:
            job_id = int(tail)
        except ValueError:
            return 400, {"error": f"bad job id {tail!r}"}
        with self._books_lock:
            done = self._completed.get(job_id)
            pending = job_id in self._inflight
        if done is not None:
            return 200, done
        if pending:
            return 202, {"job_id": job_id, "pending": True}
        return 404, {"error": f"unknown job {job_id}"}

    # ------------------------------------------------------------- status

    def health(self) -> dict:
        pool = self.pool.stats
        with self._books_lock:
            accepted = self.accepted
            completed = self.completed
            in_flight = len(self._inflight)
        lost = accepted - completed - in_flight
        healthy = (lost == 0 and pool["alive"] == pool["workers"]
                   and self.selftest_ok is not False)
        return {
            "status": "ok" if healthy else "degraded",
            "selftest": self.selftest_ok,
            "accepted": accepted,
            "completed": completed,
            "in_flight": in_flight,
            "rejected": self.rejected,
            "lost": lost,
            "pool": pool,
            "cache": self.cache.stats,
            "queue_limit": self.config.queue_limit,
            "shed_watermark": self.config.shed_watermark,
        }

    def stats(self) -> dict:
        return {
            "serve": self.profiler.serve_summary(),
            "pool": self.pool.stats,
            "cache": self.cache.stats,
        }


class DaemonHandle:
    """A daemon running on a background thread (tests, bench, CI)."""

    def __init__(self, daemon: Daemon, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.daemon = daemon
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int | None:
        return self.daemon.port

    def client(self, timeout: float = 60.0):
        from repro.serve.client import ServeClient

        return ServeClient(self.daemon.port,
                           socket_path=self.daemon.config.socket_path,
                           timeout=timeout)

    def stop(self) -> None:
        def _close() -> None:
            if self.daemon._server is not None:
                self.daemon._server.close()
        self._loop.call_soon_threadsafe(_close)
        self._thread.join(timeout=10.0)
        self.daemon.pool.stop()


def start_in_thread(config: ServeConfig | None = None,
                    ready_timeout_s: float = 120.0) -> DaemonHandle:
    """Boot a daemon on a fresh event loop in a background thread."""
    daemon = Daemon(config)
    started = threading.Event()
    boot_error: list[BaseException] = []
    loop_box: list[asyncio.AbstractEventLoop] = []

    def _main() -> None:
        async def _run() -> None:
            loop_box.append(asyncio.get_running_loop())
            try:
                await daemon.start()
            except BaseException as exc:  # noqa: BLE001 - report to caller
                boot_error.append(exc)
                started.set()
                return
            started.set()
            try:
                await daemon.serve_forever()
            except asyncio.CancelledError:
                pass

        asyncio.run(_run())

    thread = threading.Thread(target=_main, name="serve-daemon",
                              daemon=True)
    thread.start()
    if not started.wait(ready_timeout_s):
        raise RuntimeError("serve daemon did not start in time")
    if boot_error:
        daemon.pool.stop()
        raise boot_error[0]
    return DaemonHandle(daemon, loop_box[0], thread)


def run_daemon(config: ServeConfig | None = None) -> None:
    """Blocking entry point for the ``repro serve`` CLI."""
    daemon = Daemon(config)

    async def _run() -> None:
        await daemon.start()
        where = (daemon.config.socket_path
                 or f"http://{daemon.config.host}:{daemon.port}")
        print(f"repro serve: {daemon.config.workers} workers, "
              f"queue limit {daemon.config.queue_limit}, "
              f"listening on {where}", flush=True)
        try:
            await daemon.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        daemon.pool.stop()
