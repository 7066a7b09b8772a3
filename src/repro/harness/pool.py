"""The crash-isolated worker pool behind every fan-out of guest runs.

The experiment matrix (:func:`~repro.harness.experiment.run_matrix`),
and with it the chaos campaign, runs its cells here; the parent
process never executes guest code.  Each worker slot is minded
by a tender thread that feeds it jobs from the shared queue and
watches the pipe for one of three outcomes:

* **result** — the worker sent back the job function's result; the job
  completes.  A contained guest exception is a result too: the job
  function reports it, and a deterministic rerun would fail the same
  way, so it is never retried.
* **death**  — the pipe hit EOF / the process died mid-job (guest
  chaos, SIGKILL).  The slot respawns immediately and the job is
  retried with exponential backoff on whichever worker picks it up.
* **timeout** — the job's deadline, counted from its dispatch to a
  worker, passed.  The worker is SIGKILLed (a stuck guest cannot be
  salvaged), the slot respawns, and the job is retried under the same
  policy.

A worker that died while *idle* is respawned by its tender before the
next dispatch, so capacity never silently decays.  Jobs are never lost:
a queued or in-flight job either completes with a worker result or
completes with a structured error after exhausting retries.
:meth:`JobRecord.complete` is idempotent, which makes the "exactly
once" guarantee easy to state and test.

Worker processes are forked, so they inherit warm import state and
the job function itself; the process-wide analysis report cache
re-warms per worker after the first job for each distinct binary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import threading
import time

_POLL_S = 0.05


class JobRecord:
    """One accepted job's lifecycle: payload in, exactly one result out.

    The payload is opaque to the pool; it is pickled to a worker and
    handed to the pool's job function.
    """

    def __init__(self, job_id: int, payload):
        self.id = job_id
        self.payload = payload
        self.attempts = 0
        self.result = None
        self._done = threading.Event()
        self._lock = threading.Lock()

    def complete(self, result) -> bool:
        """Record the job's result; only the first call wins."""
        with self._lock:
            if self.result is not None:
                return False
            self.result = result
        self._done.set()
        return True

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None):
        self._done.wait(timeout)
        return self.result


def _worker_main(conn, job_fn) -> None:
    """Worker process loop: recv (job_id, payload), send the result."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        job_id, payload = msg
        result = job_fn(payload)
        try:
            conn.send((job_id, result))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerSlot:
    def __init__(self, index: int):
        self.index = index
        self.proc: mp.process.BaseProcess | None = None
        self.conn = None
        self.lock = threading.Lock()


class WorkerPool:
    """Fixed-size pool of crash-isolated job workers.

    ``job_fn(payload)`` runs in a forked worker and returns the job's
    result; it must contain the guest's exceptions itself.
    ``failed(payload, error_type, message)`` builds, in the parent, the
    result of a job that ran out of retries or never ran before
    :meth:`stop`.  ``job_timeout_s=None`` means no deadline.
    """

    def __init__(self, workers: int, job_fn, failed, *,
                 job_timeout_s: float | None = 30.0, retries: int = 2,
                 backoff_s: float = 0.05):
        self.size = int(workers)
        self._job_fn = job_fn
        self._failed = failed
        self.job_timeout_s = job_timeout_s
        self.retries = int(retries)
        self.backoff_s = backoff_s
        self._ctx = mp.get_context("fork")
        self._queue: queue.Queue = queue.Queue()
        self._slots = [_WorkerSlot(i) for i in range(self.size)]
        self._tenders: list[threading.Thread] = []
        self._timers: list[threading.Timer] = []
        self._stop = threading.Event()

    # ----------------------------------------------------------- spawning

    def _spawn(self, slot: _WorkerSlot) -> None:
        """(Re)start the process behind ``slot``; caller holds slot.lock."""
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, self._job_fn),
                                 name=f"pool-worker-{slot.index}",
                                 daemon=True)
        proc.start()
        # close our copy of the child end so a dead worker reads as EOF
        child_conn.close()
        slot.proc, slot.conn = proc, parent_conn

    def start(self) -> None:
        for slot in self._slots:
            with slot.lock:
                self._spawn(slot)
            t = threading.Thread(target=self._tend, args=(slot,),
                                 name=f"pool-tender-{slot.index}",
                                 daemon=True)
            t.start()
            self._tenders.append(t)

    # ---------------------------------------------------------- scheduling

    def submit(self, record: JobRecord) -> None:
        self._queue.put(record)

    def _retry_or_fail(self, rec: JobRecord, error_type: str,
                       message: str) -> None:
        if rec.attempts <= self.retries:
            delay = self.backoff_s * (2 ** (rec.attempts - 1))
            timer = threading.Timer(delay, self._queue.put, (rec,))
            timer.daemon = True
            timer.start()
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)
        else:
            rec.complete(self._failed(
                rec.payload, error_type,
                f"{message} (after {rec.attempts} attempts)"))

    def _tend(self, slot: _WorkerSlot) -> None:
        """Tender thread: pump jobs through one worker slot."""
        while not self._stop.is_set():
            try:
                rec = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if rec is None or self._stop.is_set():
                if rec is not None:
                    self._queue.put(rec)  # hand back to stop() drain
                break
            if rec.done:
                continue  # completed elsewhere (shutdown race)
            with slot.lock:
                if slot.proc is None or not slot.proc.is_alive():
                    self._spawn(slot)  # the worker died while idle
                conn = slot.conn
            rec.attempts += 1
            try:
                conn.send((rec.id, rec.payload))
                self._await_result(slot, rec, conn)
            except (BrokenPipeError, OSError, EOFError):
                self._on_death(slot, rec)

    def _await_result(self, slot: _WorkerSlot, rec: JobRecord,
                      conn) -> None:
        deadline = (None if self.job_timeout_s is None
                    else time.monotonic() + self.job_timeout_s)
        while True:
            remaining = (_POLL_S if deadline is None
                         else deadline - time.monotonic())
            if remaining <= 0:
                self._on_timeout(slot, rec)
                return
            if conn.poll(min(remaining, _POLL_S)):
                job_id, result = conn.recv()  # EOFError → caller
                if job_id != rec.id:  # stale result from a prior epoch
                    continue
                rec.complete(result)
                return
            proc = slot.proc
            if proc is None or not proc.is_alive():
                # drain any result that raced the death notice
                if conn.poll(0):
                    continue
                raise EOFError

    def _on_death(self, slot: _WorkerSlot, rec: JobRecord) -> None:
        with slot.lock:
            self._spawn(slot)
        self._retry_or_fail(rec, "WorkerDied",
                            "worker process died mid-job")

    def _on_timeout(self, slot: _WorkerSlot, rec: JobRecord) -> None:
        with slot.lock:
            proc = slot.proc
            if proc is not None and proc.is_alive():
                self._kill(proc)
            self._spawn(slot)
        self._retry_or_fail(rec, "JobTimeout",
                            f"job exceeded {self.job_timeout_s}s wall clock")

    @staticmethod
    def _kill(proc) -> None:
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass
        proc.join(timeout=2.0)

    # ------------------------------------------------------------ shutdown

    def stop(self) -> None:
        self._stop.set()
        for timer in self._timers:
            timer.cancel()
        for _ in self._slots:
            self._queue.put(None)
        for t in self._tenders:
            t.join(timeout=2.0)
        for slot in self._slots:
            with slot.lock:
                if slot.proc is not None and slot.proc.is_alive():
                    self._kill(slot.proc)
                if slot.conn is not None:
                    try:
                        slot.conn.close()
                    except OSError:
                        pass
        # any job still queued completes with a structured error
        while True:
            try:
                rec = self._queue.get_nowait()
            except queue.Empty:
                break
            if rec is not None and not rec.done:
                rec.complete(self._failed(
                    rec.payload, "PoolStopped",
                    "pool shut down before the job ran"))
