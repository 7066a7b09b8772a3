"""The serving tier's job protocol.

A job is everything one served run needs: the guest binary (a built-in
workload name or ``.fpc`` source text), the arithmetic spec, guest
inputs (stdin, data-symbol pokes), and resource limits.  The wire
format is flat JSON; :meth:`JobRequest.from_wire` is the single
validation chokepoint — anything it rejects becomes a structured 400,
never a daemon traceback.

``JobRequest`` is picklable: the daemon sends it over the worker pipe
as-is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro.arith import ArithSpecError, normalize_spec
from repro.errors import ReproError

#: the shed target: vanilla semantics under FPVM (IEEE-identical
#: results at a fraction of an MPFR/posit job's cost)
VANILLA = ("vanilla",)

_SIZES = ("test", "bench", "S")
_MAX_SOURCE = 256 * 1024
_MAX_STDIN = 64 * 1024

_FIELDS = {
    "workload", "source", "size", "arith", "stdin", "params",
    "max_instructions", "max_cycles", "tenant", "trace", "no_cache",
    "chaos",
}


class JobError(ReproError, ValueError):
    """A malformed job submission (daemon answers 400, not 500)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise JobError(msg)


@dataclass(frozen=True)
class JobRequest:
    """One validated, immutable, picklable job."""

    workload: str = ""
    source: str = ""
    size: str = "test"
    #: normalized picklable arith spec tuple, or None for a native run
    arith: tuple | None = VANILLA
    stdin: bytes = b""
    #: data-symbol pokes as sorted (name, value) pairs
    params: tuple = ()
    max_instructions: int | None = 50_000_000
    max_cycles: float | None = None
    tenant: str = ""
    #: return the run's NDJSON trace text in the response
    trace: bool = False
    no_cache: bool = False
    #: serve-tier fault-injection knobs (tests/chaos plans only):
    #: ``sleep_s`` holds the worker busy mid-job, ``exit`` hard-kills
    #: the worker process (``os._exit``) as if the guest took it down
    chaos: tuple = ()

    @classmethod
    def from_wire(cls, doc: object) -> "JobRequest":
        """Validate a decoded JSON submission into a JobRequest."""
        _require(isinstance(doc, dict), "job must be a JSON object")
        unknown = set(doc) - _FIELDS
        _require(not unknown,
                 f"unknown job fields {sorted(unknown)} "
                 f"(allowed: {sorted(_FIELDS)})")
        workload = doc.get("workload") or ""
        source = doc.get("source") or ""
        _require(isinstance(workload, str) and isinstance(source, str),
                 "workload/source must be strings")
        _require(bool(workload) != bool(source),
                 "exactly one of 'workload' or 'source' is required")
        if workload:
            from repro.workloads import WORKLOADS

            _require(workload in WORKLOADS,
                     f"unknown workload {workload!r} "
                     f"(known: {sorted(WORKLOADS)})")
        _require(len(source) <= _MAX_SOURCE,
                 f"source exceeds {_MAX_SOURCE} bytes")
        size = doc.get("size", "test")
        _require(size in _SIZES, f"size must be one of {_SIZES}")

        raw_arith = doc.get("arith", "vanilla")
        if raw_arith in (None, "native"):
            arith = None
        else:
            _require(isinstance(raw_arith, str),
                     "arith must be a spec string, 'native', or null")
            try:
                arith = normalize_spec(raw_arith)
            except ArithSpecError as exc:
                raise JobError(str(exc)) from None

        stdin = doc.get("stdin", "")
        _require(isinstance(stdin, str), "stdin must be a string")
        _require(len(stdin) <= _MAX_STDIN,
                 f"stdin exceeds {_MAX_STDIN} bytes")

        params = doc.get("params") or {}
        _require(isinstance(params, dict), "params must be an object")
        for k, v in params.items():
            _require(isinstance(k, str) and isinstance(v, (int, float))
                     and not isinstance(v, bool),
                     "params must map symbol names to numbers")

        max_instructions = doc.get("max_instructions", 50_000_000)
        _require(max_instructions is None
                 or (isinstance(max_instructions, int)
                     and max_instructions > 0),
                 "max_instructions must be a positive integer or null")
        max_cycles = doc.get("max_cycles")
        _require(max_cycles is None
                 or (isinstance(max_cycles, (int, float))
                     and max_cycles > 0),
                 "max_cycles must be a positive number or null")

        tenant = doc.get("tenant", "")
        _require(isinstance(tenant, str) and len(tenant) <= 64,
                 "tenant must be a string of at most 64 chars")

        trace = doc.get("trace", False)
        no_cache = doc.get("no_cache", False)
        _require(isinstance(trace, bool) and isinstance(no_cache, bool),
                 "trace/no_cache must be booleans")

        chaos = doc.get("chaos") or {}
        _require(isinstance(chaos, dict)
                 and set(chaos) <= {"sleep_s", "exit", "raise"},
                 "chaos accepts only sleep_s/exit/raise")

        return cls(
            workload=workload,
            source=source,
            size=size,
            arith=arith,
            stdin=stdin.encode("latin-1"),
            params=tuple(sorted(params.items())),
            max_instructions=max_instructions,
            max_cycles=max_cycles,
            tenant=tenant,
            trace=trace,
            no_cache=no_cache,
            chaos=tuple(sorted(chaos.items())),
        )

    # ------------------------------------------------------------------ #

    @property
    def arith_text(self) -> str:
        """Human-readable spec ("native", "vanilla", "mpfr:64", ...)."""
        if self.arith is None:
            return "native"
        return ":".join(str(x) for x in self.arith)

    @property
    def sheddable(self) -> bool:
        """True when demoting to vanilla would actually shed load."""
        return self.arith is not None and self.arith != VANILLA

    def shed_to_vanilla(self) -> "JobRequest":
        """The same job demoted to vanilla-precision execution."""
        return replace(self, arith=VANILLA)

    @property
    def binary_key(self) -> tuple:
        """Identifies the guest binary *before* it is built.

        The daemon uses this to remember which ``content_hash`` a
        (workload, size) or source text produced, so later
        submissions can probe the result cache without building.
        """
        if self.workload:
            return ("workload", self.workload, self.size)
        digest = hashlib.sha256(self.source.encode()).hexdigest()
        return ("source", digest, self.size)

    def cache_key(self, binary_hash: str) -> tuple:
        """Full result-cache key: binary content + arith + inputs."""
        return (binary_hash, self.arith, self.stdin, self.params,
                self.max_instructions, self.max_cycles)


def error_result(req: JobRequest, error_type: str, message: str) -> dict:
    """A result dict for a job whose worker never returned one (the
    serving tier's :class:`~repro.harness.pool.WorkerPool` failure
    factory)."""
    return {
        "ok": False,
        "stdout": "",
        "exit_code": -1,
        "instr_count": 0,
        "fp_instr_count": 0,
        "fp_traps": 0,
        "correctness_traps": 0,
        "cycles": 0.0,
        "degradations": 0,
        "sites_short_circuited": 0,
        "binary_hash": "",
        "arith": req.arith_text,
        "error": message,
        "error_type": error_type,
        "crash_records": [],
        "trace_ndjson": None,
    }
