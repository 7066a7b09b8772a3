"""Pinned digests of everything a trapping run computes and charges.

Every registry program runs at size ``test`` under vanilla, ``mpfr:200``
and ``posit:32:2`` in each configuration of :data:`CONFIGS`, and its
``conftest.kernel_observed`` record (stdout, counts, cycles and every
bucket, final registers and MXCSR, every FPVMStats field, the emulator
and cache counters, the GC pass records) is hashed.  ``ndjson`` hashes
the run's NDJSON trace instead, with the host-time fields dropped and
the analysis cache cleared first, so the ``cache_hit`` flags are those
of a first run, under the default mode and each of :data:`NDJSON_CONFIGS`.
The ``compiled`` configurations run the registry build with every
trap-capable FP site wrapped in a §3.4 compiler check.  ``oracle`` runs unpatched with a
:class:`~repro.analysis.oracle.SoundnessOracle` attached and adds its
observations.  Each registry program also runs once under
``sanitize:200``, adding the sanitizer's per-site records in
insertion order.

Every digest in ``trap_pins.json`` was recorded before the trap path
was rewritten to serve every trap from a site kernel, and the digests
of the patch, static and compiled configurations before patched sites
ran kernels too, so they pin that each rewrite changed host time only.  Tier 1 runs five pairs that reach
every kernel kind: binops, sqrt, compares, f64->int conversions
(nas_is) and correctness sites, box-free and demoting (enzo).  The
whole registry runs under ``-m slow``.

Regenerate (only for a change meant to move modeled results)::

    PYTHONPATH=src python tests/integration/test_trap_pins.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import clear_cache
from repro.analysis.oracle import SoundnessOracle
from repro.compiler import instrument_fp_sites
from repro.errors import MachineError
from repro.faults import FaultPlan, FaultRule
from repro.fpvm.runtime import FPVMConfig
from repro.session import Session
from repro.trace.sinks import NDJSONSink, RingBufferSink
from repro.workloads import WORKLOADS, get_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import kernel_observed  # noqa: E402

PINS_PATH = Path(__file__).with_name("trap_pins.json")

ARITHS = ("vanilla", "mpfr:200", "posit:32:2")

TIER1 = [("enzo", "mpfr:200"), ("nas_is", "posit:32:2"),
         ("three_body", "vanilla"), ("lorenz", "posit:32:2"),
         ("fbench", "mpfr:200")]

TIER1_SANITIZE = ("lorenz", "fbench")

#: NDJSON fields that hold host time, not modeled results
HOST_TIME_FIELDS = ("vsa_ms", "refine_ms", "ranges_ms", "wall_s")


def _seeded_plan(seed: int) -> FaultPlan:
    """Faults at every stage but ``nanbox_corrupt`` (whose flipped
    handles crash enzo early): degrades, storm demotions and the
    rebuilds after them."""
    return FaultPlan(seed=seed, rules=(
        FaultRule("decode", probability=0.02, max_fires=None),
        FaultRule("bind", probability=0.02, max_fires=None),
        FaultRule("emulate", probability=0.05, max_fires=None),
        FaultRule("shadow_lookup", probability=0.01, max_fires=None),
        FaultRule("extern_demote", probability=0.02, max_fires=None),
        FaultRule("gc_sweep", probability=0.5, max_fires=None),
    ))


#: configuration name -> Session keyword arguments
CONFIGS = {
    "trace": lambda: {"trace": RingBufferSink()},
    "faults0": lambda: {"config": FPVMConfig(faults=FaultPlan(seed=5))},
    **{f"faults{seed}": (lambda seed=seed: {
        "config": FPVMConfig(faults=_seeded_plan(seed))})
       for seed in (3, 11, 29)},
    "jit": lambda: {"config": FPVMConfig(jit_threshold=4)},
    "jit+tracejit": lambda: {"config": FPVMConfig(jit_threshold=4,
                                                  trace_jit_threshold=8)},
    "patch": lambda: {"config": FPVMConfig(mode="trap-and-patch")},
    "static": lambda: {"config": FPVMConfig(mode="static")},
    "faults3+patch": lambda: {"config": FPVMConfig(
        mode="trap-and-patch", faults=_seeded_plan(3))},
    "faults3+static": lambda: {"config": FPVMConfig(
        mode="static", faults=_seeded_plan(3))},
}

#: configurations whose NDJSON trace is hashed too (beside the default)
NDJSON_CONFIGS = {
    "patch": lambda: FPVMConfig(mode="trap-and-patch"),
    "static": lambda: FPVMConfig(mode="static"),
    "jit": lambda: FPVMConfig(jit_threshold=4),
}

#: configurations of the §3.4 compiler-instrumented build
COMPILED_CONFIGS = {
    "compiled": lambda: FPVMConfig(),
    "compiled+static": lambda: FPVMConfig(mode="static"),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _observed(s: Session) -> dict:
    """``kernel_observed`` of a run, or the machine's state where a
    fault crashed it (seeded faults and unpatched oracle runs may)."""
    try:
        return kernel_observed(s, s.run())
    except MachineError as exc:
        m = s.machine
        crashed = SimpleNamespace(
            stdout="".join(m.stdout), exit_code=repr(exc),
            instr_count=m.instr_count, fp_instr_count=m.fp_instr_count,
            fp_traps=m.fp_trap_count,
            correctness_traps=m.correctness_trap_count,
            cycles=m.cost.cycles, buckets=m.cost.buckets,
            final_regs=m.regs.snapshot())
        return kernel_observed(s, crashed)


def _ndjson(program: str, arith: str,
            config: FPVMConfig | None = None) -> str:
    clear_cache()
    buf = io.StringIO()
    sink = NDJSONSink(buf)
    s = Session(program, arith, size="test", config=config, trace=sink)
    res = s.run()
    sink.close()
    events = []
    for line in buf.getvalue().splitlines():
        ev = json.loads(line)
        for key in HOST_TIME_FIELDS:
            ev.pop(key, None)
        events.append(ev)
    return _digest([events, kernel_observed(s, res)])


def _oracle(program: str, arith: str) -> str:
    s = Session(program, arith, size="test", patch=False)
    oracle = SoundnessOracle(s.fpvm)
    s.machine.set_oracle(oracle)
    observed = _observed(s)
    obs = [(o.kind, o.addr, o.mnemonic, o.count, o.detail)
           for o in oracle.observations.values()]
    return _digest([observed, obs])


def _compiled(program: str):
    """A builder of ``program`` at size ``test`` with every trap-capable
    FP site wrapped in a compiler check (§3.4)."""
    def build():
        binary = get_workload(program).build("test")
        instrument_fp_sites(binary)
        return binary
    return build


def observe(program: str, arith: str) -> dict[str, str]:
    """Every configuration's digest for one (program, arith) pair."""
    out = {"ndjson": _ndjson(program, arith)}
    for name, config in NDJSON_CONFIGS.items():
        out[f"ndjson+{name}"] = _ndjson(program, arith, config())
    for name, kwargs in CONFIGS.items():
        s = Session(program, arith, size="test", **kwargs())
        out[name] = _digest(_observed(s))
    for name, config in COMPILED_CONFIGS.items():
        s = Session(_compiled(program), arith, config=config())
        out[name] = _digest(_observed(s))
    out["oracle"] = _oracle(program, arith)
    return out


def observe_sanitize(program: str) -> str:
    s = Session(program, "sanitize:200", size="test")
    res = s.run()
    sites = [r.to_dict() for r in s.fpvm.sanitizer.sites.values()]
    return _digest([kernel_observed(s, res), sites])


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _check(program: str, arith: str) -> None:
    assert observe(program, arith) == _pins()["runs"][f"{program} {arith}"]


@pytest.mark.parametrize("program,arith", TIER1)
def test_trap_paths_pinned(program, arith):
    _check(program, arith)


@pytest.mark.parametrize("program", TIER1_SANITIZE)
def test_sanitize_pinned(program):
    assert observe_sanitize(program) == _pins()["sanitize"][program]


@pytest.mark.slow
@pytest.mark.parametrize("arith", ARITHS)
@pytest.mark.parametrize("program", sorted(WORKLOADS))
def test_trap_paths_pinned_on_the_registry(program, arith):
    _check(program, arith)


@pytest.mark.slow
@pytest.mark.parametrize("program", sorted(WORKLOADS))
def test_sanitize_pinned_on_the_registry(program):
    assert observe_sanitize(program) == _pins()["sanitize"][program]


if __name__ == "__main__":
    pins = {
        "runs": {f"{p} {a}": observe(p, a)
                 for p in sorted(WORKLOADS) for a in ARITHS},
        "sanitize": {p: observe_sanitize(p) for p in sorted(WORKLOADS)},
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
