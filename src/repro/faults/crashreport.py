"""Structured NDJSON crash reports for unrecoverable machine faults.

When a :class:`~repro.errors.MachineError` escapes the recovery ladder
the run is over — but the *run's state* is still intact in-process, and
throwing it away turns every crash into archaeology.  This module
distills the machine into a list of flat JSON-safe records, one
``kind``-tagged object per line when serialized:

``crash``         error type/message, rip, instruction/cycle counters
``disassembly``   a window of instructions around the faulting rip
``registers``     the full register file + MXCSR masks/flags
``trap_context``  FPVM counters (traps, degradations, live shadows)
``trace_tail``    the retained suffix of a ring-buffer trace sink
``cell``          the matrix-cell coordinates, when run under a sweep

Everything is best-effort: a half-constructed machine (or none at all)
still yields a valid report containing whatever was recoverable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpvm.runtime import FPVM
    from repro.machine.cpu import Machine

#: instructions either side of rip in the disassembly window
_WINDOW = 8

#: events retained from a ring-buffer trace sink
_TAIL = 32


def _disasm_window(machine: "Machine", rip: int) -> list[list]:
    """``[addr, text, is_rip]`` rows around the faulting instruction."""
    text = machine.binary.text
    idx = next((i for i, ins in enumerate(text) if ins.addr == rip), None)
    if idx is None:
        # rip between instructions (corrupt) — nearest preceding site
        idx = max(range(len(text)),
                  key=lambda i: (text[i].addr <= rip, text[i].addr),
                  default=None)
    if idx is None:
        return []
    lo = max(0, idx - _WINDOW)
    hi = min(len(text), idx + _WINDOW + 1)
    return [[ins.addr, str(ins), ins.addr == rip] for ins in text[lo:hi]]


def build_crash_report(
    exc: BaseException,
    machine: "Machine | None" = None,
    fpvm: "FPVM | None" = None,
    *,
    ring=None,
    cell=None,
    label: str = "",
) -> list[dict]:
    """Distill a crash into JSON-safe, ``kind``-tagged records."""
    records: list[dict] = []
    head: dict = {
        "kind": "crash",
        "error": type(exc).__name__,
        "message": str(exc),
        "label": label,
    }
    if machine is not None:
        head.update(
            rip=machine.regs.rip,
            instr_count=machine.instr_count,
            fp_instr_count=machine.fp_instr_count,
            cycles=machine.cost.cycles,
            halted=machine.halted,
            stdout_tail="".join(machine.stdout)[-512:],
        )
    records.append(head)

    if machine is not None:
        records.append({
            "kind": "disassembly",
            "window": _disasm_window(machine, machine.regs.rip),
        })
        snap = machine.regs.snapshot()
        zf, sf, cf, of, pf = snap["flags"]
        records.append({
            "kind": "registers",
            "rip": snap["rip"],
            "gpr": snap["gpr"],
            "xmm": snap["xmm"],
            "flags": {"zf": zf, "sf": sf, "cf": cf, "of": of, "pf": pf},
            "mxcsr": {"masks": machine.mxcsr.masks,
                      "flags": machine.mxcsr.flags},
        })

    if fpvm is not None:
        st = fpvm.stats
        records.append({
            "kind": "trap_context",
            "mode": fpvm.mode,
            "arith": fpvm.arith.describe(),
            "fp_traps": st.fp_traps,
            "traps_by_flag": dict(st.traps_by_flag),
            "correctness_traps": st.correctness_traps,
            "degradations": st.degradations,
            "sites_short_circuited": st.sites_short_circuited,
            "live_shadow_values": fpvm.store.live_count,
            "injector": (fpvm.injector.summary()
                         if fpvm.injector is not None else None),
        })

    if ring is not None and getattr(ring, "events", None):
        events = ring.events[-_TAIL:]
        records.append({
            "kind": "trace_tail",
            "dropped": getattr(ring, "dropped", 0),
            "events": [ev.to_dict() for ev in events],
        })

    if cell is not None:
        from dataclasses import asdict, is_dataclass

        info = asdict(cell) if is_dataclass(cell) else dict(cell)
        plan = info.get("fault_plan")
        if plan is not None:
            info["fault_plan"] = cell.fault_plan.describe()
        records.append({"kind": "cell", **info})
    return records


def write_crash_report(path_or_file: str | Path | IO[str],
                       records: list[dict],
                       *,
                       append: bool = False,
                       fsync: bool = False) -> None:
    """Serialize records as NDJSON (one JSON object per line).

    ``append=True`` opens the file in ``O_APPEND`` mode and writes the
    whole report as a single buffer, so concurrent workers sharing one
    crash log interleave at report granularity rather than tearing
    lines; ``fsync=True`` forces the report to stable storage before
    returning, so it survives the writing process dying right after.
    The default is a plain truncate-and-write.
    """
    buf = "".join(json.dumps(rec) + "\n" for rec in records)
    if isinstance(path_or_file, (str, Path)):
        with Path(path_or_file).open("a" if append else "w") as fh:
            fh.write(buf)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
    else:
        path_or_file.write(buf)
        if fsync:
            path_or_file.flush()
            fileno = getattr(path_or_file, "fileno", None)
            if fileno is not None:
                try:
                    os.fsync(fileno())
                except (OSError, ValueError):
                    pass  # not a real file (StringIO etc.)
