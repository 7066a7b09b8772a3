"""Pinned digests of every FP-trapping SSE mnemonic in every operand form.

Each (mnemonic, form) pair is one small program: a loop that loads the
destination, the sources and a third operand of one operand set from
data arrays, runs the instruction under test once per set, and stores
the destination's both lanes, ``rax`` and ZF/PF/CF of every set to an
output array.  Each set runs twice in a row, so from the second run on
a trapping site runs its site kernel (and a trap-and-patch site its
patched kernel).

The operand sets raise no flag, raise each of IE/ZE/OE/UE/PE where the
op can, and read a NaN-boxed value: the program first computes 1/3 with
``divsd`` (inexact, so FPVM boxes it) and stores it into the slots the
sets mark ``BOX``.  The forms are an xmm or memory source; r32, r64,
m32 and m64 integer operands; ``cmpsd`` predicates 0-7 and ``roundsd``
modes 0-3.

Every program runs natively, under ``vanilla`` and ``mpfr:200``, and
under ``mpfr:200`` in trap-and-patch mode.  The digest covers stdout,
the exit code, counts, cycles and every bucket, the final registers
(rflags included), MXCSR, the output array and, under FPVM, every
``FPVMStats`` field and the emulator, cache and GC counters.

The binary32 results of ``vanilla`` and ``mpfr:200`` raise
``OverflowError`` on an overflowing result, which ends the run; the
sets that overflow a binary32 come last, so every other set runs first.
The whole matrix takes about 1.5 s.  Regenerate (only for a change
meant to move modeled results)::

    PYTHONPATH=src python tests/integration/test_sse_pins.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.asm import Assembler
from repro.fpvm.runtime import FPVMConfig
from repro.ieee.bits import f32_to_bits, f64_to_bits
from repro.isa.operands import Imm, Label, Mem, Reg, Xmm
from repro.session import Session

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import kernel_observed  # noqa: E402

PINS_PATH = Path(__file__).with_name("sse_pins.json")

BOX = "box"
INF = float("inf")
QNAN64 = 0x7FF8_0000_0000_0000
#: signaling NaNs whose payload names no live shadow cell
SNAN64 = 0x7FF4_0000_0000_0000
QNAN32 = 0x7FC0_0000
SNAN32 = 0x7FA0_0000
#: upper half of every binary32 slot, which the f32 ops must keep
HI32 = 0x4005_BF0A << 32


def d(x):
    return x if isinstance(x, str) else f64_to_bits(x)


def s(x):
    if isinstance(x, str):
        return x
    return HI32 | (x if isinstance(x, int) else f32_to_bits(x))


def _sets64(pairs):
    """(dst, src) binary64 pairs -> operand sets; the high lanes take
    the pair five sets on, so packed forms mix two sets' flags."""
    n = len(pairs)
    return [(d(a), d(pairs[(i + 5) % n][0]), d(b), d(pairs[(i + 5) % n][1]),
             d(0.0)) for i, (a, b) in enumerate(pairs)]


BIN64 = _sets64([
    (1.5, 0.25), (INF, -INF), (INF, INF), (0.0, INF), (QNAN64, 1.0),
    (1.0, 0.0), (1e308, 1e308), (1e308, -1e308), (1e-300, 1e-300),
    (1e-300, 1e300), (1.0, 3.0), (1.0, 1e-20), (BOX, 2.0), (2.0, BOX),
])
BIN32 = [(s(a), d(7.0), s(b), d(7.0), d(0.0)) for a, b in [
    (1.5, 0.25), (INF, -INF), (INF, INF), (0.0, INF), (QNAN32, 1.0),
    (1.0, 0.0), (1e-30, 1e-30), (1e-30, 1e30), (1.0, 3.0), (1.0, 1e-10),
    (BOX, 2.0), (2.0, BOX), (3e38, 3e38), (3e38, -3e38),
]]
UNARY64 = _sets64([(9.0, x) for x in (
    4.0, -1.0, 2.0, 1e-310, INF, -0.0, SNAN64, QNAN64, 2.5, -2.5, 0.5,
    1e300, BOX)])
FMA = [(d(c), d(0.0), d(a), d(0.0), d(b)) for c, a, b in [
    (0.25, 1.5, 2.0), (1.0, 0.0, INF), (-INF, INF, 1.0), (0.0, 1e308, 10.0),
    (0.0, 1e-300, 1e-300), (0.0, 1.1, 1.1), (QNAN64, 1.0, 1.0),
    (1.0, SNAN64, 1.0), (BOX, 2.0, 3.0), (1.0, BOX, 3.0), (1.0, 2.0, BOX),
]]
CMP = _sets64([
    (1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (QNAN64, 1.0), (1.0, SNAN64),
    (-0.0, 0.0), (INF, INF), (BOX, 1.0), (1.0, BOX),
])
FROM_INT = [(d(9.0), d(9.0), i & 0xFFFF_FFFF_FFFF_FFFF, 0, d(0.0)) for i in (
    0, 1, -5, (1 << 31) - 1, -(1 << 31), (1 << 53) + 1, (1 << 63) - 1, -1,
    0x1_0000_0003)] + [(d(9.0), d(9.0), BOX, 0, d(0.0))]
TO_INT = _sets64([(0.0, x) for x in (
    1.0, 1.5, -2.5, 2.5, QNAN64, 1e20, 3e9, -3e9, 2147483647.5, -0.0, INF,
    BOX)])
TO_F32 = _sets64([(s(7.0), x) for x in (
    1.5, 1e-300, 0.1, SNAN64, QNAN64, 1e-40, BOX, 1e300, -1e300)])
FROM_F32 = [(d(9.0), d(9.0), s(x), d(0.0), d(0.0)) for x in (
    1.5, SNAN32, QNAN32, 0x0000_0400, f32_to_bits(INF), 0.1, BOX)]

#: kind -> (operand sets, source operand size in bytes)
KINDS = {
    "bin64": (BIN64, 8), "packed": (BIN64, 16), "bin32": (BIN32, 4),
    "sqrt": (UNARY64, 8), "sqrtp": (UNARY64, 16), "fma": (FMA, 8),
    "cmp": (CMP, 8), "from_int": (FROM_INT, 8), "to_int": (TO_INT, 8),
    "to_f32": (TO_F32, 8), "from_f32": (FROM_F32, 4), "round": (UNARY64, 8),
}

MNEMONICS = {
    **{m + "sd": "bin64" for m in ("add", "sub", "mul", "div", "min", "max")},
    **{m + "pd": "packed" for m in ("add", "sub", "mul", "div", "min",
                                    "max")},
    **{m + "ss": "bin32" for m in ("add", "sub", "mul", "div")},
    "sqrtsd": "sqrt", "sqrtpd": "sqrtp", "fmaddsd": "fma",
    "ucomisd": "cmp", "comisd": "cmp", "cmpsd": "cmp",
    "cvtsi2sd": "from_int", "cvttsd2si": "to_int", "cvtsd2si": "to_int",
    "cvtsd2ss": "to_f32", "cvtss2sd": "from_f32", "roundsd": "round",
}


def _forms(mn: str) -> list[str]:
    kind = MNEMONICS[mn]
    if kind == "fma":
        return ["xmm,xmm", "xmm,mem", "mem,xmm", "mem,mem"]
    if kind == "from_int":
        return ["r32", "r64", "m32", "m64"]
    if kind == "to_int":
        return [f"{d},{s}" for d in ("r32", "r64") for s in ("xmm", "mem")]
    if mn == "cmpsd":
        return [f"{s},{p}" for p in range(8) for s in ("xmm", "mem")]
    if mn == "roundsd":
        return [f"{s},{p}" for p in range(4) for s in ("xmm", "mem")]
    return ["xmm", "mem"]


CASES = [(mn, form) for mn in MNEMONICS for form in _forms(mn)]


def _at(sym: str, size: int) -> Mem:
    """``[sym + rbx]``: the current set's slot of ``sym``."""
    return Mem(base="rbx", disp=Label(sym), size=size)


def _operands(mn: str, form: str) -> tuple:
    kind = MNEMONICS[mn]
    size = KINDS[kind][1]
    parts = form.split(",")

    def src(k, sym, sz):
        return Xmm(k) if parts[k - 1] == "xmm" else _at(sym, sz)

    if kind == "fma":
        return Xmm(0), src(1, "S", 8), src(2, "T", 8)
    if kind == "from_int":
        w = 4 if parts[0][1:] == "32" else 8
        return (Xmm(0), (Reg("eax" if w == 4 else "rax")
                         if parts[0][0] == "r" else _at("S", w)))
    if kind == "to_int":
        return (Reg("eax" if parts[0] == "r32" else "rax"),
                Xmm(1) if parts[1] == "xmm" else _at("S", 8))
    ops = (Xmm(0), Xmm(1) if parts[0] == "xmm" else _at("S", size))
    if len(parts) == 2:
        ops += (Imm(int(parts[1])),)
    return ops


def build(mn: str, form: str):
    """The program of one (mnemonic, form) case."""
    sets, _ = KINDS[MNEMONICS[mn]]
    n = len(sets)
    a = Assembler()
    a.double("one", 1.0)
    a.double("three", 3.0)
    arrays = {"D": [], "S": [], "T": []}
    boxed = []
    for i, (dlo, dhi, slo, shi, t) in enumerate(sets):
        for sym, lo, hi in (("D", dlo, dhi), ("S", slo, shi), ("T", t, 0)):
            for lane, v in enumerate((lo, hi)):
                if v == BOX:
                    boxed.append((sym, 16 * i + 8 * lane))
                    v = 0
                arrays[sym].append(v)
    for sym, words in arrays.items():
        a.quad(sym, words)
    a.space("O", 32 * n)
    a.label("main")
    a.emit("movsd", Xmm(7), Mem(disp=Label("one")))
    a.emit("divsd", Xmm(7), Mem(disp=Label("three")))
    for sym, off in boxed:
        a.emit("lea", Reg("rdx"), Mem(disp=Label(sym)))
        a.emit("movsd", Mem(base="rdx", disp=off), Xmm(7))
    a.emit("mov", Reg("rbx"), Imm(0))
    a.label("next")
    a.emit("mov", Reg("rcx"), Imm(2))
    a.label("again")
    a.emit("movapd", Xmm(0), _at("D", 16))
    a.emit("movapd", Xmm(1), _at("S", 16))
    a.emit("movapd", Xmm(2), _at("T", 16))
    a.emit("mov", Reg("rax"), _at("S", 8))
    a.emit("lea", Reg("rdx"), Mem(base="rbx", index="rbx", disp=Label("O")))
    a.emit(mn, *_operands(mn, form))
    a.emit("movapd", Mem(base="rdx", size=16), Xmm(0))
    a.emit("mov", Mem(base="rdx", disp=16), Reg("rax"))
    for k, cc in enumerate(("sete", "setp", "setb")):
        a.emit(cc, Mem(base="rdx", disp=24 + k, size=1))
    a.emit("dec", Reg("rcx"))
    a.emit("jne", Label("again"))
    a.emit("add", Reg("rbx"), Imm(16))
    a.emit("cmp", Reg("rbx"), Imm(16 * n))
    a.emit("jl", Label("next"))
    a.emit("ret")
    return a.assemble()


#: configuration -> Session arguments
CONFIGS = {
    "native": lambda: (None, None),
    "vanilla": lambda: ("vanilla", None),
    "mpfr:200": lambda: ("mpfr:200", None),
    "patch": lambda: ("mpfr:200", FPVMConfig(mode="trap-and-patch")),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _run(s: Session):
    """The run's result, or the machine's state where an exception
    ended it (vanilla's binary32 emulation raises ``OverflowError`` on
    an overflowing result)."""
    try:
        return s.run()
    except Exception as exc:
        m = s.machine
        return SimpleNamespace(
            stdout="".join(m.stdout), exit_code=repr(exc),
            instr_count=m.instr_count, fp_instr_count=m.fp_instr_count,
            fp_traps=m.fp_trap_count,
            correctness_traps=m.correctness_trap_count,
            cycles=m.cost.cycles, buckets=m.cost.buckets,
            final_regs=m.regs.snapshot())


def observe(mn: str, form: str) -> dict[str, str]:
    """Every configuration's digest for one (mnemonic, form) case."""
    sets = len(KINDS[MNEMONICS[mn]][0])
    out = {}
    for name, config in CONFIGS.items():
        arith, cfg = config()
        s = Session(lambda: build(mn, form), arith, config=cfg)
        res = _run(s)
        m = s.machine
        outputs = m.memory.read_bytes(s.binary.symbols["O"], 32 * sets)
        if s.fpvm is None:
            obs = dict(
                stdout=res.stdout, exit=res.exit_code, instrs=res.instr_count,
                fp_instrs=res.fp_instr_count, traps=res.fp_traps,
                cycles=res.cycles, buckets=res.buckets, regs=res.final_regs,
                mxcsr=(m.mxcsr.flags, m.mxcsr.masks))
        else:
            obs = kernel_observed(s, res)
        out[name] = _digest([obs, outputs.hex()])
    return out


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("mn,form", CASES)
def test_sse_pinned(mn, form):
    assert observe(mn, form) == _pins()[f"{mn} {form}"]


def test_every_trapping_mnemonic_is_pinned():
    from repro.isa import OPCODES, is_fp_trapping

    assert set(MNEMONICS) == {m for m in OPCODES if is_fp_trapping(m)}


if __name__ == "__main__":
    pins = {f"{mn} {form}": observe(mn, form) for mn, form in CASES}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
