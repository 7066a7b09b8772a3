"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.asm import Assembler
from repro.isa.operands import Imm, Label, Mem, Reg, Xmm
from repro.machine.loader import load_binary


def asm_program(body, *, externs=(), data=None, entry="main"):
    """Build a Binary from a callable that emits into an Assembler.

    ``body(a)`` receives the assembler positioned after the ``main``
    label and must end with a ``ret`` (or rely on the trailing one we
    add).  ``data(a)`` may define data first.
    """
    a = Assembler()
    if externs:
        a.extern(*externs)
    if data is not None:
        data(a)
    a.label(entry)
    body(a)
    a.emit("ret")
    return a.assemble(entry=entry)


def run_program(body, **kwargs):
    """asm_program + load + run; returns the Machine."""
    binary = asm_program(body, **kwargs)
    m = load_binary(binary)
    m.run()
    return m


@pytest.fixture
def assembler():
    return Assembler()


# re-export common operand helpers for terseness in tests
RAX, RBX, RCX, RDX = Reg("rax"), Reg("rbx"), Reg("rcx"), Reg("rdx")
RDI, RSI, RSP, RBP = Reg("rdi"), Reg("rsi"), Reg("rsp"), Reg("rbp")
EAX = Reg("eax")
XMM0, XMM1, XMM2 = Xmm(0), Xmm(1), Xmm(2)


def imm(v):
    return Imm(v)


def lbl(name):
    return Label(name)


def mem(base=None, disp=0, index=None, scale=1, size=8):
    b = base.name if isinstance(base, Reg) else base
    ix = index.name if isinstance(index, Reg) else index
    return Mem(base=b, index=ix, scale=scale, disp=disp, size=size)


# --------------------------------------------------------------------------- #
# what a run computes and charges                                              #
# --------------------------------------------------------------------------- #

def kernel_observed(session, res) -> dict:
    """Everything an FPVM run computes and charges, for comparing runs
    and pinning them: outputs, counts, cycles and every bucket (float
    ``==``), final registers and MXCSR, every FPVMStats field, the
    emulator and cache counters and the GC pass records (their host
    latency aside)."""
    f = session.fpvm
    em = f.emulator
    m = session.machine
    return dict(
        stdout=res.stdout, exit=res.exit_code, instrs=res.instr_count,
        fp_instrs=res.fp_instr_count, traps=res.fp_traps,
        correctness=res.correctness_traps, cycles=res.cycles,
        buckets=res.buckets, regs=res.final_regs,
        mxcsr=(m.mxcsr.flags, m.mxcsr.masks),
        stats=dataclasses.asdict(f.stats),
        emulator=(em.promotions, em.unbox_hits, em.universal_nans,
                  em.boxes_created, em.corrupted_boxes,
                  dict(em.ops_emulated)),
        caches=(f.decode_cache.hits, f.decode_cache.misses,
                f.bind_cache.hits, f.bind_cache.misses),
        gc=[(p.alive_before, p.freed, p.alive_after, p.words_scanned,
             p.modeled_cycles) for p in f.gc.passes],
    )
