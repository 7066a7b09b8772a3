"""Compiler driver: source text → linked Binary.

``instrument_fp=True`` selects the paper's §3.4 compiler-based
approach: every trap-capable FP site is emitted with an inline
pre/post-condition check (a ``fpvm_patch`` carrying the original
instruction, flagged as compiler-generated so the cost model charges
the cheaper optimized-check rate).  Such binaries run unchanged
without FPVM and under ``FPVM(arith, FPVMConfig(mode="static"))``
with it.
"""

from __future__ import annotations

from repro.asm.program import Binary
from repro.compiler.codegen import CodeGen
from repro.compiler.parser import parse
from repro.compiler import ast as A
from repro.isa.instructions import Instruction
from repro.isa.opcodes import is_fp_trapping


def compile_source(source: str, *, entry: str = "main",
                   instrument_fp: bool = False) -> Binary:
    """Compile fpc source text into a simulated Binary."""
    return compile_program(parse(source), entry=entry,
                           instrument_fp=instrument_fp)


def compile_file(path, *, entry: str = "main",
                 instrument_fp: bool = False) -> Binary:
    """Compile an fpc source file into a simulated Binary."""
    from pathlib import Path

    return compile_source(Path(path).read_text(), entry=entry,
                          instrument_fp=instrument_fp)


def compile_program(program: A.Program, *, entry: str = "main",
                    instrument_fp: bool = False) -> Binary:
    """Compile a parsed Program AST into a simulated Binary."""
    binary = CodeGen(program).generate(entry=entry)
    if instrument_fp:
        instrument_fp_sites(binary)
    return binary


def instrument_fp_sites(binary: Binary) -> int:
    """§3.4: wrap every trap-capable FP instruction in an inline
    compiler-emitted check.  Returns the number of instrumented sites."""
    n = 0
    for ins in list(binary.text):
        if is_fp_trapping(ins.mnemonic):
            patch = Instruction(
                "fpvm_patch", (), ins.addr, ins.length,
                payload={"original": ins, "compiler": True},
            )
            binary.replace_instruction(ins.addr, patch)
            n += 1
    return n
