"""Unit tests for the simulated libc/libm bindings."""

import math

import pytest

from repro.errors import MachineError
from repro.ieee.bits import bits_to_f64
from repro.machine.libc import format_printf
from conftest import RAX, RBX, RDI, XMM0, asm_program, imm, lbl, mem
from repro.isa.operands import Reg
from repro.machine.loader import load_binary

RSI = Reg("rsi")
RDX = Reg("rdx")


def run(body, data=None, externs=()):
    m = load_binary(asm_program(body, data=data, externs=externs))
    m.run()
    return m


class TestFormatPrintf:
    def test_ints(self):
        assert format_printf("%d %d", [1, (-2) & ((1 << 64) - 1)], []) \
            == "1 -2"
        assert format_printf("%5d|%-5d|", [42, 42], []) == "   42|42   |"
        assert format_printf("%x", [255], []) == "ff"
        assert format_printf("%c", [65], []) == "A"

    def test_floats(self):
        assert format_printf("%f", [], [1.5]) == "1.500000"
        assert format_printf("%.2f", [], [math.pi]) == "3.14"
        assert format_printf("%.3e", [], [1234.5]) == "1.234e+03"
        assert format_printf("%g", [], [0.0001]) == "0.0001"

    def test_mixed_order(self):
        # int args consumed in order: 7 then "hi"
        s = format_printf("i=%d f=%f s=%s", [7, "hi"], [3.5])
        assert s == "i=7 f=3.500000 s=hi"

    def test_percent_literal(self):
        assert format_printf("100%%", [], []) == "100%"

    def test_prerendered_string_fp(self):
        assert format_printf("%f", [], ["3.333e-01"]) == "3.333e-01"

    def test_alternate_form_matches_c(self):
        # expected strings are the host C library's output
        assert format_printf("%#x|%#X|%#o|%#x|%#o|%#08x",
                             [255, 255, 8, 0, 0, 255], []) \
            == "0xff|0XFF|010|0|0|0x0000ff"
        assert format_printf("%#g|%#.3e|%#.0f|%#G", [],
                             [1.0, 1.0, 2.0, 0.5]) \
            == "1.00000|1.000e+00|2.|0.500000"


class TestOutput:
    def test_printf_through_machine(self):
        def body(a):
            a.emit("movabs", RDI, lbl("fmt"))
            a.emit("mov", RSI, imm(5))
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("call", lbl("printf"))

        def data(a):
            a.asciiz("fmt", "n=%d x=%.3f\n")
            a.double("x", 2.5)

        m = run(body, data, externs=("printf",))
        assert "".join(m.stdout) == "n=5 x=2.500\n"

    def test_puts_putchar(self):
        def body(a):
            a.emit("movabs", RDI, lbl("s"))
            a.emit("call", lbl("puts"))
            a.emit("mov", RDI, imm(33))
            a.emit("call", lbl("putchar"))

        def data(a):
            a.asciiz("s", "hey")

        m = run(body, data, externs=("puts", "putchar"))
        assert "".join(m.stdout) == "hey\n!"

    def test_fwrite_raw_bytes(self):
        def body(a):
            a.emit("movabs", RDI, lbl("buf"))
            a.emit("mov", RSI, imm(1))
            a.emit("mov", RDX, imm(4))
            a.emit("call", lbl("fwrite"))

        def data(a):
            a.asciiz("buf", "abcd")

        m = run(body, data, externs=("fwrite",))
        assert "".join(m.stdout) == "abcd"


class TestHeap:
    def test_malloc_free_reuse(self):
        def body(a):
            a.emit("mov", RDI, imm(64))
            a.emit("call", lbl("malloc"))
            a.emit("mov", RBX, RAX)
            a.emit("mov", RDI, RAX)
            a.emit("call", lbl("free"))
            a.emit("mov", RDI, imm(64))
            a.emit("call", lbl("malloc"))

        m = run(body, externs=("malloc", "free"))
        # the freed block is reused
        assert m.regs.get_gpr("rax") == m.regs.get_gpr("rbx")

    def test_calloc_zeroes(self):
        def body(a):
            a.emit("mov", RDI, imm(4))
            a.emit("mov", RSI, imm(8))
            a.emit("call", lbl("calloc"))
            a.emit("mov", RBX, mem(RAX, disp=24))

        m = run(body, externs=("calloc",))
        assert m.regs.get_gpr("rbx") == 0

    def test_double_free_detected(self):
        def body(a):
            a.emit("mov", RDI, imm(16))
            a.emit("call", lbl("malloc"))
            a.emit("mov", RDI, RAX)
            a.emit("mov", RBX, RAX)
            a.emit("call", lbl("free"))
            a.emit("mov", RDI, RBX)
            a.emit("call", lbl("free"))

        with pytest.raises(MachineError):
            run(body, externs=("malloc", "free"))

    def test_memcpy_memset(self):
        def body(a):
            a.emit("movabs", RDI, lbl("dst"))
            a.emit("mov", RSI, imm(0xAB))
            a.emit("mov", RDX, imm(8))
            a.emit("call", lbl("memset"))
            a.emit("movabs", RDI, lbl("dst2"))
            a.emit("movabs", RSI, lbl("dst"))
            a.emit("mov", RDX, imm(8))
            a.emit("call", lbl("memcpy"))
            a.emit("movabs", RAX, lbl("dst2"))
            a.emit("mov", RBX, mem(RAX))

        def data(a):
            a.space("dst", 16)
            a.space("dst2", 16)

        m = run(body, data, externs=("memset", "memcpy"))
        assert m.regs.get_gpr("rbx") == 0xABABABAB_ABABABAB


class TestMisc:
    def test_rand_deterministic(self):
        def body(a):
            a.emit("mov", RDI, imm(1234))
            a.emit("call", lbl("srand"))
            a.emit("call", lbl("rand"))
            a.emit("mov", RBX, RAX)
            a.emit("call", lbl("rand"))

        m1 = run(body, externs=("srand", "rand"))
        m2 = run(body, externs=("srand", "rand"))
        assert m1.regs.get_gpr("rbx") == m2.regs.get_gpr("rbx")
        assert m1.regs.get_gpr("rax") == m2.regs.get_gpr("rax")
        assert m1.regs.get_gpr("rax") != m1.regs.get_gpr("rbx")

    def test_exit(self):
        def body(a):
            a.emit("mov", RDI, imm(7))
            a.emit("call", lbl("exit"))
            a.emit("ud2")  # never reached

        assert run(body, externs=("exit",)).exit_code == 7

    def test_strlen(self):
        def body(a):
            a.emit("movabs", RDI, lbl("s"))
            a.emit("call", lbl("strlen"))

        def data(a):
            a.asciiz("s", "hello world")

        assert run(body, data, externs=("strlen",)).regs.get_gpr("rax") == 11

    def test_clock_returns_cycles(self):
        def body(a):
            for _ in range(20):
                a.emit("mov", RBX, imm(1))
            a.emit("call", lbl("clock"))

        m = run(body, externs=("clock",))
        assert 0 < m.regs.get_gpr("rax") <= m.cost.cycles

    @pytest.mark.parametrize("fn,x,expect", [
        ("sin", 1.0, math.sin(1.0)), ("cos", 0.5, math.cos(0.5)),
        ("exp", 2.0, math.exp(2.0)), ("log", 10.0, math.log(10.0)),
        ("sqrt", 9.0, 3.0), ("fabs", -4.0, 4.0),
        ("floor", 2.7, 2.0), ("ceil", 2.1, 3.0), ("tanh", 0.5, math.tanh(0.5)),
    ])
    def test_libm_unary(self, fn, x, expect):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("call", lbl(fn))

        def data(a):
            a.double("x", x)

        m = run(body, data, externs=(fn,))
        assert bits_to_f64(m.regs.xmm_lo(0)) == pytest.approx(expect,
                                                              rel=1e-15)

    @pytest.mark.parametrize("fn,x,y,expect", [
        ("pow", 2.0, 10.0, 1024.0), ("atan2", 1.0, 1.0, math.pi / 4),
        ("fmod", 7.5, 2.0, 1.5), ("fmin", 2.0, -1.0, -1.0),
    ])
    def test_libm_binary(self, fn, x, y, expect):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("movsd", __import__("repro.isa.operands",
                                       fromlist=["Xmm"]).Xmm(1),
                   mem(disp=lbl("y")))
            a.emit("call", lbl(fn))

        def data(a):
            a.double("x", x)
            a.double("y", y)

        m = run(body, data, externs=(fn,))
        assert bits_to_f64(m.regs.xmm_lo(0)) == pytest.approx(expect,
                                                              rel=1e-15)

    def test_libm_domain_error_gives_nan(self):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("call", lbl("asin"))

        def data(a):
            a.double("x", 2.0)  # out of [-1, 1]

        m = run(body, data, externs=("asin",))
        assert math.isnan(bits_to_f64(m.regs.xmm_lo(0)))

    def test_unresolved_import_rejected_at_load(self):
        from repro.asm import Assembler

        a = Assembler()
        a.extern("no_such_function")
        a.label("main")
        a.emit("ret")
        with pytest.raises(MachineError):
            load_binary(a.assemble())
