"""Unit tests for the fpc compiler: lexer, parser, codegen semantics."""

import pytest

from repro.errors import CompileError
from repro.compiler import compile_source
from repro.compiler.lexer import tokenize
from repro.compiler.parser import parse
from repro.compiler import ast as A
from repro.machine.loader import load_binary


def run_src(src: str):
    m = load_binary(compile_source(src))
    m.run()
    return m


def out(src: str) -> str:
    return "".join(run_src(src).stdout)


class TestLexer:
    def test_tokens(self):
        toks = tokenize("double x = 1.5; // comment\nx = x + 2;")
        kinds = [t.kind for t in toks]
        assert kinds == ["kw", "ident", "=", "fnum", ";", "ident", "=",
                         "ident", "+", "num", ";", "eof"]

    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 0x10 1.5e-2")
        assert [t.value for t in toks[:-1]] == [1, 2.5, 1000.0, 16, 0.015]

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\tc\\"')
        assert toks[0].value == "a\nb\tc\\"

    def test_block_comment(self):
        toks = tokenize("a /* stuff \n more */ b")
        assert [t.value for t in toks[:-1]] == ["a", "b"]

    def test_operators_longest_match(self):
        toks = tokenize("a<<b <= c == d && e")
        assert [t.kind for t in toks[:-1]] == \
            ["ident", "<<", "ident", "<=", "ident", "==", "ident", "&&",
             "ident"]

    def test_errors(self):
        with pytest.raises(CompileError):
            tokenize('"unterminated')
        with pytest.raises(CompileError):
            tokenize("@")


class TestParser:
    def test_function_structure(self):
        prog = parse("long main() { return 0; }")
        assert len(prog.functions) == 1
        f = prog.functions[0]
        assert f.name == "main" and f.ret_type == "long"

    def test_globals(self):
        prog = parse("double g = 1.5; long arr[10]; double t[2] = {1.0, 2.0};")
        assert prog.globals[0].init == 1.5
        assert prog.globals[1].array_size == 10
        assert prog.globals[2].init == [1.0, 2.0]

    def test_precedence(self):
        prog = parse("long main() { long x = 1 + 2 * 3; return x; }")
        decl = prog.functions[0].body.stmts[0]
        assert isinstance(decl.init, A.BinOp) and decl.init.op == "+"
        assert decl.init.right.op == "*"

    def test_cast_vs_parens(self):
        prog = parse("long main() { long a = (long) 2.5; long b = (a); "
                     "return a + b; }")
        assert isinstance(prog.functions[0].body.stmts[0].init, A.Cast)

    def test_else_if_chain(self):
        parse("""
        long main() {
            if (1) { return 1; } else if (2) { return 2; } else { return 3; }
        }
        """)

    def test_bad_assignment_target(self):
        with pytest.raises(CompileError):
            parse("long main() { 1 = 2; }")


class TestExecution:
    def test_arith_and_return(self):
        assert run_src("long main() { return 2 + 3 * 4; }").exit_code == 14

    def test_double_arith(self):
        s = out('long main() { double x = 1.5 * 4.0 - 1.0; '
                'printf("%g\\n", x); return 0; }')
        assert s == "5\n"

    def test_division_and_modulo(self):
        assert run_src("long main() { return 17 / 5 + 17 % 5; }") \
            .exit_code == 5
        assert run_src("long main() { return -17 / 5; }").exit_code == -3

    def test_bitops_shifts(self):
        assert run_src("long main() { return (1 << 10) | 5 & 12 ^ 1; }") \
            .exit_code == 1024 | (5 & 12) ^ 1

    def test_comparisons_int(self):
        src = """
        long main() {
            long ok = 1;
            if (!(1 < 2)) { ok = 0; }
            if (2 <= 1) { ok = 0; }
            if (!(3 > 2)) { ok = 0; }
            if (!(2 >= 2)) { ok = 0; }
            if (1 == 2) { ok = 0; }
            if (!(1 != 2)) { ok = 0; }
            if (!(-1 < 1)) { ok = 0; }
            return ok;
        }
        """
        assert run_src(src).exit_code == 1

    def test_comparisons_double(self):
        src = """
        long main() {
            long ok = 1;
            double a = 1.5;
            double b = 2.5;
            if (!(a < b)) { ok = 0; }
            if (a > b) { ok = 0; }
            if (!(a <= a)) { ok = 0; }
            if (!(b >= b)) { ok = 0; }
            if (a == b) { ok = 0; }
            if (!(a != b)) { ok = 0; }
            return ok;
        }
        """
        assert run_src(src).exit_code == 1

    def test_nan_compare_semantics(self):
        """C semantics: all ordered comparisons with NaN are false,
        != is true."""
        src = """
        long main() {
            double nan = sqrt(-1.0);
            long ok = 1;
            if (nan < 1.0) { ok = 0; }
            if (nan > 1.0) { ok = 0; }
            if (nan == nan) { ok = 0; }
            if (!(nan != nan)) { ok = 0; }
            return ok;
        }
        """
        assert run_src(src).exit_code == 1

    def test_logical_short_circuit(self):
        src = """
        long count = 0;
        long bump() { count = count + 1; return 1; }
        long main() {
            long a = 0 && bump();
            long b = 1 || bump();
            return count * 10 + a + b;
        }
        """
        assert run_src(src).exit_code == 1  # bump never called

    def test_while_for_break_continue(self):
        src = """
        long main() {
            long s = 0;
            for (long i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 10) { break; }
                s = s + i;
            }
            long j = 0;
            while (1) { j = j + 1; if (j == 7) { break; } }
            return s * 100 + j;
        }
        """
        assert run_src(src).exit_code == (1 + 3 + 5 + 7 + 9) * 100 + 7

    def test_functions_and_recursion(self):
        src = """
        long fib(long n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        long main() { return fib(12); }
        """
        assert run_src(src).exit_code == 144

    def test_double_params_and_return(self):
        src = """
        double hyp(double a, double b) { return sqrt(a * a + b * b); }
        long main() { printf("%g\\n", hyp(3.0, 4.0)); return 0; }
        """
        assert out(src) == "5\n"

    def test_mixed_int_double_args(self):
        src = """
        double scale(double x, long k, double y) {
            return x * (double)k + y;
        }
        long main() { printf("%g\\n", scale(1.5, 4, 0.25)); return 0; }
        """
        assert out(src) == "6.25\n"

    def test_global_arrays(self):
        src = """
        double a[4];
        long idx[4] = { 3, 2, 1, 0 };
        long main() {
            for (long i = 0; i < 4; i = i + 1) { a[i] = (double)(i * i); }
            double s = 0.0;
            for (long i = 0; i < 4; i = i + 1) { s = s + a[idx[i]]; }
            printf("%g\\n", s);
            return 0;
        }
        """
        assert out(src) == "14\n"

    def test_local_arrays(self):
        src = """
        long main() {
            double buf[8];
            for (long i = 0; i < 8; i = i + 1) { buf[i] = (double)i * 0.5; }
            double s = 0.0;
            for (long i = 0; i < 8; i = i + 1) { s = s + buf[i]; }
            return (long)s;
        }
        """
        assert run_src(src).exit_code == 14

    def test_pointer_params(self):
        src = """
        void fill(double* p, long n) {
            for (long i = 0; i < n; i = i + 1) { p[i] = (double)(i + 1); }
        }
        double total(double* p, long n) {
            double s = 0.0;
            for (long i = 0; i < n; i = i + 1) { s = s + p[i]; }
            return s;
        }
        double data[5];
        long main() {
            fill(data, 5);
            return (long)total(data, 5);
        }
        """
        assert run_src(src).exit_code == 15

    def test_pointer_arithmetic_scales(self):
        src = """
        double data[4];
        long main() {
            data[2] = 9.0;
            double* p = data;
            double* q = p + 2;
            return (long)q[0];
        }
        """
        assert run_src(src).exit_code == 9

    def test_malloc_heap_arrays(self):
        src = """
        long main() {
            double* p = (double*)malloc(10 * 8);
            for (long i = 0; i < 10; i = i + 1) { p[i] = (double)i; }
            double s = 0.0;
            for (long i = 0; i < 10; i = i + 1) { s = s + p[i]; }
            free(p);
            return (long)s;
        }
        """
        assert run_src(src).exit_code == 45

    def test_casts(self):
        src = """
        long main() {
            double x = 2.9;
            long a = (long)x;
            double y = (double)a + 0.5;
            long b = (long)(-2.9);
            return a * 100 + (long)(y * 2.0) + b;
        }
        """
        assert run_src(src).exit_code == 200 + 5 - 2

    def test_unary_minus_uses_xorpd_idiom(self):
        binary = compile_source(
            "long main() { double x = 1.5; double y = -x; "
            "return (long)y; }")
        assert any(i.mnemonic == "xorpd" for i in binary.text)
        assert run_src(
            "long main() { double x = 1.5; double y = -x; "
            "return (long)(y * 2.0); }").exit_code == -3

    def test_fabs_uses_andpd_idiom(self):
        binary = compile_source(
            "long main() { double x = -2.0; return (long)fabs(x); }")
        assert any(i.mnemonic == "andpd" for i in binary.text)
        m = load_binary(binary)
        m.run()
        assert m.exit_code == 2

    def test_sqrt_inlined_to_sqrtsd(self):
        binary = compile_source(
            "long main() { return (long)sqrt(16.0); }")
        assert any(i.mnemonic == "sqrtsd" for i in binary.text)
        assert not binary.imports  # no libm call emitted

    def test_bits_intrinsics(self):
        from repro.ieee.bits import f64_to_bits

        src = """
        long main() {
            double x = 1.0;
            long b = __bits(x);
            double y = __double(b);
            printf("%d %.17g\\n", b == BITS1, y);
            return 0;
        }
        """.replace("BITS1", str(f64_to_bits(1.0)))
        assert out(src) == "1 1\n"

    def test_libm_calls(self):
        src = """
        long main() {
            printf("%.6f %.6f %.6f\\n", sin(1.0), pow(2.0, 8.0),
                   atan2(1.0, 1.0));
            return 0;
        }
        """
        assert out(src) == "0.841471 256.000000 0.785398\n"

    def test_scoping(self):
        src = """
        long main() {
            long x = 1;
            { long x = 2; }
            for (long i = 0; i < 3; i = i + 1) { }
            for (long i = 0; i < 4; i = i + 1) { x = x + i; }
            return x;
        }
        """
        assert run_src(src).exit_code == 1 + 0 + 1 + 2 + 3

    def test_truthiness_of_double(self):
        src = """
        long main() {
            double z = 0.0;
            double nz = 0.5;
            long r = 0;
            if (z) { r = r + 1; }
            if (nz) { r = r + 10; }
            while (z) { r = 1000; }
            return r;
        }
        """
        assert run_src(src).exit_code == 10

    def test_printf_string_arg(self):
        assert out('long main() { printf("%s=%d\\n", "x", 3); return 0; }') \
            == "x=3\n"


class TestCompileErrors:
    @pytest.mark.parametrize("src", [
        "long main() { return y; }",                      # undefined var
        "long main() { nofunc(); return 0; }",            # undefined call
        "long main() { double x = 1.0; return x & 1; }",  # & on double
        "long main() { break; }",                         # break outside
        "long f() { return 0; }",                         # no main
        "long main() { long x = 1; long x = 2; return x; }",  # dup in scope
        "double g; double g; long main() { return 0; }",  # dup global
        "long main() { double a[4]; a = 0.0; return 0; }",  # assign array
        "long main() { double x = 1.0; return x[0]; }",   # index non-array
    ])
    def test_rejected(self, src):
        with pytest.raises(CompileError):
            compile_source(src)
