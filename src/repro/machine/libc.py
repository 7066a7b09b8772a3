"""Built-in external functions: the simulated libc + libm.

Imports in a :class:`~repro.asm.program.Binary` resolve to synthetic
PLT addresses; the loader binds each to one of these native callables.
This layer is the simulated analogue of the dynamically linked libc and
libm — and therefore the exact surface FPVM interposes on with its
LD_PRELOAD shim (math wrapper + output wrapper, paper Figs. 4, 5, 8):
:mod:`repro.fpvm.runtime` *replaces* these bindings with wrappers that
promote/demote NaN-boxed values.

Calling convention (SysV AMD64 subset): integer args in rdi, rsi, rdx,
rcx, r8, r9; FP args in xmm0..xmm7; integer return in rax, FP return
in xmm0.
"""

from __future__ import annotations

import functools
import math
import re
from typing import TYPE_CHECKING, Callable

from repro.errors import MachineError
from repro.ieee.bits import F64_DEFAULT_QNAN, bits_to_f64, f64_to_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine

INT_ARGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

_ALIGN = 16


# --------------------------------------------------------------------------- #
# heap allocator (malloc/free/calloc)                                          #
# --------------------------------------------------------------------------- #

def _heap_state(m: "Machine") -> dict:
    st = getattr(m, "_libc_heap", None)
    if st is None:
        st = {"sizes": {}, "free": {}}
        m._libc_heap = st  # type: ignore[attr-defined]
    return st


def _malloc(m: "Machine", size: int) -> int:
    st = _heap_state(m)
    size = max((size + _ALIGN - 1) & ~(_ALIGN - 1), _ALIGN)
    bucket = st["free"].get(size)
    if bucket:
        addr = bucket.pop()
    else:
        heap = m.memory.segment_named("heap")
        addr = m.heap_brk
        if addr + size > heap.end:
            raise MachineError(f"out of heap memory (brk={addr:#x})")
        m.heap_brk = addr + size
    st["sizes"][addr] = size
    return addr


def libc_malloc(m: "Machine") -> None:
    size = m.regs.get_gpr("rdi")
    m.cost.charge(120, "base")
    m.regs.set_gpr("rax", _malloc(m, size))


def libc_calloc(m: "Machine") -> None:
    n = m.regs.get_gpr("rdi")
    sz = m.regs.get_gpr("rsi")
    total = n * sz
    m.cost.charge(150 + total // 16, "base")
    addr = _malloc(m, total)
    m.memory.write_bytes(addr, b"\x00" * total)
    m.regs.set_gpr("rax", addr)


def libc_free(m: "Machine") -> None:
    addr = m.regs.get_gpr("rdi")
    m.cost.charge(90, "base")
    if addr == 0:
        return
    st = _heap_state(m)
    size = st["sizes"].pop(addr, None)
    if size is None:
        raise MachineError(f"free of non-allocated pointer {addr:#x}")
    st["free"].setdefault(size, []).append(addr)


# --------------------------------------------------------------------------- #
# memory / string                                                              #
# --------------------------------------------------------------------------- #

def libc_memcpy(m: "Machine") -> None:
    dst = m.regs.get_gpr("rdi")
    src = m.regs.get_gpr("rsi")
    n = m.regs.get_gpr("rdx")
    m.cost.charge(30 + n // 8, "base")
    m.memory.write_bytes(dst, m.memory.read_bytes(src, n))
    m.regs.set_gpr("rax", dst)


def libc_memset(m: "Machine") -> None:
    dst = m.regs.get_gpr("rdi")
    c = m.regs.get_gpr("rsi") & 0xFF
    n = m.regs.get_gpr("rdx")
    m.cost.charge(30 + n // 8, "base")
    m.memory.write_bytes(dst, bytes([c]) * n)
    m.regs.set_gpr("rax", dst)


def libc_strlen(m: "Machine") -> None:
    s = m.memory.read_cstr(m.regs.get_gpr("rdi"))
    m.cost.charge(10 + len(s), "base")
    m.regs.set_gpr("rax", len(s))


# --------------------------------------------------------------------------- #
# output (printf family) — the paper's "printing problem" surface              #
# --------------------------------------------------------------------------- #

_FMT_RE = re.compile(
    r"%(?P<flags>[-+ 0#]*)(?P<width>\d+)?(?:\.(?P<prec>\d+))?"
    r"(?P<len>hh|h|ll|l|L|z)?(?P<conv>[diouxXeEfFgGcsp%])"
)


#: argument kinds of a printf conversion: an integer register, an XMM
#: register, or an integer register holding a guest string address
_GPR, _XMM, _STR = "gpr", "xmm", "str"


def _conversion(flags: str, width: str, prec: str | None, conv: str):
    """``(kind, render)`` of one conversion; ``render`` maps the argument
    value to its text."""
    if conv in "diu":
        spec = f"%{flags}{width}{'.' + prec if prec is not None else ''}d"
        if conv == "u":
            return _GPR, spec.__mod__
        return _GPR, lambda v: spec % (v - (1 << 64) if v >= 1 << 63 else v)
    if conv in "xX":
        spec = f"%{flags}{width}{conv}"
        if "#" not in flags:
            return _GPR, spec.__mod__
        # C prints a zero without the 0x prefix
        zero = f"%{flags.replace('#', '')}{width}{conv}"
        return _GPR, lambda v: (spec if v else zero) % v
    if conv == "o":
        if "#" not in flags:
            return _GPR, f"%{flags}{width}o".__mod__
        # C's '#' makes the first digit a zero, where Python would write
        # a 0o prefix: print one more digit than the value needs
        spec = f"%{flags.replace('#', '')}{width}.*o"
        return _GPR, lambda v: spec % (len(f"{v:o}") + 1 if v else 1, v)
    if conv == "p":
        return _GPR, "%#x".__mod__
    if conv == "c":
        return _GPR, lambda v: chr(v & 0xFF)
    if conv == "s":
        return _STR, "%s".__mod__
    # e E f F g G
    spec = f"%{flags}{width}.{prec if prec is not None else '6'}{conv}"
    w = int(width) if width else 0
    # a str argument is pre-rendered (FPVM's full-precision shadow printing)
    return _XMM, lambda v: v.rjust(w) if isinstance(v, str) else spec % v


@functools.lru_cache(maxsize=256)
def _printf_plan(fmt: str) -> tuple[str, tuple]:
    """Parse ``fmt`` once: ``(head, convs)``.

    ``head`` is the literal text before the first conversion; each of
    ``convs`` is ``(kind, render, tail)`` with ``tail`` the literal
    text up to the next conversion (``%%`` already folded in).
    """
    pieces: list[list[str]] = [[]]
    convs: list = []
    pos = 0
    for mobj in _FMT_RE.finditer(fmt):
        pieces[-1].append(fmt[pos : mobj.start()])
        pos = mobj.end()
        conv = mobj.group("conv")
        if conv == "%":
            pieces[-1].append("%")
            continue
        convs.append(_conversion(mobj.group("flags"), mobj.group("width") or "",
                                 mobj.group("prec"), conv))
        pieces.append([])
    pieces[-1].append(fmt[pos:])
    lits = ["".join(p) for p in pieces]
    return lits[0], tuple((*c, t) for c, t in zip(convs, lits[1:]))


def format_printf(fmt: str, int_args: list[int], fp_args: list[float]) -> str:
    """C-printf formatting against pre-fetched argument lists.

    ``int_args`` are consumed by integer/string/pointer conversions (a
    string conversion interprets the value as a guest address — the
    caller pre-resolves it to a host str and passes it in the list),
    ``fp_args`` by e/f/g conversions, matching how the SysV calling
    convention splits them across GPR and XMM registers.
    """
    head, convs = _printf_plan(fmt)
    out = [head]
    ii = fi = 0
    for kind, render, tail in convs:
        if kind is _XMM:
            v = fp_args[fi]
            fi += 1
        else:
            v = int_args[ii]
            ii += 1
        out.append(render(v))
        out.append(tail)
    return "".join(out)


def _printf_impl(m: "Machine", fp_decode: Callable[[int], float]) -> None:
    """Shared printf body; ``fp_decode`` maps xmm bits -> float value.

    The plain libc binding decodes bits as IEEE doubles — handing it a
    NaN-boxed value prints a NaN, which is exactly the "printing
    problem" (paper §2).  FPVM installs a wrapper whose ``fp_decode``
    demotes boxes first.
    """
    fmt = m.memory.read_cstr(m.regs.get_gpr("rdi"))
    m.cost.charge(1500 + 4 * len(fmt), "base")
    int_args: list = []
    fp_args: list = []
    for kind, _, _ in _printf_plan(fmt)[1]:
        if kind is _XMM:
            fp_args.append(fp_decode(m.regs.xmm_lo(len(fp_args))))
        else:  # rdi holds fmt
            v = m.regs.get_gpr(INT_ARGS[len(int_args) + 1])
            int_args.append(m.memory.read_cstr(v) if kind is _STR else v)
    text = format_printf(fmt, int_args, fp_args)
    m.stdout.append(text)
    m.regs.set_gpr("rax", len(text))


def libc_printf(m: "Machine") -> None:
    _printf_impl(m, lambda bits: bits_to_f64(bits))


def libc_puts(m: "Machine") -> None:
    s = m.memory.read_cstr(m.regs.get_gpr("rdi"))
    m.cost.charge(500 + len(s), "base")
    m.stdout.append(s + "\n")
    m.regs.set_gpr("rax", len(s) + 1)


def libc_putchar(m: "Machine") -> None:
    c = m.regs.get_gpr("rdi") & 0xFF
    m.cost.charge(200, "base")
    m.stdout.append(chr(c))
    m.regs.set_gpr("rax", c)


def libc_getchar(m: "Machine") -> None:
    """Next byte of the machine's stdin stream, or EOF (-1)."""
    m.cost.charge(150, "base")
    data = getattr(m, "stdin", b"")
    pos = getattr(m, "_stdin_pos", 0)
    if pos < len(data):
        m._stdin_pos = pos + 1  # type: ignore[attr-defined]
        m.regs.set_gpr("rax", data[pos])
    else:
        m.regs.set_gpr("rax", 0xFFFF_FFFF_FFFF_FFFF)  # (long)-1


def libc_fwrite(m: "Machine") -> None:
    """fwrite(ptr, size, nmemb, stream): raw serialization to stdout.

    Writes the raw bytes — under FPVM, NaN-boxed values serialize as
    their box bit patterns, demonstrating the "serialization problem"
    (paper §2) unless the static patcher demoted at the call site.
    """
    ptr = m.regs.get_gpr("rdi")
    size = m.regs.get_gpr("rsi")
    nmemb = m.regs.get_gpr("rdx")
    n = size * nmemb
    m.cost.charge(800 + n // 4, "base")
    data = m.memory.read_bytes(ptr, n)
    m.stdout.append(data.decode("latin-1"))
    m.regs.set_gpr("rax", nmemb)


# --------------------------------------------------------------------------- #
# process / misc                                                               #
# --------------------------------------------------------------------------- #

def libc_exit(m: "Machine") -> None:
    m.exit_code = m.regs.get_gpr("rdi") & 0xFFFF_FFFF
    m.halted = True


def libc_abort(m: "Machine") -> None:
    raise MachineError("abort() called")


def libc_rand(m: "Machine") -> None:
    """Deterministic LCG (PCG-lite) so simulations are reproducible."""
    state = getattr(m, "_rand_state", 0x853C49E6748FEA9B)
    state = (state * 6364136223846793005 + 1442695040888963407) & (
        (1 << 64) - 1
    )
    m._rand_state = state  # type: ignore[attr-defined]
    m.cost.charge(25, "base")
    m.regs.set_gpr("rax", (state >> 33) & 0x7FFF_FFFF)


def libc_srand(m: "Machine") -> None:
    m._rand_state = m.regs.get_gpr("rdi") or 1  # type: ignore[attr-defined]
    m.regs.set_gpr("rax", 0)


def libc_clock(m: "Machine") -> None:
    """rdtsc analogue: returns the cost model's cycle counter."""
    m.regs.set_gpr("rax", int(m.cost.cycles))


# --------------------------------------------------------------------------- #
# libm                                                                         #
# --------------------------------------------------------------------------- #

def _libm1(fn: Callable[[float], float], cycles: int):
    def impl(m: "Machine") -> None:
        x = bits_to_f64(m.regs.xmm_lo(0))
        m.cost.charge(cycles, "base")
        try:
            r = fn(x)
        except (ValueError, ZeroDivisionError):
            m.regs.set_xmm(0, F64_DEFAULT_QNAN, 0)
            return
        except OverflowError:
            r = math.inf if x > 0 else (math.inf if fn is math.cosh else -math.inf)
        m.regs.set_xmm(0, f64_to_bits(r), 0)

    return impl


def _libm2(fn: Callable[[float, float], float], cycles: int):
    def impl(m: "Machine") -> None:
        x = bits_to_f64(m.regs.xmm_lo(0))
        y = bits_to_f64(m.regs.xmm_lo(1))
        m.cost.charge(cycles, "base")
        try:
            r = fn(x, y)
        except (ValueError, ZeroDivisionError):
            m.regs.set_xmm(0, F64_DEFAULT_QNAN, 0)
            return
        except OverflowError:
            r = math.inf
        m.regs.set_xmm(0, f64_to_bits(r), 0)

    return impl


def _pow(x: float, y: float) -> float:
    if x == 0.0 and y == 0.0:
        return 1.0
    return math.pow(x, y)


#: name -> native implementation; the loader binds these to import addrs
BINDINGS: dict[str, Callable[["Machine"], None]] = {
    "malloc": libc_malloc,
    "calloc": libc_calloc,
    "free": libc_free,
    "memcpy": libc_memcpy,
    "memset": libc_memset,
    "strlen": libc_strlen,
    "printf": libc_printf,
    "puts": libc_puts,
    "putchar": libc_putchar,
    "getchar": libc_getchar,
    "fwrite": libc_fwrite,
    "exit": libc_exit,
    "abort": libc_abort,
    "rand": libc_rand,
    "srand": libc_srand,
    "clock": libc_clock,
    # libm — cycle costs are ballpark Agner-Fog-style latencies
    "sin": _libm1(math.sin, 60),
    "cos": _libm1(math.cos, 60),
    "tan": _libm1(math.tan, 90),
    "asin": _libm1(math.asin, 80),
    "acos": _libm1(math.acos, 80),
    "atan": _libm1(math.atan, 70),
    "sinh": _libm1(math.sinh, 90),
    "cosh": _libm1(math.cosh, 90),
    "tanh": _libm1(math.tanh, 90),
    "exp": _libm1(math.exp, 60),
    "log": _libm1(math.log, 60),
    "log2": _libm1(math.log2, 60),
    "log10": _libm1(math.log10, 60),
    "fabs": _libm1(math.fabs, 4),
    "floor": _libm1(math.floor, 8),
    "ceil": _libm1(math.ceil, 8),
    "sqrt": _libm1(math.sqrt, 30),
    "atan2": _libm2(math.atan2, 110),
    "pow": _libm2(_pow, 120),
    "fmod": _libm2(math.fmod, 40),
    "fmin": _libm2(min, 6),
    "fmax": _libm2(max, 6),
}

#: the subset of BINDINGS that are math functions FPVM must interpose.
#: sinh/cosh/tanh are deliberately left *uninterposed*: they exercise the
#: "externals" limitation (§2) — correctness relies on the static
#: patcher's call-site demotion rather than the math wrapper.
LIBM_FUNCTIONS = frozenset(
    n for n in BINDINGS
    if n in {
        "sin", "cos", "tan", "asin", "acos", "atan",
        "exp", "log", "log2", "log10", "fabs", "floor", "ceil", "sqrt",
        "atan2", "pow", "fmod", "fmin", "fmax",
    }
)

#: output functions FPVM must interpose (printing/serialization problems)
OUTPUT_FUNCTIONS = frozenset({"printf", "fwrite"})
