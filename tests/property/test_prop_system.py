"""System-level property tests: random programs through the whole
pipeline (compile → analyze → patch → FPVM) and GC liveness laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import VanillaArithmetic
from repro.compiler import compile_source
from repro.fpvm.gc import ConservativeGC
from repro.fpvm.nanbox import NaNBoxCodec
from repro.fpvm.shadow import ShadowStore
from conftest import asm_program
from repro.machine.loader import load_binary
from repro.session import Session


# --------------------------------------------------------------------------- #
# random expression programs: native == FPVM+Vanilla (the validation law)      #
# --------------------------------------------------------------------------- #

@st.composite
def fp_expr(draw, depth=0):
    """A random fpc double expression over variables a, b, c."""
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(
            ["a", "b", "c", "0.5", "2.0", "1.5", "0.1", "3.0"]))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    lhs = draw(fp_expr(depth=depth + 1))
    rhs = draw(fp_expr(depth=depth + 1))
    if op == "/":
        rhs = f"({rhs} * {rhs} + 0.25)"  # keep denominators positive
    fn = draw(st.sampled_from(["", "", "", "sqrt", "fabs", "-"]))
    body = f"({lhs} {op} {rhs})"
    if fn == "sqrt":
        return f"sqrt(fabs{body})"
    if fn == "-":
        return f"(-{body})"
    if fn == "fabs":
        return f"fabs{body}"
    return body


@given(fp_expr(),
       st.floats(min_value=-8, max_value=8,
                 allow_nan=False).map(lambda v: round(v, 3)),
       st.floats(min_value=-8, max_value=8,
                 allow_nan=False).map(lambda v: round(v, 3)),
       st.floats(min_value=0.1, max_value=8,
                 allow_nan=False).map(lambda v: round(v, 3)))
@settings(max_examples=40, deadline=None)
def test_random_expression_validates(expr, a, b, c):
    """For any random expression: native output == FPVM+Vanilla output,
    and the static patcher never breaks it."""
    src = f"""
    long main() {{
        double a = {a!r};
        double b = {b!r};
        double c = {c!r};
        double r = {expr};
        printf("%.17g\\n", r);
        printf("bits=%d\\n", __bits(r) & 4095);
        return 0;
    }}
    """
    native = Session(lambda: compile_source(src), None).run()
    virt = Session(lambda: compile_source(src), VanillaArithmetic()).run()
    assert virt.stdout == native.stdout


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_random_int_reduction_program(values):
    """Pure integer programs run identically with and without FPVM and
    produce Python-checkable results."""
    items = ", ".join(str(v) for v in values)
    src = f"""
    long data[{len(values)}] = {{ {items} }};
    long main() {{
        long s = 0;
        long mx = data[0];
        for (long i = 0; i < {len(values)}; i = i + 1) {{
            s = s + data[i];
            if (data[i] > mx) {{ mx = data[i]; }}
        }}
        printf("%d %d\\n", s, mx);
        return 0;
    }}
    """
    native = Session(lambda: compile_source(src), None).run()
    expect = f"{sum(values)} {max(values)}\n"
    assert native.stdout == expect
    virt = Session(lambda: compile_source(src), VanillaArithmetic()).run()
    assert virt.stdout == expect


# --------------------------------------------------------------------------- #
# GC liveness law                                                              #
# --------------------------------------------------------------------------- #

@given(st.sets(st.integers(min_value=0, max_value=63), max_size=20),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_gc_never_collects_reachable(live_slots, n_dead):
    """Shadow values referenced from writable memory survive any pass;
    everything else is collected."""
    def body(a):
        a.emit("nop")

    def data(a):
        a.space("arena", 64 * 8)

    m = load_binary(asm_program(body, data=data))
    base = m.binary.symbols["arena"]
    store = ShadowStore()
    codec = NaNBoxCodec()
    gc = ConservativeGC(store, codec)

    live = {}
    for slot in live_slots:
        h = store.alloc(float(slot))
        live[h] = float(slot)
        m.memory.write(base + 8 * slot, 8, codec.encode(h))
    dead = [store.alloc(-1.0) for _ in range(n_dead)]

    stats = gc.collect(m)
    assert stats.freed == n_dead
    for h, v in live.items():
        assert store.get(h) == v
    for h in dead:
        assert h in live or store.get(h) is None
