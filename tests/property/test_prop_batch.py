"""Property: a batched run of N randomized lanes is bit-identical
per-lane to N scalar runs.

This is the soundness contract of the SoA batch engine
(:class:`repro.machine.batch.BatchMachine`): whatever mix of
parameters and stdin the lanes carry — including lanes that force
branch divergence, FPVM traps, contained machine errors, and watchdog
expiry — every lane must report exactly the stdout, exit code,
instruction/FP counts, modeled cycles, and final register file that a
scalar :meth:`Session.run` of the same configuration produces.  Mixed
arithmetic specs inside one batch are disallowed by construction (one
Session = one arithmetic); mixed stdin/params are the point.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.errors import MachineError
from repro.ieee.bits import f64_to_bits
from repro.session import LaneSpec, Session

# params poke data symbols; getchar consumes per-lane stdin; the loop
# bound and the x>2.0 branch make control flow data-dependent, so
# unequal lanes force divergence spills mid-batch
SRC = """
double scale;
double steps;
long main() {
    double x = 1.0;
    long c = getchar();
    long n = 0;
    while (c >= 0) { n = n + 1; x = x + (double)c; c = getchar(); }
    long limit = (long)steps;
    for (long i = 0; i < limit; i = i + 1) {
        x = x / scale + 1.0;
        if (x > 2.0) { x = x - 0.5; }
    }
    printf("%.17g %ld\\n", x, n);
    return n;
}
"""


def scalar_reference(arith, spec: LaneSpec):
    """Run one lane's configuration through the scalar interpreter."""
    s = Session(compile_source(SRC), arith)
    for name, val in (spec.params or {}).items():
        s.machine.memory.write(s.binary.symbols[name], 8,
                               f64_to_bits(float(val)))
    if spec.stdin:
        raw = spec.stdin
        s.machine.stdin = raw.encode() if isinstance(raw, str) else raw
    try:
        return s.run(spec.max_instructions,
                     max_cycles=spec.max_cycles), None
    except MachineError as exc:
        return None, exc


def assert_lane_matches(lane, ref, exc):
    if exc is not None:
        assert lane.error is not None, (
            f"scalar raised {type(exc).__name__} but lane completed")
        assert lane.error_type == type(exc).__name__
        assert lane.error == str(exc)
        return
    assert lane.error is None, f"lane failed: {lane.error}"
    assert lane.stdout == ref.stdout
    assert lane.exit_code == ref.exit_code
    assert lane.instr_count == ref.instr_count
    assert lane.fp_instr_count == ref.fp_instr_count
    assert lane.fp_traps == ref.fp_traps
    assert lane.cycles == ref.cycles
    assert lane.final_regs == ref.final_regs


lane_strategy = st.builds(
    LaneSpec,
    params=st.fixed_dictionaries({
        # scale=0.0 drives x to inf (a spill + SoftFPU path under
        # batch); tiny scales overflow toward the FP envelope edges
        "scale": st.sampled_from([0.5, 2.0, 3.0, 7.0, 0.0]),
        "steps": st.sampled_from([0.0, 1.0, 4.0, 9.0, 23.0]),
    }),
    stdin=st.binary(max_size=5),
    max_instructions=st.one_of(st.none(), st.integers(60, 600)),
)


@settings(max_examples=5, deadline=None)
@given(specs=st.lists(lane_strategy, min_size=2, max_size=5))
def test_batch_native_bit_identical(specs):
    batch = Session(compile_source(SRC), None).run_batch(specs)
    assert len(batch) == len(specs)
    for spec, lane in zip(specs, batch):
        ref, exc = scalar_reference(None, spec)
        assert_lane_matches(lane, ref, exc)


@settings(max_examples=3, deadline=None)
@given(specs=st.lists(lane_strategy, min_size=2, max_size=3))
def test_batch_fpvm_bit_identical(specs):
    """Under FPVM every FP-trapping site spills the lane to the scalar
    interpreter with full FPVM state — results must still match."""
    batch = Session(compile_source(SRC), "mpfr:80").run_batch(specs)
    for spec, lane in zip(specs, batch):
        ref, exc = scalar_reference("mpfr:80", spec)
        assert_lane_matches(lane, ref, exc)


class TestDirectedLanes:
    """Deterministic corners the random sweep may not always hit."""

    def test_divergence_heavy(self):
        specs = [LaneSpec(params={"scale": 3.0, "steps": float(k)})
                 for k in (0, 1, 2, 5, 11, 24)]
        batch = Session(compile_source(SRC), None).run_batch(specs)
        assert batch.spill_events > 0  # unequal loop bounds must spill
        for spec, lane in zip(specs, batch):
            ref, exc = scalar_reference(None, spec)
            assert_lane_matches(lane, ref, exc)

    def test_watchdog_expiry_per_lane(self):
        specs = [
            LaneSpec(params={"scale": 3.0, "steps": 20.0}),
            LaneSpec(params={"scale": 3.0, "steps": 20.0},
                     max_instructions=50),
            LaneSpec(params={"scale": 3.0, "steps": 20.0},
                     max_cycles=40.0),
        ]
        batch = Session(compile_source(SRC), None).run_batch(specs)
        assert batch[0].error is None
        assert batch[1].error_type == "WatchdogExpired"
        assert batch[2].error_type == "WatchdogExpired"
        for spec, lane in zip(specs, batch):
            ref, exc = scalar_reference(None, spec)
            assert_lane_matches(lane, ref, exc)

    def test_contained_error_lane(self):
        src = """
        double d;
        long main() {
            long q = 100 / (long)d;
            printf("%ld\\n", q);
            return q;
        }
        """
        specs = [LaneSpec(params={"d": 5.0}), LaneSpec(params={"d": 0.0}),
                 LaneSpec(params={"d": 7.0})]
        batch = Session(compile_source(src), None).run_batch(specs)
        assert batch[0].error is None and batch[2].error is None
        assert batch[1].error_type == "MachineError"
        assert "divide" in batch[1].error

    def test_mixed_stdin(self):
        specs = [LaneSpec(stdin=b"ab"), LaneSpec(stdin=b""),
                 LaneSpec(stdin=b"hello")]
        batch = Session(compile_source(SRC), None).run_batch(specs)
        for spec, lane in zip(specs, batch):
            ref, exc = scalar_reference(None, spec)
            assert_lane_matches(lane, ref, exc)

    def test_fpvm_trap_lanes(self):
        src = """
        double rho;
        double main() {
            double x = 1e-300;
            for (long i = 0; i < 12; i = i + 1) { x = x / rho; }
            printf("%.17g\\n", x);
            return 0.0;
        }
        """
        specs = [LaneSpec(params={"rho": 2.0 + i}) for i in range(3)]
        batch = Session(compile_source(src), "mpfr:200").run_batch(specs)
        assert batch.spilled_lanes == 3  # FP trap surface spills all
        for spec, lane in zip(specs, batch):
            s = Session(compile_source(src), "mpfr:200")
            s.machine.memory.write(s.binary.symbols["rho"], 8,
                                   f64_to_bits(spec.params["rho"]))
            ref = s.run()
            assert lane.fp_traps == ref.fp_traps
            assert_lane_matches(lane, ref, None)

    def test_kept_makers_with_lanes_that_differ(self):
        """Every lane carries its own shift count, array index and FP
        input, so the integer, FP-bitwise and sqrt makers and the
        varying-address memory paths run on unequal columns; only the
        1e300 lane leaves the batch, at the final branch."""
        src = """
        double x0;
        double kshift;
        double slot;
        long main() {
            double buf[8];
            long k = (long)kshift;
            long i = (long)slot;
            double x = x0;
            long acc = 0;
            for (long j = 0; j < 8; j = j + 1) { buf[j] = (double)j; }
            for (long r = 0; r < 4; r = r + 1) {
                buf[i] = buf[i] + sqrt(fabs(-x));
                acc = acc + ((r + 3) * (k + 5) << k)
                          + ((0 - 4096 * (r + 1)) >> k);
                i = (i + k) % 8;
                x = -x * 1.5;
            }
            if (x > 1e300) { acc = acc + 1; }
            printf("%.17g %.17g %ld %ld\\n", buf[0] + buf[3], x, acc, i);
            return acc % 100;
        }
        """
        binary = compile_source(src)
        assert {"shl", "sar", "imul", "lea", "xorpd", "andpd",
                "sqrtsd"} <= {ins.mnemonic for ins in binary.text}
        params = [{"x0": 0.25, "kshift": 1.0, "slot": 0.0},
                  {"x0": -3.5, "kshift": 2.0, "slot": 3.0},
                  {"x0": 7.0, "kshift": 3.0, "slot": 5.0},
                  {"x0": 1e300, "kshift": 1.0, "slot": 7.0},
                  {"x0": 2.0, "kshift": 5.0, "slot": 2.0},
                  {"x0": -0.0, "kshift": 7.0, "slot": 6.0}]
        batch = Session(binary, None).run_batch(
            [LaneSpec(params=p) for p in params])
        assert batch.spilled_lanes == 1
        assert batch.dispatches > 500
        for p, lane in zip(params, batch):
            ref = Session(compile_source(src), None, params=p).run()
            assert_lane_matches(lane, ref, None)
            assert lane.buckets == ref.buckets
