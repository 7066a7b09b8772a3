"""Tests for the Session facade, FPVMConfig, and arith.from_spec."""

import pytest

from repro.arith import (
    AlternativeArithmetic,
    ArithSpecError,
    VanillaArithmetic,
    from_spec,
)
from repro.fpvm.runtime import FPVM, FPVMConfig
from repro.session import LaneSpec, Session
from repro.trace import RingBufferSink
from repro.workloads import WORKLOADS


class TestFromSpec:
    @pytest.mark.parametrize("spec,cls_name", [
        ("vanilla", "VanillaArithmetic"),
        ("mpfr:80", "BigFloatArithmetic"),
        ("adaptive:32:256", "AdaptiveBigFloatArithmetic"),
        ("posit:16:1", "PositArithmetic"),
        ("interval", "IntervalArithmetic"),
    ])
    def test_string_specs(self, spec, cls_name):
        arith = from_spec(spec)
        assert type(arith).__name__ == cls_name
        assert isinstance(arith, AlternativeArithmetic)

    def test_tuple_specs(self):
        assert type(from_spec(("mpfr", 80))).__name__ == "BigFloatArithmetic"
        assert type(from_spec(("vanilla",))).__name__ == "VanillaArithmetic"
        assert type(from_spec(("posit", 16, 1))).__name__ == "PositArithmetic"

    def test_defaults_applied(self):
        assert from_spec("mpfr").precision == 200
        assert from_spec("mpfr:80").precision == 80

    def test_passthrough_instance(self):
        a = VanillaArithmetic()
        assert from_spec(a) is a

    @pytest.mark.parametrize("bad", [
        "quad", "mpfr:abc", "posit:32:2:9", "", (), 42, ("quad", 1),
    ])
    def test_bad_specs_raise_typed_error(self, bad):
        with pytest.raises(ArithSpecError):
            from_spec(bad)

    def test_cli_parse_arith_exits(self):
        from repro.__main__ import parse_arith

        assert type(parse_arith("mpfr:80")).__name__ == "BigFloatArithmetic"
        with pytest.raises(SystemExit):
            parse_arith("quad")


class TestFPVMConfig:
    def test_config_object(self):
        cfg = FPVMConfig(mode="trap-and-patch", gc_epoch_cycles=1000,
                         box_exact_results=False, printf_shadow_digits=30)
        fpvm = FPVM(VanillaArithmetic(), cfg)
        assert fpvm.mode == "trap-and-patch"
        assert fpvm.gc.epoch_cycles == 1000
        assert fpvm.emulator.box_exact_results is False
        assert fpvm.printf_shadow_digits == 30
        assert fpvm.config is cfg

    def test_defaults(self):
        fpvm = FPVM(VanillaArithmetic())
        assert fpvm.mode == "trap-and-emulate"
        assert fpvm.gc.epoch_cycles == 5_000_000
        assert fpvm.emulator.box_exact_results is True
        assert fpvm.printf_shadow_digits is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            FPVM(VanillaArithmetic(), FPVMConfig(mode="jit"))

    def test_trace_threaded_through_layers(self):
        ring = RingBufferSink()
        fpvm = FPVM(VanillaArithmetic(), FPVMConfig(trace=ring))
        assert fpvm.trace is ring
        assert fpvm.emulator.trace is ring
        assert fpvm.gc.trace is ring
        assert fpvm.bind_cache.trace is ring


class TestSession:
    def test_workload_name_and_spec_string(self):
        res = Session("lorenz", "mpfr:80", size="test").run()
        assert res.exit_code == 0
        assert res.fp_traps > 0
        assert res.fpvm is not None
        assert "x=" in res.stdout

    def test_native_session(self):
        res = Session("lorenz", None, size="test").run()
        assert res.exit_code == 0
        assert res.fpvm is None
        assert res.fp_traps == 0

    def test_builder_and_arith_instance(self):
        spec = WORKLOADS["lorenz"]
        s = Session(lambda: spec.build("test"), VanillaArithmetic())
        res = s.run()
        assert res.exit_code == 0
        assert s.result is res

    def test_vanilla_matches_native(self):
        nat = Session("lorenz", None, size="test").run()
        van = Session("lorenz", "vanilla", size="test").run()
        assert van.stdout == nat.stdout

    def test_context_manager_closes_sink(self):
        class Closeable(RingBufferSink):
            closed = False

            def close(self):
                self.closed = True

        sink = Closeable()
        with Session("lorenz", None, size="test", trace=sink) as s:
            s.run()
        assert sink.closed

    def test_platform_by_name(self):
        res = Session("lorenz", None, size="test", platform="7220").run()
        assert res.machine.cost.platform.name == "7220"

    def test_run_meta_header(self):
        ring = RingBufferSink()
        Session("lorenz", "mpfr:80", size="test", trace=ring,
                label="hdr").run()
        meta = ring.events[0]
        assert type(meta).__name__ == "RunMetaEvent"
        assert meta.label == "hdr"
        assert meta.arith == "mpfr80"
        assert meta.mode == "trap-and-emulate"
        assert len(meta.fp_sites) > 0


class TestRunBatch:
    """The batch-first surface: run() is the N=1 case of run_batch()."""

    def test_single_lane_matches_scalar(self):
        scalar = Session("lorenz", None, size="test").run()
        batch = Session("lorenz", None, size="test").run_batch([LaneSpec()])
        assert len(batch) == 1
        lane = batch[0]
        assert lane.stdout == scalar.stdout
        assert lane.exit_code == scalar.exit_code
        assert lane.instr_count == scalar.instr_count
        assert lane.fp_instr_count == scalar.fp_instr_count
        assert lane.cycles == scalar.cycles
        assert lane.final_regs == scalar.final_regs

    def test_dict_specs_and_result_surface(self):
        batch = Session("lorenz", None, size="test").run_batch(
            [{}, {"label": "b"}])
        assert batch.ok
        assert [lane.exit_code for lane in batch] == [0, 0]
        assert batch.dispatches > 0
        assert 0.0 <= batch.spill_rate <= 1.0

    def test_seeded_lorenz_sweep_never_spills(self):
        """64 lanes of a lorenz sweep over rho stay in lockstep to the
        end: no lane leaves the batch for the scalar interpreter."""
        from repro.compiler import compile_source
        from repro.workloads import lorenz

        binary = compile_source(lorenz.SOURCE_TEMPLATE.format(
            steps=1000, dt=0.005, sample=1000))
        batch = Session(binary, None).run_batch(
            [LaneSpec(params={"rho": 20.0 + 0.125 * i}) for i in range(64)])
        assert batch.ok
        assert batch.spilled_lanes == 0

    def test_oracle_rejected(self):
        from repro.analysis.oracle import SoundnessOracle
        from repro.errors import MachineError

        s = Session("lorenz", None, size="test",
                    oracle=SoundnessOracle(fpvm=None))
        with pytest.raises(MachineError):
            s.run_batch([LaneSpec()])

    def test_batch_event_emitted(self):
        ring = RingBufferSink()
        Session("lorenz", None, size="test", trace=ring).run_batch(
            [LaneSpec(), LaneSpec()])
        kinds = [type(e).__name__ for e in ring.events]
        assert "BatchEvent" in kinds
        ev = next(e for e in ring.events
                  if type(e).__name__ == "BatchEvent")
        assert ev.lanes == 2
        assert ev.dispatches > 0
