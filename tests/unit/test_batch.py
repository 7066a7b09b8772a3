"""Unit tests for the SoA batch engine's public surface."""

import pytest

from conftest import RAX, RBX, RCX, RDI, RDX, RSI, XMM0, asm_program, imm, lbl, mem
from repro.errors import MachineError
from repro.machine.batch import BatchMachine, LaneSpec
from repro.session import Session
from repro.workloads import WORKLOADS


class TestBatchMachineSurface:
    def test_lane_count_and_stats(self):
        spec = WORKLOADS["lorenz"]
        bm = BatchMachine(spec.build("test"), [LaneSpec(), LaneSpec()])
        lanes = bm.run()
        assert len(lanes) == 2
        assert bm.dispatches > 0
        assert 0.0 <= bm.spill_rate <= 1.0

    def test_unknown_param_symbol_rejected(self):
        from repro.errors import MachineError

        spec = WORKLOADS["lorenz"]
        with pytest.raises(MachineError, match="unknown data symbol"):
            BatchMachine(spec.build("test"),
                         [LaneSpec(params={"nonexistent": 1.0})])

    def test_batchresult_iteration(self):
        batch = Session("lorenz", None, size="test").run_batch(
            [LaneSpec(label="a"), LaneSpec(label="b")])
        assert len(batch) == 2
        assert [lane.spec.label for lane in batch] == ["a", "b"]
        assert batch[1].spec.label == "b"
        assert batch.ok


class TestLockstepPrintf:
    """One printf call serves every lane; each lane must still see
    exactly its scalar run, whatever format and string it passes."""

    UNMAPPED = 0x10

    @staticmethod
    def program():
        def data(a):
            a.quad("fptr", 0)
            a.quad("sptr", 0)
            a.double("x", 0.1)
            a.asciiz("fmt_a", "a: %s %d %.17g\n")
            a.asciiz("fmt_b", "b: %s|%#x|%c|%e %%\n")
            a.asciiz("fmt_c", "c: %ld\n")
            a.asciiz("fmt_d", "d: done\n")
            a.asciiz("str1", "hello")
            a.asciiz("str2", "")

        def body(a):
            a.emit("mov", RDI, mem(disp=lbl("fptr")))
            a.emit("mov", RSI, mem(disp=lbl("sptr")))
            a.emit("mov", RDX, imm(255))
            a.emit("mov", RCX, imm(0x41))
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("call", lbl("printf"))
            a.emit("mov", RBX, RAX)
            a.emit("movabs", RDI, lbl("fmt_d"))
            a.emit("call", lbl("printf"))
            a.emit("add", RAX, RBX)

        return asm_program(body, data=data, externs=("printf",))

    def test_lanes_match_scalar_runs(self):
        binary = self.program()
        sym = binary.symbols
        bad = self.UNMAPPED
        params = [
            {"fptr": sym["fmt_a"], "sptr": sym["str1"], "x": 1.5},
            {"fptr": sym["fmt_b"], "sptr": sym["str2"], "x": -2.25},
            {"fptr": sym["fmt_a"], "sptr": sym["str2"], "x": 1e300},
            {"fptr": bad, "sptr": sym["str1"], "x": 0.5},
            {"fptr": sym["fmt_b"], "sptr": bad, "x": 0.5},
            {"fptr": sym["fmt_c"], "sptr": bad, "x": 3.0},
            {"fptr": sym["fmt_b"], "sptr": sym["str1"], "x": float("inf")},
        ]
        batch = Session(binary, None).run_batch(
            [LaneSpec(params=p) for p in params])
        assert batch.spilled_lanes == 0   # every call ran in lockstep
        assert batch[0].stdout == "a: hello 255 1.5\nd: done\n"
        assert batch[1].stdout == "b: |0xff|A|-2.250000e+00 %\nd: done\n"
        assert [lane.error_type or None for lane in batch] == [
            None, None, None, "MemoryFault", "MemoryFault", None, None]
        for p, lane in zip(params, batch):
            s = Session(binary, None, params=p)
            try:
                ref = s.run()
            except MachineError as exc:
                assert lane.error_type == type(exc).__name__
                assert lane.error == str(exc)
                assert lane.stdout == "".join(s.machine.stdout)
                assert lane.cycles == s.machine.cost.cycles
                assert lane.instr_count == s.machine.instr_count
                continue
            assert lane.error is None
            assert lane.stdout == ref.stdout
            assert lane.exit_code == ref.exit_code
            assert lane.instr_count == ref.instr_count
            assert lane.fp_instr_count == ref.fp_instr_count
            assert lane.cycles == ref.cycles
            assert lane.buckets == ref.buckets
            assert lane.final_regs == ref.final_regs

    def test_format_fault_charges_nothing(self):
        binary = self.program()
        sym = binary.symbols
        good = {"fptr": sym["fmt_c"], "sptr": 7}
        batch = Session(binary, None).run_batch([
            LaneSpec(params=good),
            LaneSpec(params={**good, "fptr": self.UNMAPPED}),
            LaneSpec(params={**good, "sptr": self.UNMAPPED,
                             "fptr": sym["fmt_a"]}),
        ])
        ok, fmt_fault, str_fault = batch
        # the charge is 1500 + 4 * len(fmt); the %s fault comes after it
        charge = 1500 + 4 * len("a: %s %d %.17g\n")
        assert fmt_fault.cycles + charge == str_fault.cycles
        assert fmt_fault.stdout == str_fault.stdout == ""
        assert ok.stdout == "c: 7\nd: done\n"
