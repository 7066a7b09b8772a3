"""Every registry program runs wholly in SoA lockstep, bit-identical to
its scalar run.

The batch engine vectorizes only the instructions the fpc compiler
emits; anything else spills every lane to the scalar interpreter.  A
spill keeps the results exact, so only this test notices when the code
generator starts emitting an instruction the engine has no maker for:
``spilled_lanes`` turns non-zero and ``dispatches`` falls below the
instruction count.
"""

import pytest

from repro.session import LaneSpec, Session
from repro.workloads import WORKLOADS

LANES = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_registry_program_runs_in_lockstep(name):
    batch = Session(name, None, size="test").run_batch(
        [LaneSpec() for _ in range(LANES)])
    ref = Session(name, None, size="test").run()
    assert batch.spilled_lanes == 0
    assert batch.dispatches == ref.instr_count
    for lane in batch:
        assert lane.error is None, lane.error
        assert lane.stdout == ref.stdout
        assert lane.exit_code == ref.exit_code
        assert lane.instr_count == ref.instr_count
        assert lane.fp_instr_count == ref.fp_instr_count
        assert lane.fp_traps == ref.fp_traps
        assert lane.cycles == ref.cycles
        assert lane.buckets == ref.buckets
        assert lane.final_regs == ref.final_regs
