"""Unit tests for the SoA batch engine's public surface."""

import pytest

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
