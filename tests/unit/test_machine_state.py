"""Unit tests for memory, register file, and MXCSR."""

import pytest

from repro.errors import MemoryFault
from repro.ieee.softfloat import Flags
from repro.machine.memory import Memory
from repro.machine.mxcsr import MXCSR
from repro.machine.regfile import RegFile


class TestMemory:
    def test_map_and_rw(self):
        m = Memory()
        m.map("seg", 0x1000, 0x100)
        m.write(0x1000, 8, 0xDEADBEEF)
        assert m.read(0x1000, 8) == 0xDEADBEEF
        m.write(0x10F8, 4, 0x12345678)
        assert m.read(0x10F8, 4) == 0x12345678

    def test_overlap_rejected(self):
        m = Memory()
        m.map("a", 0x1000, 0x100)
        with pytest.raises(MemoryFault):
            m.map("b", 0x10F0, 0x100)

    def test_unmapped_access_faults(self):
        m = Memory()
        m.map("a", 0x1000, 0x100)
        with pytest.raises(MemoryFault):
            m.read(0x2000, 8)
        with pytest.raises(MemoryFault):
            m.read(0x10FC, 8)  # straddles the end

    def test_readonly_write_faults(self):
        m = Memory()
        m.map("ro", 0x1000, 0x100, writable=False, data=b"abc")
        assert m.read_bytes(0x1000, 3) == b"abc"
        with pytest.raises(MemoryFault):
            m.write(0x1000, 1, 0)

    def test_byte_ops(self):
        m = Memory()
        m.map("a", 0, 64)
        m.write_bytes(8, b"hello\x00")
        assert m.read_cstr(8) == "hello"
        assert m.read_bytes(8, 5) == b"hello"

    def test_unterminated_cstr(self):
        m = Memory()
        m.map("a", 0, 16, data=b"x" * 16)
        with pytest.raises(MemoryFault):
            m.read_cstr(0)

    def test_segment_named(self):
        m = Memory()
        m.map("heap", 0x100, 16)
        assert m.segment_named("heap").base == 0x100
        with pytest.raises(KeyError):
            m.segment_named("nope")

    def test_little_endian(self):
        m = Memory()
        m.map("a", 0, 16)
        m.write(0, 4, 0x0403_0201)
        assert m.read_bytes(0, 4) == b"\x01\x02\x03\x04"


class TestSegmentCache:
    """``read``/``write`` keep the two most recently used segments."""

    @staticmethod
    def _layout():
        m = Memory()
        m.map("data", 0x1000, 0x100)
        m.map("heap", 0x2000, 0x100)
        m.map("stack", 0x8000, 0x100)
        m.map("rodata", 0x9000, 0x100, writable=False, data=b"\x07" * 8)
        return m

    def test_alternating_segments_read_back(self):
        m = self._layout()
        addrs = [0x1000, 0x80F8, 0x2010, 0x1008, 0x8000, 0x20F8, 0x10F8]
        for k in range(50):
            for i, a in enumerate(addrs):
                m.write(a, 8, (k << 8) | i)
            for i, a in enumerate(reversed(addrs)):
                assert m.read(a, 8) == (k << 8) | (len(addrs) - 1 - i)
        assert m.read(0x9000, 8) == 0x0707_0707_0707_0707

    def test_two_alternating_segments_skip_the_scan(self, monkeypatch):
        m = self._layout()
        m.write(0x1000, 8, 1)
        m.write(0x8000, 8, 2)
        calls = []
        scan = m.segment_for
        monkeypatch.setattr(m, "segment_for",
                            lambda *a: calls.append(a) or scan(*a))
        for _ in range(100):
            assert m.read(0x1000, 8) == 1
            m.write(0x8008, 8, 3)
            assert m.read(0x8000, 8) == 2
        assert calls == []

    @pytest.mark.parametrize("warm", [(), (0x10F0,), (0x10F0, 0x2000),
                                      (0x2000, 0x10F0)])
    def test_straddle_and_gap_fault_from_either_slot(self, warm):
        m = self._layout()
        for a in warm:  # put data in the first or the second cache slot
            m.read(a, 8)
        with pytest.raises(MemoryFault):
            m.read(0x10FC, 8)  # straddles the end of data
        with pytest.raises(MemoryFault):
            m.write(0x10FC, 8, 0)
        with pytest.raises(MemoryFault):
            m.read(0x0FFC, 8)  # starts below data
        with pytest.raises(MemoryFault):
            m.read(0x1800, 8)  # the gap between data and heap
        with pytest.raises(MemoryFault):
            m.write(0x1800, 8, 0)
        assert m.read(0x10F8, 8) == 0  # the last word of data still reads

    def test_adjacent_segments_do_not_merge(self):
        m = Memory()
        m.map("lo", 0x1000, 0x100)
        m.map("hi", 0x1100, 0x100)
        m.read(0x1000, 8)
        m.read(0x1100, 8)  # both segments now cached
        with pytest.raises(MemoryFault):
            m.read(0x10FC, 8)
        with pytest.raises(MemoryFault):
            m.write(0x10FC, 8, 0)

    @pytest.mark.parametrize("slot", ["last", "prev"])
    def test_readonly_write_faults_from_either_slot(self, slot):
        m = self._layout()
        m.read(0x9000, 8)
        if slot == "prev":
            m.read(0x1000, 8)
        with pytest.raises(MemoryFault):
            m.write(0x9000, 8, 0)
        assert m.read(0x9000, 8) == 0x0707_0707_0707_0707


class TestRegFile:
    def test_gpr_64(self):
        r = RegFile()
        r.set_gpr("rax", 0x1122334455667788)
        assert r.get_gpr("rax") == 0x1122334455667788

    def test_32bit_write_zero_extends(self):
        r = RegFile()
        r.set_gpr("rax", 0xFFFF_FFFF_FFFF_FFFF)
        r.set_gpr("eax", 0x1234)
        assert r.get_gpr("rax") == 0x1234

    def test_8bit_write_merges(self):
        r = RegFile()
        r.set_gpr("rax", 0xAABB)
        r.set_gpr("al", 0xCC)
        assert r.get_gpr("rax") == 0xAACC
        assert r.get_gpr("al") == 0xCC

    def test_16bit_read(self):
        r = RegFile()
        r.set_gpr("rax", 0x12345678)
        assert r.get_gpr("ax") == 0x5678

    def test_xmm_lanes(self):
        r = RegFile()
        r.set_xmm(3, 0x11, 0x22)
        assert r.xmm_lo(3) == 0x11 and r.xmm_hi(3) == 0x22
        r.set_xmm_lo(3, 0x33)
        assert (r.xmm_lo(3), r.xmm_hi(3)) == (0x33, 0x22)

    def test_compare_flags(self):
        r = RegFile()
        r.of = r.sf = 1
        r.set_compare_flags(1, 1, 1)
        assert (r.zf, r.pf, r.cf, r.of, r.sf) == (1, 1, 1, 0, 0)

    def test_snapshot(self):
        r = RegFile()
        r.set_gpr("rbx", 7)
        snap = r.snapshot()
        r.set_gpr("rbx", 9)
        assert snap["gpr"]["rbx"] == 7


class TestMXCSR:
    def test_default_masked(self):
        x = MXCSR()
        assert x.masks == Flags.ALL and x.flags == 0
        assert x.record(Flags.PE) == 0  # masked: no fault
        assert x.flags == Flags.PE  # but sticky

    def test_unmasked_faults(self):
        x = MXCSR()
        x.unmask_all()
        assert x.record(Flags.PE | Flags.IE) == Flags.PE | Flags.IE

    def test_sticky_accumulation(self):
        x = MXCSR()
        x.record(Flags.PE)
        x.record(Flags.IE)
        assert x.flags == Flags.PE | Flags.IE
        x.clear_flags()
        assert x.flags == 0

    def test_partial_masks(self):
        x = MXCSR()
        x.set_masks(Flags.ALL & ~Flags.IE)  # only invalid unmasked
        assert x.record(Flags.PE) == 0
        assert x.record(Flags.IE | Flags.PE) == Flags.IE

    def test_packed_value_roundtrip(self):
        x = MXCSR()
        x.flags = Flags.PE
        x.masks = Flags.IE | Flags.OE
        packed = x.value
        y = MXCSR()
        y.value = packed
        assert y.flags == Flags.PE and y.masks == Flags.IE | Flags.OE
