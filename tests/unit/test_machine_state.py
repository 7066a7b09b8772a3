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
