"""Flat segmented byte-addressable memory.

Segments are non-overlapping ``(base, bytes)`` ranges; all addresses
fit comfortably below 2^32, which keeps every pointer inside the
51-bit payload a NaN-box can carry (paper §2, footnote 4).

The garbage collector's conservative scan (paper §4.1) reads writable
segments directly: ``ConservativeGC._scan_ranges`` in ``fpvm/gc.py``
names the live ranges it searches for words that decode as NaN-boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LaneDivergence, MemoryFault, UnknownSegment


@dataclass
class Segment:
    """One mapped memory range."""

    name: str
    base: int
    data: bytearray
    writable: bool = True

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end


class Memory:
    """Segmented memory with bounds- and permission-checked access."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self._last: Segment | None = None  # 1-entry segment cache

    # ------------------------------------------------------------------ #
    def map(self, name: str, base: int, size: int, *,
            writable: bool = True, data: bytes | None = None) -> Segment:
        """Map a new segment; ``data`` (if given) initializes its start."""
        if size <= 0:
            raise MemoryFault(base, size, "map with non-positive size")
        for seg in self.segments:
            if base < seg.end and seg.base < base + size:
                raise MemoryFault(base, size, f"overlap with {seg.name}")
        buf = bytearray(size)
        if data:
            buf[: len(data)] = data
        seg = Segment(name, base, buf, writable)
        self.segments.append(seg)
        self.segments.sort(key=lambda s: s.base)
        return seg

    def segment_for(self, addr: int, size: int = 1) -> Segment:
        seg = self._last
        if seg is not None and seg.contains(addr, size):
            return seg
        for seg in self.segments:
            if seg.contains(addr, size):
                self._last = seg
                return seg
        raise MemoryFault(addr, size)

    def segment_named(self, name: str) -> Segment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise UnknownSegment(name)

    # ------------------------------------------------------------------ #
    # scalar access (unsigned)                                            #
    # ------------------------------------------------------------------ #

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes little-endian as an unsigned integer."""
        # fast path: inline the 1-entry segment-cache hit
        seg = self._last
        if seg is None or addr < seg.base or addr + size - seg.base > len(seg.data):
            seg = self.segment_for(addr, size)
        off = addr - seg.base
        return int.from_bytes(seg.data[off : off + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write ``size`` low bytes of ``value`` little-endian."""
        seg = self._last
        if seg is None or addr < seg.base or addr + size - seg.base > len(seg.data):
            seg = self.segment_for(addr, size)
        if not seg.writable:
            raise MemoryFault(addr, size, "write to read-only segment")
        off = addr - seg.base
        try:
            # values are almost always already in range — skip the mask
            seg.data[off : off + size] = value.to_bytes(size, "little")
        except OverflowError:
            seg.data[off : off + size] = (
                value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read_bytes(self, addr: int, size: int) -> bytes:
        seg = self.segment_for(addr, size)
        off = addr - seg.base
        return bytes(seg.data[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        seg = self.segment_for(addr, len(data))
        if not seg.writable:
            raise MemoryFault(addr, len(data), "write to read-only segment")
        off = addr - seg.base
        seg.data[off : off + len(data)] = data

    def read_cstr(self, addr: int, maxlen: int = 1 << 16) -> str:
        """Read a NUL-terminated string (for printf/puts builtins)."""
        seg = self.segment_for(addr)
        off = addr - seg.base
        end = seg.data.find(b"\x00", off, off + maxlen)
        if end < 0:
            raise MemoryFault(addr, maxlen, "unterminated string")
        return seg.data[off:end].decode("latin-1")


# --------------------------------------------------------------------------- #
# struct-of-arrays batch memory                                                #
# --------------------------------------------------------------------------- #

_U64 = np.uint64
_M64 = 0xFFFF_FFFF_FFFF_FFFF


class BatchSegment:
    """One mapped range, laid out as ``(nwords, ncols)`` uint64 columns.

    Row-major (C) order keeps each aligned word's lane column
    contiguous, so a uniform-address access touches one cache-friendly
    row; the OS's lazy zero-page commit means a mostly-untouched 8 MiB
    heap times 64 lanes costs almost nothing in resident memory.
    ``nbytes`` is the byte-accurate mapped size (bounds checks use it,
    not the word-rounded backing array).
    """

    __slots__ = ("name", "base", "nbytes", "nwords", "words", "writable")

    def __init__(self, name: str, base: int, size: int, ncols: int, *,
                 data: bytes | None = None, writable: bool = True) -> None:
        self.name = name
        self.base = base
        self.nbytes = size
        self.nwords = (size + 7) >> 3
        self.words = np.zeros((self.nwords, ncols), _U64)
        self.writable = writable
        if data:
            pad = (-len(data)) % 8
            col = np.frombuffer(bytes(data) + b"\x00" * pad, "<u8")
            self.words[: len(col)] = col[:, None]

    @property
    def end(self) -> int:
        return self.base + self.nbytes


class BatchMemory:
    """Segmented SoA memory for n lockstep lanes.

    Physical columns are never reallocated: when lanes spill out of the
    batch, :attr:`cols` (active lane position -> physical column) is
    compacted instead, so an 8 MiB-per-lane heap is not copied on every
    divergence event.  Batch accessors raise
    :class:`~repro.errors.LaneDivergence` for lanes that fault or leave
    the vectorizable envelope; the per-lane ``lane_*`` accessors (used
    by the extern bindings and the spill transplant) raise the same
    :class:`MemoryFault` the scalar machine would.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.segments: list[BatchSegment] = []
        self.cols = np.arange(ncols, dtype=np.intp)

    @property
    def n(self) -> int:
        return len(self.cols)

    def compact(self, keep: np.ndarray) -> None:
        self.cols = self.cols[keep]

    # ------------------------------------------------------------------ #
    def map(self, name: str, base: int, size: int, *,
            writable: bool = True, data: bytes | None = None) -> BatchSegment:
        if size <= 0:
            raise MemoryFault(base, size, "map with non-positive size")
        for seg in self.segments:
            if base < seg.end and seg.base < base + size:
                raise MemoryFault(base, size, f"overlap with {seg.name}")
        seg = BatchSegment(name, base, size, self.ncols,
                           data=data, writable=writable)
        self.segments.append(seg)
        self.segments.sort(key=lambda s: s.base)
        return seg

    def segment_named(self, name: str) -> BatchSegment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise UnknownSegment(name)

    def _seg_scalar(self, addr: int, size: int) -> BatchSegment:
        """Segment for a uniform address; all lanes fault together."""
        for seg in self.segments:
            off = addr - seg.base
            if off >= 0 and off + size <= seg.nbytes:
                return seg
        raise LaneDivergence(np.ones(self.n, bool),
                             f"memory fault: {size} bytes at {addr:#x}")

    def _seg_array(self, addr: np.ndarray,
                   size: int) -> tuple[BatchSegment, np.ndarray]:
        """Majority segment for per-lane addresses.

        Returns ``(segment, offsets)``; lanes outside the majority
        segment (unmapped, or validly inside *another* segment — both
        are rare) are spilled via :class:`LaneDivergence` and complete
        on the scalar interpreter, which resolves each lane exactly.
        """
        best, best_in, best_count = None, None, -1
        for seg in self.segments:
            inside = (addr >= _U64(seg.base)) & (
                addr + _U64(size) <= _U64(seg.end))
            count = int(inside.sum())
            if count > best_count:
                best, best_in, best_count = seg, inside, count
        if best is None or best_count == 0:
            raise LaneDivergence(np.ones(self.n, bool),
                                 "memory fault: unmapped batch access")
        if best_count < len(addr):
            raise LaneDivergence(~best_in, "cross-segment/unmapped lanes")
        return best, addr - _U64(best.base)

    # ------------------------------------------------------------------ #
    # batch access — addr is a python int (uniform) or an (n,) uint64     #
    # ------------------------------------------------------------------ #

    def read(self, addr, size: int) -> np.ndarray:
        """Read ``size`` bytes per lane as an (n,) uint64 column."""
        cols = self.cols
        if isinstance(addr, np.ndarray):
            a0 = int(addr[0])
            if not np.count_nonzero(addr != _U64(a0)):
                addr = a0
            else:
                return self._read_varying(addr, size)
        seg = self._seg_scalar(addr, size)
        off = addr - seg.base
        w, sh = off >> 3, (off & 7) * 8
        row = seg.words[w]
        if sh == 0 and size == 8:
            return row[cols]
        nbits = 8 * size
        mask = _U64((1 << nbits) - 1)
        if sh + nbits <= 64:
            return (row[cols] >> _U64(sh)) & mask
        lo = row[cols] >> _U64(sh)
        hi = seg.words[w + 1][cols] << _U64(64 - sh)
        return (lo | hi) & mask

    def _read_varying(self, addr: np.ndarray, size: int) -> np.ndarray:
        seg, off = self._seg_array(addr, size)
        cols = self.cols
        w = (off >> _U64(3)).astype(np.intp)
        sub = (off & _U64(7)).astype(np.int64)
        if size == 8 and not sub.any():
            return seg.words[w, cols]
        nbits = 8 * size
        mask = _U64((1 << nbits) - 1)
        straddle = (sub * 8 + nbits) > 64
        vals = (seg.words[w, cols] >> (sub * 8).astype(_U64)) & mask
        if straddle.any():
            for i in np.nonzero(straddle)[0]:
                vals[i] = self.lane_read(int(cols[i]), int(addr[i]), size)
        return vals

    def check_write(self, addr, size: int) -> None:
        """Validate a write without committing it.

        Raises exactly the :class:`LaneDivergence` that :meth:`write`
        would, so batch closures can validate every store *before* they
        retire accounting — a closure must never raise after a partial
        commit (the driver retries the instruction with survivors).
        """
        if isinstance(addr, np.ndarray):
            a0 = int(addr[0])
            if not np.count_nonzero(addr != _U64(a0)):
                addr = a0
            else:
                seg, _ = self._seg_array(addr, size)
                if not seg.writable:
                    raise LaneDivergence(np.ones(self.n, bool),
                                         "write to read-only segment")
                return
        seg = self._seg_scalar(addr, size)
        if not seg.writable:
            raise LaneDivergence(
                np.ones(self.n, bool),
                f"write to read-only segment at {addr:#x}")

    def write(self, addr, size: int, value) -> None:
        """Write ``size`` low bytes per lane (scalar broadcast or column)."""
        cols = self.cols
        if isinstance(addr, np.ndarray):
            a0 = int(addr[0])
            if not np.count_nonzero(addr != _U64(a0)):
                addr = a0
            else:
                self._write_varying(addr, size, value)
                return
        seg = self._seg_scalar(addr, size)
        if not seg.writable:
            raise LaneDivergence(
                np.ones(self.n, bool),
                f"write to read-only segment at {addr:#x}")
        off = addr - seg.base
        w, sh = off >> 3, (off & 7) * 8
        if not isinstance(value, np.ndarray):
            value = _U64(int(value) & _M64)
        if sh == 0 and size == 8:
            seg.words[w][cols] = value
            return
        nbits = 8 * size
        mask = _U64((1 << nbits) - 1)
        v = value & mask
        if sh + nbits <= 64:
            hole = _U64(_M64 ^ (int(mask) << sh))
            row = seg.words[w]
            row[cols] = (row[cols] & hole) | (v << _U64(sh))
            return
        lo_bits = 64 - sh
        row = seg.words[w]
        row[cols] = (row[cols] & _U64((1 << sh) - 1)) | (v << _U64(sh))
        row2 = seg.words[w + 1]
        hole2 = _U64(_M64 ^ ((1 << (nbits - lo_bits)) - 1))
        row2[cols] = (row2[cols] & hole2) | (v >> _U64(lo_bits))

    def _write_varying(self, addr: np.ndarray, size: int, value) -> None:
        seg, off = self._seg_array(addr, size)
        if not seg.writable:
            raise LaneDivergence(np.ones(self.n, bool),
                                 "write to read-only segment")
        cols = self.cols
        w = (off >> _U64(3)).astype(np.intp)
        sub = (off & _U64(7)).astype(np.int64)
        if not isinstance(value, np.ndarray):
            value = np.full(self.n, int(value) & _M64, _U64)
        if size == 8 and not sub.any():
            seg.words[w, cols] = value
            return
        nbits = 8 * size
        mask = _U64((1 << nbits) - 1)
        straddle = (sub * 8 + nbits) > 64
        plain = ~straddle
        if plain.any():
            wi, ci = w[plain], cols[plain]
            sh = (sub[plain] * 8).astype(_U64)
            cur = seg.words[wi, ci]
            hole = ~(mask << sh)
            seg.words[wi, ci] = (cur & hole) | ((value[plain] & mask) << sh)
        if straddle.any():
            for i in np.nonzero(straddle)[0]:
                self.lane_write(int(cols[i]), int(addr[i]), size,
                                int(value[i]))

    # ------------------------------------------------------------------ #
    # per-lane access (extern bindings, parameter pokes, spill transplant)#
    # ------------------------------------------------------------------ #

    def _lane_seg(self, addr: int, size: int) -> BatchSegment:
        for seg in self.segments:
            off = addr - seg.base
            if off >= 0 and off + size <= seg.nbytes:
                return seg
        raise MemoryFault(addr, size)

    def lane_read(self, col: int, addr: int, size: int) -> int:
        seg = self._lane_seg(addr, size)
        off = addr - seg.base
        w0, w1 = off >> 3, (off + size - 1) >> 3
        chunk = seg.words[w0: w1 + 1, col].tobytes()
        lo = off - (w0 << 3)
        return int.from_bytes(chunk[lo: lo + size], "little")

    def lane_write(self, col: int, addr: int, size: int, value: int) -> None:
        seg = self._lane_seg(addr, size)
        if not seg.writable:
            raise MemoryFault(addr, size, "write to read-only segment")
        off = addr - seg.base
        w0, w1 = off >> 3, (off + size - 1) >> 3
        buf = bytearray(seg.words[w0: w1 + 1, col].tobytes())
        lo = off - (w0 << 3)
        buf[lo: lo + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little")
        seg.words[w0: w1 + 1, col] = np.frombuffer(bytes(buf), "<u8")

    def lane_read_bytes(self, col: int, addr: int, size: int) -> bytes:
        if size == 0:
            return b""
        seg = self._lane_seg(addr, size)
        off = addr - seg.base
        w0, w1 = off >> 3, (off + size - 1) >> 3
        chunk = seg.words[w0: w1 + 1, col].tobytes()
        lo = off - (w0 << 3)
        return chunk[lo: lo + size]

    def lane_write_bytes(self, col: int, addr: int, data: bytes) -> None:
        if not data:
            return
        seg = self._lane_seg(addr, len(data))
        if not seg.writable:
            raise MemoryFault(addr, len(data), "write to read-only segment")
        off = addr - seg.base
        w0, w1 = off >> 3, (off + len(data) - 1) >> 3
        buf = bytearray(seg.words[w0: w1 + 1, col].tobytes())
        lo = off - (w0 << 3)
        buf[lo: lo + len(data)] = data
        seg.words[w0: w1 + 1, col] = np.frombuffer(bytes(buf), "<u8")

    def lane_read_cstr(self, col: int, addr: int, maxlen: int = 1 << 16) -> str:
        """Read a NUL-terminated string, gathering word rows in doubling
        chunks until the NUL (not the rest of the segment)."""
        seg = self._lane_seg(addr, 1)
        off = addr - seg.base
        # the search window of the scalar read_cstr: bytes [lo, stop)
        w, lo = off >> 3, off & 7
        stop = lo + min(maxlen, seg.nbytes - off)
        buf = b""
        nwords = 8
        while True:
            seen = len(buf)
            buf += seg.words[w: w + nwords, col].tobytes()
            end = buf.find(b"\x00", max(seen, lo), stop)
            if end >= 0:
                return buf[lo:end].decode("latin-1")
            if len(buf) >= stop:
                raise MemoryFault(addr, maxlen, "unterminated string")
            w += nwords
            nwords *= 2

    def lane_segment_bytes(self, col: int, seg: BatchSegment) -> bytes:
        """Whole-segment byte image of one lane (spill transplant)."""
        return seg.words[:, col].tobytes()[: seg.nbytes]
