"""The shadow-value store: FPVM-side memory for promoted values (§4.1).

Every emulated instruction allocates a fresh cell ("Because FPVM must
maintain the illusion that the numbers the application is operating on
are values, not pointers, the NaN-boxed data must remain immutable…
every instruction allocates a new cell"), which is what creates the
garbage-collection pressure Fig. 10 measures.

The store is deliberately simple: a dict from integer handle to cell,
a free-list so handles stay small (they must fit 51 bits), and a mark
bit per cell for the conservative mark-and-sweep collector.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.fpvm.nanbox import MAX_HANDLE


class _Cell:
    __slots__ = ("value", "marked")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.marked = False


class ShadowStore:
    """Handle-addressed storage of alternative-arithmetic values."""

    def __init__(self) -> None:
        self._cells: dict[int, _Cell] = {}
        self._free: list[int] = []
        self._next = 1  # handle 0 reserved (would alias +inf when boxed)
        self.total_allocated = 0
        self.total_freed = 0
        #: handles reclaimed by the most recent :meth:`sweep` — consumed
        #: by the GC to invalidate caches keyed on (reusable!) handles
        self.last_swept: tuple[int, ...] = ()

    # ------------------------------------------------------------------ #
    def alloc(self, value: Any) -> int:
        """Store ``value`` in a fresh immutable cell; return its handle."""
        if self._free:
            handle = self._free.pop()
        else:
            handle = self._next
            if handle > MAX_HANDLE:
                raise MemoryError("shadow handle space exhausted")
            self._next += 1
        self._cells[handle] = _Cell(value)
        self.total_allocated += 1
        return handle

    def get(self, handle: int) -> Any | None:
        """Value for ``handle``, or None if no live cell (universal NaN)."""
        cell = self._cells.get(handle)
        return cell.value if cell is not None else None

    def contains(self, handle: int) -> bool:
        return handle in self._cells

    def free(self, handle: int) -> None:
        if self._cells.pop(handle, None) is not None:
            self._free.append(handle)
            self.total_freed += 1

    # ------------------------------------------------------------------ #
    # GC interface                                                        #
    # ------------------------------------------------------------------ #

    @property
    def live_count(self) -> int:
        return len(self._cells)

    def clear_marks(self) -> None:
        for cell in self._cells.values():
            cell.marked = False

    def mark(self, handle: int) -> bool:
        """Mark a handle if live; returns True if it was a live cell."""
        cell = self._cells.get(handle)
        if cell is None:
            return False
        cell.marked = True
        return True

    def sweep(self) -> int:
        """Free all unmarked cells; returns how many were collected."""
        dead = [h for h, c in self._cells.items() if not c.marked]
        for h in dead:
            del self._cells[h]
            self._free.append(h)
        self.total_freed += len(dead)
        self.last_swept = tuple(dead)
        return len(dead)

    def handles(self) -> Iterator[int]:
        return iter(self._cells.keys())
