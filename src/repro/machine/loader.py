"""Loader: map a Binary into a Machine and bind its imports to libc."""

from __future__ import annotations

from repro.errors import MachineError
from repro.asm.program import Binary
from repro.machine.costmodel import Platform, R815
from repro.machine.cpu import Machine
from repro.machine.libc import BINDINGS


def load_binary(
    binary: Binary,
    *,
    platform: Platform = R815,
    heap_size: int = 8 << 20,
    stack_size: int = 1 << 20,
) -> Machine:
    """Create a ready-to-run Machine for ``binary``.

    Every import must resolve to a built-in libc/libm implementation —
    the simulated dynamic linker refuses to lazy-bind.
    """
    m = Machine(binary, platform=platform, heap_size=heap_size,
                stack_size=stack_size)
    for name, addr in binary.imports.items():
        impl = BINDINGS.get(name)
        if impl is None:
            raise MachineError(f"unresolved import {name!r}")
        m.externs[addr] = impl
    return m
