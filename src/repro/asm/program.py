"""Binary: the linked artifact of the simulated toolchain.

A ``Binary`` is what the loader maps, what the static analyzer reads,
and what the e9patch-equivalent rewrites.  It mirrors the parts of an
ELF executable that matter to FPVM:

* a text section of address-pinned instructions,
* one writable data section (data + bss merged),
* a symbol table and an import table (the "PLT" — calls to external
  library functions resolve to synthetic addresses the machine binds
  to built-in implementations, the simulated libc/libm),
* an entry symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.isa.instructions import Instruction

#: segment layout of the simulated process
IMPORT_BASE = 0x0030_0000
TEXT_BASE = 0x0040_0000
DATA_ALIGN = 0x1000
IMPORT_STRIDE = 16


@dataclass
class Binary:
    """A fully linked simulated executable."""

    text: list[Instruction]
    data: bytearray
    data_base: int
    symbols: dict[str, int]
    imports: dict[str, int]
    entry: int
    #: data symbols marked read-only (format strings etc.) — loader hint
    rodata_symbols: set[str] = field(default_factory=set)

    text_map: dict[int, Instruction] = field(init=False, repr=False)
    #: text address -> index of its instruction in ``text``
    _slots: dict[int, int] = field(init=False, repr=False)
    #: callbacks fired after replace_instruction (predecode recompiles)
    _patch_listeners: list = field(init=False, repr=False,
                                   default_factory=list)

    def __post_init__(self) -> None:
        self.text_map = {i.addr: i for i in self.text}
        self._slots = {ins.addr: n for n, ins in enumerate(self.text)}

    def add_patch_listener(self, fn) -> None:
        """Register ``fn(new_instruction)`` to run after each patch."""
        self._patch_listeners.append(fn)

    # ------------------------------------------------------------------ #
    @property
    def text_base(self) -> int:
        return self.text[0].addr if self.text else TEXT_BASE

    @property
    def text_end(self) -> int:
        return self.text[-1].next_addr if self.text else TEXT_BASE

    def instruction_at(self, addr: int) -> Instruction:
        try:
            return self.text_map[addr]
        except KeyError:
            raise AssemblyError(f"no instruction at {addr:#x}") from None

    def text_index(self, addr: int) -> int:
        """Index in ``text`` of the instruction at ``addr``."""
        try:
            return self._slots[addr]
        except KeyError:
            raise AssemblyError(f"no instruction at {addr:#x}") from None

    def content_hash(self) -> str:
        """Stable digest of the program content.

        Keyed on everything the static analyzer reads: instruction
        stream (patched sites hash their payload kind plus the
        displaced original), data image, symbol/import tables, and the
        entry point.  Two binaries with equal hashes get identical
        analysis reports, which is what lets matrix runs share one.
        """
        import hashlib

        h = hashlib.sha256()
        for ins in self.text:
            h.update(f"{ins.addr}:{ins.mnemonic}:{ins.operands!r}"
                     f":{ins.length}".encode())
            if ins.payload:
                kind = ins.payload.get("kind")
                orig = ins.payload.get("original")
                h.update(f":{kind}:{orig!r}".encode())
        h.update(bytes(self.data))
        h.update(repr(sorted(self.symbols.items())).encode())
        h.update(repr(sorted(self.imports.items())).encode())
        h.update(str(self.entry).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # patching support (e9patch stand-in)                                 #
    # ------------------------------------------------------------------ #

    def replace_instruction(self, addr: int, new: Instruction) -> Instruction:
        """Replace the instruction at ``addr`` in place (same length).

        Returns the displaced original.  Length preservation keeps all
        other addresses valid, mirroring how e9patch avoids control-flow
        recovery by never moving instructions.
        """
        old = self.instruction_at(addr)
        if new.length != old.length:
            raise AssemblyError(
                f"patch at {addr:#x} changes length {old.length}->{new.length}"
            )
        new = new.with_addr(addr)
        self.text[self._slots[addr]] = new
        self.text_map[addr] = new
        for fn in self._patch_listeners:
            fn(new)
        return old

    # ------------------------------------------------------------------ #
    def disassemble(self) -> str:
        """Human-readable listing (debugging / analysis reports)."""
        rev_syms = {}
        for name, a in self.symbols.items():
            rev_syms.setdefault(a, []).append(name)
        out: list[str] = []
        for ins in self.text:
            for name in rev_syms.get(ins.addr, ()):
                out.append(f"{name}:")
            out.append(f"  {ins}")
        return "\n".join(out)

    def function_symbols(self) -> dict[str, int]:
        """Symbols that point into the text section."""
        lo, hi = self.text_base, self.text_end
        return {n: a for n, a in self.symbols.items() if lo <= a < hi}
