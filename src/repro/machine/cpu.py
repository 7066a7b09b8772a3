"""The simulated x64 process: architectural state plus its run loops.

One :class:`Machine` owns all architectural state (registers, memory,
MXCSR), runs the instructions :mod:`repro.machine.predecode` compiles
for it, charges the cost model, and delivers precise FP faults to a
registered handler — the role the hardware + Linux kernel + SIGFPE
path plays for the real FPVM.

FP fault precision: an FP instruction first computes its result and
MXCSR event flags via the soft FPU; if any unmasked event fired, the
fault is delivered *without committing the destination* and with RIP
still pointing at the faulting instruction — exactly the contract
trap-and-emulate needs (paper §4.1).  The instruction then retires
exactly once: the handler's re-execution (:meth:`Machine.execute`)
does not count it again.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import MachineError, UnhandledTrap, WatchdogExpired
from repro.ieee.softfloat import Flags, SoftFPU
from repro.isa.instructions import Instruction
from repro.isa.operands import Mem
from repro.asm.program import Binary
from repro.machine.costmodel import CostModel, Platform, R815
from repro.machine.memory import Memory
from repro.machine.mxcsr import MXCSR
from repro.machine.predecode import (Step, _block_at, compile_blocks,
                                     compile_instruction, compile_program,
                                     rebuild_blocks_around)
from repro.machine.regfile import RegFile
from repro.machine.traps import TrapFrame, TrapKind

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: sentinel return address: `ret` to this halts the machine
EXIT_ADDR = 0x000F_FFF0

#: default process layout
HEAP_BASE = 0x0100_0000
STACK_TOP = 0x0800_0000


class Machine:
    """A loaded simulated process plus the CPU that runs it."""

    def __init__(
        self,
        binary: Binary,
        *,
        platform: Platform = R815,
        heap_size: int = 8 << 20,
        stack_size: int = 1 << 20,
    ) -> None:
        self.binary = binary
        self.regs = RegFile()
        self.mxcsr = MXCSR()
        self.fpu = SoftFPU()
        self.cost = CostModel(platform)
        # seed the per-step bucket so compiled closures can use a plain
        # "+=" instead of a dict.get with default on every instruction
        self.cost.buckets["base"] = 0.0
        self.memory = Memory()

        data_size = max(len(binary.data), 8)
        self.memory.map("data", binary.data_base, data_size,
                        data=bytes(binary.data))
        self.memory.map("heap", HEAP_BASE, heap_size)
        self.memory.map("stack", STACK_TOP - stack_size, stack_size)
        self.heap_brk = HEAP_BASE  # bump pointer, managed by libc malloc

        #: import address -> native callable(machine)
        self.externs: dict[int, Callable[["Machine"], None]] = {}
        #: import address -> name (for trace events)
        self._extern_names = {addr: name
                              for name, addr in binary.imports.items()}
        #: trace sink (None = tracing off; set by Session / FPVM.install)
        self.trace = None
        #: dynamic soundness oracle (repro.analysis.oracle); host-side
        #: instrument, attached via set_oracle()
        self.oracle = None
        #: FPVM's SIGFPE handler; set by fpvm.runtime when installed
        self.fp_trap_handler: Callable[["Machine", TrapFrame], None] | None = None
        #: FPVM's correctness-trap (patched sink) handler
        self.correctness_handler: Callable[["Machine", TrapFrame], None] | None = None
        #: FPVM's patched-site handler (§3.2-3.4): a site's first
        #: execution, which builds its kernel
        self.patch_handler: Callable[["Machine", Instruction], None] | None = None
        #: trap-delivery deployment scenario (§6): user/kernel/hrt/pipeline
        self.delivery_scenario = "user"
        #: addr -> (instruction, kernel): FPVM's per-site kernels,
        #: built at each site's first trap (or first execution, for a
        #: patched site) and serving every later one.  An FP site's
        #: kernel takes the flags once _fp_event finds a fault pending
        #: and delivers it; a correctness or patched site's takes
        #: nothing and does the whole execution (predecode's
        #: _make_fpvm_trap / _make_fpvm_patch).  An entry serves only
        #: its own instruction: the original that a correctness or
        #: patched site re-executes shares the address.
        self.site_kernels: dict[int, tuple[Instruction, Callable]] = {}
        #: modeled-cycle watchdog: run() raises WatchdogExpired past this
        #: (None = off; set by Session.run / the chaos harness)
        self.cycle_watchdog: float | None = None
        #: tracing-JIT loop hook: called with the branch target after a
        #: backward direct branch is taken (None = no tracing JIT)
        self._loop_hook: Callable[[int], None] | None = None
        #: True only inside the uninstrumented block loop — the only
        #: loop whose dispatch the tracing JIT may bypass
        self._in_fast_loop = False

        self.halted = False
        self.exit_code = 0
        self.instr_count = 0
        self.fp_instr_count = 0      # dynamic MXCSR-consulting instructions
        self.fp_trap_count = 0       # delivered FP faults
        self.correctness_trap_count = 0
        self.stdout: list[str] = []
        #: byte stream consumed by the ``getchar`` extern (see libc)
        self.stdin: bytes = b""
        self._stdin_pos = 0

        # entry setup: push the exit sentinel, point rip at entry
        self.regs.set_gpr("rsp", STACK_TOP - 16)
        self.push(EXIT_ADDR)
        self.regs.rip = binary.entry

        # compile every text instruction into a specialized closure so
        # run() needs no string dispatch on the hot path, and fuse the
        # superblocks at the block leaders (compile_blocks); run()
        # builds any other entry's block at its first miss, so block
        # building stays out of run() on the common path.  Patching
        # (trap-and-patch, static patcher) swaps instructions after
        # load, so recompile the affected address on notify and drop
        # the blocks that contain it.
        self._code: dict[int, Step] = compile_program(self)
        self._blocks: dict[int, Step] = compile_blocks(self, self._code)
        #: id(instruction) -> (instruction, step) compiled for execute()
        self._reexec: dict[int, tuple[Instruction, Step]] = {}
        binary.add_patch_listener(
            lambda ins: self.install_step(ins.addr, None))

    def install_step(self, addr: int, step: Step | None) -> None:
        """Run ``step`` at ``addr`` from now on, or, with None, the step
        compiled from the binary's instruction there; the superblocks
        containing ``addr`` are dropped, and the next entry at each
        rebuilds it around the new step.  Serves binary
        patches and the trap-site JIT's compile, fuse, unfuse and
        invalidate."""
        if step is None:
            step = compile_instruction(self, self.binary.text_map[addr])
        self._code[addr] = step
        rebuild_blocks_around(self, addr)

    def set_oracle(self, oracle) -> None:
        """Attach (or detach, with None) a dynamic soundness oracle.

        Compiled steps bake the hook decision in at compile time, so
        attaching after construction recompiles the program with
        oracle probes threaded into each relevant instruction.  Site
        kernels hold the re-executed steps they were built with, so
        they go too: each site's next trap rebuilds its kernel.
        """
        self.oracle = oracle
        self._code = compile_program(self)
        self._blocks = compile_blocks(self, self._code)
        self._reexec.clear()
        self.site_kernels.clear()

    # ------------------------------------------------------------------ #
    # stack & operand plumbing                                            #
    # ------------------------------------------------------------------ #

    def push(self, value: int) -> None:
        rsp = (self.regs.get_gpr("rsp") - 8) & _MASK64
        self.regs.set_gpr("rsp", rsp)
        self.memory.write(rsp, 8, value)

    def pop(self) -> int:
        rsp = self.regs.get_gpr("rsp")
        v = self.memory.read(rsp, 8)
        self.regs.set_gpr("rsp", (rsp + 8) & _MASK64)
        return v

    def ea(self, m: Mem) -> int:
        a = m.disp
        if m.base is not None:
            a += self.regs.get_gpr(m.base)
        if m.index is not None:
            a += self.regs.get_gpr(m.index) * m.scale
        return a & _MASK64

    # ------------------------------------------------------------------ #
    # run loops                                                           #
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int | None = None) -> int:
        """Run until halt; returns the exit code.

        The instruction budget and the modeled-cycle watchdog
        (``cycle_watchdog``) both raise a typed
        :class:`~repro.errors.WatchdogExpired` instead of hanging —
        the safety valve a trap storm or emulation livelock needs.
        """
        budget = max_instructions if max_instructions is not None else -1
        cycle_cap = self.cycle_watchdog
        code_get = self._code.get
        regs = self.regs
        if budget > 0 or cycle_cap is not None:
            # stepping loop: one unfused step and one watchdog check
            # per instruction (the body of step(), inlined)
            while not self.halted:
                step = code_get(regs.rip)
                if step is None:
                    raise MachineError(
                        f"rip={regs.rip:#x}: no instruction")
                step()
                if budget > 0 and self.instr_count >= budget:
                    raise WatchdogExpired(
                        "instructions", budget,
                        f"instruction budget exhausted ({budget})"
                    )
                if cycle_cap is not None and self.cost.cycles > cycle_cap:
                    raise WatchdogExpired("cycles", cycle_cap)
            return self.exit_code
        block_get = self._blocks.get
        self._in_fast_loop = True
        try:
            while not self.halted:
                block = block_get(regs.rip)
                if block is None:
                    # not a leader: an indirect target, a trace side
                    # exit or a block install_step dropped — build once
                    rip = regs.rip
                    if rip not in self._code:
                        raise MachineError(f"rip={rip:#x}: no instruction")
                    block = _block_at(self, self._code, rip)
                    self._blocks[rip] = block
                block()
        finally:
            self._in_fast_loop = False
        return self.exit_code

    def step(self) -> None:
        """Run the instruction at ``rip``: one retirement, with fault
        delivery — the single-step hook for debuggers and tests."""
        step = self._code.get(self.regs.rip)
        if step is None:
            raise MachineError(f"rip={self.regs.rip:#x}: no instruction")
        step()

    def execute(self, ins: Instruction) -> None:
        """Re-execute ``ins`` from inside a trap or patch handler.

        Charges the cost of ``ins`` and runs its compiled semantics,
        fault delivery included, but does not retire it again: the
        step that trapped or reached the patch site already counted
        it.  The step is compiled once per Instruction object, never
        taken from ``_code[ins.addr]`` — the trap-site JIT replaces
        that entry.
        """
        step = self.reexec_step(ins)
        self.cost.charge(step._C, "base")
        step._body()

    def reexec_step(self, ins: Instruction) -> Step:
        """The step :meth:`execute` runs for ``ins``, compiled once per
        Instruction object."""
        entry = self._reexec.get(id(ins))
        if entry is None or entry[0] is not ins:
            entry = (ins, compile_instruction(self, ins))
            self._reexec[id(ins)] = entry
        return entry[1]

    # ------------------------------------------------------------------ #
    # FP event plumbing                                                   #
    # ------------------------------------------------------------------ #

    def _fp_event(self, ins: Instruction, flags: int) -> bool:
        """Record sticky flags; deliver a fault if unmasked.

        Returns True if a fault was delivered (instruction must NOT
        commit; the handler owns RIP).  When FPVM installed a site
        kernel for ``ins``, the kernel delivers the fault; otherwise
        the handler serves the site's first trap.
        """
        pending = self.mxcsr.record(flags)
        if not pending:
            return False
        entry = self.site_kernels.get(ins.addr)
        if entry is not None and entry[0] is ins:
            return entry[1](flags)
        self.fp_trap_count += 1
        self._charge_delivery()
        if self.fp_trap_handler is None:
            raise UnhandledTrap(
                f"unmasked FP exception {Flags.describe(pending)} at "
                f"{ins.addr:#x}: {ins}"
            )
        frame = TrapFrame(TrapKind.FP_EXCEPTION, ins.addr, ins, flags)
        self.fp_trap_handler(self, frame)
        return True

    def delivery_split(self) -> tuple[int, int]:
        """(hardware, kernel) cycles of one trap delivery under the
        current deployment scenario."""
        plat = self.cost.platform
        total = plat.scenario_delivery(self.delivery_scenario)
        hw = min(total, plat.hw_trap_cycles)
        return hw, total - hw

    def _charge_delivery(self, hw_bucket: str = "hw_delivery",
                         kernel_bucket: str = "kernel_delivery") -> None:
        hw, rest = self.delivery_split()
        self.cost.charge(hw, hw_bucket)
        self.cost.charge(rest, kernel_bucket)
