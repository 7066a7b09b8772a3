"""Trap-site JIT: compile hot trap sites to specialized closures (§4.2).

The trap-and-emulate path pays hardware fault delivery plus the full
decode→bind→emulate pipeline on *every* FP event.  The paper's binary
patching (§3.2/§4.2, e9patch-style call-site rewriting) exists to
erase exactly that round-trip: rewrite the hot site so it calls the
emulation directly.  This module is the simulator's equivalent — after
a site has trapped ``threshold`` times with a stable operand shape,
its predecoded interpreter step is replaced by a specialized closure
that inlines decode + bind + the alternative-arithmetic call and runs
straight from the dispatch loop.  No fault is delivered, no handler
dispatched, no cache probed: the site is "patched".

A compiled step mirrors the slow path exactly:

* non-boxed operands run the SoftFPU first and commit the hardware
  result when no exception flags were raised — identical to an
  untrapped execution;
* any raised flag (or any NaN-boxed operand, which is a signaling NaN
  and therefore *always* flags IE) falls into the inlined emulation:
  unbox → arith op → box, the same calls the trap handler makes.

Binop and sqrt sites all compile through one chain-kernel builder; a
lone site is a chain of length 1.  Consecutive patched sites writing
the same XMM register fuse into a *fused shadow kernel*: one closure
executes the whole run and carries
the intermediate result register-to-register as a live arithmetic
value — no NaN-box encode/decode and no ShadowStore allocation for the
temporaries (boxing elision), which is what slashes GC pressure.  Only
the final value of the chain is boxed.  Fusion requires the default
boxing policy: under ``box_exact_results=False`` intermediates would
have been demoted per instruction, changing downstream results for
wide arithmetics.

Degradation always wins: a recoverable fault inside a compiled closure
materializes the architectural state, invalidates the closure (the
interpreter step is restored), and runs the normal degradation ladder;
storm-demoted sites are never compiled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ArithmeticPortError, NanBoxError
from repro.faults.injector import InjectedFault
from repro.ieee.bits import (F64_DEFAULT_QNAN, F64_EXP_MASK, F64_QNAN_BIT,
                             is_nan64, quiet64)
from repro.isa.operands import Xmm
from repro.fpvm.binding import XmmLoc
from repro.fpvm.nanbox import PAYLOAD_MASK
from repro.machine.costmodel import instruction_cost
from repro.machine.predecode import _SCALAR_OPS, _f64_reader
from repro.trace.events import JitCompileEvent, JitHitEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpvm.decoder import DecodedInst
    from repro.fpvm.runtime import FPVM
    from repro.isa.instructions import Instruction
    from repro.machine.cpu import Machine

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: duplicated from runtime to avoid a circular import
_RECOVERABLE = (InjectedFault, ArithmeticPortError, NanBoxError)

_BINOPS = frozenset(["addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd"])

#: sentinel: "the chain-kernel state register holds no live value"
_NOVAL = object()


class JitSite:
    """One compiled trap site."""

    __slots__ = ("addr", "ins", "decoded", "kind", "arith_name",
                 "dst_index", "step", "hits", "fused_head")

    def __init__(self, ins: "Instruction", decoded: "DecodedInst",
                 kind: str) -> None:
        self.addr = ins.addr
        self.ins = ins
        self.decoded = decoded
        self.kind = kind                       # "binop" | "sqrt" | "ucomi"
        self.arith_name = decoded.arith_name
        self.dst_index = ins.operands[0].index
        self.step = None                       # the compiled closure
        self.hits = 0
        self.fused_head = None                 # addr of containing kernel


class TrapSiteJIT:
    """Per-run registry of compiled trap sites and fused kernels."""

    def __init__(self, fpvm: "FPVM", threshold: int) -> None:
        self.fpvm = fpvm
        self.threshold = threshold
        self.sites: dict[int, JitSite] = {}
        #: sites the static analysis proved box-free (pre-short-
        #: circuited like storm-demoted ones; set by apply_analysis)
        self.box_free_sites: frozenset[int] = frozenset()
        #: addr -> (stable-shape trap count, last decoded identity)
        self._counts: dict[int, tuple[int, object]] = {}
        #: head addr -> chain of sites in its fused kernel
        self.fused: dict[int, list[JitSite]] = {}

    # ------------------------------------------------------------------ #
    # trigger                                                             #
    # ------------------------------------------------------------------ #

    def note_trap(self, m: "Machine", ins: "Instruction",
                  decoded: "DecodedInst") -> None:
        """Count one serviced trap; compile the site at the threshold."""
        addr = ins.addr
        if (addr in self.sites or addr in self.fpvm._demoted_sites
                or addr in self.box_free_sites):
            return
        kind = self._classify(ins)
        if kind is None:
            return
        prev = self._counts.get(addr)
        # a stable operand shape means the same decoded template object
        # (DecodeCache is identity-keyed); a patched/replaced site
        # resets the count
        count = prev[0] + 1 if prev is not None and prev[1] is decoded else 1
        self._counts[addr] = (count, decoded)
        if count >= self.threshold:
            self._compile_site(m, ins, decoded, kind, count)

    @staticmethod
    def _classify(ins: "Instruction") -> str | None:
        mn = ins.mnemonic
        if len(ins.operands) != 2 or not isinstance(ins.operands[0], Xmm):
            return None
        if mn in _BINOPS:
            return "binop"
        if mn == "sqrtsd":
            return "sqrt"
        if mn in ("ucomisd", "comisd"):
            return "ucomi"
        return None

    # ------------------------------------------------------------------ #
    # compilation                                                         #
    # ------------------------------------------------------------------ #

    def _compile_site(self, m: "Machine", ins: "Instruction",
                      decoded: "DecodedInst", kind: str,
                      traps_seen: int) -> None:
        site = JitSite(ins, decoded, kind)
        if kind == "ucomi":
            site.step = self._make_ucomi_step(m, site)
        else:
            site.step = self._make_chain_kernel(m, [site])
        self.sites[site.addr] = site
        m.install_step(site.addr, site.step)
        self._counts.pop(site.addr, None)
        self.fpvm.stats.jit_sites_compiled += 1
        if self.fpvm.trace is not None:
            self.fpvm.trace.emit(JitCompileEvent(
                cycles=m.cost.cycles,
                addr=site.addr,
                mnemonic=ins.mnemonic,
                action="compile",
                traps_seen=traps_seen,
            ))
        if kind != "ucomi":
            self._try_fuse(m, site.addr)

    def _fault_exit(self, m: "Machine", site_addr: int,
                    ins: "Instruction", exc: BaseException) -> None:
        """Recoverable fault inside a compiled closure: tear down the
        closure, then run the normal degradation ladder."""
        fpvm = self.fpvm
        self.invalidate_site(m, site_addr,
                             f"{type(exc).__name__} at compiled site")
        fpvm._degrade(m, ins, getattr(exc, "stage", "emulate"), exc)
        fpvm.gc.maybe_collect(m)

    def _make_ucomi_step(self, m: "Machine", site: JitSite):
        """Compare site: writes flags, so it never joins a chain."""
        fpvm = self.fpvm
        em = fpvm.emulator
        arith = fpvm.arith
        ins = site.ins
        compare = arith.compare
        op_cycles = arith.op_cycles("compare")
        fpu_fn = (m.fpu.ucomi64 if ins.mnemonic == "ucomisd"
                  else m.fpu.comi64)
        lanes = m.regs.xmm[site.dst_index]
        rs = _f64_reader(m, ins.operands[1])
        regs = m.regs
        nxt = ins.next_addr
        record = m.mxcsr.record
        clear_flags = m.mxcsr.clear_flags
        is_box = fpvm.codec.is_box
        cost = m.cost
        buckets = cost.buckets
        C = instruction_cost(cost.platform, ins)
        check_c = cost.platform.jit_check_cycles
        emul_c = check_c + cost.platform.jit_emulate_cycles
        stats = fpvm.stats
        gc = fpvm.gc
        ops_emulated = em.ops_emulated
        trace = fpvm.trace
        addr = ins.addr
        mn = ins.mnemonic
        inj = fpvm.injector
        unbox = em.unbox

        def step():
            m.instr_count += 1
            cost.cycles += C
            buckets["base"] += C
            a = lanes[0]
            b = rs()
            m.fp_instr_count += 1
            if not (is_box(a) or is_box(b)):
                (zf, pf, cf), fl = fpu_fn(a, b)
                if not (fl and record(fl)):
                    regs.zf, regs.pf, regs.cf = zf, pf, cf
                    regs.of = 0
                    regs.sf = 0
                    regs.rip = nxt
                    cost.charge(check_c, "jit")
                    stats.jit_fast_path += 1
                    return
                clear_flags()
            try:
                if inj is not None:
                    inj.fire("emulate", mn)
                zf, pf, cf = compare(unbox(a), unbox(b)).to_rflags()
            except _RECOVERABLE as exc:
                self._fault_exit(m, addr, ins, exc)
                return
            regs.set_compare_flags(zf, pf, cf)
            ops_emulated["compare"] = ops_emulated.get("compare", 0) + 1
            cost.charge(emul_c, "jit")
            cost.charge(op_cycles, "emulate")
            regs.rip = nxt
            stats.jit_hits += 1
            site.hits += 1
            if trace is not None:
                trace.emit(JitHitEvent(cycles=cost.cycles, addr=addr,
                                       mnemonic=mn))
            gc.maybe_collect(m)
        return step

    # ------------------------------------------------------------------ #
    # fused shadow kernels                                                #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _fusible(p: JitSite, s: JitSite) -> bool:
        return (p.kind in ("binop", "sqrt") and s.kind in ("binop", "sqrt")
                and s.addr == p.ins.next_addr
                and s.dst_index == p.dst_index)

    def _try_fuse(self, m: "Machine", addr: int) -> None:
        """Fuse the maximal chain of adjacent patched sites around
        ``addr`` into one kernel, installed at the chain head."""
        if not self.fpvm.emulator.box_exact_results:
            return  # elision would skip per-instruction demotion
        site = self.sites.get(addr)
        if site is None or site.kind not in ("binop", "sqrt"):
            return
        by_next = {s.ins.next_addr: s for s in self.sites.values()}
        head = site
        while True:
            p = by_next.get(head.addr)
            if p is None or not self._fusible(p, head):
                break
            head = p
        chain = [head]
        while True:
            nx = self.sites.get(chain[-1].ins.next_addr)
            if nx is None or not self._fusible(chain[-1], nx):
                break
            chain.append(nx)
        if len(chain) < 2:
            return
        # displace any shorter kernels this chain subsumes
        for s in chain:
            if s.fused_head is not None:
                self._unfuse(m, s.fused_head)
        kernel = self._make_chain_kernel(m, chain)
        head_addr = chain[0].addr
        self.fused[head_addr] = chain
        for s in chain:
            s.fused_head = head_addr
        m.install_step(head_addr, kernel)
        self.fpvm.stats.jit_fused_kernels += 1
        if self.fpvm.trace is not None:
            self.fpvm.trace.emit(JitCompileEvent(
                cycles=m.cost.cycles,
                addr=head_addr,
                mnemonic=chain[0].ins.mnemonic,
                action="fuse",
                chain_len=len(chain),
            ))

    def _unfuse(self, m: "Machine", head_addr: int) -> None:
        """Tear one kernel down; members keep their individual steps."""
        chain = self.fused.pop(head_addr, None)
        if chain is None:
            return
        for s in chain:
            s.fused_head = None
        head_site = self.sites.get(head_addr)
        if head_site is not None:
            m.install_step(head_addr, head_site.step)

    def _make_chain_kernel(self, m: "Machine", chain: list[JitSite]):
        """Compile a chain of binop/sqrt sites on one destination
        register; a lone site is a chain of length 1.

        NaN-box tests are inline bit expressions and boxed operands are
        read straight from the store.  Each link memoizes the promotion
        of its last non-box operand bits (exact: bits → value is pure for
        non-box, non-NaN bits).  With a fault injector armed every link
        unboxes through ``Emulator.unbox`` so its hooks still fire.
        """
        fpvm = self.fpvm
        em = fpvm.emulator
        arith = fpvm.arith
        is_nan = arith.is_nan
        from_f64_bits = arith.from_f64_bits
        dst_index = chain[0].dst_index
        lanes = m.regs.xmm[dst_index]
        regs = m.regs
        record = m.mxcsr.record
        clear_flags = m.mxcsr.clear_flags
        dst_loc = XmmLoc(m, dst_index, 0)
        cost = m.cost
        buckets = cost.buckets
        check_c = cost.platform.jit_check_cycles
        emul_c = check_c + cost.platform.jit_emulate_cycles
        stats = fpvm.stats
        gc = fpvm.gc
        store_get = em.store.get
        box = em.box
        ops_emulated = em.ops_emulated
        trace = fpvm.trace
        inj = fpvm.injector
        last_nxt = chain[-1].ins.next_addr
        n = len(chain)
        fused = n > 1
        _EXP = F64_EXP_MASK
        _QBIT = F64_QNAN_BIT
        _PAY = PAYLOAD_MASK

        if inj is None:
            def unbox(bits, memo):
                # exact mirror of Emulator.unbox with no injector armed
                if (bits & _EXP) == _EXP and not bits & _QBIT and bits & _PAY:
                    v = store_get(bits & _PAY)
                    if v is not None:
                        em.unbox_hits += 1
                        return v
                    em.universal_nans += 1
                    return from_f64_bits(F64_DEFAULT_QNAN)
                if bits == memo[0]:
                    em.promotions += 1
                    return memo[1]
                if is_nan64(bits):
                    return from_f64_bits(quiet64(bits))
                em.promotions += 1
                v = from_f64_bits(bits)
                memo[0], memo[1] = bits, v
                return v
        else:
            em_unbox = em.unbox

            def unbox(bits, memo):
                return em_unbox(bits)

        links = []
        for s in chain:
            ins = s.ins
            unary = s.kind == "sqrt"
            fpu_fn = (m.fpu.sqrt64 if unary
                      else getattr(m.fpu, _SCALAR_OPS[ins.mnemonic]))
            src = ins.operands[1]
            # a source naming the destination reads the carried state
            rs = (None if isinstance(src, Xmm) and src.index == dst_index
                  else _f64_reader(m, src))
            links.append((
                s, ins.mnemonic, unary, fpu_fn, getattr(arith, s.arith_name),
                s.arith_name, rs, instruction_cost(m.cost.platform, ins),
                arith.op_cycles(s.arith_name), [None, None],
            ))
        links = tuple(links)

        def kernel():
            # state of the destination register, carried link to link:
            # either raw bits (sbits) or a live arith value (sval) —
            # the value form is the boxing elision
            sbits = lanes[0]
            sval = _NOVAL
            emulated = False
            for site, mn, unary, fpu_fn, afn, name, rs, C, opc, memo in links:
                m.instr_count += 1
                cost.cycles += C
                buckets["base"] += C
                m.fp_instr_count += 1
                # operand a is the carried state, except for a sqrt of an
                # independent source (the state is then dead: overwritten
                # without being read); a unary link sets b = a so the
                # box test needs no branch
                if unary and rs is not None:
                    a, aval = rs(), _NOVAL
                else:
                    a, aval = sbits, sval
                b = a if unary or rs is None else rs()
                if aval is _NOVAL:
                    if not ((a & _EXP) == _EXP and not a & _QBIT and a & _PAY
                            or (b & _EXP) == _EXP and not b & _QBIT
                            and b & _PAY):
                        r, fl = fpu_fn(a) if unary else fpu_fn(a, b)
                        if not (fl and record(fl)):
                            # no FP event: identical to an untrapped
                            # execution
                            sbits = r & _MASK64
                            sval = _NOVAL
                            cost.charge(check_c, "jit")
                            stats.jit_fast_path += 1
                            continue
                        clear_flags()
                    # a boxed operand is a signaling NaN: the FPU would
                    # flag IE unconditionally, so skipping it is exact
                else:
                    # intermediate stayed register-resident: no box was
                    # allocated, no unbox needed
                    stats.boxes_elided += 1
                try:
                    if inj is not None:
                        inj.fire("emulate", mn)
                    av = unbox(a, memo) if aval is _NOVAL else aval
                    if unary:
                        v = afn(av)
                    else:
                        v = afn(av, av if rs is None else unbox(b, memo))
                except _RECOVERABLE as exc:
                    if sval is _NOVAL:
                        lanes[0] = sbits
                    else:
                        box(dst_loc, sval)
                    self._fault_exit(m, site.addr, site.ins, exc)
                    return
                # emulated result: NaNs surface immediately as real NaN
                # bits (exactly Emulator.box's first branch); everything
                # else stays register-resident until the chain ends
                if is_nan(v):
                    sbits = F64_DEFAULT_QNAN
                    sval = _NOVAL
                else:
                    sval = v
                emulated = True
                ops_emulated[name] = ops_emulated.get(name, 0) + 1
                cost.charge(emul_c, "jit")
                cost.charge(opc, "emulate")
                stats.jit_hits += 1
                site.hits += 1
                if trace is not None:
                    trace.emit(JitHitEvent(
                        cycles=cost.cycles, addr=site.addr, mnemonic=mn,
                        fused=fused, chain_len=n))
            # commit: one box for the whole chain (or plain bits)
            if sval is not _NOVAL:
                box(dst_loc, sval)
            else:
                lanes[0] = sbits & _MASK64
            regs.rip = last_nxt
            if emulated:
                gc.maybe_collect(m)
        return kernel

    # ------------------------------------------------------------------ #
    # invalidation                                                        #
    # ------------------------------------------------------------------ #

    def invalidate_site(self, m: "Machine", addr: int,
                        reason: str = "") -> None:
        """Restore the interpreter step at ``addr``; tear down any
        fused kernel containing it and re-fuse the survivors."""
        site = self.sites.pop(addr, None)
        if site is None:
            return
        survivors: list[JitSite] = []
        if site.fused_head is not None:
            chain = self.fused.get(site.fused_head)
            self._unfuse(m, site.fused_head)
            if chain is not None:
                survivors = [s for s in chain if s.addr != addr]
        m.install_step(addr, None)
        self._counts.pop(addr, None)
        self.fpvm.stats.jit_invalidations += 1
        if self.fpvm.trace is not None:
            self.fpvm.trace.emit(JitCompileEvent(
                cycles=m.cost.cycles,
                addr=addr,
                mnemonic=site.ins.mnemonic,
                action="invalidate",
                reason=reason,
            ))
        for s in survivors:
            if s.fused_head is None:
                self._try_fuse(m, s.addr)

    def invalidate_all(self, m: "Machine", reason: str = "uninstall") -> None:
        for addr in list(self.sites):
            self.invalidate_site(m, addr, reason)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        stats = self.fpvm.stats
        return {
            "sites": len(self.sites),
            "fused_kernels": len(self.fused),
            "compiled": stats.jit_sites_compiled,
            "hits": stats.jit_hits,
            "fast_path": stats.jit_fast_path,
            "invalidations": stats.jit_invalidations,
            "boxes_elided": stats.boxes_elided,
            "patched_site_hit_rate": stats.patched_site_hit_rate,
        }
