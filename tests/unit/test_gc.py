"""Unit tests for the conservative bipartite mark-and-sweep GC."""

from repro.ieee.bits import f64_to_bits
from repro.fpvm.gc import ConservativeGC
from repro.fpvm.nanbox import NaNBoxCodec
from repro.fpvm.shadow import ShadowStore
from conftest import asm_program
from repro.machine.loader import load_binary


def make_machine(data_words: int = 8):
    def body(a):
        a.emit("nop")

    def data(a):
        a.space("buf", 8 * data_words)

    binary = asm_program(body, data=data)
    return load_binary(binary), binary


def make_gc(epoch_cycles: int = 1000):
    store = ShadowStore()
    codec = NaNBoxCodec()
    return ConservativeGC(store, codec, epoch_cycles=epoch_cycles), \
        store, codec


class TestCollect:
    def test_unreferenced_shadow_collected(self):
        gc, store, codec = make_gc()
        m, _ = make_machine()
        h = store.alloc(1.5)
        stats = gc.collect(m)
        assert stats.freed == 1 and store.get(h) is None

    def test_box_in_memory_keeps_shadow_alive(self):
        gc, store, codec = make_gc()
        m, b = make_machine()
        h = store.alloc(2.5)
        m.memory.write(b.symbols["buf"], 8, codec.encode(h))
        stats = gc.collect(m)
        assert stats.freed == 0 and store.get(h) == 2.5

    def test_box_in_xmm_register_is_root(self):
        gc, store, codec = make_gc()
        m, _ = make_machine()
        h = store.alloc(3.5)
        m.regs.set_xmm_hi(7, codec.encode(h))
        assert gc.collect(m).freed == 0
        assert store.get(h) == 3.5

    def test_box_in_gpr_is_root(self):
        """movq can park a box in a GPR — GPRs must be roots."""
        gc, store, codec = make_gc()
        m, _ = make_machine()
        h = store.alloc(4.5)
        m.regs.set_gpr("r13", codec.encode(h))
        assert gc.collect(m).freed == 0

    def test_box_on_live_stack_kept_dead_stack_freed(self):
        gc, store, codec = make_gc()
        m, _ = make_machine()
        live = store.alloc(1.0)
        dead = store.alloc(2.0)
        rsp = m.regs.get_gpr("rsp")
        m.memory.write(rsp, 8, codec.encode(live))      # above rsp: live
        m.memory.write(rsp - 64, 8, codec.encode(dead))  # below rsp: dead
        stats = gc.collect(m)
        assert store.get(live) == 1.0
        assert store.get(dead) is None
        assert stats.freed == 1

    def test_heap_scanned_only_to_brk(self):
        gc, store, codec = make_gc()
        m, _ = make_machine()
        h = store.alloc(9.0)
        # beyond the break: not program-reachable memory
        m.memory.write(m.heap_brk + 4096, 8, codec.encode(h))
        assert gc.collect(m).freed == 1

    def test_plain_doubles_not_mistaken_for_boxes(self):
        gc, store, codec = make_gc()
        m, b = make_machine()
        h = store.alloc(5.0)
        m.memory.write(b.symbols["buf"], 8, f64_to_bits(123.456))
        assert gc.collect(m).freed == 1  # value data didn't mark anything

    def test_multiple_pass_stats(self):
        gc, store, codec = make_gc()
        m, b = make_machine()
        for i in range(10):
            store.alloc(float(i))
        keep = store.alloc(99.0)
        m.memory.write(b.symbols["buf"], 8, codec.encode(keep))
        s1 = gc.collect(m)
        assert s1.alive_before == 11 and s1.freed == 10 and s1.alive_after == 1
        s2 = gc.collect(m)
        assert s2.freed == 0
        assert len(gc.passes) == 2
        summary = gc.summary()
        assert summary["passes"] == 2
        assert summary["freed"] == 10

    def test_collect_fraction_mostly_garbage(self):
        """Paper: >95% of shadow values are collected per pass."""
        gc, store, codec = make_gc()
        m, b = make_machine()
        for i in range(100):
            store.alloc(float(i))
        keep = store.alloc(-1.0)
        m.memory.write(b.symbols["buf"], 8, codec.encode(keep))
        gc.collect(m)
        assert gc.summary()["collect_fraction"] > 0.95


class TestStoresBetweenPasses:
    """Each pass sees the memory as it is now: stores made after a pass
    (scalar or bulk) are found by the next one."""

    def test_one_hot_page_in_a_1mib_image(self):
        """Every epoch over a 1 MiB data image rescans the whole image
        and the registers, and charges two cycles per word."""
        from repro.compiler import compile_source

        gc, store, codec = make_gc()
        m = load_binary(compile_source(
            "double big[131072]; long main() { big[7] = 0.5; return 0; }"))
        m.run()
        h = store.alloc(1.0)
        slot = m.binary.symbols["big"] + 64
        for _ in range(4):
            m.memory.write(slot, 8, codec.encode(h))
            s = gc.collect(m)
            assert (s.words_scanned, s.modeled_cycles) == (131_123, 262_246)
            assert s.freed == 0 and store.get(h) == 1.0

    def test_store_after_a_pass_is_seen(self):
        """Both a newly stored box and an overwritten one are seen."""
        gc, store, codec = make_gc()
        m, b = make_machine(data_words=64)
        buf = b.symbols["buf"]
        h1 = store.alloc(1.0)
        m.memory.write(buf, 8, codec.encode(h1))
        gc.collect(m)
        h2 = store.alloc(2.0)
        m.memory.write(buf + 16, 8, codec.encode(h2))
        s2 = gc.collect(m)
        assert s2.freed == 0
        assert store.get(h1) == 1.0 and store.get(h2) == 2.0
        # overwrite h1's slot with a plain double: next pass frees it
        m.memory.write(buf, 8, f64_to_bits(0.5))
        s3 = gc.collect(m)
        assert store.get(h1) is None and store.get(h2) == 2.0
        assert s3.freed == 1

    def test_write_bytes_store_is_seen(self):
        """Bulk writes (memcpy-style) go through write_bytes."""
        import struct
        gc, store, codec = make_gc()
        m, b = make_machine(data_words=64)
        buf = b.symbols["buf"]
        gc.collect(m)
        h = store.alloc(6.0)
        m.memory.write_bytes(buf + 24, struct.pack("<Q", codec.encode(h)))
        assert gc.collect(m).freed == 0
        assert store.get(h) == 6.0

    def test_on_sweep_reports_freed_handles(self):
        gc, store, codec = make_gc()
        m, b = make_machine()
        swept = []
        gc.on_sweep = lambda handles: swept.append(tuple(handles))
        keep = store.alloc(1.0)
        drop = store.alloc(2.0)
        m.memory.write(b.symbols["buf"], 8, codec.encode(keep))
        gc.collect(m)
        assert swept and drop in swept[0] and keep not in swept[0]
        swept.clear()
        gc.collect(m)               # nothing freed → callback not invoked
        assert swept == []


class TestSweepVsTraceRecording:
    """Regression: a GC sweep reclaiming shadow handles mid-trace-
    recording must abort the recording cleanly (never bake a stale
    handle into a compiled trace), and the runtime must notify the
    recorder *before* the BindCache flush."""

    @staticmethod
    def _loop_machine(n=64):
        from repro.isa.operands import Imm, Label, Reg

        def body(a):
            a.emit("mov", Reg("rcx"), Imm(n))
            a.label("loop")
            a.emit("dec", Reg("rcx"))
            a.emit("jne", Label("loop"))

        return load_binary(asm_program(body))

    @staticmethod
    def _traced(m):
        """Install an FPVM with the trace JIT on; return the tracer."""
        from repro.arith import VanillaArithmetic
        from repro.fpvm.runtime import FPVM, FPVMConfig

        fpvm = FPVM(VanillaArithmetic(), FPVMConfig(trace_jit_threshold=4))
        fpvm.install(m)
        return fpvm.tracejit

    def test_note_sweep_aborts_only_inflight_recording(self):
        tj = self._traced(self._loop_machine())
        tj.note_sweep([1, 2])               # idle: nothing to abort
        assert tj._abort_reason is None
        tj._recording = True
        tj.note_sweep([3])
        assert tj._abort_reason == "gc-sweep"

    def test_sweep_during_recording_discards_trace(self):
        """A step that triggers a sweep mid-recording aborts that
        recording; three strikes blacklist the loop, and the program
        still completes with the interpreter's exact result."""
        m = self._loop_machine(n=64)
        tj = self._traced(m)
        # make one loop-body step behave like it swept live handles
        addr = next(a for a, ins in m.binary.text_map.items()
                    if ins.mnemonic == "dec")
        original = m._code[addr]

        def sweeping_step():
            tj.note_sweep([7])
            original()

        sweeping_step._body = original._body
        sweeping_step._C = original._C
        m._code[addr] = sweeping_step
        m._blocks = {a: m._code[a] for a in m._code}
        m.run()
        assert m.halted and m.regs.get_gpr("rcx") == 0
        assert tj.stats.trace_record_aborts >= 3
        assert tj.stats.trace_loops_compiled == 0
        assert not tj.traces

    def test_runtime_notifies_recorder_on_sweep(self):
        from repro.arith import VanillaArithmetic
        from repro.fpvm.runtime import FPVM, FPVMConfig

        m = self._loop_machine()
        fpvm = FPVM(VanillaArithmetic(),
                    FPVMConfig(trace_jit_threshold=4))
        fpvm.install(m)
        assert fpvm.tracejit is not None
        seen = []
        fpvm.tracejit.note_sweep = seen.append
        fpvm.gc.on_sweep([5])
        assert seen == [[5]]


class TestEpochs:
    def test_maybe_collect_respects_epoch(self):
        gc, store, codec = make_gc(epoch_cycles=1000)
        m, _ = make_machine()
        m.cost.cycles = 500
        assert gc.maybe_collect(m) is None
        m.cost.cycles = 1500
        assert gc.maybe_collect(m) is not None
        # immediately after: epoch not yet elapsed again
        assert gc.maybe_collect(m) is None

    def test_gc_charges_model_cycles(self):
        gc, store, codec = make_gc()
        m, _ = make_machine()
        store.alloc(1.0)
        gc.collect(m)
        assert m.cost.buckets.get("gc", 0) > 0
