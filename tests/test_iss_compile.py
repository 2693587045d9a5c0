"""Differential tests: threaded code (``Machine.run``) vs the
interpreter (``Machine.interpret``).

Threaded code must be **bit-identical** to the interpreter -- cycles,
instret, opcode counts, the whole profile, and final memory/registers
-- on every registered kernel, on randomly generated programs, and on
every error path.  These tests enforce that contract, the fused-block
length cap, and the batched-execution API built on top of it.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.compile import MAX_BLOCK_LEN, compiled_for
from repro.isa.machine import (Machine, MachineError, MachineFleet,
                               resolve_backend)


def snapshot(machine, result):
    """Full architectural + profile state of a finished machine."""
    profile = machine.profile
    return {
        "result": result,
        "cycles": machine.cycles,
        "instret": machine.instret,
        "pc": machine.pc,
        "opcode_counts": dict(machine.opcode_counts),
        "regs": list(machine.regs),
        "user_regs": dict(machine.user_regs),
        "mem": hashlib.sha256(machine.mem).hexdigest(),
        "total_cycles": profile.total_cycles,
        "instructions": profile.instructions,
        "local_cycles": dict(profile.local_cycles),
        "inclusive_cycles": dict(profile.inclusive_cycles),
        "call_edges": dict(profile.call_edges),
        "call_counts": dict(profile.call_counts),
    }


def run_both(source, entry, args, extensions=None, dcache=None,
             max_instructions=200_000_000, mem_size=1 << 16):
    """Run one program on the interpreter and on threaded code; return
    the two snapshots (interpreter first)."""
    program = assemble(source, extensions)
    snaps = []
    for execute in (Machine.interpret, Machine.run):
        machine = Machine(program, extensions, mem_size, dcache=dcache)
        try:
            result = execute(machine, entry, args,
                             max_instructions=max_instructions)
        except MachineError as exc:
            result = ("error", str(exc))
        snaps.append(snapshot(machine, result))
    return snaps


def assert_identical(source, entry, args, **kwargs):
    interp, compiled = run_both(source, entry, args, **kwargs)
    assert interp == compiled


@pytest.fixture
def both_paths(monkeypatch):
    """``both_paths(fn)`` calls ``fn`` with every ``Machine.run``
    patched to the interpreter, then again on threaded code, and
    returns both results (interpreter first)."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(Machine, "run", Machine.interpret)
            oracle = fn()
        return oracle, fn()
    return run


# ---------------------------------------------------------------------------
# Compilation: cache and fused-block cap
# ---------------------------------------------------------------------------

def _registered_kernels():
    """One instance of every kernel class, base and extended variants."""
    from repro.isa.kernels.aes_kernels import AesKernel
    from repro.isa.kernels.des_kernels import DesKernel
    from repro.isa.kernels.hash_kernels import Sha1Kernel
    from repro.isa.kernels.kasumi_kernels import KasumiKernel
    from repro.isa.kernels.md5_kernel import Md5Kernel
    from repro.isa.kernels.modexp_kernel import ModExpKernel
    from repro.isa.kernels.mpn_kernels import MpnKernels
    return [MpnKernels(), MpnKernels(4, 2), ModExpKernel(),
            ModExpKernel(4, 2), AesKernel(), AesKernel(extended=True),
            DesKernel(), DesKernel(extended=True), KasumiKernel(),
            Sha1Kernel(), Md5Kernel()]


class TestCompileCache:
    def test_resolve_backend_reports_threaded_code(self):
        assert resolve_backend() == "compiled"

    def test_compile_cache_reuses_programs(self):
        program = assemble("main:\n    addi r1, r1, 1\n    halt\n")
        assert compiled_for(program, None) is compiled_for(program, None)


class TestBlockCap:
    def test_no_kernel_block_exceeds_cap(self):
        for kernel in _registered_kernels():
            runner = kernel.runner
            ext = runner.extensions
            compiled = compiled_for(runner.program,
                                    ext if ext is not None and len(ext)
                                    else None)
            lengths = [blk[1] for blk in compiled.blocks if blk is not None]
            assert lengths and max(lengths) <= MAX_BLOCK_LEN, \
                type(kernel).__name__

    def test_straight_line_longer_than_cap(self):
        # Several cap-length splits, with memory ops straddling the
        # split points and a fault in the last fused block.
        lines = ["main:", "    li r8, 4096"]
        for i in range(3 * MAX_BLOCK_LEN + 7):
            if i % 9 == 4:
                lines.append(f"    sw r{1 + i % 5}, {4 * (i % 16)}(r8)")
            elif i % 9 == 7:
                lines.append(f"    lw r{1 + i % 6}, {4 * (i % 16)}(r8)")
            else:
                lines.append(f"    addi r{1 + i % 7}, r{1 + (i + 3) % 7}, "
                             f"{i}")
        source = "\n".join(lines + ["    halt"]) + "\n"
        program = assemble(source)
        blocks = [blk for blk in compiled_for(program).blocks if blk]
        assert len(blocks) > 3
        assert_identical(source, "main", [])
        assert_identical(source, "main", [],
                         max_instructions=2 * MAX_BLOCK_LEN + 3)
        faulting = source.replace(
            "    halt", "    li r9, 0x7FFFFFF0\n    lw r1, 0(r9)\n    halt")
        interp, compiled = run_both(faulting, "main", [])
        assert interp["result"][1].startswith("memory access out of range")
        assert interp == compiled


# ---------------------------------------------------------------------------
# Kernel-level parity (every registered kernel class)
# ---------------------------------------------------------------------------

class TestKernelParity:
    """Each kernel runner must return identical values, cycles, and
    (where exposed) profiles on the interpreter and on threaded code."""

    @staticmethod
    def _mpn_state_parity(both_paths, kernels, method, *args):
        """Run an mpn kernel op on an explicitly constructed machine so
        the full machine state can be compared, not just the return."""
        def run():
            machine = Machine(kernels.runner.program,
                              kernels.runner.extensions,
                              kernels.runner.mem_size)
            result = getattr(kernels, method)(*args, machine=machine)
            return snapshot(machine, result)

        oracle, compiled = both_paths(run)
        assert oracle == compiled

    def test_mpn_base_kernels(self, both_paths):
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels()
        prng = DeterministicPrng(0xD1FF)
        for n in (1, 3, 8):
            up, vp = prng.next_limbs(n), prng.next_limbs(n)
            v = prng.next_bits(32)
            self._mpn_state_parity(both_paths, kernels, "add_n", up, vp)
            self._mpn_state_parity(both_paths, kernels, "sub_n", up, vp)
            self._mpn_state_parity(both_paths, kernels, "mul_1", up, v)
            self._mpn_state_parity(both_paths, kernels, "addmul_1", vp, up, v)
            self._mpn_state_parity(both_paths, kernels, "submul_1", vp, up, v)
            self._mpn_state_parity(both_paths, kernels, "lshift", up, 1 + n)
        self._mpn_state_parity(both_paths, kernels, "divrem_qest",
                               0x12345678, 0x9ABCDEF0, 0xF0000001)

    def test_mpn_extended_kernels(self, both_paths):
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels(4, 2)
        prng = DeterministicPrng(0xE57)
        for n in (2, 7):
            up, vp = prng.next_limbs(n), prng.next_limbs(n)
            self._mpn_state_parity(both_paths, kernels, "add_n", up, vp)
            self._mpn_state_parity(both_paths, kernels, "addmul_1", vp,
                                   up, prng.next_bits(32))

    def test_modexp_kernel(self, both_paths):
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        kernel = ModExpKernel()

        def powm():
            value, cycles, profile = kernel.powm(
                0x1234567, 0x10001, 0xF0000001_F0000001)
            return (value, cycles, profile.total_cycles,
                    profile.instructions,
                    dict(profile.local_cycles),
                    dict(profile.inclusive_cycles),
                    dict(profile.call_edges),
                    dict(profile.call_counts))

        oracle, compiled = both_paths(powm)
        assert oracle == compiled

    def test_modexp_kernel_extended(self, both_paths):
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        kernel = ModExpKernel(4, 2)
        oracle, compiled = both_paths(
            lambda: kernel.powm(0xCAFE, 0x101, 0xD0000001_D0000001)[:2])
        assert oracle == compiled

    @pytest.mark.parametrize("case", ["aes", "des", "3des", "kasumi",
                                      "sha1", "md5"])
    def test_symmetric_and_hash_kernels(self, case, both_paths):
        block = bytes(range(8 if case in ("des", "3des") else 16))
        key16 = bytes(range(16))

        def run():
            if case == "aes":
                from repro.isa.kernels.aes_kernels import AesKernel
                return AesKernel().encrypt_block(block, key16)
            if case == "des":
                from repro.isa.kernels.des_kernels import DesKernel
                return DesKernel().crypt_block(block, key16[:8])
            if case == "3des":
                from repro.isa.kernels.des_kernels import DesKernel
                return DesKernel().crypt_3des_block(block, bytes(range(24)))
            if case == "kasumi":
                from repro.isa.kernels.kasumi_kernels import KasumiKernel
                return KasumiKernel().crypt_block(block, key16)
            if case == "sha1":
                from repro.isa.kernels.hash_kernels import Sha1Kernel
                return Sha1Kernel().compress(
                    [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                     0xC3D2E1F0], bytes(range(64)))
            from repro.isa.kernels.md5_kernel import Md5Kernel
            return Md5Kernel().compress(
                [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476],
                bytes(range(64)))

        oracle, compiled = both_paths(run)
        assert oracle == compiled

    def test_dcache_parity(self, both_paths):
        from repro.isa.cache import CacheConfig
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels()
        prng = DeterministicPrng(0xDCAC)
        up, vp = prng.next_limbs(6), prng.next_limbs(6)

        def run():
            machine = Machine(kernels.runner.program, None,
                              kernels.runner.mem_size,
                              dcache=CacheConfig(size_bytes=256,
                                                 line_bytes=16,
                                                 miss_penalty=9))
            result = kernels.add_n(up, vp, machine=machine)
            return snapshot(machine, result)

        oracle, compiled = both_paths(run)
        assert oracle == compiled


# ---------------------------------------------------------------------------
# Differential fuzzing on random programs
# ---------------------------------------------------------------------------

_ALU_RRR = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
            "slt", "sltu", "mul", "mulhu")
_ALU_RRI = ("addi", "subi", "andi", "ori", "xori", "slli", "srli",
            "srai", "sltui")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _random_program(draw):
    """Build a terminating random program: forward-only branches, a
    leaf helper reached by jal, and memory ops inside a scratch
    region."""
    body_len = draw(st.integers(2, 14))
    lines = ["main:", "    li r8, 8192"]
    regs = lambda: draw(st.integers(0, 7))   # r0..r7 data registers
    for i in range(body_len):
        lines.append(f"main_{i}:")
        kind = draw(st.integers(0, 5))
        if kind == 0:
            op = draw(st.sampled_from(_ALU_RRR))
            lines.append(f"    {op} r{regs()}, r{regs()}, r{regs()}")
        elif kind == 1:
            op = draw(st.sampled_from(_ALU_RRI))
            imm = draw(st.integers(0, 31)) if op.startswith(("sll", "srl", "sra")) \
                else draw(st.integers(-64, 64))
            lines.append(f"    {op} r{regs()}, r{regs()}, {imm}")
        elif kind == 2:
            lines.append(f"    li r{regs()}, {draw(st.integers(-100, 2**31))}")
        elif kind == 3:
            off = 4 * draw(st.integers(0, 30))
            if draw(st.booleans()):
                lines.append(f"    lw r{regs()}, {off}(r8)")
            else:
                lines.append(f"    sw r{regs()}, {off}(r8)")
        elif kind == 4:
            off = draw(st.integers(0, 120))
            if draw(st.booleans()):
                lines.append(f"    lb r{regs()}, {off}(r8)")
            else:
                lines.append(f"    sb r{regs()}, {off}(r8)")
        else:
            # Forward-only control flow keeps the program terminating.
            target = draw(st.integers(i + 1, body_len))
            label = f"main_{target}" if target < body_len else "main_end"
            if draw(st.booleans()):
                op = draw(st.sampled_from(_BRANCHES))
                lines.append(f"    {op} r{regs()}, r{regs()}, {label}")
            else:
                lines.append(f"    j {label}")
    lines.append("main_end:")
    if draw(st.booleans()):
        lines.append("    jal helper")
    lines.append("    halt")
    lines.append("helper:")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(_ALU_RRR))
        lines.append(f"    {op} r{regs()}, r{regs()}, r{regs()}")
    lines.append("    jr r14")
    return "\n".join(lines) + "\n"


class TestDifferentialFuzz:
    @given(st.data())
    @settings(max_examples=80)
    def test_random_programs_bit_identical(self, data):
        source = _random_program(data.draw)
        args = data.draw(st.lists(st.integers(0, 0xFFFFFFFF),
                                  min_size=0, max_size=4))
        assert_identical(source, "main", args)

    @given(st.data())
    @settings(max_examples=25)
    def test_random_programs_under_budget_pressure(self, data):
        """A tiny instruction budget must trap at the same instruction
        (same state) on the interpreter and on threaded code."""
        source = _random_program(data.draw)
        budget = data.draw(st.integers(1, 12))
        assert_identical(source, "main", [], max_instructions=budget)


# ---------------------------------------------------------------------------
# Error-path parity
# ---------------------------------------------------------------------------

class TestErrorParity:
    def test_budget_exceeded(self):
        source = "main:\n    addi r1, r1, 1\n    j main\n"
        assert_identical(source, "main", [], max_instructions=37)

    def test_pc_out_of_range(self):
        assert_identical("main:\n    addi r1, r1, 1\n", "main", [])

    def test_memory_fault(self):
        source = ("main:\n    li r2, 0x7FFFFFF0\n"
                  "    lw r1, 0(r2)\n    halt\n")
        assert_identical(source, "main", [])

    def test_memory_fault_mid_block(self):
        # The fault lands mid-way through a fused block: the repair
        # path must leave counts/cycles exactly as the interpreter.
        source = ("main:\n"
                  "    addi r1, r1, 5\n"
                  "    addi r2, r2, 6\n"
                  "    lw r3, 0(r6)\n"     # r6 = huge address from args
                  "    addi r4, r4, 7\n"
                  "    halt\n")
        assert_identical(source, "main", [0, 0, 0, 0, 0, 0x7FFFFFF0])

    def test_memory_fault_on_single_steps(self):
        # The block does not fit the budget, so it runs as single
        # steps; the fault must not be repaired as a fused-block fault.
        source = ("main:\n"
                  "    addi r1, r1, 5\n"
                  "    lw r3, 0(r6)\n"      # r6 = huge address from args
                  "    addi r4, r4, 7\n"
                  "    halt\n")
        interp, _ = run_both(source, "main", [0, 0, 0, 0, 0, 0x7FFFFFF0])
        assert interp["result"][0] == "error"
        assert_identical(source, "main", [0, 0, 0, 0, 0, 0x7FFFFFF0],
                         max_instructions=3)

    def test_unknown_opcode(self):
        # Assemble with an extension, run without it: the machine must
        # fault on the custom opcode identically on both paths.
        from repro.isa.custom import make_vaddc
        from repro.isa.extensions import ExtensionSet
        ext = ExtensionSet()
        ext.add(make_vaddc(2))
        program = assemble(
            "main:\n    addi r1, r1, 3\n    vaddc_2 r1, r2, r3\n    halt\n",
            ext)
        snaps = []
        for execute in (Machine.interpret, Machine.run):
            machine = Machine(program, None, 1 << 16)
            try:
                result = execute(machine, "main", [])
            except MachineError as exc:
                result = ("error", str(exc))
            snaps.append(snapshot(machine, result))
        assert snaps[0] == snaps[1]
        assert snaps[0]["result"][0] == "error"


# ---------------------------------------------------------------------------
# Bulk word access and batching
# ---------------------------------------------------------------------------

class TestBulkWords:
    def test_roundtrip_matches_per_word(self):
        program = assemble("main:\n    halt\n")
        machine = Machine(program, mem_size=1 << 12)
        words = [0, 1, 0xFFFFFFFF, 0x12345678, 0x80000000]
        machine.write_words(0x100, words)
        assert machine.read_words(0x100, len(words)) == words
        assert [machine.read_word(0x100 + 4 * i)
                for i in range(len(words))] == words

    def test_bounds_checked(self):
        program = assemble("main:\n    halt\n")
        machine = Machine(program, mem_size=1 << 12)
        with pytest.raises(MachineError):
            machine.write_words((1 << 12) - 4, [1, 2])
        with pytest.raises(MachineError):
            machine.read_words((1 << 12) - 4, 2)
        machine.write_words(0, [])
        assert machine.read_words(0, 0) == []


class TestBatching:
    SOURCE = ("main:\n"
              "    add r1, r1, r2\n"
              "    addi r1, r1, 1\n"
              "    halt\n")

    def test_run_batch_matches_fresh_runs(self):
        program = assemble(self.SOURCE)
        requests = [("main", [i, 2 * i]) for i in range(6)]
        batched = Machine(program, mem_size=1 << 12).run_batch(requests)
        singles = []
        for entry, args in requests:
            machine = Machine(program, mem_size=1 << 12)
            singles.append((machine.run(entry, args), machine.cycles))
        assert batched == singles

    def test_fleet_serial_matches_threaded(self):
        from repro.parallel import ThreadExecutor
        program = assemble(self.SOURCE)
        requests = [("main", [i, i + 1]) for i in range(8)]
        fleet = MachineFleet(program, mem_size=1 << 12)
        serial = fleet.run_batch(requests)
        with ThreadExecutor(3) as pool:
            threaded = fleet.run_batch(requests, executor=pool)
        assert serial == threaded

    def test_reset_machine_matches_fresh(self):
        program = assemble(self.SOURCE)
        reused = Machine(program, mem_size=1 << 12)
        reused.run("main", [5, 7])
        reused.reset()
        fresh = Machine(program, mem_size=1 << 12)
        results = (reused.run("main", [9, 11]),
                   fresh.run("main", [9, 11]))
        assert results[0] == results[1]
        assert snapshot(reused, results[0]) == snapshot(fresh, results[1])

    def test_kernel_batch_matches_singles(self):
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels()
        prng = DeterministicPrng(0xBA7C)
        requests = []
        for n in (2, 5):
            requests.append(("add_n", prng.next_limbs(n),
                             prng.next_limbs(n)))
            requests.append(("addmul_1", prng.next_limbs(n),
                             prng.next_limbs(n), prng.next_bits(32)))
            requests.append(("divrem_qest", prng.next_bits(31),
                             prng.next_bits(32),
                             prng.next_bits(32) | 0x80000000))
        batched = kernels.batch(requests)
        singles = [getattr(kernels, method)(*args)
                   for method, *args in requests]
        assert batched == singles
