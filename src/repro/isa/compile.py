"""Threaded-code compiler for the XT32 instruction-set simulator.

The interpreter (:meth:`repro.isa.machine.Machine.interpret`)
re-decodes every instruction on every execution: one trip through a
~35-way if/elif chain, tuple indexing for operands, an immediate
re-mask, a dcache presence test, and dict updates per step.
:meth:`~repro.isa.machine.Machine.run` avoids all of that by
*predecoding*: :func:`compile_program` translates an assembled
:class:`~repro.isa.assembler.Program` once into threaded code -- one
generated Python function per straight-line run, with operand
indices, masked immediates, cycle costs, branch targets, extension
semantics, and zero-register handling inlined, returning the next pc:

1. **Fused basic blocks (superinstructions)** -- runs between branch
   targets and control transfers, amortizing the dispatch loop, the
   instruction-budget check, and per-instruction counting over the
   whole block.  Executed-instruction histograms are recovered from one
   counter per block via a precomputed per-block opcode histogram.
   Each block is compiled as its own code object, and blocks are capped
   at :data:`MAX_BLOCK_LEN` instructions (extra leaders split longer
   runs), which bounds the memory one compilation needs.
2. **Single steps** -- one-instruction functions for the places no
   block applies (a computed ``jr`` into the middle of a block, the
   last few instructions before the instruction budget, an unknown
   opcode).  They are rare, so each is generated on first use
   (:meth:`CompiledProgram.step_at`).

Threaded code is **bit-identical** to the interpreter -- ``cycles``,
``instret``, ``opcode_counts``, the :class:`Profile`
(local/inclusive cycles, call edges/counts) and final memory/registers
all match exactly, on success *and* on fault paths; the differential
tests and the ``iss_compiled`` bench scenario gate that equivalence at
a hard zero.  Three mechanisms preserve exactness while batching work:

- Profile attribution is deferred: code only bumps ``machine.cycles``
  and the frame-local totals are flushed at call/return/exit
  boundaries (integer addition is associative, so the flushed totals
  equal the interpreter's per-step accumulation).
- Static cycle costs inside a block are summed at compile time and
  charged in batches, but always flushed *before* any instruction
  that can fault (memory ops, custom instructions), so a trapped run
  has charged exactly the cycles of the instructions that completed.
- A block that faults reports ``(start, length, sub-index)`` through
  ``machine._block_fault`` so the dispatch loop can repair the
  pre-charged instruction count and attribute per-pc counts for the
  partial run, matching the interpreter's state at the raise point.

Compilation is cached per ``(Program, ExtensionSet)`` identity in a
weak registry, so fleets and kernel runners that spawn a fresh
:class:`~repro.isa.machine.Machine` per run pay for predecoding once,
and a program's compiled code is freed together with the program.
"""

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.assembler import Instruction, Program
from repro.isa.extensions import ExtensionSet
from repro.isa.instructions import (BRANCH_TAKEN_PENALTY, LINK_REG,
                                    WORD_MASK, ZERO_REG)

#: One generated step or fused block: machine -> next pc.
Step = Callable[[object], int]

_SIGN_BIT = 0x80000000
_TAKEN_COST = 1 + BRANCH_TAKEN_PENALTY

_TERMINATORS = frozenset(
    ("beq", "bne", "blt", "bge", "bltu", "bgeu", "j", "jal", "jr", "halt"))

_BASE_OPS = frozenset(
    ("add", "addi", "sub", "subi", "li", "mov", "and", "andi", "or", "ori",
     "xor", "xori", "sll", "slli", "srl", "srli", "sra", "srai",
     "sltu", "sltui", "slt", "mul", "mulhu",
     "lw", "lb", "sw", "sb")) | _TERMINATORS


#: Longest fused block, in instructions.  Longer straight-line runs
#: are split by extra leaders: one generated function stays small, and
#: so does the memory its compilation needs.
MAX_BLOCK_LEN = 64


class CompiledProgram:
    """The threaded-code form of one program + extension configuration."""

    __slots__ = ("steps", "op_names", "sentinel", "extensions",
                 "blocks", "block_hists", "_code", "_func_at", "_glob")

    def __init__(self, code: Sequence[Instruction], func_at: Dict[int, str],
                 glob: Dict[str, object],
                 extensions: Optional[ExtensionSet],
                 blocks: List[Optional[Tuple[Step, int, int]]],
                 block_hists: List[Tuple[Tuple[str, int], ...]]):
        self._code = code
        self._func_at = func_at
        self._glob = glob       # globals of the generated functions
        self.sentinel = len(code)
        self.op_names = [instr.op for instr in code]
        #: ``steps[pc]``: the single step at ``pc``, ``None`` until
        #: :meth:`step_at` first generates it.
        self.steps: List[Optional[Step]] = [None] * self.sentinel
        #: ``blocks[pc]`` is ``(fn, length, block_id)`` at block leaders.
        self.blocks = blocks
        #: per block id: ((opcode, multiplicity), ...) for count merging
        self.block_hists = block_hists
        # Held strongly so the id()-keyed cache slot cannot be reused
        # by a different ExtensionSet while this entry is alive.
        self.extensions = extensions

    def step_at(self, pc: int) -> Step:
        """The single step at ``pc``, generated on first use."""
        step = self.steps[pc]
        if step is None:
            step = self.steps[pc] = _compile_step(
                self._code[pc], pc, self.sentinel, self._func_at,
                self.extensions, self._glob)
        return step


# -- code generation ---------------------------------------------------------
#
# Straight-line runs are emitted as one generated Python function per
# block: registers hoisted to a local, immediates and addresses inlined
# as literals, static cycle costs pre-summed.  Registers written by the
# base ISA are re-forced to zero by the interpreter after every
# instruction; here that is resolved at generation time: a pure ALU op
# targeting r0 emits no write, and memory reads targeting r0 keep their
# side effects (bounds check, dcache access) but discard the loaded
# value.  Only memory and custom instructions can fault; blocks
# containing them get a try/except wrapper and a sub-instruction
# progress marker so the dispatch loop can repair counts exactly (see
# the module docstring).  A single step is generated the same way as a
# one-instruction block without that wrapper: the dispatch loop counts
# single steps before it calls them, so there is nothing to repair.

def _alu_source(op: str, a) -> Optional[str]:
    """The statement for one non-faulting ALU op, or None when the
    destination is r0 (the write is unobservable)."""
    d = a[0]
    if d == ZERO_REG:
        return None
    if op == "add":
        return f"r[{d}] = (r[{a[1]}] + r[{a[2]}]) & {WORD_MASK}"
    if op == "addi":
        return f"r[{d}] = (r[{a[1]}] + {a[2]!r}) & {WORD_MASK}"
    if op == "sub":
        return f"r[{d}] = (r[{a[1]}] - r[{a[2]}]) & {WORD_MASK}"
    if op == "subi":
        return f"r[{d}] = (r[{a[1]}] - {a[2]!r}) & {WORD_MASK}"
    if op == "li":
        return f"r[{d}] = {a[1] & WORD_MASK}"
    if op == "mov":
        return f"r[{d}] = r[{a[1]}]"
    if op == "and":
        return f"r[{d}] = r[{a[1]}] & r[{a[2]}]"
    if op == "andi":
        return f"r[{d}] = r[{a[1]}] & {a[2] & WORD_MASK}"
    if op == "or":
        return f"r[{d}] = r[{a[1]}] | r[{a[2]}]"
    if op == "ori":
        return f"r[{d}] = r[{a[1]}] | {a[2] & WORD_MASK}"
    if op == "xor":
        return f"r[{d}] = r[{a[1]}] ^ r[{a[2]}]"
    if op == "xori":
        return f"r[{d}] = r[{a[1]}] ^ {a[2] & WORD_MASK}"
    if op == "sll":
        return f"r[{d}] = (r[{a[1]}] << (r[{a[2]}] & 31)) & {WORD_MASK}"
    if op == "slli":
        return f"r[{d}] = (r[{a[1]}] << {a[2] & 31}) & {WORD_MASK}"
    if op == "srl":
        return f"r[{d}] = r[{a[1]}] >> (r[{a[2]}] & 31)"
    if op == "srli":
        return f"r[{d}] = r[{a[1]}] >> {a[2] & 31}"
    if op == "sra":
        return (f"r[{d}] = (((r[{a[1]}] ^ {_SIGN_BIT}) - {_SIGN_BIT})"
                f" >> (r[{a[2]}] & 31)) & {WORD_MASK}")
    if op == "srai":
        return (f"r[{d}] = (((r[{a[1]}] ^ {_SIGN_BIT}) - {_SIGN_BIT})"
                f" >> {a[2] & 31}) & {WORD_MASK}")
    if op == "sltu":
        return f"r[{d}] = 1 if r[{a[1]}] < r[{a[2]}] else 0"
    if op == "sltui":
        return f"r[{d}] = 1 if r[{a[1]}] < {a[2] & WORD_MASK} else 0"
    if op == "slt":
        return (f"r[{d}] = 1 if (r[{a[1]}] ^ {_SIGN_BIT})"
                f" < (r[{a[2]}] ^ {_SIGN_BIT}) else 0")
    if op == "mul":
        return f"r[{d}] = (r[{a[1]}] * r[{a[2]}]) & {WORD_MASK}"
    if op == "mulhu":
        return f"r[{d}] = (r[{a[1]}] * r[{a[2]}]) >> 32"
    return None


def _branch_cond(op: str, a) -> str:
    if op == "beq":
        return f"r[{a[0]}] == r[{a[1]}]"
    if op == "bne":
        return f"r[{a[0]}] != r[{a[1]}]"
    if op == "bltu":
        return f"r[{a[0]}] < r[{a[1]}]"
    if op == "bgeu":
        return f"r[{a[0]}] >= r[{a[1]}]"
    if op == "blt":
        return f"(r[{a[0]}] ^ {_SIGN_BIT}) < (r[{a[1]}] ^ {_SIGN_BIT})"
    # bge
    return f"(r[{a[0]}] ^ {_SIGN_BIT}) >= (r[{a[1]}] ^ {_SIGN_BIT})"


class _BlockGen:
    """Accumulates the generated source of one fused block (or, unguarded,
    of one single step)."""

    def __init__(self, start: int, glob: Dict[str, object],
                 guarded: bool = True):
        self.start = start
        self.glob = glob
        self.guarded = guarded  # report faults through m._block_fault
        self.lines: List[str] = []
        self.pending = 0        # static cycles not yet charged
        self.faulting = False   # needs the try/except + progress marker
        self.uses_mem = False
        self.uses_load = False

    def flush(self) -> None:
        if self.pending:
            self.lines.append(f"m.cycles += {self.pending}")
            self.pending = 0

    def mark_fault(self, sub: int) -> None:
        """The next statements may raise at sub-instruction ``sub``."""
        self.faulting = True
        if self.guarded:
            self.lines.append(f"f_ = {sub}")

    def emit_alu(self, op: str, a) -> None:
        stmt = _alu_source(op, a)
        if stmt is not None:
            self.lines.append(stmt)
        self.pending += 2 if op in ("mul", "mulhu") else 1

    def emit_mem(self, op: str, a, sub: int) -> None:
        self.uses_mem = True
        size = 4 if op in ("lw", "sw") else 1
        off, base = a[1]
        # Charge everything up to here before the op can fault, so a
        # trapped run's cycle count matches the interpreter's exactly.
        self.flush()
        self.mark_fault(sub)
        self.lines.append(f"a_ = r[{base}] + {off!r}")
        self.lines.append(f"if a_ < 0 or a_ + {size} > len(mem):")
        self.lines.append(
            '    raise MachineError('
            f'"memory access out of range: %#x+{size}" % a_)')
        d = a[0]
        if op == "lw":
            self.uses_load = True
            if d != ZERO_REG:
                self.lines.append(f'r[{d}] = fb(mem[a_:a_ + 4], "little")')
            self.pending += 2
        elif op == "lb":
            if d != ZERO_REG:
                self.lines.append(f"r[{d}] = mem[a_]")
            self.pending += 2
        elif op == "sw":
            self.lines.append(
                f'mem[a_:a_ + 4] = (r[{d}] & {WORD_MASK}).to_bytes'
                f'(4, "little")')
            self.pending += 1
        else:  # sb
            self.lines.append(f"mem[a_] = r[{d}] & 0xFF")
            self.pending += 1
        # Dynamic dcache penalties go straight to m.cycles in program
        # order (the access sequence drives the cache model's state).
        self.lines.append("if dc is not None:")
        self.lines.append("    m.cycles += dc.access(a_)")

    def emit_custom(self, custom, a, pc: int, sub: int) -> None:
        self.flush()
        self.mark_fault(sub)
        self.glob[f"S{pc}"] = custom.semantics
        self.glob[f"A{pc}"] = a
        self.lines.append(f"S{pc}(m, A{pc})")
        self.lines.append("r[0] = 0")
        latency = custom.latency
        if callable(latency):
            self.glob[f"L{pc}"] = latency
            self.lines.append(f"m.cycles += L{pc}(m, A{pc})")
        else:
            self.pending += latency

    def emit_terminator(self, op: str, a, pc: int, sentinel: int,
                        func_at: Dict[int, str]) -> None:
        if op in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            self.lines.append(f"if {_branch_cond(op, a)}:")
            self.lines.append(f"    m.cycles += {self.pending + _TAKEN_COST}")
            self.lines.append(f"    return {a[2]}")
            self.lines.append(f"m.cycles += {self.pending + 1}")
            self.lines.append(f"return {pc + 1}")
        elif op == "j":
            self.lines.append(f"m.cycles += {self.pending + 3}")
            self.lines.append(f"return {a[0]}")
        elif op == "jal":
            target = a[0]
            self.lines.append(f"r[{LINK_REG}] = {pc + 1}")
            self.lines.append(f"m.cycles += {self.pending + 3}")
            self.glob[f"cn{pc}"] = func_at.get(target, f"func@{target}")
            self.lines.append(f"m._compiled_call(cn{pc})")
            self.lines.append(f"return {target}")
        elif op == "jr":
            self.lines.append(f"m.cycles += {self.pending + 3}")
            self.lines.append("m._compiled_ret()")
            self.lines.append(f"return r[{a[0]}]")
        else:  # halt
            self.lines.append(f"m.cycles += {self.pending + 1}")
            self.lines.append("m._halted = True")
            self.lines.append(f"m._halt_pc = {pc}")
            self.lines.append(f"return {sentinel}")
        self.pending = 0

    def emit_fallthrough(self, next_pc: int) -> None:
        self.flush()
        self.lines.append(f"return {next_pc}")

    def render(self, length: int) -> str:
        name = f"_b{self.start}"
        head = [f"def {name}(m):", "    r = m.regs"]
        if self.uses_mem:
            head.append("    mem = m.mem")
            head.append("    dc = m.dcache")
        if self.uses_load:
            head.append("    fb = _fb")
        if self.faulting and self.guarded:
            head.append("    f_ = 0")
            head.append("    try:")
            body = [f"        {line}" for line in self.lines]
            tail = ["    except BaseException:",
                    f"        m._block_fault = ({self.start}, {length}, f_)",
                    "        raise"]
            return "\n".join(head + body + tail)
        body = [f"    {line}" for line in self.lines]
        return "\n".join(head + body)


def _find_leaders(code: Sequence[Instruction], labels: Dict[str, int],
                  sentinel: int) -> List[int]:
    """Every pc a block may legally start at: labels (function entries,
    ``jal``/``j``/branch targets and return addresses), the instruction
    after each control transfer, and every :data:`MAX_BLOCK_LEN`-th
    instruction of a longer run between those."""
    leaders = {index for index in labels.values() if index < sentinel}
    if code:
        leaders.add(0)
    for pc, instr in enumerate(code):
        op = instr.op
        if op in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            if instr.args[2] < sentinel:
                leaders.add(instr.args[2])
        elif op in ("j", "jal"):
            if instr.args[0] < sentinel:
                leaders.add(instr.args[0])
        if op in _TERMINATORS and pc + 1 < sentinel:
            leaders.add(pc + 1)
    ordered = sorted(leaders)
    capped = []
    for start, end in zip(ordered, ordered[1:] + [sentinel]):
        capped.extend(range(start, end, MAX_BLOCK_LEN))
    return capped


def _known(op: str, extensions: Optional[ExtensionSet]) -> bool:
    return op in _BASE_OPS or (extensions is not None
                               and extensions.get(op) is not None)


def _emit(gen: _BlockGen, instr: Instruction, pc: int, sentinel: int,
          func_at: Dict[int, str],
          extensions: Optional[ExtensionSet]) -> bool:
    """Append one known instruction to ``gen``; True if it ends the
    block (a control transfer)."""
    op = instr.op
    if op in _TERMINATORS:
        gen.emit_terminator(op, instr.args, pc, sentinel, func_at)
        return True
    if op in ("lw", "lb", "sw", "sb"):
        gen.emit_mem(op, instr.args, pc - gen.start)
    elif op in _BASE_OPS:
        gen.emit_alu(op, instr.args)
    else:
        gen.emit_custom(extensions.get(op), instr.args, pc, pc - gen.start)
    return False


def _define(gen: _BlockGen, length: int) -> Step:
    """Compile ``gen``'s function as its own code object and return it.

    One code object per block: compiling the whole program as one
    module would hold every block's syntax tree at once.
    """
    exec(compile(gen.render(length), "<repro.isa.compile>", "exec"),
         gen.glob)
    return gen.glob.pop(f"_b{gen.start}")


def _build_blocks(code: Sequence[Instruction], labels: Dict[str, int],
                  extensions: Optional[ExtensionSet],
                  func_at: Dict[int, str], glob: Dict[str, object]
                  ) -> Tuple[List[Optional[Tuple[Step, int, int]]],
                             List[Tuple[Tuple[str, int], ...]]]:
    sentinel = len(code)
    leaders = _find_leaders(code, labels, sentinel)
    leader_set = set(leaders)
    blocks: List[Optional[Tuple[Step, int, int]]] = [None] * sentinel
    hists: List[Tuple[Tuple[str, int], ...]] = []

    for start in leaders:
        gen = _BlockGen(start, glob)
        hist: Dict[str, int] = {}
        pc = start
        terminated = False
        while pc < sentinel and not terminated:
            instr = code[pc]
            if not _known(instr.op, extensions):
                # Unknown opcode: end the block before it; the
                # per-instruction step raises with exact state.
                break
            hist[instr.op] = hist.get(instr.op, 0) + 1
            terminated = _emit(gen, instr, pc, sentinel, func_at,
                               extensions)
            pc += 1
            if pc in leader_set:
                break
        length = pc - start
        if length == 0:
            continue  # first instruction unknown; no fused block here
        if not terminated:
            gen.emit_fallthrough(pc)
        blocks[start] = (_define(gen, length), length, len(hists))
        hists.append(tuple(sorted(hist.items())))
    return blocks, hists


def _compile_step(instr: Instruction, pc: int, sentinel: int,
                  func_at: Dict[int, str],
                  extensions: Optional[ExtensionSet],
                  glob: Dict[str, object]) -> Step:
    """The per-instruction step for ``pc``: machine -> next pc."""
    if not _known(instr.op, extensions):
        from repro.isa.machine import MachineError
        message = f"unknown opcode {instr.op!r} at pc={pc}"

        def step(m):
            raise MachineError(message)
        return step
    gen = _BlockGen(pc, glob, guarded=False)
    if not _emit(gen, instr, pc, sentinel, func_at, extensions):
        gen.emit_fallthrough(pc + 1)
    return _define(gen, 1)


def compile_program(program: Program,
                    extensions: Optional[ExtensionSet] = None
                    ) -> CompiledProgram:
    """Predecode ``program`` into its threaded-code form (uncached)."""
    from repro.isa.machine import MachineError
    code = program.instructions
    # Same first-label-wins mapping the Machine builds for profiling.
    func_at: Dict[int, str] = {}
    for label, index in program.labels.items():
        func_at.setdefault(index, label)
    glob: Dict[str, object] = {"_fb": int.from_bytes,
                               "MachineError": MachineError}
    blocks, hists = _build_blocks(code, program.labels, extensions,
                                  func_at, glob)
    return CompiledProgram(code, func_at, glob, extensions, blocks, hists)


# -- compilation cache -------------------------------------------------------
#
# Keyed weakly on the Program (so a dropped program frees its closures)
# and, within a program, on the identity of the extension set.  All
# machines with no custom instructions share one entry: a fresh empty
# ExtensionSet is indistinguishable from another.

_cache: "weakref.WeakKeyDictionary[Program, Dict[object, CompiledProgram]]" \
    = weakref.WeakKeyDictionary()


def compiled_for(program: Program,
                 extensions: Optional[ExtensionSet] = None
                 ) -> CompiledProgram:
    """The (cached) threaded-code form of ``program`` + ``extensions``."""
    per_ext = _cache.get(program)
    if per_ext is None:
        per_ext = _cache[program] = {}
    key = None if (extensions is None or len(extensions) == 0) \
        else id(extensions)
    compiled = per_ext.get(key)
    if compiled is None or (key is not None
                            and compiled.extensions is not extensions):
        compiled = per_ext[key] = compile_program(program, extensions)
    return compiled
