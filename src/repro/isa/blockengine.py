"""Block-compiled execution engine for the NV16 core.

:meth:`repro.isa.cpu.CPU.step` pays one Python call, one ``classify``
dict chain and one ``StepInfo`` allocation *per instruction* — the last
scalar-interpreter hot path in the codebase, and the reason real
kernels (FIR, Sobel, CRC, matmul) crawl while abstract workloads fly
through the batched exact kernel.  This module compiles a decoded
program once into basic blocks, each one generated Python function,
and executes straight-line runs with one call per block, bit-for-bit
identical to a pure ``step()`` loop.

Compilation
    *Block discovery* finds leaders the classic way: instruction 0,
    every in-range branch/JAL target, and every instruction following
    a control transfer (branch, JAL, JALR, HALT).  Long straight-line
    spans are additionally split every :data:`MAX_BLOCK_LEN`
    instructions so a tick whose budget covers only part of a giant
    unrolled span can still fuse its prefix blocks.  Each
    instruction's seconds, joules and cycles are classified through
    the same :func:`~repro.isa.energy.classify` /
    :class:`~repro.isa.energy.EnergyModel` lookups ``step()`` performs
    — evaluated once at compile time instead of once per executed
    instruction.

Statements
    :func:`_statement` turns every instruction into a line of Python
    with all constants folded: ``r0`` reads fold to literal ``0``
    (matching ``_read_reg``, even against adversarial restored states
    where ``regs[0]`` was forced nonzero), masked immediates, shift
    counts and ``LUI``/link constants are baked in, signed views are
    the inline ``((x & 0xFFFF) ^ 0x8000) - 0x8000`` (``to_signed`` for
    every int), and ``NOP``, ``HALT`` and pure ALU writes to ``r0``
    have no statement (``LD r0, ...`` still performs the read: MMIO
    pops and region counters are architectural side effects).  Control
    instructions assign ``npc``; ``JALR`` reads ``rs1`` before writing
    the link register, exactly as ``_execute`` reads operands before
    dispatch.  One ``exec`` then builds, from the same statements,
    a per-instruction closure ``fn(regs, memory)`` for every
    instruction and a fused function per block.

Execution
    :meth:`BlockEngine.run` advances a CPU under
    :meth:`~repro.workloads.base.FunctionalWorkload.advance`'s time
    budget.  Float accounting (``time_used += cycles * cycle_time_s``,
    ``energy += e``, ``cpu.energy_j += e``) is accumulated strictly
    per instruction in program order — never block-bulk — so every
    partial sum equals the scalar interpreter's.  A fused block
    function interleaves each statement with that instruction's own
    ``tu += t; en += e; ce += e``, the floats emitted as ``repr``
    literals, which parse back to the identical doubles.  A block is
    executed fused — one call, no per-instruction budget/cap compares
    — only when a conservative guard proves every scalar compare would
    have passed (the guard over-approximates float accumulation error;
    blocks that straddle the budget fall back to per-instruction
    stepping through the closures, which is still exact).  Mid-block
    entry — a restore landing between leaders, a JALR into a block
    body, or resumption after a budget stop — steps the block tail per
    instruction and rejoins fused execution at the next leader.

The engine is process-wide switchable (``--no-block-engine`` /
``NVPSIM_NO_BLOCK_ENGINE=1``) and counts fused vs. stepped block
executions for ``--profile``.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence

from repro.isa.cpu import ExecutionError
from repro.isa.energy import EnergyModel, classify
from repro.isa.instructions import (
    BRANCH_OPCODES,
    Instruction,
    Opcode,
)

__all__ = [
    "BlockEngine",
    "SegmentResult",
    "enabled",
    "set_enabled",
    "MAX_BLOCK_LEN",
]

#: Straight-line spans are split into blocks of at most this many
#: instructions so partial-budget ticks still fuse whole prefixes.
MAX_BLOCK_LEN = 128

#: Opcodes that end a basic block (the next instruction is a leader).
_CONTROL_OPCODES = frozenset(BRANCH_OPCODES) | {
    Opcode.JAL,
    Opcode.JALR,
    Opcode.HALT,
}

#: Accumulated-float-error over-approximation per summed term; used by
#: the fused-block budget guard (several times 2**-52, covering both
#: the compile-time block-sum rounding and the runtime accumulation).
_GUARD_EPS = 1.0e-15

_ENV_DISABLE = "NVPSIM_NO_BLOCK_ENGINE"

_enabled = os.environ.get(_ENV_DISABLE, "") in ("", "0")


def enabled() -> bool:
    """Whether compiled workloads drive the block engine."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Process-wide engine switch (the ``--no-block-engine`` knob).

    Also mirrors the choice into :data:`os.environ` so sweep workers
    spawned after the call inherit it.
    """
    global _enabled
    _enabled = bool(flag)
    if _enabled:
        os.environ.pop(_ENV_DISABLE, None)
    else:
        os.environ[_ENV_DISABLE] = "1"


class SegmentResult:
    """Outcome of one :meth:`BlockEngine.run` segment.

    Attributes:
        executed: instructions retired by the segment.
        energy_j: the caller's energy accumulator after the segment
            (same left-to-right adds the scalar loop performs).
        time_used_s: the caller's time accumulator after the segment.
        capped: the segment retired one instruction past the caller's
            cap (mirroring the scalar ``_unit_retired > max`` raise,
            which fires *after* the offending instruction executes).
        fault: an :class:`~repro.isa.cpu.ExecutionError` the scalar
            interpreter would have raised at this point, or ``None``.
            The CPU counters already include every instruction retired
            before the fault, exactly as chained ``step()`` calls
            would have left them.
    """

    __slots__ = ("executed", "energy_j", "time_used_s", "capped", "fault")

    def __init__(
        self,
        executed: int,
        energy_j: float,
        time_used_s: float,
        capped: bool = False,
        fault: Optional[ExecutionError] = None,
    ) -> None:
        self.executed = executed
        self.energy_j = energy_j
        self.time_used_s = time_used_s
        self.capped = capped
        self.fault = fault


class _Block:
    """One compiled basic block.

    ``ops`` covers the straight-line body (``(fn, time_s, energy_j,
    cycles)`` per instruction, dense from ``start``); ``term`` is the
    compiled control-flow tail at ``limit - 1`` — ``(fn, time_s,
    energy_j, cycles, halts)`` with ``fn(regs, memory) -> next_pc`` —
    or ``None`` for a pure fallthrough block.  Those per-instruction
    tables serve the stepped tail and :meth:`BlockEngine.run_count`.

    ``fused(regs, memory, tu, en, ce) -> (next_pc, tu, en, ce)`` runs
    the whole block in one call: every instruction's statement followed
    by its own literal ``tu``/``en``/``ce`` float adds.  ``cycles`` is
    the block's cycle total and ``halts`` whether it ends in ``HALT``.
    """

    __slots__ = (
        "start",
        "limit",
        "ops",
        "term",
        "fused",
        "n_instructions",
        "cycles",
        "halts",
        "body_time_s",
        "guard_factor",
    )

    def __init__(self, start: int, limit: int, ops, term, fused) -> None:
        self.start = start
        self.limit = limit
        self.ops = ops
        self.term = term
        self.fused = fused
        self.n_instructions = len(ops) + (1 if term is not None else 0)
        self.halts = term is not None and term[4]
        # Upper bound for the fused-budget guard: the largest partial
        # sum the scalar loop compares against the budget is the one
        # *before* the final instruction, but bounding the full-block
        # sum is simpler and only costs boundary ticks a per-op pass.
        total = 0.0
        cycles = 0
        for _fn, t, _e, c in ops:
            total += t
            cycles += c
        if term is not None:
            total += term[1]
            cycles += term[3]
        self.body_time_s = total
        self.cycles = cycles
        self.guard_factor = 1.0 + _GUARD_EPS * (self.n_instructions + 4)


def _nop_fn(regs, memory) -> None:
    return None


def _reg_expr(index: int) -> str:
    """Source for a register read (``_read_reg`` semantics)."""
    return "0" if index == 0 else f"regs[{index}]"


def _signed_expr(expr: str) -> str:
    """Source for ``to_signed(expr)``, inline.

    ``((x & 0xFFFF) ^ 0x8000) - 0x8000`` equals ``to_signed(x)`` for
    every int, including non-canonical (> 16-bit) restored registers.
    """
    return f"((({expr} & 0xFFFF) ^ 0x8000) - 0x8000)"


#: Value-expression templates for the register-writing ALU opcodes.
#: ``{a}``/``{b}`` are register reads, ``{sa}``/``{sb}`` their signed
#: views; ``{imm}`` is the raw immediate, ``{uimm}`` its 16-bit mask,
#: ``{sh}`` the shift count and ``{lui}`` the ``LUI`` constant, all
#: folded at compile time.  Every write then goes through ``& 0xFFFF``
#: (``_write_reg``), so non-canonical register values produce the
#: interpreter's results.
_ALU = {
    Opcode.ADD: "({a} + {b})",
    Opcode.SUB: "({a} - {b})",
    Opcode.AND: "({a} & {b})",
    Opcode.OR: "({a} | {b})",
    Opcode.XOR: "({a} ^ {b})",
    Opcode.SHL: "({a} << ({b} % 16))",
    Opcode.SHR: "({a} >> ({b} % 16))",
    Opcode.SAR: "({sa} >> ({b} % 16))",
    Opcode.MUL: "({a} * {b})",
    Opcode.MULH: "(({a} * {b}) >> 16)",
    Opcode.DIVU: "(0xFFFF if {b} == 0 else {a} // {b})",
    Opcode.REMU: "({a} if {b} == 0 else {a} % {b})",
    Opcode.SLT: "(1 if {sa} < {sb} else 0)",
    Opcode.SLTU: "(1 if {a} < {b} else 0)",
    Opcode.ADDI: "({a} + {imm})",
    Opcode.ANDI: "({a} & {uimm})",
    Opcode.ORI: "({a} | {uimm})",
    Opcode.XORI: "({a} ^ {uimm})",
    Opcode.SHLI: "({a} << {sh})",
    Opcode.SHRI: "({a} >> {sh})",
    Opcode.SARI: "({sa} >> {sh})",
    Opcode.SLTI: "(1 if {sa} < {imm} else 0)",
    Opcode.SLTIU: "(1 if {a} < {uimm} else 0)",
    Opcode.LUI: "{lui}",
}

_BRANCH_COND = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "{sa} < {sb}",
    Opcode.BGE: "{sa} >= {sb}",
    Opcode.BLTU: "{a} < {b}",
    Opcode.BGEU: "{a} >= {b}",
}


def _statement(pc: int, instr: Instruction) -> Optional[str]:
    """Python source for one instruction's architectural effect.

    The single source of truth both the per-instruction closures and
    the fused block functions are built from.  Lines are unindented
    and act on ``regs`` and ``memory``; a control instruction assigns
    its next PC to ``npc``.  Returns ``None`` when there is nothing to
    execute: ``NOP``, a pure ALU write to ``r0``, and ``HALT`` (the
    run loop sets ``halted`` structurally).
    """
    op = instr.opcode
    rd = instr.rd
    imm = instr.imm
    a = _reg_expr(instr.rs1)
    b = _reg_expr(instr.rs2)
    operands = {"a": a, "b": b, "sa": _signed_expr(a), "sb": _signed_expr(b)}
    if op in _ALU:
        if rd == 0:
            # DIVU/REMU by zero is architecturally defined (no trap),
            # so a discarded ALU result has no observable effect.
            return None
        value = _ALU[op].format(
            imm=imm,
            uimm=imm & 0xFFFF,
            sh=imm % 16,
            lui=(imm & 0xFF) << 8,
            **operands,
        )
        return f"regs[{rd}] = {value} & 0xFFFF"
    if op is Opcode.LD:
        read = f"memory.read(({a} + {imm}) & 0xFFFF)"
        # With rd == r0 the read still happens: region counters and the
        # MMIO input-port pop are architectural side effects.
        return read if rd == 0 else f"regs[{rd}] = {read} & 0xFFFF"
    if op is Opcode.ST:
        return f"memory.write(({a} + {imm}) & 0xFFFF, {b})"
    if op is Opcode.NOP or op is Opcode.HALT:
        return None
    link = (pc + 1) & 0xFFFF
    if op in BRANCH_OPCODES:
        cond = _BRANCH_COND[op].format(**operands)
        return f"npc = {imm & 0xFFFF} if {cond} else {pc + 1}"
    if op is Opcode.JAL:
        jump = f"npc = {imm & 0xFFFF}"
        return jump if rd == 0 else f"regs[{rd}] = {link}\n{jump}"
    if op is Opcode.JALR:
        # rs1 is read before the link write, matching ``_execute``'s
        # operand-fetch-then-dispatch order when rd == rs1.
        jump = f"npc = ({a} + {imm}) & 0xFFFF"
        return jump if rd == 0 else f"{jump}\nregs[{rd}] = {link}"
    raise ExecutionError(f"unimplemented opcode {op!r}")  # pragma: no cover


def _indent(source: str) -> str:
    return "".join(f"    {line}\n" for line in source.split("\n"))


def _literal(value, constants: Dict[str, object]) -> str:
    """Source for a per-instruction float that evaluates to ``value``.

    A finite ``float`` is emitted as its ``repr``, which parses back to
    the identical double; anything else (``inf``/``nan``, a numpy
    scalar) is bound by name so no value is ever re-parsed from text.
    """
    if type(value) is float and math.isfinite(value):
        return repr(value)
    name = f"_k{len(constants)}"
    constants[name] = value
    return name


class BlockEngine:
    """A program compiled to basic blocks of specialized closures.

    One engine serves every CPU instance a
    :class:`~repro.workloads.base.FunctionalWorkload` creates (the
    per-unit fresh CPUs share the same program and energy model);
    closures capture only compile-time constants and act on the
    ``(regs, memory)`` passed per call.

    Attributes:
        fused_blocks: blocks executed wholesale by the fused loop
            (the profile "hit" count).
        stepped_blocks: block executions that fell back to
            per-instruction stepping — mid-block entries and
            budget/cap boundary straddles (the profile "miss" count).
    """

    def __init__(
        self,
        program: Sequence[Instruction],
        energy_model: EnergyModel,
    ) -> None:
        self.n_instructions = len(program)
        #: Recompile trigger: the full signature of the model the
        #: tables were classified against (frequency first).
        self.model_signature = energy_model.signature()
        self.fused_blocks = 0
        self.stepped_blocks = 0
        self._blocks: List[_Block] = []
        #: pc -> owning block, dense over the program.
        self._block_at: List[_Block] = []
        self._compile(program, energy_model)

    # -- compilation -------------------------------------------------------

    def _compile(self, program: Sequence[Instruction], model: EnergyModel) -> None:
        n = len(program)
        if n == 0:
            return
        leaders = {0}
        for pc, instr in enumerate(program):
            op = instr.opcode
            if op in _CONTROL_OPCODES:
                if pc + 1 < n:
                    leaders.add(pc + 1)
                if op is not Opcode.JALR and op is not Opcode.HALT:
                    target = instr.imm & 0xFFFF
                    if target < n:
                        leaders.add(target)
        starts = sorted(leaders)
        bounds = []
        for i, start in enumerate(starts):
            limit = starts[i + 1] if i + 1 < len(starts) else n
            # Split giant straight-line spans so partial budgets fuse.
            while limit - start > MAX_BLOCK_LEN:
                bounds.append((start, start + MAX_BLOCK_LEN))
                start += MAX_BLOCK_LEN
            bounds.append((start, limit))
        cycle_time = model.cycle_time_s
        costs = []
        for instr in program:
            cls = classify(instr)
            cycles = model.instruction_cycles(cls)
            costs.append(
                (cycles * cycle_time, model.instruction_energy(cls), cycles)
            )
        statements = [_statement(pc, instr) for pc, instr in enumerate(program)]

        # One module holds every per-instruction closure ``i<pc>`` and
        # every fused block function ``b<start>``, all generated from
        # the same statements and compiled by a single ``exec``.
        constants: Dict[str, object] = {}
        source = []
        for pc, statement in enumerate(statements):
            if statement is None:
                continue
            tail = (
                "    return npc\n"
                if program[pc].opcode in _CONTROL_OPCODES else ""
            )
            source.append(
                f"def i{pc}(regs, memory):\n{_indent(statement)}{tail}"
            )
        for start, limit in bounds:
            lines = [f"def b{start}(regs, memory, tu, en, ce):\n"]
            for pc in range(start, limit):
                if statements[pc] is not None:
                    lines.append(_indent(statements[pc]))
                t = _literal(costs[pc][0], constants)
                e = _literal(costs[pc][1], constants)
                lines.append(f"    tu += {t}; en += {e}; ce += {e}\n")
            last = program[limit - 1].opcode
            jumps = last in _CONTROL_OPCODES and last is not Opcode.HALT
            lines.append(f"    return {'npc' if jumps else limit}, tu, en, ce\n")
            source.append("".join(lines))
        namespace: Dict[str, object] = dict(constants)
        exec(compile("\n".join(source), "<blockengine>", "exec"), namespace)

        def closure(pc: int):
            if statements[pc] is None:
                return _nop_fn
            return namespace[f"i{pc}"]

        for start, limit in bounds:
            last = program[limit - 1].opcode
            has_term = last in _CONTROL_OPCODES
            ops = [
                (closure(pc),) + costs[pc]
                for pc in range(start, limit - 1 if has_term else limit)
            ]
            term = None
            if has_term:
                term = (closure(limit - 1),) + costs[limit - 1] + (
                    last is Opcode.HALT,
                )
            block = _Block(start, limit, ops, term, namespace[f"b{start}"])
            self._blocks.append(block)
            self._block_at.extend([block] * (limit - start))

    # -- introspection -----------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of compiled basic blocks."""
        return len(self._blocks)

    def profile_counts(self) -> Dict[str, int]:
        """Fused/stepped block counters (the ``--profile`` report)."""
        return {
            "blocks": self.n_blocks,
            "fused": self.fused_blocks,
            "stepped": self.stepped_blocks,
        }

    # -- execution ---------------------------------------------------------

    def run(
        self,
        cpu,
        budget_s: float,
        time_used_s: float,
        energy_j: float,
        cap_remaining: int,
    ) -> SegmentResult:
        """Execute until the budget, a HALT, the cap, or a fault.

        Semantically identical to the scalar loop::

            while time_used < budget:
                info = cpu.step()                  # may raise
                time_used += info.cycles * cycle_time_s
                energy += info.energy_j
                executed += 1
                if executed > cap_remaining: -> capped
                if cpu.state.halted: -> stop

        Args:
            cpu: the :class:`~repro.isa.cpu.CPU` to advance (its
                program must be the one this engine compiled).
            budget_s: the advance loop's total budget.
            time_used_s: the advance loop's time accumulator on entry.
            energy_j: the advance loop's energy accumulator on entry.
            cap_remaining: instructions the current unit may still
                retire before ``max_instructions_per_unit`` trips.

        Returns:
            A :class:`SegmentResult`; CPU state and counters are
            written back on every exit path.
        """
        state = cpu.state
        if state.halted:
            return SegmentResult(
                0, energy_j, time_used_s,
                fault=ExecutionError("cannot step a halted core"),
            )
        regs = state.regs
        memory = cpu.memory
        pc = state.pc
        n = self.n_instructions
        block_at = self._block_at
        time_used = time_used_s
        energy = energy_j
        cpu_energy = cpu.energy_j
        cycles = 0
        executed = 0
        budget = budget_s
        halted = False
        capped = False
        fault: Optional[ExecutionError] = None
        fused = 0
        stepped = 0

        while time_used < budget:
            if not 0 <= pc < n:
                fault = ExecutionError(
                    f"PC {pc:#06x} outside program of {n} words"
                )
                break
            blk = block_at[pc]
            if (
                pc == blk.start
                and executed + blk.n_instructions <= cap_remaining
                and (time_used + blk.body_time_s) * blk.guard_factor
                < budget
            ):
                # Fused: the guard proves every per-instruction budget
                # compare would pass and the cap cannot trip, so one
                # call runs the architectural work and the
                # (order-preserving) per-instruction float adds.
                fused += 1
                pc, time_used, energy, cpu_energy = blk.fused(
                    regs, memory, time_used, energy, cpu_energy
                )
                cycles += blk.cycles
                executed += blk.n_instructions
                if blk.halts:
                    halted = True
                    break
                continue
            # Per-instruction tail: mid-block entry or a block that
            # straddles the budget/cap boundary.
            stepped += 1
            ops = blk.ops
            term = blk.term
            i = pc - blk.start
            n_lin = len(ops)
            stop = False
            while i < n_lin:
                if time_used >= budget:
                    pc = blk.start + i
                    stop = True
                    break
                fn, t, e, c = ops[i]
                fn(regs, memory)
                time_used += t
                energy += e
                cpu_energy += e
                cycles += c
                executed += 1
                i += 1
                if executed > cap_remaining:
                    pc = blk.start + i
                    capped = True
                    stop = True
                    break
            if stop:
                break
            if term is None:
                pc = blk.limit
                continue
            if time_used >= budget:
                pc = blk.limit - 1
                break
            tfn, t, e, c, halts = term
            if halts:
                pc = blk.limit
                halted = True
            else:
                pc = tfn(regs, memory)
            time_used += t
            energy += e
            cpu_energy += e
            cycles += c
            executed += 1
            if executed > cap_remaining:
                capped = True
                break
            if halted:
                break

        state.pc = pc
        if halted:
            state.halted = True
        cpu.energy_j = cpu_energy
        cpu.cycles += cycles
        cpu.instructions_retired += executed
        self.fused_blocks += fused
        self.stepped_blocks += stepped
        return SegmentResult(executed, energy, time_used, capped, fault)

    def run_count(self, cpu, count: int) -> int:
        """Execute exactly ``count`` instructions (or until HALT).

        The budget-free sibling of :meth:`run`, used by the
        equivalence property tests to land the engine on an arbitrary
        instruction boundary.  Accounting matches ``count`` chained
        :meth:`~repro.isa.cpu.CPU.step` calls bit for bit; raises the
        same :class:`~repro.isa.cpu.ExecutionError` the interpreter
        would — including "cannot step a halted core" when a HALT
        retires before ``count`` is reached (counters already include
        the instructions retired before the fault).

        Returns:
            ``count`` (the HALT-as-last-instruction case included).
        """
        state = cpu.state
        regs = state.regs
        memory = cpu.memory
        pc = state.pc
        n = self.n_instructions
        block_at = self._block_at
        cpu_energy = cpu.energy_j
        cycles = 0
        executed = 0
        halted = False
        fault: Optional[ExecutionError] = None
        while executed < count:
            if state.halted or halted:
                fault = ExecutionError("cannot step a halted core")
                break
            if not 0 <= pc < n:
                fault = ExecutionError(
                    f"PC {pc:#06x} outside program of {n} words"
                )
                break
            blk = block_at[pc]
            ops = blk.ops
            i = pc - blk.start
            if i < len(ops):
                fn, _t, e, c = ops[i]
                fn(regs, memory)
                pc += 1
            else:
                tfn, _t, e, c, halts = blk.term
                if halts:
                    pc = blk.limit
                    halted = True
                else:
                    pc = tfn(regs, memory)
            cpu_energy += e
            cycles += c
            executed += 1
        state.pc = pc
        if halted:
            state.halted = True
        cpu.energy_j = cpu_energy
        cpu.cycles += cycles
        cpu.instructions_retired += executed
        if fault is not None:
            raise fault
        return executed
