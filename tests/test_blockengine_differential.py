"""Differential property test: generated block code against ``CPU.step``.

Random NV16 programs cover every opcode, ``rd = r0``, ``DIVU``/``REMU``
by zero, signed compares, and loads and stores whose addresses straddle
the RAM/NVM/MMIO boundaries and hit both ports.  They start from
non-canonical register values (wider than 16 bits, negative, ``r0``
forced nonzero) and run under random budget, cap and instruction-count
schedules.  After every segment the engine-driven CPU must equal a twin
driven by plain ``step()`` calls exactly: registers, PC, halted flag,
retired instructions, cycles, ``energy_j``, all 64 Ki memory words, the
four region counters, the output stream and the input queue.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.isa.blockengine import BlockEngine
from repro.isa.cpu import CPU, ExecutionError
from repro.isa.energy import EnergyModel, InstrClass
from repro.isa.instructions import (
    BRANCH_OPCODES,
    IMM_MAX,
    IMM_MIN,
    Instruction,
    Opcode,
)
from repro.isa.memory import (
    ADDRESS_SPACE,
    INPUT_PORT,
    MMIO_BASE,
    NVM_BASE,
    OUTPUT_PORT,
)

CONTROL = sorted(BRANCH_OPCODES) + [Opcode.JAL, Opcode.JALR, Opcode.HALT]
LINEAR = [op for op in Opcode if op not in CONTROL]

#: Effective addresses on both sides of every region boundary, plus
#: both ports and the first plain MMIO word.
BOUNDARY_ADDRESSES = [
    0,
    1,
    NVM_BASE - 1,
    NVM_BASE,
    NVM_BASE + 1,
    MMIO_BASE - 1,
    OUTPUT_PORT,
    INPUT_PORT,
    INPUT_PORT + 1,
    ADDRESS_SPACE - 1,
]

MODELS = [
    EnergyModel(),
    EnergyModel().scaled(frequency_hz=3.3e6, vdd=1.1),
    EnergyModel(frequency_hz=7e5, static_power_w=0.0),
]

registers = st.integers(0, 7) | st.just(0)

#: Register values: boundary addresses (possibly aliased above 16 bits)
#: and arbitrary wide or negative ints.
register_values = (
    st.tuples(st.sampled_from(BOUNDARY_ADDRESSES), st.integers(-2, 3)).map(
        lambda pair: pair[0] + pair[1] * 0x10000
    )
    | st.integers(-(1 << 20), 1 << 20)
)


@st.composite
def programs(draw):
    length = draw(st.integers(1, 40))
    program = []
    for _ in range(length):
        if draw(st.integers(0, 4)) == 0:
            op = draw(st.sampled_from(CONTROL))
        else:
            op = draw(st.sampled_from(LINEAR))
        if op in BRANCH_OPCODES or op is Opcode.JAL:
            # In-range targets, the end of the program, one past it.
            imm = draw(st.integers(0, length + 1))
        elif op is Opcode.JALR:
            imm = draw(st.integers(-4, length + 1))
        elif op in (Opcode.LD, Opcode.ST):
            imm = draw(
                st.sampled_from(BOUNDARY_ADDRESSES)
                | st.integers(-3, 3)
                | st.integers(IMM_MIN, IMM_MAX)
            )
        else:
            imm = draw(st.integers(IMM_MIN, IMM_MAX) | st.integers(-2, 17))
        rd, rs1, rs2 = draw(registers), draw(registers), draw(registers)
        if op is Opcode.JALR and draw(st.booleans()):
            rs1 = rd  # the link write must not clobber the target base
        program.append(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm))
    return program


budgets = st.floats(0.0, 3e-4) | st.sampled_from([0.0, 1e-7, 1e-6, 2e-6])
caps = st.integers(0, 64) | st.just(5_000_000)
schedules = st.lists(
    st.tuples(st.just("run"), budgets, st.floats(0.0, 2e-4), caps)
    | st.tuples(st.just("count"), st.integers(1, 40)),
    min_size=1,
    max_size=10,
)


def make_twins(program, model, regs, image, mmio_word, inputs):
    """Two CPUs with identical program, model, registers and memory."""
    twins = []
    for _ in range(2):
        cpu = CPU(program, energy_model=model)
        cpu.state.regs = list(regs)
        cpu.memory.load_image(image)
        cpu.memory.write(INPUT_PORT + 1, mmio_word)
        cpu.memory.input_queue.extend(inputs)
        twins.append(cpu)
    return twins


def differing_words(a, b):
    """The first few addresses where two CPUs' memories differ.

    Keeps a failing assertion's report small: pytest would otherwise
    diff two 64 Ki-word lists for every candidate Hypothesis shrinks.
    """
    words_a = a.memory.dump_words(0, ADDRESS_SPACE)
    words_b = b.memory.dump_words(0, ADDRESS_SPACE)
    if words_a == words_b:
        return []
    return [i for i, (x, y) in enumerate(zip(words_a, words_b)) if x != y][:8]


def observable(cpu):
    """Everything but the memory words that the engine promises to
    leave exactly as ``step()`` does."""
    memory = cpu.memory
    return (
        list(cpu.state.regs),
        cpu.state.pc,
        cpu.state.halted,
        cpu.instructions_retired,
        cpu.cycles,
        cpu.energy_j,
        memory.ram_reads,
        memory.ram_writes,
        memory.nvm_reads,
        memory.nvm_writes,
        list(memory.output),
        list(memory.input_queue),
    )


def scalar_segment(cpu, budget, time_used, energy, cap):
    """The scalar loop :meth:`BlockEngine.run` is specified against."""
    cycle_time = cpu.energy_model.cycle_time_s
    executed = 0
    while time_used < budget:
        try:
            info = cpu.step()
        except ExecutionError as exc:
            return executed, energy, time_used, False, str(exc)
        time_used += info.cycles * cycle_time
        energy += info.energy_j
        executed += 1
        if executed > cap:
            return executed, energy, time_used, True, None
        if cpu.state.halted:
            break
    return executed, energy, time_used, False, None


def scalar_count(cpu, count):
    """``count`` chained ``step()`` calls; the fault message or ``None``."""
    try:
        for _ in range(count):
            cpu.step()
    except ExecutionError as exc:
        return str(exc)
    return None


def engine_count(engine, cpu, count):
    try:
        assert engine.run_count(cpu, count) == count
    except ExecutionError as exc:
        return str(exc)
    return None


def run_schedule(program, model, twins, schedule):
    """Drive both twins through ``schedule``; compare after each step."""
    engine_cpu, scalar_cpu = twins
    engine = BlockEngine(program, model)
    for step in schedule:
        if step[0] == "run":
            _, delta, time_used, cap = step
            budget = time_used + delta
            energy = time_used * 1e-3
            seg = engine.run(engine_cpu, budget, time_used, energy, cap)
            got = (
                seg.executed,
                seg.energy_j,
                seg.time_used_s,
                seg.capped,
                None if seg.fault is None else str(seg.fault),
            )
            want = scalar_segment(scalar_cpu, budget, time_used, energy, cap)
            fault = want[4]
        else:
            got = engine_count(engine, engine_cpu, step[1])
            want = fault = scalar_count(scalar_cpu, step[1])
        assert got == want
        assert observable(engine_cpu) == observable(scalar_cpu)
        assert differing_words(engine_cpu, scalar_cpu) == []
        if fault is not None or engine_cpu.state.halted:
            break
    return engine


@settings(max_examples=150, deadline=None)
@given(
    program=programs(),
    model=st.sampled_from(MODELS),
    regs=st.lists(register_values, min_size=8, max_size=8),
    image=st.dictionaries(
        st.sampled_from([a for a in BOUNDARY_ADDRESSES if a < MMIO_BASE]),
        st.integers(0, 0xFFFF),
    ),
    mmio_word=st.integers(0, 0xFFFF),
    inputs=st.lists(st.integers(-(1 << 18), 1 << 18), max_size=6),
    schedule=schedules,
)
def test_engine_matches_step(program, model, regs, image, mmio_word, inputs,
                             schedule):
    twins = make_twins(program, model, regs, image, mmio_word, inputs)
    run_schedule(program, model, twins, schedule)


def test_long_blocks_fuse_across_every_region():
    """A deterministic loop whose blocks do run fused, touching every
    region and both ports each iteration."""
    body = [
        Instruction(Opcode.LD, rd=2, rs1=0, imm=INPUT_PORT),
        Instruction(Opcode.ST, rs1=1, rs2=2, imm=NVM_BASE - 1),
        Instruction(Opcode.LD, rd=3, rs1=1, imm=NVM_BASE - 1),
        Instruction(Opcode.SARI, rd=4, rs1=3, imm=3),
        Instruction(Opcode.SLT, rd=5, rs1=4, rs2=2),
        Instruction(Opcode.DIVU, rd=6, rs1=3, rs2=0),
        Instruction(Opcode.REMU, rd=0, rs1=3, rs2=1),
        Instruction(Opcode.ST, rs1=0, rs2=6, imm=OUTPUT_PORT),
        Instruction(Opcode.LD, rd=0, rs1=1, imm=MMIO_BASE - 2),
        Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),
        Instruction(Opcode.SLTIU, rd=7, rs1=1, imm=40),
        Instruction(Opcode.BNE, rs1=7, rs2=0, imm=0),
        Instruction(Opcode.HALT),
    ]
    twins = make_twins(body, MODELS[1], [3 << 16] + [0] * 7, {}, 0,
                       list(range(-20, 20)))
    schedule = [("run", 9e-6, 0.0, 5_000_000), ("count", 7)]
    schedule += [("run", 2.5e-5, 1e-6, 5_000_000)] * 30
    engine = run_schedule(body, MODELS[1], twins, schedule)
    assert twins[0].state.halted
    assert engine.fused_blocks > 0 and engine.stepped_blocks > 0


def test_non_finite_costs_are_bound_by_name():
    """An infinite per-instruction energy compiles (bound by name, never
    emitted as the text ``inf``) and accumulates exactly as ``step()``."""
    model = EnergyModel(static_power_w=math.inf)
    program = [
        Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),
        Instruction(Opcode.BLTU, rs1=1, rs2=2, imm=0),
        Instruction(Opcode.HALT),
    ]
    assert math.isinf(model.instruction_energy(InstrClass.ALU))
    twins = make_twins(program, model, [0, 0, 9] + [0] * 5, {}, 0, [])
    schedule = [("run", 1e-3, 0.0, 5_000_000)]
    engine = run_schedule(program, model, twins, schedule)
    assert twins[0].state.halted
    assert engine.fused_blocks > 0
