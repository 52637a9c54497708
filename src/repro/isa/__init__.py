"""NV16: the behavioral MCU instruction-set substrate.

Nonvolatile-processor prototypes in the literature are built around
small 8051/MSP430-class cores.  ``repro.isa`` provides an equivalent
behavioral substrate: a compact 16-bit load/store ISA (``NV16``), a
two-pass assembler, a disassembler, a cycle- and energy-accounted CPU
core, and a segmented memory model (RAM / NVM / MMIO).

The ISA is deliberately simple and fully specified so that the rest of
the framework can reason about *instructions committed* (forward
progress) and *energy per instruction* — the quantities NVP papers
report — while remaining easy to write kernels for.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "assemble": ".assembler",
    "AssemblerError": ".assembler",
    "Program": ".assembler",
    "CPU": ".cpu",
    "CPUState": ".cpu",
    "ExecutionError": ".cpu",
    "disassemble": ".disasm",
    "disassemble_program": ".disasm",
    "classify": ".energy",
    "EnergyModel": ".energy",
    "InstrClass": ".energy",
    "decode": ".instructions",
    "encode": ".instructions",
    "Instruction": ".instructions",
    "Opcode": ".instructions",
    "REGISTER_NAMES": ".instructions",
    "MemoryMap": ".memory",
    "MMIO_BASE": ".memory",
    "NVM_BASE": ".memory",
    "OUTPUT_PORT": ".memory",
    "RAM_BASE": ".memory",
})
