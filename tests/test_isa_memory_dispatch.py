"""``MemoryMap.read``/``write`` range dispatch against the region-string form.

:class:`ReferenceMemoryMap` keeps the earlier ``read``/``write``, which
built a :meth:`MemoryMap.region` string and compared it.  Twin maps are
driven through the same random access sequence — addresses around every
region boundary, both ports, negative and ``>= 0x10000`` — and must agree
on every return value, exception type and message, word, region counter
and MMIO queue.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import WORD_MASK
from repro.isa.memory import (
    ADDRESS_SPACE,
    INPUT_PORT,
    MMIO_BASE,
    NVM_BASE,
    OUTPUT_PORT,
    MemoryMap,
)


class ReferenceMemoryMap(MemoryMap):
    """``read``/``write`` dispatching on a region string."""

    def read(self, address: int) -> int:
        region = self.region(address)
        if region == "mmio":
            if address == INPUT_PORT:
                return self.input_queue.pop(0) if self.input_queue else 0
            return self._words[address]
        if region == "nvm":
            self.nvm_reads += 1
        else:
            self.ram_reads += 1
        return self._words[address]

    def write(self, address: int, value: int) -> None:
        value &= WORD_MASK
        region = self.region(address)
        if region == "mmio":
            if address == OUTPUT_PORT:
                self.output.append(value)
            else:
                self._words[address] = value
            return
        if region == "nvm":
            self.nvm_writes += 1
        else:
            self.ram_writes += 1
        self._words[address] = value


EDGES = [
    -1,
    0,
    1,
    NVM_BASE - 1,
    NVM_BASE,
    NVM_BASE + 1,
    MMIO_BASE - 1,
    MMIO_BASE,
    INPUT_PORT,
    INPUT_PORT + 1,
    ADDRESS_SPACE - 1,
    ADDRESS_SPACE,
    ADDRESS_SPACE + INPUT_PORT,
]

addresses = (
    st.sampled_from(EDGES)
    | st.integers(-0x20000, 0x30000)
    | st.integers(MMIO_BASE - 4, MMIO_BASE + 4)
)
values = st.integers(-(1 << 20), 1 << 20)
accesses = st.lists(
    st.tuples(st.just("read"), addresses, st.just(0))
    | st.tuples(st.just("write"), addresses, values)
    | st.tuples(st.just("push"), st.just(0), values),
    max_size=60,
)


def apply(memory, access):
    """One access; its return value, or the exception's type and text."""
    kind, address, value = access
    try:
        if kind == "read":
            return memory.read(address)
        if kind == "write":
            return memory.write(address, value)
        memory.input_queue.append(value)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return None


def counters(memory):
    """Region counters and both MMIO queues."""
    return (
        memory.ram_reads,
        memory.ram_writes,
        memory.nvm_reads,
        memory.nvm_writes,
        list(memory.output),
        list(memory.input_queue),
    )


@settings(max_examples=300, deadline=None)
@given(sequence=accesses, queued=st.lists(values, max_size=4))
def test_dispatch_matches_region_string_reference(sequence, queued):
    memory, reference = MemoryMap(), ReferenceMemoryMap()
    memory.input_queue.extend(queued)
    reference.input_queue.extend(queued)
    for access in sequence:
        assert apply(memory, access) == apply(reference, access)
        assert counters(memory) == counters(reference)
    words = memory.dump_words(0, ADDRESS_SPACE)
    reference_words = reference.dump_words(0, ADDRESS_SPACE)
    if words != reference_words:
        # Report the differing addresses, not two 64 Ki-word lists.
        assert [i for i, (x, y) in enumerate(zip(words, reference_words))
                if x != y] == []


def test_out_of_range_raises_value_error():
    memory = MemoryMap()
    for address in (-1, ADDRESS_SPACE, ADDRESS_SPACE + INPUT_PORT):
        for access in (("read", address, 0), ("write", address, 7)):
            kind, text = apply(memory, access)
            assert kind is ValueError
            assert "outside 16-bit space" in text
    assert counters(memory) == counters(MemoryMap())
