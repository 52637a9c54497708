"""Batched NVM array operations against the per-word scalar reference.

``NVMArray.write_block`` / ``write_words`` / ``read_block`` and the
vectorised ``power_outage`` must be indistinguishable from one
``write``/``read`` per word and the original per-bit aging loop: same
words, validity, write counts, every ``ArrayStats`` field (floats
compared exactly) and the same RNG stream.  Unlike a loop of scalar
calls, a block operation that fails leaves the array untouched.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nvm.array import NVMArray
from repro.nvm.retention import LinearPolicy, LogPolicy, UniformPolicy
from repro.nvm.technology import STT_MRAM

SIZE = 12


def reference_power_outage(array: NVMArray, duration_s: float, rng) -> int:
    """The per-bit aging loop the batched ``power_outage`` replaced."""
    if duration_s < 0:
        raise ValueError("outage duration cannot be negative")
    array.stats.outages += 1
    valid_idx = np.flatnonzero(array._valid)
    if len(valid_idx) == 0 or duration_s == 0.0:
        return 0
    p_relax = 1.0 - np.exp(-duration_s / array._retention_profile)
    relaxed = rng.random((len(valid_idx), array.word_bits)) < p_relax
    flips = relaxed & (rng.random(relaxed.shape) < 0.5)
    for bit in range(array.word_bits):
        array.stats.bit_failures[bit] += int(relaxed[:, bit].sum())
    if not flips.any():
        return 0
    flip_masks = np.zeros(len(valid_idx), dtype=np.uint32)
    for bit in range(array.word_bits):
        flip_masks |= flips[:, bit].astype(np.uint32) << bit
    array._words[valid_idx] ^= flip_masks
    return int(flips.sum())


def assert_same_state(batched: NVMArray, scalar: NVMArray, rngs) -> None:
    assert batched._words.tolist() == scalar._words.tolist()
    assert batched._valid.tolist() == scalar._valid.tolist()
    assert batched._write_counts.tolist() == scalar._write_counts.tolist()
    assert dataclasses.asdict(batched.stats) == dataclasses.asdict(scalar.stats)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


values_st = st.integers(-(2**40), 2**40)
op_st = st.one_of(
    st.tuples(
        st.just("block"), st.integers(-2, SIZE), st.lists(values_st, max_size=SIZE)
    ),
    st.tuples(
        st.just("sparse"),
        st.lists(st.integers(-1, SIZE), max_size=SIZE),
        st.lists(values_st, max_size=SIZE),
    ),
    st.tuples(st.just("read"), st.integers(-2, SIZE), st.integers(0, SIZE)),
    st.tuples(
        st.just("outage"), st.sampled_from([0.0, 1e-5, 1e-3, 0.05, 1.0, 50.0])
    ),
)
policy_st = st.sampled_from(
    [
        None,
        UniformPolicy(1e-3),
        LinearPolicy(1e-3, STT_MRAM.retention_s),
        LogPolicy(1e-4, 1.0),
    ]
)


def _sparse_valid(addresses, values) -> bool:
    return (
        len(addresses) == len(values)
        and all(0 <= a < SIZE for a in addresses)
        and len(set(addresses)) == len(addresses)
    )


def _pair_values(op):
    """Make a sparse op well formed: distinct addresses, one value each."""
    _, addresses, values = op
    distinct = list(dict.fromkeys(addresses))
    return distinct, values[: len(distinct)]


@given(
    word_bits=st.sampled_from([8, 16, 22, 32]),
    policy=policy_st,
    endurance=st.sampled_from([None, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
    raw_ops=st.lists(op_st, max_size=25),
    keep_raw=st.lists(st.booleans(), min_size=25, max_size=25),
)
@settings(max_examples=300, deadline=None)
def test_batched_matches_scalar_reference(
    word_bits, policy, endurance, seed, raw_ops, keep_raw
):
    tech = (
        STT_MRAM
        if endurance is None
        else dataclasses.replace(STT_MRAM, endurance_cycles=endurance)
    )
    batched, scalar = (
        NVMArray(
            SIZE,
            tech,
            policy=policy,
            word_bits=word_bits,
            enforce_endurance=endurance is not None,
        )
        for _ in range(2)
    )
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for op, keep in zip(raw_ops, keep_raw):
        kind = op[0]
        if kind == "sparse" and not keep:
            op = ("sparse", *_pair_values(op))
        before = dataclasses.asdict(batched.stats), batched._words.tolist()
        ok = True
        if kind == "block":
            _, base, values = op
            ok = not values or (0 <= base and base + len(values) <= SIZE)
            if ok:
                batched.write_block(base, values)
                for offset, value in enumerate(values):
                    scalar.write(base + offset, value)
            else:
                with pytest.raises(ValueError):
                    batched.write_block(base, values)
        elif kind == "sparse":
            _, addresses, values = op
            ok = _sparse_valid(addresses, values)
            if ok:
                batched.write_words(addresses, values)
                for address, value in zip(addresses, values):
                    scalar.write(address, value)
            else:
                with pytest.raises(ValueError):
                    batched.write_words(addresses, values)
        elif kind == "read":
            _, base, count = op
            ok = count == 0 or (
                0 <= base
                and base + count <= SIZE
                and bool(scalar._valid[base : base + count].all())
            )
            if ok:
                expected = [scalar.read(base + i) for i in range(count)]
                assert batched.read_block(base, count) == expected
            else:
                with pytest.raises(ValueError):
                    batched.read_block(base, count)
        else:
            _, duration_s = op
            assert batched.power_outage(duration_s, rngs[0]) == (
                reference_power_outage(scalar, duration_s, rngs[1])
            )
        if not ok:
            # A rejected block operation leaves no trace.
            after = dataclasses.asdict(batched.stats), batched._words.tolist()
            assert after == before
        assert_same_state(batched, scalar, rngs)


def test_single_draw_matches_two_draws():
    """``rng.random((2, n, w))`` is the stream of two ``(n, w)`` draws."""
    one, two = np.random.default_rng(5), np.random.default_rng(5)
    joint = one.random((2, 3, 22))
    assert np.array_equal(joint[0], two.random((3, 22)))
    assert np.array_equal(joint[1], two.random((3, 22)))
    assert one.bit_generator.state == two.bit_generator.state


class TestBlockOpsAreAtomic:
    def test_write_block_past_the_end_changes_nothing(self):
        array = NVMArray(4)
        with pytest.raises(ValueError, match="address 4 outside"):
            array.write_block(2, [1, 2, 3])
        assert not array._valid.any()
        assert array._write_counts.tolist() == [0, 0, 0, 0]
        assert array.stats.writes == 0
        assert array.stats.write_energy_j == 0.0

    def test_read_block_past_the_end_counts_nothing(self):
        array = NVMArray(4)
        array.write_block(0, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="address 4 outside"):
            array.read_block(3, 2)
        assert array.stats.reads == 0
        assert array.stats.read_energy_j == 0.0

    def test_read_block_of_unwritten_word_counts_nothing(self):
        array = NVMArray(4)
        array.write(0, 7)
        with pytest.raises(ValueError, match="word 1 has never been written"):
            array.read_block(0, 2)
        assert array.stats.reads == 0

    def test_write_words_rejects_duplicates_and_bad_addresses(self):
        array = NVMArray(4)
        with pytest.raises(ValueError, match="distinct"):
            array.write_words([1, 1], [5, 6])
        with pytest.raises(ValueError, match="address 9 outside"):
            array.write_words([0, 9], [5, 6])
        with pytest.raises(ValueError, match="addresses for"):
            array.write_words([0, 1], [5])
        assert array.stats.writes == 0
        assert not array._valid.any()

    def test_write_words_keeps_value_order(self):
        array = NVMArray(4, word_bits=8)
        array.write_words([3, 0, 2], [0x1AB, -1, 7])
        assert array.read_block(2, 2) == [7, 0xAB]
        assert array.read(0) == 0xFF

    def test_worn_block_words_stick_but_are_charged(self):
        tech = dataclasses.replace(STT_MRAM, endurance_cycles=1)
        array = NVMArray(3, tech, enforce_endurance=True)
        array.write(1, 5)
        array.write_block(0, [1, 2, 3])
        assert array.read_block(0, 3) == [1, 5, 3]
        assert array.stats.worn_writes == 1
        assert array.stats.writes == 4
