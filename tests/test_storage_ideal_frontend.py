"""Unit tests for the ideal store and the front-end channels."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.storage.capacitor import Capacitor, ChargeEfficiency, StorageStep
from repro.storage.frontend import DualChannelFrontEnd, SingleChannelFrontEnd
from repro.storage.ideal import IdealStorage


class TestIdealStorage:
    def test_lossless_roundtrip(self):
        store = IdealStorage(1e-6)
        store.step(1e-3, 0.0, 1e-4)
        assert store.energy_j == pytest.approx(1e-7)
        result = store.step(0.0, 1e-3, 1e-4)
        assert result.delivered_j == pytest.approx(1e-7)
        assert store.energy_j == pytest.approx(0.0, abs=1e-18)

    def test_capacity_bound(self):
        store = IdealStorage(1e-9)
        result = store.step(1e-3, 0.0, 1e-3)
        assert store.energy_j == pytest.approx(1e-9)
        assert result.wasted_j == pytest.approx(1e-6 - 1e-9, rel=1e-6)

    def test_deficit(self):
        store = IdealStorage(1e-6)
        assert store.step(0.0, 1.0, 1e-3).deficit

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealStorage(0.0)
        with pytest.raises(ValueError):
            IdealStorage(1e-6, initial_j=2e-6)
        store = IdealStorage(1e-6)
        with pytest.raises(ValueError):
            store.step(-1.0, 0.0, 1e-3)

    def test_draw(self):
        store = IdealStorage(1e-6, initial_j=1e-6)
        assert store.draw(4e-7) == pytest.approx(4e-7)
        assert store.energy_j == pytest.approx(6e-7)


class ReferenceIdealStorage:
    """The standalone ideal store that became a ``Capacitor`` subclass.

    Its ``step`` / ``draw`` / ``charge_many`` arithmetic, op for op
    (argument validation and fleet hooks dropped): the deletion guard
    for those copies.
    """

    def __init__(self, capacity_j: float, initial_j: float = 0.0) -> None:
        self.capacity_j = capacity_j
        self._energy_j = initial_j
        self.total_charged_j = 0.0
        self.total_delivered_j = 0.0
        self.total_leaked_j = 0.0
        self.total_wasted_j = 0.0

    def step(self, p_in_w, p_load_w, dt_s):
        charged = p_in_w * dt_s
        wasted = 0.0
        headroom = self.capacity_j - self._energy_j
        if charged > headroom:
            wasted = charged - headroom
            charged = headroom
        self._energy_j += charged
        demand = p_load_w * dt_s
        delivered = min(demand, self._energy_j)
        self._energy_j -= delivered
        self.total_charged_j += charged
        self.total_delivered_j += delivered
        self.total_wasted_j += wasted
        return StorageStep(
            delivered_j=delivered,
            charged_j=charged,
            leaked_j=0.0,
            wasted_j=wasted,
            deficit=delivered < demand - 1e-18,
        )

    def draw(self, energy_j):
        drawn = min(energy_j, self._energy_j)
        self._energy_j -= drawn
        self.total_delivered_j += drawn
        return drawn

    def charge_many(self, p_in_w, start, stop, dt_s, stop_energy_j=None):
        energy = self._energy_j
        capacity = self.capacity_j
        total_charged = self.total_charged_j
        total_wasted = self.total_wasted_j
        target = float("inf") if stop_energy_j is None else stop_energy_j
        index = start
        crossed = False
        while index < stop:
            charged = p_in_w[index] * dt_s
            index += 1
            wasted = 0.0
            headroom = capacity - energy
            if charged > headroom:
                wasted = charged - headroom
                charged = headroom
            energy += charged
            total_charged += charged
            total_wasted += wasted
            if energy >= target:
                crossed = True
                break
        self._energy_j = energy
        self.total_charged_j = total_charged
        self.total_wasted_j = total_wasted
        return index - start, crossed


STATE = (
    "_energy_j", "total_charged_j", "total_delivered_j", "total_leaked_j",
    "total_wasted_j",
)


def _state(store):
    """Energy and every cumulative total, as exact bit patterns."""
    return tuple(float(getattr(store, name)).hex() for name in STATE)


def _bits(value):
    if isinstance(value, StorageStep):
        return (
            value.delivered_j.hex(), value.charged_j.hex(),
            value.leaked_j.hex(), value.wasted_j.hex(), value.deficit,
        )
    if isinstance(value, tuple):
        return value
    return float(value).hex()


power_st = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
dt_st = st.sampled_from([1e-5, 1e-4, 1e-3])
op_st = st.one_of(
    st.tuples(st.just("step"), power_st, power_st, dt_st),
    st.tuples(
        st.just("many"), power_st, dt_st,
        st.one_of(st.none(), st.floats(0.0, 2e-3)),
    ),
    st.tuples(st.just("draw"), st.floats(0.0, 2e-3)),
)


@given(
    capacity=st.floats(1e-9, 1e-3),
    initial=st.floats(0.0, 1e-3),
    ops=st.lists(op_st, max_size=40),
)
@example(  # leaves the store one ulp over capacity
    capacity=4.774212882981862e-06,
    initial=4.80769004891829e-07,
    ops=[
        ("step", 1.0, 0.0, 1e-4),
        ("step", 0.0, 0.0, 1e-4),
        ("many", 0.0, 1e-4, None),
        ("step", 1e-3, 1e-3, 1e-4),
        ("draw", 1e-6),
    ],
)
@settings(max_examples=300, deadline=None)
def test_ideal_storage_matches_reference(capacity, initial, ops):
    """The Capacitor-based ideal store replays the standalone one exactly.

    ``charge_many`` runs one tick at a time.  A tick that starts over
    capacity (one ulp, left by rounding) is the one deliberate change:
    the standalone store pulled it back on a zero-input tick, the
    capacitor chain does not.  Such ticks are not compared and the
    reference adopts the new state.
    """
    initial = min(initial, capacity)
    store = IdealStorage(capacity, initial_j=initial)
    reference = ReferenceIdealStorage(capacity, initial_j=initial)
    for op in ops:
        kind = op[0]
        starts_over = store.energy_j > capacity
        if kind == "step":
            _, p_in, p_load, dt = op
            got, want = (
                target.step(p_in, p_load, dt) for target in (store, reference)
            )
        elif kind == "many":
            _, p_in, dt, stop_energy = op
            got, want = (
                target.charge_many(np.array([p_in]), 0, 1, dt, stop_energy)
                for target in (store, reference)
            )
        else:
            got, want = store.draw(op[1]), reference.draw(op[1])
        if starts_over:
            for name in STATE:
                setattr(reference, name, getattr(store, name))
            continue
        assert _bits(got) == _bits(want)
        assert _state(store) == _state(reference)


def test_ideal_storage_defines_no_chain_copy():
    assert issubclass(IdealStorage, Capacitor)
    own = set(vars(IdealStorage))
    assert not own & {"step", "draw", "charge_many"}
    assert not any(name.startswith("soa_") for name in own)


class TestSingleChannel:
    def test_pays_conversion_twice_conceptually(self):
        """All load energy must route through the (lossy) capacitor."""
        cap = Capacitor(
            1e-6, v_initial_v=0.0, leak_resistance_ohm=1e18,
            efficiency=ChargeEfficiency(0.5, 0.5, 0.0, 1.0),
        )
        channel = SingleChannelFrontEnd(cap)
        result = channel.step(p_in_w=100e-6, p_load_w=40e-6, dt_s=1e-3)
        # 100 uW in at 50% efficiency = 50 uW stored; 40 uW load fits.
        assert result.delivered_j == pytest.approx(40e-9)
        assert not result.deficit

    def test_deficit_propagates(self):
        cap = Capacitor(1e-6, leak_resistance_ohm=1e18)
        channel = SingleChannelFrontEnd(cap)
        assert channel.step(0.0, 1e-3, 1e-3).deficit


class TestDualChannel:
    def make_lossy_cap(self):
        return Capacitor(
            1e-6, v_initial_v=1.0, leak_resistance_ohm=1e18,
            efficiency=ChargeEfficiency(0.5, 0.5, 0.0, 1.0),
        )

    def test_bypass_feeds_load_directly(self):
        channel = DualChannelFrontEnd(self.make_lossy_cap(), bypass_efficiency=1.0)
        result = channel.step(p_in_w=100e-6, p_load_w=60e-6, dt_s=1e-3)
        assert result.bypassed_j == pytest.approx(60e-9)
        assert result.delivered_j == pytest.approx(60e-9)

    def test_dual_beats_single_for_matched_load(self):
        """With income ~ load, the bypass avoids the double conversion."""
        single_cap = self.make_lossy_cap()
        dual_cap = self.make_lossy_cap()
        single = SingleChannelFrontEnd(single_cap)
        dual = DualChannelFrontEnd(dual_cap, bypass_efficiency=0.95)
        delivered_single = delivered_dual = 0.0
        for _ in range(200):
            delivered_single += single.step(50e-6, 50e-6, 1e-4).delivered_j
            delivered_dual += dual.step(50e-6, 50e-6, 1e-4).delivered_j
        # Single channel drains its initial store (50% in-efficiency
        # cannot sustain the load); dual channel sustains it.
        assert delivered_dual > delivered_single
        assert dual_cap.energy_j > single_cap.energy_j

    def test_idle_load_charges_storage(self):
        cap = self.make_lossy_cap()
        channel = DualChannelFrontEnd(cap)
        start = cap.energy_j
        result = channel.step(p_in_w=100e-6, p_load_w=0.0, dt_s=1e-3)
        assert result.delivered_j == 0.0
        assert cap.energy_j > start

    def test_shortfall_drawn_from_storage(self):
        cap = self.make_lossy_cap()
        channel = DualChannelFrontEnd(cap, bypass_efficiency=1.0)
        result = channel.step(p_in_w=10e-6, p_load_w=50e-6, dt_s=1e-3)
        assert result.delivered_j == pytest.approx(50e-9)
        assert result.bypassed_j == pytest.approx(10e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DualChannelFrontEnd(self.make_lossy_cap(), bypass_efficiency=0.0)
        channel = DualChannelFrontEnd(self.make_lossy_cap())
        with pytest.raises(ValueError):
            channel.step(-1.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            channel.step(0.0, 0.0, 0.0)
