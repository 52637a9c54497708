"""Fuzzed sweep and fleet specs: bad input is a ValueError naming its field.

Each example starts from a valid spec or config and replaces one field
with an arbitrary JSON value.  The input is either accepted or rejected
with a ``ValueError`` whose message names the replaced field (or a key
inside the replacement); a ``TypeError``/``KeyError``/``AttributeError``
escaping the boundary fails the test.  Cases the fuzzer found are
pinned as explicit examples in ``test_exp_spec.py`` and
``test_fleet.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.exp.spec import CONFIG_DEFAULTS, ExperimentSpec, resolve_config
from repro.fleet.spec import FleetSpec, resolve_device_config

#: Larger fleets are only parsed, not expanded, to keep examples fast.
MAX_EXPANDED_DEVICES = 64

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10**6)
    | st.floats()
    | st.sampled_from(["", "nvp", "wristwatch", "zip", "0.5"])
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "kind", "seed"]), inner,
                      max_size=3),
    max_leaves=6,
)
_config_keys = st.sampled_from(sorted(CONFIG_DEFAULTS) + [
    "nvp.state_bits", "nvp.technology", "nvp.bogus", "seed.x", "bogus",
    "trace_offset_s",
])
_configs = st.dictionaries(_config_keys, _json, max_size=4)
_axes = _json | st.dictionaries(
    _config_keys, _json | st.lists(_json, max_size=3), max_size=3
)


def _names(value):
    """Every key (and dotted key part) inside a JSON value."""
    names = set()
    if isinstance(value, dict):
        for key, inner in value.items():
            names.add(key)
            names.update(key.split("."))
            names |= _names(inner)
    elif isinstance(value, list):
        for inner in value:
            names |= _names(inner)
    return names


def _accepted_or_named(build, fields):
    """Run ``build``; a rejection must be a ValueError naming a field."""
    try:
        build()
    except ValueError as exc:
        assert any(field and field in str(exc) for field in fields), (
            f"{exc!r} names none of {sorted(fields)}"
        )


class TestConfigFuzz:
    @given(key=_config_keys, value=_json)
    @settings(max_examples=300, deadline=None)
    def test_resolve_config(self, key, value):
        config = {"platform": "nvp", "duration_s": 0.5, key: value}
        fields = {key, *key.split(".")} | _names(value)
        _accepted_or_named(lambda: resolve_config(config), fields)

    @given(key=_config_keys, value=_json)
    @settings(max_examples=300, deadline=None)
    def test_resolve_device_config(self, key, value):
        config = {"platform": "nvp", "duration_s": 0.5, key: value}
        fields = {key, *key.split(".")} | _names(value)
        _accepted_or_named(lambda: resolve_device_config(config), fields)

    @given(config=_configs)
    @settings(max_examples=300, deadline=None)
    def test_many_fields_never_escape_as_other_errors(self, config):
        for resolve in (resolve_config, resolve_device_config):
            try:
                resolve(config)
            except ValueError:
                pass


_SPEC_FIELDS = {
    "name": _json,
    "axes": _axes,
    "base": _json | _configs,
    "mode": st.sampled_from(["grid", "zip", "ensemble"]) | _json,
    "description": _json,
    "bogus": _json,
}
_FLEET_FIELDS = dict(_SPEC_FIELDS, replicas=_json, stagger_s=_json,
                     telemetry_every_s=_json)


def _valid_spec():
    return {
        "name": "fuzz",
        "base": {"source": "wristwatch", "duration_s": 0.5},
        "axes": {"platform": ["nvp", "checkpoint"], "seed": [1, 2]},
    }


def _field_and_value(fields):
    return st.sampled_from(sorted(fields)).flatmap(
        lambda field: st.tuples(st.just(field), fields[field])
    )


class TestSpecFuzz:
    @given(_field_and_value(_SPEC_FIELDS))
    @settings(max_examples=300, deadline=None)
    def test_experiment_spec_from_dict(self, field_value):
        field, value = field_value
        data = dict(_valid_spec(), **{field: value})
        _accepted_or_named(
            lambda: ExperimentSpec.from_dict(data).expand(),
            {field} | _names(value),
        )

    @given(_field_and_value(_FLEET_FIELDS))
    @settings(max_examples=300, deadline=None)
    def test_fleet_spec_from_dict(self, field_value):
        field, value = field_value
        data = dict(_valid_spec(), **{field: value})

        def build():
            spec = FleetSpec.from_dict(data)
            if spec.n_devices <= MAX_EXPANDED_DEVICES:
                spec.devices()

        _accepted_or_named(build, {field} | _names(value))
