"""Declarative experiment specs.

An :class:`ExperimentSpec` describes a *family* of simulations — a
base configuration plus one or more swept axes — and expands into a
deterministic list of fully-resolved run configs.  Every resolved
config is a plain JSON-able dict with a stable content hash
(:func:`config_hash`), which is what the result cache and the sweep
runner key on: the same spec always expands to the same configs in
the same order with the same hashes, on any machine.

Three expansion modes:

* ``grid`` — the Cartesian product of all axes (architecture-space
  exploration: every technology x every capacitor x every policy);
* ``zip`` — axes advance in lockstep (labelled configurations, like
  the retention-policy ladder);
* ``ensemble`` — a grid that must sweep ``seed`` (the same design
  point across an ensemble of stochastic traces).

Axis names may be dotted (``"nvp.backup_margin"``) to reach into the
nested NVP architecture config.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Expansion modes understood by :meth:`ExperimentSpec.expand`.
MODES = ("grid", "zip", "ensemble")

#: Platform presets the runner can build (mirrors the CLI).
PLATFORMS = ("nvp", "wait", "checkpoint", "oracle")

#: Trace sources the runner can synthesise.  ``profile`` selects one
#: of the five standard wristwatch evaluation profiles by
#: ``profile_index``; ``constant`` uses ``mean_uw`` as a DC level.
SOURCES = (
    "wristwatch", "solar", "rf", "thermal", "hybrid", "constant", "profile",
)

#: Every top-level config key with its default.  ``resolve_config``
#: rejects anything else so a typo in a spec fails fast instead of
#: silently sweeping nothing.
CONFIG_DEFAULTS: Dict[str, object] = {
    "platform": "nvp",          # one of PLATFORMS
    "source": "wristwatch",     # one of SOURCES
    "duration_s": 1.0,          # simulated seconds
    "seed": 7,                  # trace RNG seed
    "mean_uw": None,            # rescale trace mean (uW); level for constant
    "profile_index": 0,         # which standard profile (source="profile")
    "profile_count": 5,         # how many standard profiles exist
    "capacitance_f": None,      # storage size; None = platform default
    "energy_margin": None,      # wait-and-compute margin; None = default
    "nvp": {},                  # NVPConfig keyword overrides
    "platform_seed": 0,         # platform-internal RNG seed
    "kernel": None,             # NV16 kernel name; None = abstract mix
    "frames": 5,                # frames for kernel workloads
    "stop_when_finished": None, # None = True iff a kernel is set
    "rectifier": True,          # route the trace through the AC-DC front end
    "label": None,              # None = auto-generated from swept axes
}

#: ``nvp`` sub-config keys that take names/specs instead of objects.
#: ``technology`` is an NVM catalog name; ``retention_policy`` is
#: ``{"kind": "linear"|"log"|"parabola"|"uniform", ...ctor kwargs}``.
_NVP_RESOLVED_KEYS = ("technology", "retention_policy")


def _nvp_field_names() -> Tuple[str, ...]:
    from dataclasses import fields

    from repro.core.config import NVPConfig

    return tuple(f.name for f in fields(NVPConfig))


def _assign(config: Dict, key: str, value) -> None:
    """Set ``key`` in ``config``, descending through dotted paths."""
    parts = key.split(".")
    target = config
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot descend into non-dict key {part!r}")
        target = node
    target[parts[-1]] = value


def is_number(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and math.isfinite(value)
    )


def _check_positive(config: Mapping, key: str) -> None:
    """Reject ``config[key]`` unless it is a finite positive number."""
    value = config[key]
    if not is_number(value) or not value > 0:
        raise ValueError(f"{key} must be a positive number, got {value!r}")


def spec_object(data: Mapping, key: str) -> Dict:
    """``data[key]`` as a dict; ``{}`` when absent or null.

    Raises:
        ValueError: naming ``key`` when the value is not an object.
    """
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValueError(
            f"spec field {key!r} must be an object, "
            f"not {type(value).__name__}"
        )
    return dict(value)


def spec_number(data: Mapping, key: str, default, kind=float):
    """``data[key]`` as a ``kind`` number; ``default`` when absent or null.

    Raises:
        ValueError: naming ``key`` when the value is not a finite
            number, or (for ``kind=int``) not a whole one.
    """
    value = data.get(key)
    if value is None:
        return default
    if not is_number(value) or (kind is int and value != int(value)):
        noun = "a whole number" if kind is int else "a number"
        raise ValueError(f"spec field {key!r} must be {noun}, not {value!r}")
    return kind(value)


def resolve_config(config: Mapping) -> Dict:
    """Merge ``config`` over the defaults and validate every key.

    Accepts dotted keys (``"nvp.state_bits"``).  Returns a new plain
    dict containing *every* key from :data:`CONFIG_DEFAULTS`, suitable
    for hashing and for shipping to a worker process.

    Raises:
        ValueError: unknown keys, unknown platform/source/kernel,
            malformed nested configs, or a ``duration_s`` /
            ``capacitance_f`` that is not a positive number.
    """
    merged: Dict = {k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in CONFIG_DEFAULTS.items()}
    for key, value in config.items():
        # Deep-copied so a resolved config never aliases (and dotted
        # axis keys never mutate) the caller's nested dicts.
        _assign(merged, key, copy.deepcopy(value))
    unknown = set(merged) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown config key(s) {sorted(unknown)}; "
            f"known: {sorted(CONFIG_DEFAULTS)}"
        )
    if merged["platform"] not in PLATFORMS:
        raise ValueError(
            f"unknown platform {merged['platform']!r}; known: {PLATFORMS}"
        )
    if merged["source"] not in SOURCES:
        raise ValueError(
            f"unknown source {merged['source']!r}; known: {SOURCES}"
        )
    if not isinstance(merged["nvp"], dict):
        raise ValueError("'nvp' must be a dict of NVPConfig overrides")
    bad = set(merged["nvp"]) - set(_nvp_field_names())
    if bad:
        raise ValueError(f"unknown NVPConfig key(s) {sorted(bad)}")
    _check_positive(merged, "duration_s")
    if merged["capacitance_f"] is not None:
        _check_positive(merged, "capacitance_f")
    if merged["stop_when_finished"] is None:
        merged["stop_when_finished"] = merged["kernel"] is not None
    return merged


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Raises:
        TypeError: if ``obj`` contains non-JSON-able values — configs
            must stay plain data so hashes are portable across
            processes and machines.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: Mapping) -> str:
    """Stable content hash of a resolved config (64 hex chars)."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def check_axes(axes: Mapping[str, Sequence], mode: str) -> None:
    """Reject malformed swept axes (shared by sweep and fleet specs).

    Every axis must be a non-empty list (or tuple) of values — a bare
    string would otherwise be swept one character at a time — and
    ``zip`` axes must all have the same length.

    Raises:
        ValueError: naming the offending axis.
    """
    for axis, values in axes.items():
        if not isinstance(values, (list, tuple)):
            raise ValueError(
                f"axis {axis!r} must be a list of values, "
                f"not {type(values).__name__}"
            )
        if not values:
            raise ValueError(f"axis {axis!r} has no values")
    if mode == "zip":
        lengths = {axis: len(values) for axis, values in axes.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"zip axes differ in length: {lengths}")


def _auto_label(point: Mapping[str, object]) -> str:
    return ",".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                    for k, v in point.items())


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: base config + swept axes + expansion mode.

    Attributes:
        name: experiment identifier (also the results file stem).
        axes: ``{axis_name: [values...]}`` — axis names are config
            keys, optionally dotted into the ``nvp`` sub-config.
        base: config keys shared by every point.
        mode: ``"grid"``, ``"zip"`` or ``"ensemble"``.
        description: free-form, carried into the results payload.
    """

    name: str
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    base: Mapping = field(default_factory=dict)
    mode: str = "grid"
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"spec name must be a non-empty string, got {self.name!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        if self.mode == "ensemble" and "seed" not in self.axes:
            raise ValueError("ensemble mode requires a 'seed' axis")
        check_axes(self.axes, self.mode)

    def points(self) -> List[Dict[str, object]]:
        """The swept ``{axis: value}`` combinations, in sweep order."""
        axes = {axis: list(values) for axis, values in self.axes.items()}
        if not axes:
            return [{}]
        names = list(axes)
        if self.mode == "zip":
            return [
                dict(zip(names, combo)) for combo in zip(*axes.values())
            ]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*axes.values())
        ]

    def expand(self) -> List[Dict]:
        """Resolve every sweep point into a full run config.

        Returns the configs in deterministic sweep order: for grids,
        the last axis varies fastest (like nested loops in axis
        order); for zips, index order.
        """
        configs = []
        for point in self.points():
            raw = dict(self.base)
            raw.update(point)
            if "label" not in raw and point:
                raw["label"] = _auto_label(point)
            configs.append(resolve_config(raw))
        return configs

    def hashes(self) -> List[str]:
        """Content hash per expanded config (same order)."""
        return [config_hash(c) for c in self.expand()]

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        """Build a spec from a plain dict (the JSON file layout)."""
        known = {"name", "axes", "base", "mode", "description"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown spec key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        if "name" not in data:
            raise ValueError("spec needs a name")
        return cls(
            name=data["name"],
            axes=spec_object(data, "axes"),
            base=spec_object(data, "base"),
            mode=data.get("mode", "grid"),
            description=data.get("description", ""),
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: spec must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def ensemble(
        cls,
        name: str,
        seeds: Sequence[int],
        base: Optional[Mapping] = None,
        description: str = "",
        **axes: Sequence,
    ) -> "ExperimentSpec":
        """Convenience: the same design point(s) across many seeds."""
        all_axes: Dict[str, Sequence] = {"seed": list(seeds)}
        all_axes.update(axes)
        return cls(
            name=name,
            axes=all_axes,
            base=dict(base or {}),
            mode="ensemble",
            description=description,
        )
