"""Fleet specification: a population of heterogeneous devices.

A :class:`FleetSpec` describes N devices the fleet kernel advances in
lockstep.  It reuses the experiment engine's config vocabulary — every
device config is a :func:`repro.exp.spec.resolve_config` config — and
adds exactly one fleet-only key, ``trace_offset_s``: the device's
start offset (seconds) into its trace, so a fleet can stagger many
devices along one long harvesting recording.

Two deliberate hashing decisions keep fleet points cache-compatible
with ordinary sweeps:

* ``trace_offset_s`` is **not** added to
  :data:`repro.exp.spec.CONFIG_DEFAULTS` — that would change the
  canonical form (and therefore the content hash) of every existing
  cached sweep point;
* a device at offset ``0.0`` hashes identically to the plain sweep
  config (:func:`device_config_hash` strips the zero offset).  This is
  sound because fleet results are bit-for-bit identical to the
  single-device engine (property-tested in
  ``tests/test_fastpath_equivalence.py``), so the cache entries are
  interchangeable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.exp.spec import (
    _auto_label,
    check_axes,
    config_hash,
    resolve_config,
    spec_object,
)

#: The one config key that exists only for fleet devices.
DEVICE_OFFSET_KEY = "trace_offset_s"

#: Supported expansion modes (same semantics as ExperimentSpec).
MODES = ("grid", "zip")


def resolve_device_config(config: Mapping) -> Dict:
    """Resolve a device config: sweep defaults plus ``trace_offset_s``.

    Returns a fully-resolved config dict whose non-fleet keys went
    through :func:`repro.exp.spec.resolve_config` (defaults applied,
    unknown keys rejected) and whose ``trace_offset_s`` is a validated
    float.  The offset is checked against the configured duration; the
    exact end-of-trace bound is enforced later by
    :meth:`repro.harvest.traces.PowerTrace.offset_ticks`.
    """
    raw = dict(config)
    offset = raw.pop(DEVICE_OFFSET_KEY, 0.0)
    resolved = resolve_config(raw)
    offset = float(offset)
    if offset < 0:
        raise ValueError("trace_offset_s cannot be negative")
    if offset >= resolved["duration_s"]:
        raise ValueError(
            f"trace_offset_s ({offset}s) is at/past the trace duration "
            f"({resolved['duration_s']}s)"
        )
    resolved[DEVICE_OFFSET_KEY] = offset
    return resolved


def device_config_hash(resolved: Mapping) -> str:
    """Content hash of a resolved device config.

    A zero offset is stripped before hashing so offset-0 fleet devices
    share cache entries with ordinary sweep points (their results are
    bit-identical, so recall is exact either way).
    """
    hashable = dict(resolved)
    if hashable.get(DEVICE_OFFSET_KEY, 0.0) == 0.0:
        hashable.pop(DEVICE_OFFSET_KEY, None)
    return config_hash(hashable)


@dataclass(frozen=True)
class FleetSpec:
    """A declarative fleet: axes × replicas over the sweep vocabulary.

    Attributes:
        name: fleet name (ledger/experiment label).
        axes: dotted-key axes expanded like an
            :class:`~repro.exp.spec.ExperimentSpec` (``grid`` product
            or ``zip`` lockstep).  ``trace_offset_s`` is a valid axis.
        base: settings shared by every device.
        mode: ``"grid"`` or ``"zip"``.
        replicas: statistical copies of every expanded point; replica
            ``r`` gets ``platform_seed + r`` and (optionally) a trace
            offset staggered by ``r * stagger_s``.
        stagger_s: per-replica trace-offset increment, seconds.
        telemetry_every_s: default telemetry sampling cadence for this
            fleet (simulated seconds).  ``None`` leaves the cadence to
            the CLI/telemetry defaults; the ``--telemetry-every`` flag
            overrides it.
        description: free-form note carried into results files.
    """

    name: str
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    base: Mapping = field(default_factory=dict)
    mode: str = "grid"
    replicas: int = 1
    stagger_s: float = 0.0
    telemetry_every_s: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fleet spec needs a name")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.stagger_s < 0:
            raise ValueError("stagger_s cannot be negative")
        if self.telemetry_every_s is not None and self.telemetry_every_s <= 0:
            raise ValueError("telemetry_every_s must be positive")
        check_axes(self.axes, self.mode)

    # -- expansion ---------------------------------------------------------

    def points(self) -> List[Dict]:
        """Axis combinations (before replication), last axis fastest."""
        if not self.axes:
            return [{}]
        names = list(self.axes)
        if self.mode == "zip":
            return [
                dict(zip(names, combo))
                for combo in zip(*(self.axes[name] for name in names))
            ]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(
                *(self.axes[name] for name in names)
            )
        ]

    @property
    def n_devices(self) -> int:
        """Total device count: expanded points × replicas."""
        return len(self.points()) * self.replicas

    def devices(self) -> List[Dict]:
        """Every device's fully-resolved config, in fleet order.

        Fleet order is point order (last axis fastest) with replicas
        innermost.  Replica ``r`` bumps ``platform_seed`` by ``r`` —
        deterministic per-device RNG streams — and, when ``stagger_s``
        is set, shifts the trace offset by ``r * stagger_s``.
        """
        configs: List[Dict] = []
        for point in self.points():
            raw = dict(self.base)
            raw.update(point)
            if "label" not in raw and point:
                raw["label"] = _auto_label(point)
            for replica in range(self.replicas):
                device = dict(raw)
                if self.replicas > 1:
                    device["platform_seed"] = (
                        int(device.get("platform_seed") or 0) + replica
                    )
                    if self.stagger_s:
                        device[DEVICE_OFFSET_KEY] = (
                            float(device.get(DEVICE_OFFSET_KEY, 0.0))
                            + replica * self.stagger_s
                        )
                    base_label = device.get("label")
                    device["label"] = (
                        f"{base_label}#r{replica}"
                        if base_label else f"r{replica}"
                    )
                configs.append(resolve_device_config(device))
        if not configs:
            raise ValueError("fleet spec expands to zero devices")
        return configs

    # -- loading -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetSpec":
        """Build a spec from parsed JSON, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ValueError("fleet spec must be a JSON object")
        known = {
            "name", "axes", "base", "mode", "replicas", "stagger_s",
            "telemetry_every_s", "description",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fleet spec key(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(
            name=data.get("name", ""),
            axes=spec_object(data, "axes"),
            base=spec_object(data, "base"),
            mode=data.get("mode", "grid"),
            replicas=int(data.get("replicas", 1)),
            stagger_s=float(data.get("stagger_s", 0.0)),
            telemetry_every_s=(
                None if data.get("telemetry_every_s") is None
                else float(data["telemetry_every_s"])
            ),
            description=data.get("description", ""),
        )

    @classmethod
    def from_file(cls, path: str) -> "FleetSpec":
        """Load a fleet spec from a JSON file."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
