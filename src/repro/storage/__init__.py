"""Energy-storage devices and front-end channels.

The key system-level tradeoff the DATE'17 tutorial identifies is
between (a) trickle-charging a large storage capacitor — paying
leakage, conversion losses, and long wait times — and (b) running an
NVP off a small backup-sized capacitor — paying frequent backup and
restore overheads.  This package models the storage side: a capacitor
with voltage-dependent conversion efficiency, leakage, and minimum
charging current; an idealised storage reference; and single- versus
dual-channel front-end architectures.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "Capacitor": ".capacitor",
    "ChargeEfficiency": ".capacitor",
    "StorageStep": ".capacitor",
    "DualChannelFrontEnd": ".frontend",
    "SingleChannelFrontEnd": ".frontend",
    "IdealStorage": ".ideal",
    "TieredStorage": ".tiered",
})
