"""Workloads: the kernels NVP systems process.

Image-processing and pattern-matching kernels dominate the energy
budget of post-sensing IoT analytics, which is why NVP evaluations use
them.  Each kernel here comes in up to three forms:

* a NumPy reference implementation (ground truth),
* an NV16 assembly program (functional execution on the simulated
  core), and
* an instruction-mix descriptor (fast abstract simulation).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "AbstractWorkload": ".base",
    "AdvanceResult": ".base",
    "FunctionalWorkload": ".base",
    "Workload": ".base",
})
