"""System-level adaptive policies.

The tutorial's system layer covers three adaptation mechanisms built
on NVPs, each re-implemented here:

* **energy-band DPM** (:mod:`repro.policy.dpm`) — keep the storage
  capacitor inside its efficient voltage band instead of greedily
  draining it (TECS'17 class);
* **ML configuration matching** (:mod:`repro.policy.mlmatch`) — map
  sampled power-profile statistics to the best NVP configuration
  (ICCAD'15 class);
* **frequency scaling** (:mod:`repro.policy.freqscale`) — match clock
  frequency (and hence power draw) to harvested income
  (Spendthrift class).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "efficient_band": ".dpm",
    "EnergyBandGovernor": ".dpm",
    "frequency_sweep": ".freqscale",
    "PowerAwareFrequencyPolicy": ".freqscale",
    "ConfigMatcher": ".mlmatch",
    "trace_features": ".mlmatch",
})
