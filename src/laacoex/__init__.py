"""Saturation throughput of coexisting Wi-Fi (DCF) and LTE-LAA (LBT) networks.

The analytical side couples two per-technology backoff chains through their
mutual collision probabilities, optionally weighted by energy-detection
probabilities; the Monte-Carlo side replays the same slotted protocol event
by event as an independent cross-check.
"""

__version__ = "0.1.0"

from .core import (LaaParams, Scenario, Solution, ThroughputReport,
                   WifiParams, derived_durations, scenario_from_dict,
                   scenario_to_dict)
from .ed import EdConfig, dbm_to_mw, detection_probability
from .solver import ConvergenceError, SolverConfig, solve_coexistence
from .throughput import (EVENT_CLASSES, coexistence_throughput,
                         event_durations, event_probabilities, event_weights,
                         wifi_only_throughput)

__all__ = [
    "__version__",
    "WifiParams", "LaaParams", "Scenario", "Solution", "ThroughputReport",
    "derived_durations",
    "scenario_to_dict", "scenario_from_dict",
    "SolverConfig", "ConvergenceError", "solve_coexistence",
    "EVENT_CLASSES", "event_probabilities", "event_weights",
    "event_durations", "coexistence_throughput", "wifi_only_throughput",
    "EdConfig", "dbm_to_mw", "detection_probability",
    "SimConfig", "SimReport", "simulate",
]

# The simulator needs numpy, which the analytic path never uses: its names
# are resolved on first access (PEP 562), so `import laacoex` stays light.
_SIMULATOR = ("SimConfig", "SimReport", "simulate")


def __getattr__(name):
    if name in _SIMULATOR:
        from . import mcsim
        return getattr(mcsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
