"""Saturation throughput of coexisting Wi-Fi (DCF) and LTE-LAA (LBT) networks.

The analytical side couples two per-technology backoff chains through their
mutual collision probabilities, optionally weighted by energy-detection
probabilities; the Monte-Carlo side replays the same slotted protocol event
by event as an independent cross-check.
"""

__version__ = "0.1.0"

from .core import (LaaParams, Scenario, Solution, ThroughputReport,
                   WifiParams, derived_durations, load_priority_class,
                   load_scenario, save_scenario, scenario_from_dict,
                   scenario_from_yaml, scenario_to_dict, scenario_to_yaml)
from .ed import EdConfig, dbm_to_mw, detection_probability
from .markov import laa_tau, wifi_tau
from .solver import (ConvergenceError, SolverConfig, solve_coexistence,
                     solve_wifi_only)
from .throughput import (EventDurations, EventProbabilities,
                         coexistence_throughput, event_durations,
                         event_probabilities, expected_event_time,
                         wifi_only_throughput)

__all__ = [
    "__version__",
    "WifiParams", "LaaParams", "Scenario", "Solution", "ThroughputReport",
    "load_priority_class", "derived_durations",
    "scenario_to_dict", "scenario_from_dict", "scenario_to_yaml",
    "scenario_from_yaml", "load_scenario", "save_scenario",
    "wifi_tau", "laa_tau",
    "SolverConfig", "ConvergenceError", "solve_coexistence", "solve_wifi_only",
    "EventProbabilities", "EventDurations", "event_probabilities",
    "event_durations", "expected_event_time", "coexistence_throughput",
    "wifi_only_throughput",
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
