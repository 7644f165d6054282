"""In-memory spans around calls into laacoex's layers, and the per-layer
metrics computed from them.

Tracing replaces layer functions in the module namespaces they are called
through by wrappers that record one span per call: name, parent span,
request id, start and end (perf_counter_ns). Nothing inside the package
changes; the originals come back when the ``traced`` context exits. Spans
live in flat arrays and are written out once, when the benchmark ends.
"""
from __future__ import annotations

import csv
import importlib
import json
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name). A function is wrapped in every namespace
# it is called through, under one span name. Attributes a module does not
# have are skipped, so the list survives functions moving between modules.
LAYER_CALLS = (
    ("laacoex.cli", "main", "cli.main"),
    ("laacoex.cli", "sweep_spec_from_dict", "cli.sweep_spec_from_dict"),
    ("laacoex.cli", "run_sweep", "cli.run_sweep"),
    ("laacoex.cli", "run_scenario", "cli.run_scenario"),
    ("laacoex.cli", "simulate_row", "cli.simulate_row"),
    ("yaml", "safe_load", "yaml.load"),
    ("yaml", "load", "yaml.load"),
    ("laacoex.cli", "scenario_from_dict", "core.scenario_from_dict"),
    ("laacoex.core", "scenario_from_dict", "core.scenario_from_dict"),
    ("laacoex.core", "detection_probability", "ed.detection_probability"),
    ("laacoex.ed", "detection_probability", "ed.detection_probability"),
    ("laacoex.solver", "wifi_tau", "markov.tau"),
    ("laacoex.solver", "laa_tau", "markov.tau"),
    ("laacoex.cli", "solve_coexistence", "solver.solve"),
    ("laacoex.solver", "solve_coexistence", "solver.solve"),
    ("laacoex.cli", "coexistence_throughput", "throughput.coexistence"),
    ("laacoex.throughput", "coexistence_throughput", "throughput.coexistence"),
    ("laacoex.cli", "wifi_only_throughput", "throughput.wifi_only"),
    ("laacoex.throughput", "wifi_only_throughput", "throughput.wifi_only"),
    ("laacoex.cli", "simulate_with_detection", "mcsim.simulate"),
    ("laacoex.mcsim", "simulate", "mcsim.simulate"),
    ("laacoex.mcsim", "simulate_with_detection", "mcsim.simulate"),
)

PARSE_SPANS = {"yaml.load", "core.scenario_from_dict",
               "cli.sweep_spec_from_dict"}
COMPUTE_SPANS = {"cli.run_sweep", "cli.run_scenario"}
SIM_SIZES = (2, 4, 6, 10, 20, 40)   # stations for mcsim.ns_per_event.n*


def _observe_solve(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _observe_simulate(args, kwargs, result) -> dict:
    cfg = args[0] if args else kwargs["cfg"]
    return {"stations": cfg.scenario.n_wifi + cfg.scenario.n_laa,
            "horizon": cfg.horizon_events}


_OBSERVERS = {"solver.solve": _observe_solve,
              "mcsim.simulate": _observe_simulate}


class Tracer:
    """Spans of one benchmark run, kept in memory until written."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict[int, dict] = {}
        self.scale: dict[int, float] = {}   # request id -> calibration scale
        self.current = -1
        self.request_id = -1

    def __len__(self) -> int:
        return len(self.code)

    def _wrap(self, name: str, fn):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        code = self._codes[name]
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.code)
            self.code.append(code)
            self.parent.append(self.current)
            self.request.append(self.request_id)
            self.end.append(0)
            prev, self.current = self.current, idx
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.current = prev
            if observe:
                self.attrs[idx] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def traced(self):
        """Record spans for every layer call made inside the block."""
        saved = []
        try:
            for module_name, attr, span in LAYER_CALLS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def spans(self):
        """(index, name, parent, calibrated duration in ns) per span."""
        for i in range(len(self.code)):
            yield (i, self.names[self.code[i]], self.parent[i],
                   (self.end[i] - self.start[i])
                   * self.scale.get(self.request[i], 1.0))

    def write_csv(self, path, header: dict) -> None:
        """Write every span, after a first comment line holding ``header``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "parent", "request", "start_ns",
                             "end_ns", "attrs"))
            for i in range(len(self.code)):
                attrs = self.attrs.get(i)
                writer.writerow((i, self.names[self.code[i]], self.parent[i],
                                 self.request[i], self.start[i], self.end[i],
                                 json.dumps(attrs) if attrs else ""))


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans; None where a layer was not called.

    Durations are calibrated with the scale of the request they belong to.
    """
    by_name: dict[str, list] = {}
    dur: list[float] = []
    child_ns: dict[int, dict] = {}
    for idx, name, parent, d in tracer.spans():
        by_name.setdefault(name, []).append(idx)
        dur.append(d)
        if parent >= 0:
            per_parent = child_ns.setdefault(parent, {})
            per_parent[name] = per_parent.get(name, 0) + d

    def durations(name):
        return [dur[i] for i in by_name.get(name, ())]

    out = dict.fromkeys(("cli.parse_ms", "cli.compute_ms", "cli.self_ms"))
    mains = by_name.get("cli.main", [])
    if mains:
        parse = compute = total = 0.0
        for i in mains:
            kids = child_ns.get(i, {})
            parse += sum(kids.get(n, 0) for n in PARSE_SPANS)
            compute += sum(kids.get(n, 0) for n in COMPUTE_SPANS)
            total += dur[i]
        n = len(mains) * 1e6
        out["cli.parse_ms"] = parse / n
        out["cli.compute_ms"] = compute / n
        out["cli.self_ms"] = (total - parse - compute) / n

    for metric, span in (
            ("core.scenario_from_dict_us", "core.scenario_from_dict"),
            ("ed.detection_probability_us", "ed.detection_probability"),
            ("markov.tau_us", "markov.tau"),
            ("solver.solve_us_p50", "solver.solve"),
            ("throughput.coexistence_us", "throughput.coexistence"),
            ("throughput.wifi_only_us", "throughput.wifi_only")):
        value = _median(durations(span))
        out[metric] = None if value is None else value / 1e3
    solves = by_name.get("solver.solve", [])
    out["solver.solve_us_max"] = (max(durations("solver.solve")) / 1e3
                                  if solves else None)
    iterations = [tracer.attrs[i]["iterations"] for i in solves]
    out["solver.iterations_per_solve"] = (statistics.fmean(iterations)
                                          if solves else None)
    # A bisection fallback adds its steps to the damped iterations, so it
    # shows here exactly, where solve_us_max also carries host noise.
    out["solver.iterations_max"] = max(iterations) if solves else None

    per_event: dict[int, list] = {}
    events = sim_ns = 0
    for i in by_name.get("mcsim.simulate", []):
        attrs = tracer.attrs[i]
        per_event.setdefault(attrs["stations"], []).append(
            dur[i] / attrs["horizon"])
        events += attrs["horizon"]
        sim_ns += dur[i]
    for n in SIM_SIZES:
        out[f"mcsim.ns_per_event.n{n}"] = _median(per_event.get(n, []))
    out["mcsim.events_per_s"] = events / sim_ns * 1e9 if sim_ns else None

    value = _median([dur[i] - child_ns.get(i, {}).get("mcsim.simulate", 0)
                     for i in by_name.get("cli.simulate_row", [])])
    out["cli.simulate_row_self_ms"] = None if value is None else value / 1e6
    return out
