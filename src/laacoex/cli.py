"""Batch front-end: evaluate scenario files, run parameter sweeps, emit CSV.

Scenario and sweep-spec inputs are YAML files (or bundled preset names); all
output is RFC-4180-style CSV preceded by a single version-comment line, so
repeated runs with the same inputs and seed are byte-identical apart from
that header. Exit codes: 0 success, 2 input/schema error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from functools import cache
from importlib import resources
from itertools import repeat
from operator import attrgetter

import yaml

from . import __version__
from ._fields import check_keys, check_value
from .core import (ED_BLOCKS, Scenario, ThroughputReport, check_run_length,
                   scenario_from_dict, scenario_to_dict)
from .solver import ConvergenceError, SolverConfig, solve_coexistence
from .throughput import (EVENT_CLASSES, coexistence_throughput,
                         wifi_only_throughput)

OUT_DIR_ENV = "LAACOEX_OUT_DIR"

# each detection axis and the probability it sweeps
_DETECTION_AXES = {"detection_wifi": "p_dw", "detection_laa": "p_dl"}
SWEEP_AXES = ("total_nodes", "node_split", "retry_limit", *_DETECTION_AXES)


def sweep_spec_from_dict(data: dict) -> tuple[str, tuple]:
    """A sweep spec's axis and, per range value in order, the pair
    (value, Scenario) it makes."""
    keys = ("axis", "range", "base")
    check_keys(data, "sweep spec", keys, required=keys)
    if not isinstance(data["range"], list):
        raise ValueError("'range' must be a list of axis values")
    base = scenario_from_dict(data["base"])
    axis = data["axis"]
    if axis not in SWEEP_AXES:
        raise ValueError(
            f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    field = _DETECTION_AXES.get(axis)
    if field and ED_BLOCKS[field] in data["base"]:
        raise ValueError(f"axis {axis} sweeps {field}, which the base's "
                         f"{ED_BLOCKS[field]} block sets; give one, not both")
    if not data["range"]:
        raise ValueError("sweep range must be non-empty")
    return axis, tuple((value, _scenario_for_point(axis, value, base))
                       for value in data["range"])


def _scenario_for_point(axis: str, value, base: Scenario) -> Scenario:
    """The scenario at one axis value; the type that owns each parameter
    checks it, and any error names the axis and the value."""
    check_value(axis, "float" if axis in _DETECTION_AXES else "int", value)
    try:
        if axis == "total_nodes":
            if value % 2:
                raise ValueError("must be even, half Wi-Fi and half LAA")
            return replace(base, n_wifi=value // 2, n_laa=value // 2)
        if axis == "node_split":
            return replace(base, n_wifi=value,
                           n_laa=base.n_wifi + base.n_laa - value)
        if axis == "retry_limit":
            if base.comparison_mode:
                raise ValueError("comparison mode fixes the retry limit at 0")
            return replace(base, laa=replace(base.laa, retry_limit=value))
        return replace(base, **{_DETECTION_AXES[axis]: float(value)})
    except ValueError as err:
        raise ValueError(f"{axis} value {value!r}: {err}") from None


# ---------------------------------------------------------------------------
# CSV assembly
# ---------------------------------------------------------------------------

# Each scenario field's column and attribute path, in ``scenario_to_dict``
# order: a group's fields are prefixed by the group's name.
_SCENARIO_COLUMNS, _SCENARIO_PATHS = zip(*(
    (f"{key}_{name}", f"{key}.{name}") if name else (key, key)
    for key, value in scenario_to_dict(Scenario(n_wifi=1, n_laa=0)).items()
    for name in (value if isinstance(value, dict) else ("",))))
_scenario_values = attrgetter(*_SCENARIO_PATHS)
_REPORT_FIELDS = tuple(f.name for f in fields(ThroughputReport))
_report_values = attrgetter(*_REPORT_FIELDS)


def _scenario_cells(s: Scenario) -> dict:
    """Scenario fields in ``scenario_to_dict`` order, groups prefixed."""
    return dict(zip(_SCENARIO_COLUMNS, _scenario_values(s)))


_EVENT_COLUMNS = tuple(f"{cls.replace('-', '_')}_events"
                       for cls in EVENT_CLASSES)

_RUN_COLUMNS = ("engine",) + _SCENARIO_COLUMNS + (
    "tau_w", "tau_l", "p_w", "p_l", "residual", "iterations",
    "p_trw", "p_sw", "p_trl", "p_sl",
    "t_sw_us", "t_cw_us", "t_sl_us", "t_cl_us", "t_cc_us", "t_e_us",
    "tput_wifi_mbps", "tput_laa_mbps", "tput_total_mbps",
    "per_user_wifi_mbps", "per_user_laa_mbps",
    "seed", "horizon_events", "warmup_events",
    "stderr_tput_wifi_mbps", "stderr_tput_laa_mbps",
) + _EVENT_COLUMNS

_SWEEP_COLUMNS = ("axis", "axis_value", "status") + _SCENARIO_COLUMNS + (
    "wifi_only_total_mbps", "wifi_only_per_user_mbps",
    "coex_tput_wifi_mbps", "coex_tput_laa_mbps", "coex_total_mbps",
    "coex_per_user_wifi_mbps", "coex_per_user_laa_mbps",
)


def _engine_row(engine: str, s: Scenario, probs, rep: ThroughputReport,
                **extra) -> dict:
    """Cells both engines fill: the scenario, tau and p from ``probs`` and
    every ThroughputReport field; then ``extra``."""
    row = {"engine": engine, **_scenario_cells(s), "tau_w": probs.tau_w,
           "tau_l": probs.tau_l, "p_w": probs.p_w, "p_l": probs.p_l}
    row.update(zip(_REPORT_FIELDS, _report_values(rep)))
    row.update(extra)
    return row


def analytic_row(s: Scenario, cfg: SolverConfig) -> dict:
    """Solve one scenario analytically and flatten the results to CSV cells."""
    sol = solve_coexistence(s, cfg)
    return _engine_row("analytic", s, sol, coexistence_throughput(s, sol),
                       residual=sol.residual, iterations=sol.iterations)


def simulate_row(s: Scenario, seed: int, horizon: int, warmup: int) -> dict:
    """Run the slot-level simulator and flatten measurements to CSV cells."""
    # Imported here, not at module level: only the simulator needs numpy.
    from .mcsim import SimConfig, simulate
    sim = simulate(SimConfig(scenario=s, horizon_events=horizon,
                             seed=seed, warmup_events=warmup))
    row = _engine_row(
        "simulate", s, sim, sim, seed=seed, horizon_events=horizon,
        warmup_events=warmup,
        stderr_tput_wifi_mbps=sim.stderr["tput_wifi_mbps"],
        stderr_tput_laa_mbps=sim.stderr["tput_laa_mbps"])
    row.update(zip(_EVENT_COLUMNS, sim.event_counts.values()))
    return row


def run_scenario(s: Scenario, engine: str, cfg: SolverConfig, seed: int,
                 horizon: int, warmup: int) -> list[dict]:
    """Evaluate one scenario with the requested engine(s), one row each."""
    rows = []
    if engine in ("analytic", "both"):
        rows.append(analytic_row(s, cfg))
    if engine in ("simulate", "both"):
        rows.append(simulate_row(s, seed, horizon, warmup))
    return rows


def run_sweep(axis: str, points, cfg: SolverConfig) -> list[dict]:
    """Evaluate every (axis value, Scenario) point, one row each.

    A failed point keeps its row, ``status`` saying why, instead of aborting
    the sweep, so partial results are always inspectable.
    """
    rows = []
    wifi_only = {}  # (n, WifiParams) -> report: one solve per baseline
    for value, point in points:
        row = {"axis": axis, "axis_value": value, "status": "ok"}
        row.update(_scenario_cells(point))
        try:
            # the baseline: the point's whole population, all Wi-Fi
            key = (point.n_wifi + point.n_laa, point.wifi)
            if key not in wifi_only:
                wifi_only[key] = wifi_only_throughput(*key, cfg)
            baseline = wifi_only[key]
            coex = coexistence_throughput(point, solve_coexistence(point, cfg))
            row.update(
                wifi_only_total_mbps=baseline.tput_wifi_mbps,
                wifi_only_per_user_mbps=baseline.per_user_wifi_mbps,
                coex_tput_wifi_mbps=coex.tput_wifi_mbps,
                coex_tput_laa_mbps=coex.tput_laa_mbps,
                coex_total_mbps=coex.tput_total_mbps,
                coex_per_user_wifi_mbps=coex.per_user_wifi_mbps,
                coex_per_user_laa_mbps=coex.per_user_laa_mbps,
            )
        except ConvergenceError as err:
            row["status"] = (f"no-convergence(residual={err.residual:.3e},"
                             f"iterations={err.iterations})")
        rows.append(row)
    return rows


def _write_csv(out, header, rows) -> None:
    """Each row's cells in ``header`` order, a missing one blank; a bool
    reads true or false, and a float its str, which is its shortest repr."""
    out.write(f"# laacoex {__version__}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["true" if v is True else "false" if v is False
                      else str(v) for v in map(row.get, header, repeat(""))]
                     for row in rows)


def _output_path(path: str) -> str:
    """Where an output file lands: a relative path under $LAACOEX_OUT_DIR."""
    return os.path.join(os.environ.get(OUT_DIR_ENV, ""), path)


def _open_output(path: str | None, flag: str):
    """Open an output to write (None or '-': stdout); errors name flag."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    try:
        return open(_output_path(path), "w", newline="", encoding="utf-8")
    except OSError as err:
        raise OSError(f"{flag}: {err}") from None


# ---------------------------------------------------------------------------
# Scenario and sweep files (YAML), bundled presets
# ---------------------------------------------------------------------------

class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml when present) reading YAML 1.2 floats: ``8e3``
    is a float, not YAML 1.1's string; ints resolve first, so 16 stays int.
    A key repeated in one mapping is refused, not read as its last value;
    a key brought in by a ``<<`` merge may still be overridden."""

    def __init__(self, stream):
        super().__init__(stream)
        self.flattened = set()  # mapping nodes whose own keys are checked

    def flatten_mapping(self, node):
        # first called on a mapping before its keys are built, as written;
        # again, flattened, when a later << merge brings it in
        if node not in self.flattened:
            self.flattened.add(node)
            # a << key builds no object, but may not repeat either
            keys = [key.value if key.tag == "tag:yaml.org,2002:merge"
                    else self.construct_object(key) for key, _ in node.value]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ValueError(f"duplicate key {key!r} at line "
                                     f"{node.value[i][0].start_mark.line + 1}")
        super().flatten_mapping(node)


_YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


@cache
def _presets():     # the bundled preset directory, found once per process
    return resources.files("laacoex").joinpath("presets")


def preset_names() -> list[str]:
    return sorted(p.name[:-len(".yaml")] for p in _presets().iterdir()
                  if p.name.endswith(".yaml"))


def _load_input(arg: str) -> dict:
    """Parse a scenario/sweep file path or bundled preset name into a dict."""
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    else:
        name = arg[:-5] if arg.endswith(".yaml") else arg
        candidate = _presets().joinpath(f"{name}.yaml")
        if not candidate.is_file():
            raise ValueError(
                f"{arg!r} is neither a file nor a bundled preset; "
                f"known presets: {', '.join(preset_names())}")
        text = candidate.read_text(encoding="utf-8")
    data = yaml.load(text, Loader=_YamlLoader)
    if not isinstance(data, dict):
        raise ValueError(f"{arg!r} does not contain a mapping")
    return data


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    # every input is checked before an output is opened
    if args.trace is not None and args.engine == "analytic":
        raise ValueError("--trace needs --engine simulate or both")
    if args.trace in ("", "-"):
        raise ValueError("--trace needs a file path, not stdout")
    if args.trace and args.out not in (None, "-") and len({os.path.realpath(
            _output_path(p)) for p in (args.out, args.trace)}) == 1:
        raise ValueError("--out and --trace name the same file")
    data = _load_input(args.scenario)
    if "axis" in data:
        raise ValueError(
            f"{args.scenario!r} looks like a sweep spec; use 'laacoex sweep'")
    scenario = scenario_from_dict(data)
    cfg = SolverConfig(args.tolerance)
    # an analytic run refuses the simulation flags a simulation would
    check_run_length(args.horizon, args.seed, args.warmup,
                     ("--horizon", "--seed", "--warmup"))
    if args.engine != "analytic":   # numpy is the simulator's alone
        from .mcsim import SimConfig, write_trace
        sim = SimConfig(scenario, args.horizon, args.seed, args.warmup)
    with _open_output(args.out, "--out") as out:
        if args.trace is not None:
            with _open_output(args.trace, "--trace") as trace:
                write_trace(trace, sim)
        rows = run_scenario(scenario, args.engine, cfg, seed=args.seed,
                            horizon=args.horizon, warmup=args.warmup)
        _write_csv(out, _RUN_COLUMNS, rows)
    return 0


def _cmd_sweep(args) -> int:
    data = _load_input(args.spec)
    if "axis" not in data:
        raise ValueError(
            f"{args.spec!r} looks like a scenario; use 'laacoex run'")
    axis, points = sweep_spec_from_dict(data)
    cfg = SolverConfig(args.tolerance)
    with _open_output(args.out, "--out") as out:
        rows = run_sweep(axis, points, cfg)
        _write_csv(out, _SWEEP_COLUMNS, rows)
    if any(row["status"] != "ok" for row in rows):
        print("error: one or more sweep points failed to converge "
              "(see status column)", file=sys.stderr)
        return 3
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laacoex",
        description="Wi-Fi / LTE-LAA coexistence throughput: analytical "
                    "model and slot-level Monte-Carlo cross-check.")
    parser.add_argument("--version", action="version",
                        version=f"laacoex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one scenario file or preset")
    run.add_argument("scenario", help="scenario file path or preset name")
    run.add_argument("--engine", choices=("analytic", "simulate", "both"),
                     default="analytic")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--horizon", type=int, default=2_000_000,
                     help="channel events to simulate")
    run.add_argument("--warmup", type=int, default=10_000,
                     help="leading events excluded from statistics")
    run.add_argument("--trace", default=None,
                     help="per-event CSV trace path, resolved as --out's")
    _add_common_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("spec", help="sweep spec file path or preset name")
    _add_common_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    presets = sub.add_parser("presets", help="list bundled preset names")
    presets.set_defaults(func=_cmd_presets)
    return parser


def _add_common_flags(sub) -> None:
    sub.add_argument("--out", default=None,
                     help="output CSV path ('-' or omitted: stdout); "
                          f"relative paths resolve under ${OUT_DIR_ENV}")
    sub.add_argument("--tolerance", type=float, default=1e-10)


_parser = None  # built by the first main call; parse_args never mutates it


def main(argv=None) -> int:
    global _parser
    _parser = _parser or _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except yaml.YAMLError as err:
        print(f"error: malformed YAML: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
