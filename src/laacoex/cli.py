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
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources

import yaml

from . import __version__
from .core import (Scenario, _YamlLoader, scenario_from_dict,
                   scenario_to_dict)
from .solver import ConvergenceError, SolverConfig, solve_coexistence
from .throughput import (coexistence_throughput, event_durations,
                         wifi_only_throughput)

OUT_DIR_ENV = "LAACOEX_OUT_DIR"

SWEEP_AXES = ("total_nodes", "node_split", "retry_limit",
              "detection_wifi", "detection_laa")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the axis to vary, its values, and the base scenario."""

    axis: str
    values: tuple
    base: Scenario

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("sweep range must be non-empty")
        for v in self.values:
            _check_axis_value(self.axis, v, self.base)


def _check_axis_value(axis: str, value, base: Scenario) -> None:
    total = base.n_wifi + base.n_laa
    if isinstance(value, bool):
        raise ValueError(f"{axis} values must be numbers, got {value!r}")
    if axis == "total_nodes":
        if not (isinstance(value, int) and value >= 2 and value % 2 == 0):
            raise ValueError(
                f"total_nodes values must be even integers >= 2, got {value!r}")
    elif axis == "node_split":
        if not (isinstance(value, int) and 0 <= value <= total):
            raise ValueError(
                f"node_split values must be integers in [0, {total}], got {value!r}")
    elif axis == "retry_limit":
        if not (isinstance(value, int) and 0 <= value <= 8):
            raise ValueError(
                f"retry_limit values must be integers in [0, 8], got {value!r}")
    else:
        if not (isinstance(value, (int, float)) and 0 <= value <= 1):
            raise ValueError(
                f"{axis} values must be probabilities in [0, 1], got {value!r}")


def sweep_spec_from_dict(data: dict) -> SweepSpec:
    if not isinstance(data, dict):
        raise ValueError("sweep spec must be a mapping")
    unknown = set(data) - {"axis", "range", "base"}
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in sweep spec")
    for name in ("axis", "range", "base"):
        if name not in data:
            raise ValueError(f"missing field {name!r} in sweep spec")
    if not isinstance(data["range"], list):
        raise ValueError("'range' must be a list of axis values")
    return SweepSpec(axis=data["axis"], values=tuple(data["range"]),
                     base=scenario_from_dict(data["base"]))


def _scenario_for_point(spec: SweepSpec, value) -> Scenario:
    base = spec.base
    if spec.axis == "total_nodes":
        return replace(base, n_wifi=value // 2, n_laa=value // 2)
    if spec.axis == "node_split":
        return replace(base, n_wifi=value,
                       n_laa=base.n_wifi + base.n_laa - value)
    if spec.axis == "retry_limit":
        return replace(base, laa=replace(base.laa, retry_limit=value))
    if spec.axis == "detection_wifi":
        return replace(base, p_dw=float(value))
    return replace(base, p_dl=float(value))


# ---------------------------------------------------------------------------
# CSV assembly
# ---------------------------------------------------------------------------

def _scenario_cells(s: Scenario) -> dict:
    """Effective parameters in ``scenario_to_dict`` order, groups prefixed."""
    cells = {}
    for key, value in scenario_to_dict(s.effective()).items():
        if isinstance(value, dict):
            cells.update((f"{key}_{name}", v) for name, v in value.items())
        else:
            cells[key] = value
    return cells


_SCENARIO_COLUMNS = tuple(_scenario_cells(Scenario(n_wifi=1, n_laa=0)))

_RUN_COLUMNS = ("engine",) + _SCENARIO_COLUMNS + (
    "tau_w", "tau_l", "p_w", "p_l", "residual", "iterations",
    "p_trw", "p_sw", "p_trl", "p_sl",
    "t_sw_us", "t_cw_us", "t_sl_us", "t_cl_us", "t_cc_us", "t_e_us",
    "tput_wifi_mbps", "tput_laa_mbps", "tput_total_mbps",
    "per_user_wifi_mbps", "per_user_laa_mbps",
    "seed", "horizon_events", "warmup_events",
    "stderr_tput_wifi_mbps", "stderr_tput_laa_mbps",
    "idle_events", "wifi_success_events", "laa_success_events",
    "wifi_collision_events", "laa_collision_events", "cross_collision_events",
)

_SWEEP_COLUMNS = ("axis", "axis_value", "status") + _SCENARIO_COLUMNS + (
    "wifi_only_total_mbps", "wifi_only_per_user_mbps",
    "coex_tput_wifi_mbps", "coex_tput_laa_mbps", "coex_total_mbps",
    "coex_per_user_wifi_mbps", "coex_per_user_laa_mbps",
)


def _report_cells(rep) -> dict:
    """Every ThroughputReport field under its own name, plus the total."""
    cells = {f.name: getattr(rep, f.name) for f in fields(rep)}
    cells["tput_total_mbps"] = rep.tput_wifi_mbps + rep.tput_laa_mbps
    return cells


def analytic_row(s: Scenario, cfg: SolverConfig) -> dict:
    """Solve one scenario analytically and flatten the results to CSV cells."""
    eff = s.effective()
    sol = solve_coexistence(eff, cfg)
    rep = coexistence_throughput(eff, sol)
    row = {"engine": "analytic"}
    row.update(_scenario_cells(eff))
    row.update(tau_w=sol.tau_w, tau_l=sol.tau_l, p_w=sol.p_w, p_l=sol.p_l,
               residual=sol.residual, iterations=sol.iterations)
    row.update(_report_cells(rep))
    return row


def simulate_row(s: Scenario, seed: int, horizon: int, warmup: int,
                 trace_path=None) -> dict:
    """Run the slot-level simulator and flatten measurements to CSV cells."""
    # Imported here, not at module level: only the simulator needs numpy.
    from .mcsim import SimConfig, simulate
    eff = s.effective()
    sim = simulate(SimConfig(
        scenario=eff, horizon_events=horizon, seed=seed,
        warmup_events=warmup, trace_path=trace_path))
    counts = sim.event_counts
    events = sum(counts.values())
    durations = event_durations(eff)
    wifi_any = (counts["wifi-success"] + counts["wifi-collision"]
                + counts["cross-collision"])
    laa_any = (counts["laa-success"] + counts["laa-collision"]
               + counts["cross-collision"])
    row = {"engine": "simulate"}
    row.update(_scenario_cells(eff))
    row.update(
        tau_w=sim.measured_tau_w, tau_l=sim.measured_tau_l,
        p_w=sim.measured_p_w, p_l=sim.measured_p_l,
        p_trw=wifi_any / events, p_trl=laa_any / events,
        t_sw_us=durations.t_sw, t_cw_us=durations.t_cw,
        t_sl_us=durations.t_sl, t_cl_us=durations.t_cl,
        t_cc_us=durations.t_cc, t_e_us=sim.t_e_us,
        tput_wifi_mbps=sim.tput_wifi_mbps, tput_laa_mbps=sim.tput_laa_mbps,
        tput_total_mbps=sim.tput_wifi_mbps + sim.tput_laa_mbps,
        per_user_wifi_mbps=(sim.tput_wifi_mbps / eff.n_wifi
                            if eff.n_wifi else 0.0),
        per_user_laa_mbps=(sim.tput_laa_mbps / eff.n_laa
                           if eff.n_laa else 0.0),
        seed=seed, horizon_events=horizon, warmup_events=warmup,
        stderr_tput_wifi_mbps=sim.stderr["tput_wifi_mbps"],
        stderr_tput_laa_mbps=sim.stderr["tput_laa_mbps"],
        idle_events=counts["idle"],
        wifi_success_events=counts["wifi-success"],
        laa_success_events=counts["laa-success"],
        wifi_collision_events=counts["wifi-collision"],
        laa_collision_events=counts["laa-collision"],
        cross_collision_events=counts["cross-collision"],
    )
    return row


def run_scenario(s: Scenario, engine: str, cfg: SolverConfig, seed: int,
                 horizon: int, warmup: int, trace_path=None) -> list[dict]:
    """Evaluate one scenario with the requested engine(s), one row each."""
    rows = []
    if engine in ("analytic", "both"):
        rows.append(analytic_row(s, cfg))
    if engine in ("simulate", "both"):
        rows.append(simulate_row(s, seed, horizon, warmup, trace_path))
    return rows


def run_sweep(spec: SweepSpec, cfg: SolverConfig) -> tuple[list[dict], bool]:
    """Evaluate every sweep point; returns (rows, any_point_failed).

    Failed points keep their row with ``status`` set instead of aborting the
    sweep, so partial results are always inspectable.
    """
    rows = []
    any_failed = False
    wifi_only = {}  # (n, WifiParams) -> report: one solve per baseline
    for value in spec.values:
        point = _scenario_for_point(spec, value)
        row = {"axis": spec.axis, "axis_value": value, "status": "ok"}
        row.update(_scenario_cells(point))
        try:
            # the baseline: the point's whole population, all Wi-Fi
            key = (point.n_wifi + point.n_laa, point.wifi)
            if key not in wifi_only:
                wifi_only[key] = wifi_only_throughput(*key, cfg)
            baseline = wifi_only[key]
            eff = point.effective()
            coex = coexistence_throughput(eff, solve_coexistence(eff, cfg))
            row.update(
                wifi_only_total_mbps=baseline.tput_wifi_mbps,
                wifi_only_per_user_mbps=baseline.per_user_wifi_mbps,
                coex_tput_wifi_mbps=coex.tput_wifi_mbps,
                coex_tput_laa_mbps=coex.tput_laa_mbps,
                coex_total_mbps=coex.tput_wifi_mbps + coex.tput_laa_mbps,
                coex_per_user_wifi_mbps=coex.per_user_wifi_mbps,
                coex_per_user_laa_mbps=coex.per_user_laa_mbps,
            )
        except ConvergenceError as err:
            any_failed = True
            row["status"] = (f"no-convergence(residual={err.residual:.3e},"
                             f"iterations={err.iterations})")
        rows.append(row)
    return rows, any_failed


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(out, header, rows) -> None:
    out.write(f"# laacoex {__version__}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(row.get(col, "")) for col in header])


def _open_output(path: str | None):
    """Open the output target; relative paths land in $LAACOEX_OUT_DIR."""
    if path is None or path == "-":
        return sys.stdout, False
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    return open(path, "w", newline="", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# Bundled presets
# ---------------------------------------------------------------------------

def preset_names() -> list[str]:
    files = resources.files("laacoex").joinpath("presets")
    return sorted(p.name[:-len(".yaml")] for p in files.iterdir()
                  if p.name.endswith(".yaml"))


def _load_input(arg: str) -> dict:
    """Parse a scenario/sweep file path or bundled preset name into a dict."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    else:
        name = arg[:-5] if arg.endswith(".yaml") else arg
        candidate = resources.files("laacoex").joinpath(
            "presets", f"{name}.yaml")
        if not candidate.is_file():
            raise ValueError(
                f"{arg!r} is neither a file nor a bundled preset; "
                f"known presets: {', '.join(preset_names())}")
        text = candidate.read_text(encoding="utf-8")
    data = yaml.load(text, Loader=_YamlLoader)
    if not isinstance(data, dict):
        raise ValueError(f"{arg!r} does not contain a mapping")
    return data


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tolerance=args.tolerance,
                        max_iterations=args.max_iterations,
                        damping=args.damping)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    data = _load_input(args.scenario)
    if "axis" in data:
        raise ValueError(
            f"{args.scenario!r} looks like a sweep spec; use 'laacoex sweep'")
    scenario = scenario_from_dict(data)
    rows = run_scenario(scenario, args.engine, _solver_config(args),
                        seed=args.seed, horizon=args.horizon,
                        warmup=args.warmup, trace_path=args.trace)
    out, close = _open_output(args.out)
    try:
        _write_csv(out, _RUN_COLUMNS, rows)
    finally:
        if close:
            out.close()
    return 0


def _cmd_sweep(args) -> int:
    data = _load_input(args.spec)
    if "axis" not in data:
        raise ValueError(
            f"{args.spec!r} looks like a scenario; use 'laacoex run'")
    spec = sweep_spec_from_dict(data)
    rows, any_failed = run_sweep(spec, _solver_config(args))
    out, close = _open_output(args.out)
    try:
        _write_csv(out, _SWEEP_COLUMNS, rows)
    finally:
        if close:
            out.close()
    if any_failed:
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
    run.add_argument("--out", default=None,
                     help="output CSV path ('-' or omitted: stdout); "
                          f"relative paths resolve under ${OUT_DIR_ENV}")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--horizon", type=int, default=2_000_000,
                     help="channel events to simulate")
    run.add_argument("--warmup", type=int, default=10_000,
                     help="leading events excluded from statistics")
    run.add_argument("--trace", default=None,
                     help="write a per-event CSV trace to this path")
    _add_solver_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("spec", help="sweep spec file path or preset name")
    sweep.add_argument("--out", default=None,
                       help="output CSV path ('-' or omitted: stdout); "
                            f"relative paths resolve under ${OUT_DIR_ENV}")
    _add_solver_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    presets = sub.add_parser("presets", help="list bundled preset names")
    presets.set_defaults(func=_cmd_presets)
    return parser


def _add_solver_flags(sub) -> None:
    sub.add_argument("--tolerance", type=float, default=1e-10)
    sub.add_argument("--max-iterations", type=int, default=10000,
                     dest="max_iterations")
    sub.add_argument("--damping", type=float, default=0.5)


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
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except yaml.YAMLError as err:
        print(f"error: malformed YAML: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
