"""laacoex benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sim-xval --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

A run measures set-up in fresh interpreters, warms up with one round, then
repeats rounds of the workload for ``--seconds``. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it spends the first half
untraced and the second half with spans around every layer call, and
reports the per-layer metrics and the tracing overhead. Every operation's
output is checked; the last stdout line is the JSON result. See
bench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import ROOT, WORKLOADS, CheckFailure, use_checkout_src

SETUP_REPS = 9          # fresh interpreters timed per run (after one warm)
SPAN_CAP = 300_000      # traced rounds stop once this many spans are held
PROBE_HORIZON = 10_000  # events per point when probing an unexercised layer
PROBE_WARMUP = 1_000
TRACE_DIR = ROOT / ".bench_traces"
# Calibration kernel time at reference speed. Every reported time is scaled
# by CAL_REF_NS / (kernel time measured next to it), so host-speed drift
# cancels out; 150 us is the kernel's time on an unloaded core of the
# reference host (2-vCPU Intel Xeon VM at 2.0 GHz).
CAL_REF_NS = 150_000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.compute_ms": "ms",
    "cli.self_ms": "ms",
    "core.scenario_from_dict_us": "us",
    "ed.detection_probability_us": "us",
    "markov.tau_us": "us",
    "solver.solve_us_p50": "us",
    "solver.solve_us_max": "us",
    "solver.iterations_per_solve": "count",
    "solver.iterations_max": "count",
    "throughput.coexistence_us": "us",
    "throughput.wifi_only_us": "us",
    "mcsim.ns_per_event.n2": "ns",
    "mcsim.ns_per_event.n4": "ns",
    "mcsim.ns_per_event.n6": "ns",
    "mcsim.ns_per_event.n10": "ns",
    "mcsim.ns_per_event.n20": "ns",
    "mcsim.ns_per_event.n40": "ns",
    "mcsim.events_per_s": "1/s",
    "mcsim.idle_share": "ratio",
    "cli.simulate_row_self_ms": "ms",
    "mcsim.rel_stderr_tput": "ratio",
    "mcsim.max_rel_dev_vs_analytic": "ratio",
    "bench.trace_overhead_s": "s",
}


class Tally:
    """Attempted and failed operations, plus the checked outputs' quality."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.idle = self.counted = 0
        self.rel_dev: dict = {}      # key -> [sum of deviations, count]
        self.rel_se: list[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {message}", file=sys.stderr)

    def record(self, outcome) -> None:
        self.idle += outcome.idle
        self.counted += outcome.counted
        for key, dev in outcome.rel_dev.items():
            acc = self.rel_dev.setdefault(key, [0.0, 0])
            acc[0] += dev
            acc[1] += 1
        self.rel_se.extend(outcome.rel_se)

    def quality(self) -> dict:
        """Simulator quality guards. The deviation of each point and network
        is averaged over rounds first, which leaves the estimator's bias."""
        import statistics
        if not self.counted:
            return {}
        bias = max(abs(total / n) for total, n in self.rel_dev.values())
        return {"mcsim.idle_share": self.idle / self.counted,
                "mcsim.rel_stderr_tput": statistics.median(self.rel_se),
                "mcsim.max_rel_dev_vs_analytic": bias}


class Phase:
    """Calibrated op and round timings of one stretch of rounds.

    Latency percentiles are kept per round, so that the reported figures
    can be medians over rounds, which a few seconds of host interference
    do not move.
    """

    def __init__(self):
        self.rounds_ns: list[float] = []
        self.round_points: list[int] = []
        self.round_p50_ns: list[float] = []
        self.round_p90_ns: list[float] = []
        self.calibration_ns: list[int] = []
        self.requests = self.points = self.events = 0


def _kernel() -> int:
    # Allocation, calls through a key function and string formatting: the
    # mix of interpreter work the workloads do. A pure integer loop tracked
    # their slow-downs only half as well.
    rows = [{"a": i, "b": i * 0.5, "c": str(i * 7919 % 1000)}
            for i in range(150)]
    rows.sort(key=lambda r: r["c"])
    return len(",".join(f"{r['a']}:{r['b']:.3f}" for r in rows))


def calibrate() -> int:
    """Host speed probe: best of three runs of a fixed pure-Python kernel."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _kernel()
        elapsed = time.perf_counter_ns() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def run_phase(workload, seconds: float, tally: Tally, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed (at least one round).

    Only the operations are timed; checks run between them. Each op's time
    is scaled to reference speed by the calibration kernel run just before
    and just after it (see README). An operation that raises or fails a
    check counts as failed.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        round_ns = 0.0
        requests = []
        points = 0
        for op in workload.round():
            if tracer is not None:
                tracer.request_id += 1
            tally.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                result = workload.execute(op)
            except Exception as err:  # noqa: BLE001  (any failure is counted)
                tally.fail(f"{workload.name} {op!r}: "
                           f"{type(err).__name__}: {err}")
                continue
            elapsed = time.perf_counter_ns() - t0
            after = calibrate()
            scale = 2 * CAL_REF_NS / (before + after)
            before = after
            phase.calibration_ns.append(after)
            if tracer is not None:
                tracer.scale[tracer.request_id] = scale
            round_ns += elapsed * scale
            requests.append(elapsed * scale)
            try:
                outcome = workload.check(op, result)
            except CheckFailure as err:
                tally.fail(str(err))
                continue
            tally.record(outcome)
            points += outcome.points
            phase.events += outcome.events
        phase.rounds_ns.append(round_ns)
        phase.round_points.append(points)
        phase.points += points
        phase.requests += len(requests)
        if requests:
            phase.round_p50_ns.append(_quantile(requests, 50))
            phase.round_p90_ns.append(_quantile(requests, 90))
        if time.perf_counter() >= deadline:
            return phase
        if tracer is not None and len(tracer) >= SPAN_CAP:
            return phase


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Time fresh interpreters from start to imports done and inputs built.

    Returns the set-up times (s) and the ``import laacoex.cli`` times (ms),
    both calibrated by kernel runs inside the child, just before its imports
    and just after its inputs are built. The first interpreter only warms
    the file cache and is discarded.
    """
    import subprocess
    setups, imports = [], []
    for rep in range(SETUP_REPS + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if rep:
            scale = 2 * CAL_REF_NS / sum(child["calibration_ns"])
            setups.append((child["ready"] - start - child["calibration_s"])
                          * scale)
            imports.append(child["import_ms"] * scale)
    return setups, imports


def setup_child(name: str, seed: int) -> None:
    """Body of one set-up interpreter: import, build inputs, report."""
    use_checkout_src()
    t0 = time.monotonic()
    before = calibrate()
    calibration_s = time.monotonic() - t0
    t0 = time.perf_counter()
    import laacoex.cli  # noqa: F401
    import_ms = (time.perf_counter() - t0) * 1e3
    WORKLOADS[name](seed)
    # CLOCK_MONOTONIC is shared by all processes, so the parent can
    # subtract its own start time.
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_ms": import_ms,
                      "calibration_ns": [before, calibrate()],
                      "calibration_s": calibration_s}))


def environment(seed: int) -> dict:
    """Machine and software stamp for the result."""
    import importlib.metadata
    import importlib.util
    import platform
    import subprocess

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "pyyaml": importlib.metadata.version("PyYAML"),
        "libyaml": importlib.util.find_spec("yaml._yaml") is not None,
        "git_sha": sha,
        "seed": seed,
    }


def _quantile(values, q: int) -> float:
    import statistics
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setups: list[float]) -> dict:
    """End-to-end metrics; every timing is a median over rounds."""
    import resource
    import statistics
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(phase.rounds_ns) / 1e9,
        "points_per_s": statistics.median(
            points / ns * 1e9
            for points, ns in zip(phase.round_points, phase.rounds_ns)),
        "request_p50_ms": statistics.median(phase.round_p50_ns) / 1e6,
        "request_p90_ms": statistics.median(phase.round_p90_ns) / 1e6,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, seconds: float, tally: Tally, seed: int,
              imports: list[float], trace_path) -> tuple[dict, Phase]:
    """Untraced then traced rounds; layer metrics, probing layers not hit."""
    import statistics

    from tracing import Tracer, layer_metrics

    untraced = run_phase(workload, seconds / 2, tally)
    tracer = Tracer()
    with tracer.traced():
        traced = run_phase(workload, seconds / 2, tally, tracer)
    metrics = layer_metrics(tracer)
    metrics.update(tally.quality())

    # Layers this workload never calls are measured on one small round of
    # each other workload, so every metric is defined on every workload.
    missing = [k for k in PER_LAYER if metrics.get(k) is None
               and k not in ("cli.import_ms", "bench.trace_overhead_s")]
    if missing:
        probe_tally = Tally()
        probe_tracer = Tracer()
        for name, cls in WORKLOADS.items():
            if name == workload.name:
                continue
            probe = cls(seed, horizon=PROBE_HORIZON, warmup=PROBE_WARMUP)
            with probe_tracer.traced():
                run_phase(probe, 0, probe_tally, probe_tracer)
        probed = layer_metrics(probe_tracer)
        probed.update(probe_tally.quality())
        tally.attempted += probe_tally.attempted
        tally.failed += probe_tally.failed
        for key in missing:
            metrics[key] = probed.get(key)
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["bench.trace_overhead_s"] = (
        statistics.median(traced.rounds_ns)
        - statistics.median(untraced.rounds_ns)) / 1e9

    header = {"environment": environment(seed), "workload": workload.name,
              "metrics": metrics, "probed": missing,
              "traced_rounds": len(traced.rounds_ns)}
    tracer.write_csv(trace_path, header)
    print(f"spans: {len(tracer)} written to {trace_path.relative_to(ROOT)}; "
          f"probed: {', '.join(missing) or '-'}")
    for key, value in metrics.items():
        if value is None:
            print(f"warning: no data for {key}", file=sys.stderr)
            metrics[key] = 0.0
    return metrics, untraced


def run(args) -> int:
    import statistics
    use_checkout_src()
    setups, imports = measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    run_phase(workload, 0, tally)  # warm-up round, checked but not timed

    if args.trace:
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.csv"
        values, phase = per_layer(workload, args.seconds, tally, args.seed,
                                  imports, trace_path)
        units = PER_LAYER
    else:
        phase = run_phase(workload, args.seconds, tally)
        values = end_to_end(phase, setups)
        units = END_TO_END
    if not phase.requests:
        sys.exit(f"error: every {args.workload} operation failed")

    busy_s = sum(phase.rounds_ns) / 1e9
    sim_rate = (f"{phase.events / busy_s:.0f}" if phase.events else "n/a")
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"{args.workload}: attempted={tally.attempted} "
          f"failed={tally.failed} "
          f"failed_op_ratio={tally.failed / tally.attempted:.6g} "
          f"rounds={len(phase.rounds_ns)} requests={phase.requests} "
          f"sim_events_per_s={sim_rate} setup_runs={len(setups)} "
          f"calibration_us={statistics.median(phase.calibration_ns) / 1e3:.1f}"
          f" (reference {CAL_REF_NS / 1e3:.0f})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def smoke() -> int:
    """Run each workload briefly, traced and untraced; check the result
    names every metric of BENCHMARK.json with its unit."""
    import subprocess
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{w['name']} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(
                    f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: incorrect result {result}")
            if "failed_op_ratio=" not in proc.stdout:
                problems.append(f"{label}: no failed_op_ratio line")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {got} != {want}")
            verdict = "ok" if len(problems) == before else "FAIL"
            print(f"smoke {label}: {verdict}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the "
                             "metric names and units")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
