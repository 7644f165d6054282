"""The benchmark's three workloads: inputs made from a seed, one operation
each, and the checks every operation's output must pass.

Each workload is a closed loop with one caller. A round is the workload's
fixed unit of work (every request, grid point or scenario once); the runner
repeats rounds for the run length. The program sees only the inputs built
here: preset names, scenarios and simulator seeds.
"""
from __future__ import annotations

import importlib.util
import io
import math
import random
import sys
from contextlib import redirect_stdout
from dataclasses import astuple, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"

SWEEP_PRESETS = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                 "fig12_class4", "fig13", "fig14")
RUN_PRESETS = ("table4_case1", "table4_case2", "table4_case3", "table5",
               "table6", "table7")

# Simulated throughput must lie within MODEL_BUDGET * analytic + SE_FACTOR
# batch-means standard errors of the analytic value. The budget admits the
# analytic model's documented decoupling gap (2.5-3% at class-1 windows,
# 1+1 stations) and nothing wider; the gap itself stays visible in the
# mcsim.max_rel_dev_vs_analytic metric.
MODEL_BUDGET = 0.03
SE_FACTOR = 4.0

SIM_HORIZON = 30_000   # channel events simulated per grid point / scenario
SIM_WARMUP = 3_000     # leading events excluded from statistics

_COUNT_CELLS = ("idle_events", "wifi_success_events", "laa_success_events",
                "wifi_collision_events", "laa_collision_events",
                "cross_collision_events")


def use_checkout_src() -> None:
    """Import laacoex from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "laacoex" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'laacoex'} not found; run the benchmark "
                 "from a full checkout of the repository")
    sys.path.insert(0, str(src))
    # find_spec locates the package without importing it, so the import
    # itself can still be timed.
    origin = importlib.util.find_spec("laacoex").origin
    if Path(origin).resolve().parent != src / "laacoex":
        sys.exit(f"error: laacoex resolves to {origin}, not to {src}")


class CheckFailure(Exception):
    """An operation's output failed a check."""


@dataclass
class Outcome:
    """What one checked operation produced."""

    points: int                   # sweep rows + run rows, or grid points
    events: int = 0               # simulated channel events
    idle: int = 0                 # counted idle events
    counted: int = 0              # counted events (horizon - warmup)
    # (workload, point, network) -> (sim - analytic) / analytic
    rel_dev: dict = field(default_factory=dict)
    rel_se: list = field(default_factory=list)  # s.e. / throughput


class AnalyticSweeps:
    """cli.main in-process over every bundled sweep and run preset.

    Exercises YAML parsing, every analytic layer and CSV output; the
    simulator not at all. The seed shuffles the request order of each round.
    """

    name = "analytic-sweeps"

    def __init__(self, seed: int, horizon: int = SIM_HORIZON,
                 warmup: int = SIM_WARMUP):
        # horizon and warmup keep the constructors uniform; nothing here
        # is simulated.
        from laacoex import cli  # noqa: F401  (import cost belongs to setup)
        self._rng = random.Random(seed)
        self._requests = ([("sweep", n) for n in SWEEP_PRESETS]
                          + [("run", n) for n in RUN_PRESETS])
        self._golden = {}
        for _, name in self._requests:
            text = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
            self._golden[name] = text.split("\n", 1)[1]

    def round(self) -> list:
        order = list(self._requests)
        self._rng.shuffle(order)
        return order

    def execute(self, request):
        from laacoex import cli
        sink = io.StringIO()
        with redirect_stdout(sink):
            code = cli.main(list(request))
        return code, sink.getvalue()

    def check(self, request, result) -> Outcome:
        code, text = result
        if code != 0:
            raise CheckFailure(f"laacoex {' '.join(request)} exited {code}")
        version, _, body = text.partition("\n")
        if not version.startswith("# laacoex "):
            raise CheckFailure(f"{request[1]}: bad version line {version!r}")
        if body != self._golden[request[1]]:
            raise CheckFailure(f"{request[1]}: output differs from "
                               f"bench/golden/{request[1]}.csv")
        return Outcome(points=body.count("\n") - 1)


def _agreement(label: str, pairs) -> tuple[dict, list]:
    """Check simulated against analytic throughput per network.

    ``pairs`` holds (network, simulated, analytic, stderr). Returns the
    signed relative deviation per network and the relative standard errors.
    """
    rel_dev, rel_se = {}, []
    for network, got, expected, se in pairs:
        if expected <= 0.0:
            raise CheckFailure(f"{label}: analytic {network} throughput "
                               f"{expected!r} is not positive")
        dev = abs(got - expected)
        if dev > MODEL_BUDGET * expected + SE_FACTOR * se:
            raise CheckFailure(
                f"{label} {network}: |{got:.4f} - {expected:.4f}| exceeds "
                f"{MODEL_BUDGET:.0%} + {SE_FACTOR:g} s.e. ({se:.4f})")
        rel_dev[network] = (got - expected) / expected
        rel_se.append(se / got if got > 0 else math.inf)
    return rel_dev, rel_se


def _require_finite(label: str, values) -> None:
    for value in values:
        if isinstance(value, float) and not math.isfinite(value):
            raise CheckFailure(f"{label}: non-finite output {value!r}")


class _Simulated:
    """Rounds and shared checks of the two simulation workloads.

    Each round simulates every scenario once, with a fresh simulator seed
    drawn from the workload seed, so deviations from the analytic model
    average out over rounds to the model's bias.
    """

    def __init__(self, seed: int, horizon: int, warmup: int):
        self.horizon, self.warmup = horizon, warmup
        self._rng = random.Random(seed)
        self._scenarios = []

    def round(self) -> list:
        return [(i, s, self._rng.randrange(1 << 32))
                for i, s in enumerate(self._scenarios)]

    def _outcome(self, index: int, counts: list, idle: int, rel_dev: dict,
                 rel_se: list) -> Outcome:
        return Outcome(points=1, events=self.horizon, idle=idle,
                       counted=sum(counts), rel_se=rel_se,
                       rel_dev={(self.name, index, network): dev
                                for network, dev in rel_dev.items()})

    def _check_counts(self, label: str, counts: list) -> None:
        if sum(counts) != self.horizon - self.warmup:
            raise CheckFailure(f"{label}: event counts sum to {sum(counts)}, "
                               f"not {self.horizon - self.warmup}")


class SimXval(_Simulated):
    """Acceptance C6's 12-point grid: analytic solve plus mcsim.simulate.

    Class-1 windows {4, 8} and class-3 windows {16, 32, 64} in comparison
    mode, populations 1+1, 2+2 and 4+2, rate pairs 9/7.8 and 54/70.2. Small
    populations and long idle runs stress the simulator's per-event and
    idle-run paths.
    """

    name = "sim-xval"
    CASES = ((4, 1, 4, 1, 2000.0), (16, 2, 16, 2, 8000.0))
    POPULATIONS = ((1, 1), (2, 2), (4, 2))
    RATES = ((9.0, 7.8), (54.0, 70.2))

    def __init__(self, seed: int, horizon: int = SIM_HORIZON,
                 warmup: int = SIM_WARMUP):
        super().__init__(seed, horizon, warmup)
        from laacoex import mcsim  # noqa: F401  (needs numpy)
        from laacoex.core import LaaParams, Scenario, WifiParams
        for w0w, mw, w0l, ml, txop in self.CASES:
            for n_wifi, n_laa in self.POPULATIONS:
                for r_w, r_l in self.RATES:
                    self._scenarios.append(Scenario(
                        n_wifi=n_wifi, n_laa=n_laa,
                        wifi=WifiParams(w0=w0w, m=mw, data_rate_mbps=r_w),
                        laa=LaaParams(w0=w0l, m=ml, txop_us=txop,
                                      data_rate_mbps=r_l),
                        comparison_mode=True))

    def execute(self, point):
        from laacoex import mcsim, solver, throughput
        _, s, seed = point
        rep = throughput.coexistence_throughput(s, solver.solve_coexistence(s))
        sim = mcsim.simulate(mcsim.SimConfig(
            scenario=s, horizon_events=self.horizon, seed=seed,
            warmup_events=self.warmup))
        return rep, sim

    def check(self, point, result) -> Outcome:
        index, s, seed = point
        rep, sim = result
        label = (f"w0={s.wifi.w0} n=({s.n_wifi},{s.n_laa}) "
                 f"rates=({s.wifi.data_rate_mbps},{s.laa.data_rate_mbps}) "
                 f"seed={seed}")
        counts = list(sim.event_counts.values())
        self._check_counts(label, counts)
        _require_finite(label, [*astuple(rep), *astuple(sim),
                                *sim.stderr.values()])
        rel_dev, rel_se = _agreement(label, (
            ("wifi", sim.tput_wifi_mbps, rep.tput_wifi_mbps,
             sim.stderr["tput_wifi_mbps"]),
            ("laa", sim.tput_laa_mbps, rep.tput_laa_mbps,
             sim.stderr["tput_laa_mbps"])))
        return self._outcome(index, counts, sim.event_counts["idle"],
                             rel_dev, rel_se)


class SimDense(_Simulated):
    """cli.run_scenario(engine="both") on large populations, imperfect sensing.

    table7 (5+5, class-4, detection probabilities derived through the
    energy detector) plus 10+10 and 20+20 with class-3 and class-4 LAA at
    p_dw = p_dl = 0.546. Short idle runs put the cost in per-station loops
    and detection coin draws.
    """

    name = "sim-dense"
    P_DETECT = 0.546
    LAA_CLASSES = (
        {"w0": 16, "m": 2, "defer_us": 43.0, "txop_us": 8000.0,
         "data_rate_mbps": 8.4},
        {"w0": 16, "m": 6, "defer_us": 79.0, "txop_us": 8000.0,
         "data_rate_mbps": 8.4},
    )

    def __init__(self, seed: int, horizon: int = SIM_HORIZON,
                 warmup: int = SIM_WARMUP):
        super().__init__(seed, horizon, warmup)
        from importlib import resources

        import yaml
        from laacoex import core, mcsim  # noqa: F401  (mcsim needs numpy)
        from laacoex.solver import SolverConfig
        self._cfg = SolverConfig()
        table7 = yaml.safe_load(resources.files("laacoex").joinpath(
            "presets", "table7.yaml").read_text(encoding="utf-8"))
        specs = [table7]
        for n in (10, 20):
            for laa in self.LAA_CLASSES:
                spec = {k: v for k, v in table7.items()
                        if k not in ("ed_wifi", "ed_laa")}
                spec.update(n_wifi=n, n_laa=n, laa=dict(laa),
                            p_dw=self.P_DETECT, p_dl=self.P_DETECT)
                specs.append(spec)
        self._scenarios = [core.scenario_from_dict(spec) for spec in specs]

    def execute(self, point):
        from laacoex import cli
        _, s, seed = point
        return cli.run_scenario(s, "both", self._cfg, seed=seed,
                                horizon=self.horizon, warmup=self.warmup)

    def check(self, point, result) -> Outcome:
        index, s, seed = point
        label = (f"n=({s.n_wifi},{s.n_laa}) laa_m={s.laa.m} "
                 f"p_d=({s.p_dw:.3f},{s.p_dl:.3f}) seed={seed}")
        if [row.get("engine") for row in result] != ["analytic", "simulate"]:
            raise CheckFailure(f"{label}: expected an analytic and a "
                               "simulate row")
        ana, sim = result
        counts = [sim[name] for name in _COUNT_CELLS]
        self._check_counts(label, counts)
        _require_finite(label, list(ana.values()) + list(sim.values()))
        rel_dev, rel_se = _agreement(label, (
            ("wifi", sim["tput_wifi_mbps"], ana["tput_wifi_mbps"],
             sim["stderr_tput_wifi_mbps"]),
            ("laa", sim["tput_laa_mbps"], ana["tput_laa_mbps"],
             sim["stderr_tput_laa_mbps"])))
        return self._outcome(index, counts, sim["idle_events"], rel_dev,
                             rel_se)


WORKLOADS = {w.name: w for w in (AnalyticSweeps, SimXval, SimDense)}
