"""The benchmark's contract in tier 1: one round of each workload in
bench/workloads.py, at seed 1 and the default horizon, runs and passes that
workload's own checks (golden CSVs, simulated against analytic throughput,
event accounting), and every function bench/tracing.py wraps exists, bar
the known-dead ones. Both modules are imported from their files, never
changed. The committed perf trajectory, BENCH_<workload>.json at the
repository root, is checked for the fields every entry must carry."""
import importlib.util
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def bench_module(name):
    """bench/<name>.py, imported from its file as bench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    with bench_module("workloads") as module:
        yield module


@pytest.mark.parametrize("name", ["analytic-sweeps", "sim-xval", "sim-dense"])
def test_one_round_passes_its_checks(workloads, name):
    workload = workloads.WORKLOADS[name](seed=1)
    requests = workload.round()
    assert requests
    for request in requests:
        # a failing check raises CheckFailure, naming the request
        outcome = workload.check(request, workload.execute(request))
        assert outcome.points >= 1


# wrap targets deleted from the package while the harness kept them
DEAD_WRAP_TARGETS = {"laacoex.solver.wifi_tau", "laacoex.solver.laa_tau",
                     "laacoex.cli.simulate_with_detection",
                     "laacoex.mcsim.simulate_with_detection"}


def test_every_live_wrap_target_resolves():
    # tracing skips a target its module lacks, so a renamed layer function
    # would only show as "warning: no data" in a traced run
    with bench_module("tracing") as tracing:
        missing = {f"{module}.{attr}"
                   for module, attr, _ in tracing.LAYER_CALLS
                   if not hasattr(importlib.import_module(module), attr)}
    assert missing == DEAD_WRAP_TARGETS


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHA = re.compile(r"[0-9a-f]{40}")


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_trajectory_file_is_complete(workload):
    # every perf claim cites BENCH_<workload>.json: each entry names the
    # two commits it compares and every end-to-end metric, with its unit,
    # on both sides, and the file lists the harness's known defects
    data = json.loads((ROOT / f"BENCH_{workload}.json").read_text(
        encoding="utf-8"))
    assert data["workload"] == workload
    assert data["known_defects"]
    assert all(d["metric"] and d["defect"] for d in data["known_defects"])
    assert data["entries"]
    for entry in data["entries"]:
        shas = {"parent": entry["parent_sha"], "change": entry["change_sha"]}
        assert all(SHA.fullmatch(sha) for sha in shas.values())
        for side in shas:
            summary = entry["trace0"]["summary"][side]
            for metric in BENCHMARK["end_to_end"]:
                assert summary[metric["name"]]["unit"] == metric["unit"]
        for run in entry["trace0"]["runs"]:
            assert run["git_sha"] == shas[run["side"]]
            assert {name: m["unit"] for name, m
                    in run["result"]["metrics"].items()} == {
                m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
