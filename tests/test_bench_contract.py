"""The benchmark's contract in tier 1: one round of each workload in
bench/workloads.py, at seed 1 and the default horizon, runs and passes that
workload's own checks (golden CSVs, simulated against analytic throughput,
event accounting). The module is imported from its file, never changed."""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["analytic-sweeps", "sim-xval", "sim-dense"])
def test_one_round_passes_its_checks(workloads, name):
    workload = workloads.WORKLOADS[name](seed=1)
    requests = workload.round()
    assert requests
    for request in requests:
        # a failing check raises CheckFailure, naming the request
        outcome = workload.check(request, workload.execute(request))
        assert outcome.points >= 1
