"""The benchmark's workloads, at tiny sizes, as a tier-1 test.

`perfbench/run.py` drives mvsum through its public API. Each workload here
is imported from it with shapes shrunk by `dataclasses.replace`, then set up,
checked, run for one op under the benchmark's `StageClock` and checked
against its oracle, in this process. An API change that breaks the
benchmark fails here, not only when the benchmark runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run(request):
    sys.path.insert(0, str(PERFBENCH))
    request.addfinalizer(lambda: sys.path.remove(str(PERFBENCH)))
    return importlib.import_module("run")


@pytest.fixture
def tiny(run, monkeypatch):
    for name in ("INGEST", "PAIR", "FOLD"):
        shape = getattr(run, name)
        monkeypatch.setattr(run, name, dataclasses.replace(shape, edges=300, vertices=100))
    return run


@pytest.mark.parametrize("workload", ["ingest", "merge-files", "fold"])
def test_workload_runs_and_checks(tiny, workload, tmp_path):
    run = tiny
    api = run.load_api()
    wl = run.WORKLOADS[workload](1, tmp_path)
    wl.prepare(api, run.NullTracer())
    wl.check_prepared(api)
    wl.before_op()
    clock = run.refclock.StageClock()
    with clock.span("op"):
        result = wl.op(api, clock)
    assert wl.check(api, result)
