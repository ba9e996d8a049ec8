"""Smoke test of the benchmark harness at tiny sizes.

It asserts structure only (metric names and units as BENCHMARK.json
declares them, the error rate and the result line), never timings.
"""

import importlib.util
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

TINY = {
    "certify-large": dict(n=300, m=600, r=5, d=4.0),
    "certify-search": dict(n=300, m=600, r=5, trials=5),
    "upper-bound": dict(r_values=(3,), samples=100, simple_side=8, zero_s=2,
                        sweep_side=50, sweep_draws=50, oracles=((4, 3, 2),)),
}


def declared(kind):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[kind]}, [w["name"] for w in doc["workloads"]]


def test_workloads_match_benchmark_json():
    _, names = declared("end_to_end")
    assert names == list(run.WORKLOADS)


@pytest.fixture(autouse=True)
def keep_program_modules():
    """The harness re-imports pathramsey; give other tests their modules back."""
    saved = {k: m for k, m in sys.modules.items()
             if k == "pathramsey" or k.startswith("pathramsey.")}
    yield
    for k in [k for k in sys.modules if k == "pathramsey" or k.startswith("pathramsey.")]:
        del sys.modules[k]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_harness_structure(workload, trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    record = run.run(workload, seed=3, seconds=0, trace=bool(trace),
                     params=TINY[workload], workdir_base=str(tmp_path))
    assert record["failed"] == 0, record["problems"]
    assert record["error_rate"] == 0
    assert record["attempted"] >= 3
    units, _ = declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in record["metrics"].items()} == units

    run.report(record)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(units)
    assert os.path.exists(os.path.join(tmp_path, "records",
                                       f"{workload}-seed3-trace{trace}.json"))
