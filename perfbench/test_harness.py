"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Every workload runs at a tiny size.  The test checks that each metric named
in BENCHMARK.json is printed with its unit, that the counts of a traced run
repeat exactly for a fixed seed, that the tracer removes its wrappers, that
self time subtracts the union of child spans, and that a failing probe is
counted instead of ending the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py knows, norm-search (run by hand only) included
WORKLOADS = ["norm-search"] + [w["name"] for w in BENCH["workloads"]]
COUNT_UNITS = ("count", "bytes")


def run(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def assert_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    out = run(workload, 0)
    assert_metrics(out["result"], BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert out["result"]["metrics"][m["name"]]["value"] > 0, m["name"]
    if workload == "norm-search":
        assert out["report"]["raw_quality"]["bound_vs_ref_min"] >= 1.0 - 1e-9
    assert out["report"]["env"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    for out in (first, second):
        assert_metrics(out["result"], BENCH["per_layer"])
        assert out["report"]["counts_repeat_across_passes"]
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in COUNT_UNITS]
    a, b = first["result"]["metrics"], second["result"]["metrics"]
    assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}


def test_tracer_restores_bindings():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    targets = workloads.trace_targets()
    before = [getattr(mod, attr) for _, mod, attr, *_ in targets]
    with spans.Tracer(targets):
        assert all(getattr(mod, attr) is not f for (_, mod, attr, *_), f in zip(targets, before))
    assert all(getattr(mod, attr) is f for (_, mod, attr, *_), f in zip(targets, before))


def test_self_time_subtracts_union_of_children():
    sys.path.insert(0, str(HERE))
    import spans

    tr = spans.Tracer([])
    tr.names = ["parent", "child"]
    # parent [0, 100]; children [10, 50] and [30, 70] overlap (two threads),
    # [80, 90] stands alone: covered 60 + 10 = 70, parent self time 30.
    rows = [(0, 0, 100, -1), (1, 10, 50, 0), (1, 30, 70, 0), (1, 80, 90, 0)]
    tr.name_id = array("i", [r[0] for r in rows])
    tr.start = array("q", [r[1] for r in rows])
    tr.end = array("q", [r[2] for r in rows])
    tr.parent = array("q", [r[3] for r in rows])
    summary = tr.summary()
    assert summary["parent"]["calls"] == 1
    assert summary["parent"]["self_s"] == pytest.approx(30e-9)
    assert summary["child"]["calls"] == 3
    assert summary["child"]["self_s"] == pytest.approx(90e-9)


def test_failed_probes_are_counted(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run as bench

    monkeypatch.setattr(bench, "IMPORT_PROBE", "print('not a number')")
    monkeypatch.setattr(bench, "COLD_START_ARGV", ["-c", "import sys; sys.exit(3)"])
    probes = bench.Probes({"import": 2, "cold-start": 3})
    probes.catch_up(1.0)
    t = probes.tally
    assert (t.attempted, t.wrong, t.errors) == (5, 2, 3)
    assert t.reasons["probe.import"]["count"] == 2
    assert t.reasons["probe.cold-start"]["count"] == 3
    assert probes.ok == {"import": [], "cold-start": []}
    # with no successful probe the failed ones still give a time
    assert probes.seconds("cold-start") > 0
    # the fastest and slowest tenth are left out of a kind's time
    probes.ok["import"] = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -100.0]
    assert probes.seconds("import") == pytest.approx(4.5)
