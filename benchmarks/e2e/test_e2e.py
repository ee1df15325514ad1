"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

Run from the repository root with ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: layer -> (workloads that must call it, workloads that must not).
LAYER_CALLS = {
    "topology.route": (["bg_fair_30k", "fattree_mix"], []),
    "network.inject": (["bg_fair_30k", "fattree_mix"], []),
    "network.advance": (["bg_fair_30k", "fattree_mix"], []),
    "network.next_finish": (["bg_fair_30k", "fattree_mix"], []),
    "network.sync": (["bg_fair_30k", "fattree_mix"], []),
    "network.set_rates": (["bg_fair_30k", "fattree_mix"], []),
    "events.pop": (["bg_fair_30k", "fattree_mix"], []),
    "engine.run": (["fattree_mix"], []),
    "workloads.build": (["fattree_mix"], ["bg_fair_30k", "bg_echelon_10k"]),
    "scheduling.allocate": (["bg_echelon_10k", "fattree_mix"], ["bg_fair_30k"]),
    "scheduling.gamma": (["bg_echelon_10k", "fattree_mix"], ["bg_fair_30k"]),
    "allocation.fill": (["bg_echelon_10k", "fattree_mix"], ["bg_fair_30k"]),
    "allocation.maxmin": (["bg_fair_30k"], ["bg_echelon_10k", "fattree_mix"]),
    "scheduling.memo": (["whatif_sweep"], ["fattree_mix"]),
    "state.snapshot": (["whatif_sweep"], ["fattree_mix"]),
    "state.fork": (["whatif_sweep"], ["fattree_mix"]),
    "whatif.query": (["whatif_sweep"], ["fattree_mix"]),
    "obs.hooks": (["fattree_mix_obs"], ["fattree_mix"]),
    "obs.report": (["fattree_mix_obs"], ["fattree_mix"]),
}


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=170,
    )


def parse(proc):
    """(printed metric rows {(workload, name): unit}, final JSON, result file)."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    rows = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] in WORKLOADS:
            rows[(fields[0], fields[1])] = fields[3]
    path = re.search(r"results written to (\S+)", proc.stderr).group(1)
    return rows, json.loads(lines[-1]), json.loads(Path(path).read_text())


def expect_declared(rows, result, declared):
    names = {m["name"]: m["unit"] for m in declared}
    wanted = {(w, n): u for w in WORKLOADS for n, u in names.items()}
    assert rows == wanted
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        f"{w}.{n}": u for (w, n), u in wanted.items()
    }


@pytest.fixture(scope="module")
def untraced():
    return parse(run_bench("--smoke", "--reps", "1"))


@pytest.fixture(scope="module")
def traced():
    return parse(run_bench("--smoke", "--trace"))


def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8 and len(set(WORKLOADS)) == len(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_every_workload_prints_every_end_to_end_metric(untraced):
    rows, result, _document = untraced
    expect_declared(rows, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced):
    rows, result, document = traced
    expect_declared(rows, result, SPEC["per_layer"])
    for workload in WORKLOADS:
        untraced_rep, traced_rep = document["reps"][workload]
        assert traced_rep["traced"] and not untraced_rep["traced"]
        assert traced_rep["digest"] == untraced_rep["digest"], workload


def test_layers_are_called_where_they_should_be(traced):
    metrics = traced[1]["metrics"]
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    assert set(LAYER_CALLS) == {k.split(".", 1)[1].rsplit(".", 1)[0] for k in calls}
    for layer, (moves, absent) in LAYER_CALLS.items():
        for workload in moves:
            assert calls[f"{workload}.{layer}.calls"] > 0, (layer, workload)
        for workload in absent:
            assert calls[f"{workload}.{layer}.calls"] == 0, (layer, workload)

    def route_share(workload):
        return (metrics[f"{workload}.topology.route.self_s"]["value"]
                / metrics[f"{workload}.trace.run_s"]["value"])

    # Routing is called per flow everywhere but costs little where few
    # host pairs repeat (the fat-tree mix) next to thousands of cold pairs.
    assert route_share("fattree_mix") < route_share("bg_fair_30k")


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "fattree_mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=bench / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, parent, higher=False, bound=0.1) == "within bound"
    assert compare.verdict(parent, faster, higher=False, bound=0.1) == "better"
    assert compare.verdict(faster, parent, higher=False, bound=0.1) == "worse"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(parent, noisy, higher=False, bound=0.1) == "unresolved"
    assert compare.verdict(parent, parent, higher=False, bound=None) == "info"
    assert compare.pair_gain(parent, faster, higher=False) == (10, 10, True)
