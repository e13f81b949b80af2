"""Tests of the benchmark itself: job generation, oracles, failure counting, tracing.

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, argv_digest, generate  # noqa: E402

OTHER_SEED = 7


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first, again = generate(workload, 0), generate(workload, 0)
    assert [j["argv"] for j in first] == [j["argv"] for j in again]
    assert argv_digest(first) == argv_digest(again)
    assert argv_digest(generate(workload, OTHER_SEED)) != argv_digest(first)
    assert all(isinstance(a, str) for job in first for a in job["argv"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, OTHER_SEED])
def test_every_job_passes_its_oracle(workload, seed):
    jobs = generate(workload, seed)
    reply = run._spawn({"src": str(run.ROOT / "src"), "jobs": [j["argv"] for j in jobs]})
    attempted, failed, digits, notes = run._checked(jobs, [reply])
    assert (attempted, failed) == (len(jobs), 0), notes
    assert min(digits) > 7


def test_failed_frac_counts_an_injected_bad_output():
    kinds = ("bessel", "cd", "zeta-prime-zero")
    jobs = [j for j in generate("float-asymptotics", 0) if j["kind"] in kinds]
    reply = run._spawn({"src": str(run.ROOT / "src"), "jobs": [j["argv"] for j in jobs]})
    assert run._checked(jobs, [reply])[1] == 0
    bad = copy.deepcopy(reply)
    value = bad["jobs"][0]["out"].split('"value": ')[1].split(",")[0]
    bad["jobs"][0]["out"] = bad["jobs"][0]["out"].replace(value, repr(float(value) * (1 + 1e-6)))
    bad["jobs"][1]["code"] = 2
    attempted, failed, _, notes = run._checked(jobs, [reply, bad])
    assert (attempted, failed) == (2 * len(jobs), 2)
    metrics, info = run._end_to_end(jobs, [reply, bad], [0.1], attempted, failed, [10.0])
    assert info["failed_frac"] == 2 / attempted
    assert metrics["ok_frac"][0] == 1 - 2 / attempted


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tail_percentile_exists_for_the_job_count(workload):
    for seed in (0, OTHER_SEED):
        count = len(generate(workload, seed))
        index, percentile = run.tail_rank(count)
        assert count - index - 1 == run.TAIL_BEYOND
        assert 50 <= percentile < 100
    with pytest.raises(run.BenchError):
        run.tail_rank(run.TAIL_BEYOND)


def test_wrappers_are_restored_after_a_traced_run():
    import importlib
    originals = {}
    for module_name, attr, _, _ in tracing.BINDINGS:
        module = importlib.import_module(module_name)
        originals[(module_name, attr)] = getattr(module, attr, None)
    hp = importlib.import_module("spantor.hp")
    mp_before = hp.mp
    tracer = tracing.Tracer()
    undo, _ = tracing.install(tracer)
    try:
        cli = importlib.import_module("spantor.cli")
        assert cli.main is not originals[("spantor.cli", "main")]
    finally:
        undo()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr, None) is original
    assert hp.mp is mp_before


def test_self_times_subtract_children_and_balance():
    # job [0, 10] > cli [1, 9] > two tree counts [2, 4] and [5, 8]
    spans = [["bench.job", -1, 0.0, 10.0, None], ["cli", 0, 1.0, 9.0, None],
             ["graphs.tree_count", 1, 2.0, 4.0, None], ["graphs.tree_count", 1, 5.0, 8.0, None]]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.0, 3.0]
    layers = tracing.summarize(spans)
    assert layers["graphs.tree_count"]["calls"] == 2
    assert layers["graphs.tree_count"]["self_s"] == 5.0
    assert run._imbalance({"spans": spans, "wall_s": 12.0}) == 0.0
    escaped = copy.deepcopy(spans)
    escaped[3][3] = 11.0  # a child that outlives its parent
    assert run._imbalance({"spans": escaped, "wall_s": 12.0}) > 0.0


def test_reported_metrics_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    jobs = generate("exact-counts", 0)
    fake = {"wall_s": 1.0, "peak_rss_mb": 50.0,
            "jobs": [{"time": 0.1, "out": ""} for _ in jobs], "spans": []}
    e2e, _ = run._end_to_end(jobs, [fake], [0.2], len(jobs), 0, [12.0])
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        {(name, unit) for name, (_, unit) in e2e.items()}
    layers, _ = run._per_layer([dict(fake, missing_bindings=[])], [fake])
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == \
        {(name, unit) for name, (_, unit) in layers.items()}
    assert spec["workloads"] and [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_checks_reject_a_wrong_count():
    job = next(j for j in generate("exact-counts", 0) if j["kind"] == "count-circulant")
    n, gens = job["params"]["n"], job["params"]["gens"]
    right = f"{checks.reference.circulant_count(n, tuple(gens))}\n"
    assert checks.check(job, right)[0]
    assert not checks.check(job, f"{int(right) + 1}\n")[0]
