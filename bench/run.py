"""spantor benchmark: seeded CLI workloads, timed in fresh interpreters, checked by oracles.

    python3 bench/run.py --workload exact-counts --seed 0 --seconds 40 --trace 0

Each pass runs the workload's whole job list through ``spantor.cli.main`` in
a fresh single-threaded interpreter (``worker.py``); passes repeat until
``--seconds`` have gone by.  Every job's output is then checked against the
oracles, outside the timed region.  With ``--trace 0`` the last line of
stdout reports the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and it reports the per-layer metrics.  The line
before it records the inputs and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import checks  # noqa: E402
from workloads import WORKLOADS, argv_digest, generate  # noqa: E402

# extra interpreters that only import spantor.cli and build the parser
SETUP_PROBES = 6
# a job tail needs at least this many jobs beyond it
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (metric, unit, layer, field); a missing layer reads 0
LAYER_FIELDS = [
    ("graphs.tree_count.calls", "count", "graphs.tree_count", "calls"),
    ("graphs.tree_count.self_s", "s", "graphs.tree_count", "self_s"),
    ("graphs.tree_count.vertices", "count", "graphs.tree_count", "vertices"),
    ("graphs.tree_count.bits", "bit", "graphs.tree_count", "bits"),
    ("graphs.spectrum.calls", "count", "graphs.spectrum", "calls"),
    ("graphs.spectrum.self_s", "s", "graphs.spectrum", "self_s"),
    ("graphs.spectrum.eigenvalues", "count", "graphs.spectrum", "eigenvalues"),
    ("graphs.log_det_star.self_s", "s", "graphs.log_det_star", "self_s"),
    ("quadrature.calls", "count", "quadrature", "calls"),
    ("quadrature.self_s", "s", "quadrature", "self_s"),
    ("quadrature.evals", "count", "quadrature", "evals"),
    ("specfun.bessel.calls", "count", "specfun.bessel", "calls"),
    ("specfun.bessel.self_s", "s", "specfun.bessel", "self_s"),
    ("specfun.theta.calls", "count", "specfun.theta", "calls"),
    ("specfun.theta.self_s", "s", "specfun.theta", "self_s"),
    ("asym.lead.calls", "count", "asym.lead", "calls"),
    ("asym.lead.self_s", "s", "asym.lead", "self_s"),
    ("asym.lead.incl_s", "s", "asym.lead", "incl_s"),
    ("asym.predict.calls", "count", "asym.predict", "calls"),
    ("asym.predict.self_s", "s", "asym.predict", "self_s"),
    ("asym.epstein.calls", "count", "asym.epstein", "calls"),
    ("asym.epstein.self_s", "s", "asym.epstein", "self_s"),
    ("hp.log_det.calls", "count", "hp.log_det", "calls"),
    ("hp.log_det.self_s", "s", "hp.log_det", "self_s"),
    ("hp.log_det.terms", "count", "hp.log_det", "terms"),
    ("hp.lead.self_s", "s", "hp.lead", "self_s"),
    ("hp.residual.self_s", "s", "hp.residual", "self_s"),
    ("hp.conjecture.self_s", "s", "hp.conjecture", "self_s"),
    ("cli.self_s", "s", "cli", "self_s"),
    ("bench.job.self_s", "s", "bench.job", "self_s"),
]


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(request: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")], input=json.dumps(request),
        capture_output=True, text=True, env=_worker_env(), cwd=ROOT,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _versions() -> dict:
    found = {"python": platform.python_version()}
    for name in ("numpy", "scipy", "mpmath"):
        try:
            found[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            found[name] = "missing"
    return found


def tail_rank(job_count: int) -> tuple[int, float]:
    """Index (ascending) and percentile of the highest job time with TAIL_BEYOND jobs above it."""
    if job_count <= TAIL_BEYOND:
        raise BenchError(f"{job_count} jobs cannot have {TAIL_BEYOND} beyond a tail")
    index = job_count - TAIL_BEYOND - 1
    return index, 100.0 * (index + 1) / job_count


def _checked(jobs: list[dict], passes: list[dict]) -> tuple[int, int, list, list]:
    """Check every job of every pass; return attempted, failed, digits and failure notes.

    Passes print the same bytes, so each distinct output is checked once.
    """
    attempted = failed = 0
    found, notes, cache = [], [], {}
    for reply in passes:
        for index, (job, result) in enumerate(zip(jobs, reply["jobs"])):
            attempted += 1
            if result["code"] != 0:
                ok, digits = False, []
                reason = result["error"] or f"exit {result['code']}: {result['err'][-300:]}"
            else:
                key = (index, result["out"])
                if key not in cache:
                    cache[key] = checks.check(job, result["out"])
                ok, digits, reason = cache[key]
            found.extend(digits)
            if not ok:
                failed += 1
                notes.append(f"{' '.join(job['argv'])}: {reason}")
    return attempted, failed, found, notes


def _job_times(jobs: list[dict], passes: list[dict]) -> list[float]:
    """Each job's median time over the passes.

    On a shared machine a job's speed swings by a third from one second to
    the next.  The fastest repeat depends on whether a run happened to catch
    a quiet moment, so it spreads from run to run far more than the median
    repeat does.
    """
    return [statistics.median(reply["jobs"][i]["time"] for reply in passes)
            for i in range(len(jobs))]


def _end_to_end(jobs, passes, setups, attempted, failed, found) -> tuple[dict, dict]:
    times = sorted(_job_times(jobs, passes))
    index, percentile = tail_rank(len(times))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (times[index], "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "min_digits": (min(found) if found else 0.0, "digits"),
    }
    info = {"tail_percentile": percentile, "tail_jobs_beyond": TAIL_BEYOND,
            "job_count": len(times), "failed_frac": failed / attempted}
    return metrics, info


def _per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    summaries = [tracing.summarize(reply["spans"]) for reply in traced]
    metrics = {}
    for name, unit, layer, field in LAYER_FIELDS:
        values = [s.get(layer, {}).get(field, 0) for s in summaries]
        value = statistics.median(values) if field.endswith("_s") else values[0]
        metrics[name] = (value, unit)
    conj = summaries[0].get("hp.conjecture", {})
    ratio = conj["dps_used"] / conj["dps_asked"] if conj.get("dps_asked") else 0.0
    metrics["hp.conjecture.dps_ratio"] = (ratio, "ratio")
    out_bytes = sum(len(r["out"].encode()) for r in traced[0]["jobs"])
    metrics["cli.out_bytes"] = (out_bytes, "B")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in untraced), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    imbalance = max(_imbalance(reply) for reply in traced)
    return metrics, {"trace_imbalance_s": imbalance, "layers": summaries[0]}


def _imbalance(reply: dict) -> float:
    """|traced wall - (sum of every span's self time + time outside every span)|.

    The two agree when spans nest; a child that escapes its parent's interval
    or overlaps a sibling makes them differ.
    """
    spans = reply["spans"]
    roots = sum(end - start for _, parent, start, end, _ in spans if parent < 0)
    gaps = reply["wall_s"] - roots
    return abs(reply["wall_s"] - (sum(tracing.self_times(spans)) + gaps))


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "spantor" / "cli.py").is_file():
        print(f"no spantor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = generate(workload, seed)
    argvs = [job["argv"] for job in jobs]
    request = {"src": str(ROOT / "src"), "jobs": argvs}
    setups, untraced, traced = [], [], []
    start = time.perf_counter()
    # a pass (or an untraced and traced pair) starts only if, at the mean
    # pass time so far, it ends within the run time
    while not untraced or (time.perf_counter() - start) * (1 + 1 / len(untraced)) <= seconds:
        untraced.append(_spawn(request))
        if trace:
            traced.append(_spawn(dict(request, trace=True)))
    for _ in range(SETUP_PROBES):
        setups.append(_spawn(dict(request, setup_only=True))["setup_s"])
    passes = untraced + traced
    setups += [reply["setup_s"] for reply in passes]
    attempted, failed, found, notes = _checked(jobs, passes)
    e2e, info = _end_to_end(jobs, untraced, setups, attempted, failed, found)
    correct = failed == 0
    if trace:
        metrics, trace_info = _per_layer(traced, untraced)
        info["trace_imbalance_s"] = trace_info["trace_imbalance_s"]
        if info["trace_imbalance_s"] > 1e-6 * e2e["wall_s"][0] + 1e-6:
            correct = False
            notes.append(f"layer self times do not add up: {info['trace_imbalance_s']}")
        info["missing_bindings"] = traced[0]["missing_bindings"]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"layers": trace_info["layers"], "spans": traced[0]["spans"]}))
        info["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = e2e
    info.update(workload=workload, seed=seed, seconds=seconds, jobs=len(jobs),
                argv_sha256=argv_digest(jobs), passes=len(untraced),
                pass_walls=[reply["wall_s"] for reply in untraced],
                traced_passes=len(traced), setup_samples=len(setups),
                git_sha=_git_sha(), nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                threads={name: _worker_env()[name] for name in THREAD_PINS},
                failures=notes[:10], **_versions())
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
