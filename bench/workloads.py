"""Seeded job lists for the three benchmark workloads.

A job is a dict with the ``argv`` passed to ``spantor.cli.main`` and the
``kind`` and ``params`` the oracles read; the program sees only the argv.
Sizes are drawn by stratified sampling (one draw per fixed stratum) or within
a few percent of a fixed ladder, so that the cost of a job list varies little
from seed to seed while the inputs themselves change with the seed.  An input
that makes a job's cost jump is fixed per slot.

* exact-counts: dense Bareiss elimination in ``graphs`` does nearly all of
  the work (circulant and torus counts, the beta = 5 conjecture check and
  the coefficient fit), and quadrature is absent.
* float-asymptotics: float lead terms (quadrature, scaled Bessel kernels),
  special functions and compare tables whose rows all exceed the tree-count
  vertex limit; no Bareiss and no mpmath.  Every ``specfun lead`` job has a
  distinct generator set, so the lead-term cache misses there, while the
  rows of each compare table share one lead term and hit it.
* high-precision: ``compare --precision`` tables, where the O(n) and O(V)
  mpmath log det* loops in ``hp`` dominate; a few rows lie below the
  tree-count limit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("exact-counts", "float-asymptotics", "high-precision")

# rows at or below this many vertices get an exact tree count in `compare`
TREE_COUNT_VERTEX_LIMIT = 600

WIDE_GENERATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 20)

# job i of a built list of 40 runs at place 9 i mod 40, so that jobs up to
# eight places apart as built run at least four places apart
RUN_STRIDE = 9

# the estimate-alpha n set, one n from each exact-counts range, whose fitted
# coefficients agree with the oracle to the fewest digits (10.5)
LEAST_ACCURATE_FIT = (3, 5, 6, 8, 10)


def _job(kind: str, argv: list, **params) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "params": params}


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer drawn uniformly from each of ``count`` equal strata of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + int(width * (i + rng.random())) for i in range(count)]


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _generators(rng: random.Random, extra: int, lo: int, hi: int) -> tuple[int, ...]:
    """1, extra - 1 distinct generators in [2, hi), and a largest one in [lo, hi]."""
    g_max = rng.randint(lo, hi)
    middle = rng.sample(range(2, g_max), extra - 1) if extra > 1 else []
    return tuple([1] + sorted(middle) + [g_max])


def _table_flags(rng: random.Random) -> list[str]:
    return ["--no-header"] + (["--format", "json"] if rng.random() < 0.5 else [])


def exact_counts(rng: random.Random) -> list[dict]:
    jobs = []
    # Bareiss cost grows with n^3 and with the number of generators, so each
    # slot fixes the generator count and an n within 2% of a fixed ladder;
    # the seed draws the generator values and the offset.  The torus sides
    # are likewise fixed to within a side length of one.  With these costs
    # the job tail falls among seven counts of 0.2 s (on a 2-vCPU VM) with
    # six costlier jobs above them, and the median job lies between the
    # conjecture tables for n-max 10 and 11, with a gap of a third on either
    # side, rather than at the edge of a cluster, where a job's noise would
    # move it by a whole rank.
    for i, center in enumerate((125, 165, 175, 185, 210, 235, 260, 285)):
        n = center + rng.randint(-2, 2)
        gens = (1,) + tuple(sorted(rng.sample(range(2, 7), i % 3)))
        jobs.append(_job("count-circulant", ["count", "--circulant", n, _ints(gens)],
                         n=n, gens=gens))
    # the growing side comes last: Bareiss is far cheaper on the other
    # orderings, so the order is part of a torus job's cost; a 3-D torus
    # with two equal sides has two orderings of the same cost
    tori = [(2, rng.randint(69, 71)), (3, rng.randint(44, 46)), (4, rng.randint(33, 35)),
            (5, rng.randint(31, 33)), (2, 2, rng.randint(25, 27)),
            rng.choice([(3, 3, 13), (3, 13, 3)])]
    for sides in tori:
        jobs.append(_job("count-torus", ["count", "--torus", _ints(sides)], sides=sides))
    for n_max in _strata(rng, 4, 16, 12):
        jobs.append(_job("conjecture", ["conjecture", "--n-max", n_max, *_table_flags(rng)],
                         n_max=n_max))
    # the fit's accuracy is set mostly by the smallest n, so every set takes
    # one n from each of five disjoint ranges (the fit needs beta = 5 distinct
    # n).  The first set is the least accurate of these ranges, so that
    # min_digits reads the same worst case on every seed.
    ranges = ((2, 4), (4, 6), (6, 8), (8, 10), (10, 13))
    for k in range(14):
        ns = list(LEAST_ACCURATE_FIT) if k == 0 else [rng.randrange(lo, hi) for lo, hi in ranges]
        jobs.append(_job("estimate-alpha",
                         ["estimate-alpha", "--beta", 5, "--n", _ints(ns), *_table_flags(rng)],
                         beta=5, ns=tuple(ns)))
    return jobs


def float_asymptotics(rng: random.Random) -> list[dict]:
    jobs = []
    # (extra generators, smallest and largest g_max): the lead-term cost is
    # set mostly by these two, so each slot costs about the same on any seed.
    # The cost steps up by half between g_max = 7 and 8, so no slot straddles
    # that step.
    slots = [(1, 2, 5), (2, 8, 9), (3, 9, 12), (4, 12, 16), (2, 16, 20)]
    lead_sets = [_generators(rng, *slot) for slot in slots] + [WIDE_GENERATORS]
    for gens in lead_sets:
        jobs.append(_job("lead", ["specfun", "lead", _ints(gens)], gens=gens))
    for d in (2, 3, 4):
        jobs.append(_job("cd", ["specfun", "cd", d], d=d))
    zeta_sides = [(rng.randint(2, 9),), (rng.randint(1, 4) / 2,), (1, rng.randint(1, 4)),
                  (2, rng.randint(1, 5))]
    for sides in zeta_sides:
        jobs.append(_job("zeta-prime-zero", ["specfun", "zeta-prime-zero", _ints(sides)],
                         sides=sides))
    # fixed arguments, like the Bessel t values: the Epstein values are the
    # smallest outputs, so their digits would otherwise make min_digits vary
    # with the seed
    epstein_args = [((1,), 2.0), ((3,), 0.75), ((1, 1), 2.0), ((1.5, 1.5), 3.0)]
    for sides, s in epstein_args:
        jobs.append(_job("epstein", ["specfun", "epstein", _ints(sides), s], sides=sides, s=s))
    for t in ("10", "1e4", "1e12"):
        for order in sorted(rng.sample(range(0, 9), 2)):
            jobs.append(_job("bessel", ["specfun", "bessel", order, t], order=order, t=float(t)))
    # Fewer than half of the jobs are millisecond specfun calls, so the median
    # job is a compare table; the median of millisecond jobs mostly measures
    # load on the machine.  Compare generator sets stay distinct from the
    # specfun lead sets, so the first row of each table misses the lead-term
    # cache and the later rows hit it.  A third generator costs a table about
    # a fifth more, so the generator counts are fixed and only their values
    # vary.  The tables, the alpha = 2 sublinear tables and the costlier lead
    # terms make up the slowest third of the list, so the job tail falls
    # inside that group rather than at its edge.  Sixteen millisecond jobs
    # lie below the eight torus-constant tables, so the median job falls in
    # the middle of those tables.
    compare_sets = []
    for extra in (1, 2, 1, 2, 1):
        gens = _generators(rng, extra, extra + 1, 6)
        while gens in lead_sets or gens in compare_sets:
            gens = _generators(rng, extra, extra + 1, 6)
        compare_sets.append(gens)
    for gens in compare_sets:
        # the largest row sets a table's cost, so its size range is narrow
        ns = [rng.randint(1000, 3000), rng.randint(10_000, 30_000),
              rng.randint(100_000, 300_000), rng.randint(900_000, 1_000_000)]
        jobs.append(_job("compare-circulant",
                         ["compare", "--family", "circulant", "--gens", _ints(gens),
                          "--n", _ints(ns), *_table_flags(rng)], gens=gens, ns=tuple(ns)))
    for a, beta in ((2, (1, 1)), (3, (1, 2))) * 4:
        ns = [rng.randint(18, 24), rng.randint(30, 34)]
        jobs.append(_job("compare-torus-constant",
                         ["compare", "--family", "torus-constant", "--alpha", a,
                          "--beta", _ints(beta), "--n", _ints(ns), *_table_flags(rng)],
                         alpha=(a,), beta=beta, ns=tuple(ns)))
    for a, b in [(1, 1)] + [(2, 1)] * 3:
        # the largest row sets most of a table's cost, which moves by a
        # quarter between nearby sizes (16000 is among the cheapest), so it
        # is fixed; the middle row adds about 0.02 s per 1000
        ns = [rng.randint(300, 1000), rng.randint(3500, 4500), 16_000]
        jobs.append(_job("compare-torus-sublinear",
                         ["compare", "--family", "torus-sublinear", "--alpha", a,
                          "--beta", b, "--n", _ints(ns), *_table_flags(rng)],
                         alpha=a, beta=b, ns=tuple(ns)))
    return jobs


def high_precision(rng: random.Random) -> list[dict]:
    jobs = []
    # the mpmath cost per eigenvalue grows with the generator count and every
    # row's lead term is a root search whose cost grows with the largest
    # generator, so both are fixed and only the middle generator varies
    gens = _generators(rng, 2, 5, 5)
    # precision rises while size falls, so the cost of the list (about the
    # sum of n times a cost per digit) varies little between seeds
    precisions = _strata(rng, 60, 241, 30)
    sizes = _strata(rng, TREE_COUNT_VERTEX_LIMIT + 1, 700, 30)[::-1]
    # a row below the limit adds an exact count to its job, so those rows sit
    # at fixed places in the list and in a narrow size range
    small = {3, 11, 19, 27}
    for i, (dps, n) in enumerate(zip(precisions, sizes)):
        ns = [n]
        if i in small:
            ns.insert(0, rng.randint(60, 66))
        jobs.append(_job("compare-circulant-hp",
                         ["compare", "--family", "circulant", "--gens", _ints(gens),
                          "--n", _ints(ns), "--precision", dps, *_table_flags(rng)],
                         gens=gens, ns=tuple(ns), dps=dps))
    blocks = [(2,), (3,), (2, 2), (4,), (2,), (3,), (2, 2), (4,), (2,), (3,)]
    precisions = _strata(rng, 60, 241, len(blocks))
    vertices = _strata(rng, TREE_COUNT_VERTEX_LIMIT + 1, 900, len(blocks))[::-1]
    for i, (alpha, dps, target) in enumerate(zip(blocks, precisions, vertices)):
        b = rng.randint(1, 2)
        width = b * math.prod(alpha)
        # two rows lie below the vertex limit, with V in [56, 72], and get
        # an exact tree count
        n = rng.randint(56 // width, 72 // width) if i in (2, 5) else -(-target // width)
        jobs.append(_job("compare-torus-hp",
                         ["compare", "--family", "torus-constant", "--alpha", _ints(alpha),
                          "--beta", b, "--n", n, "--precision", dps, *_table_flags(rng)],
                         alpha=alpha, b=b, ns=(n,), dps=dps))
    return jobs


_BUILDERS = {
    "exact-counts": exact_counts,
    "float-asymptotics": float_asymptotics,
    "high-precision": high_precision,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of ``workload`` for ``seed``; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    built = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    # The builders put jobs of like cost next to each other, and a shared
    # machine's speed stays correlated for about half a second, so jobs run
    # back to back would share one slow or fast spell.  Job i runs at place
    # i * RUN_STRIDE mod len, so the jobs that set the median and the tail
    # sample different spells of a pass.  The order is the same on every
    # seed, because a pass's peak memory depends on it.
    if math.gcd(RUN_STRIDE, len(built)) != 1:
        raise ValueError(f"{len(built)} jobs share a factor with the run stride {RUN_STRIDE}")
    jobs = [None] * len(built)
    for i, job in enumerate(built):
        jobs[i * RUN_STRIDE % len(built)] = job
    return jobs


def argv_digest(jobs: list[dict]) -> str:
    """sha256 of the argv list, the only input the program receives."""
    text = json.dumps([job["argv"] for job in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
