import argparse
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime
from pathlib import Path

import mpmath as mp
import pytest

from spantor import cli, hp
from spantor.asym import predict_torus_sublinear
from spantor.cli import estimate_alpha
from spantor.graphs import spanning_tree_count_exact

from oracles import epstein_theta_mp, fibonacci, torus_mode_mellin


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def parse_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    return header, rows[1:]


# ---------------------------------------------------------------------------
# count / spectrum
# ---------------------------------------------------------------------------


def test_count_circulant(capsys):
    rc, out = run_cli(capsys, "count", "--circulant", "7", "1,2")
    assert rc == 0 and out.strip() == "1183"
    rc, out = run_cli(capsys, "count", "--circulant", "4", "1")
    assert rc == 0 and out.strip() == "4"


def test_count_circulant_with_100000_vertices(capsys):
    # the count has 41802 digits, past str()'s default 4300-digit limit
    n = 100_000
    t0 = time.perf_counter()
    rc, out = run_cli(capsys, "count", "--circulant", str(n), "1,2")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 2.0
    digits = out.strip()
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == n * fibonacci(n) ** 2


def test_int_text_equals_str_past_its_digit_limit():
    # random sizes from 13k bits, about the switch from str() at 4000 estimated
    # digits (13,334 bits), to 1.4M bits (421k digits, a count at n = 10^6),
    # and the values on either side of the switch and of its 2^(2^k) splits
    rng = random.Random(24)
    values = [rng.getrandbits(bits) | 1 << (bits - 1)
              for bits in [13_000, 13_333, 13_334, 16_384, 16_385, 65_537, 300_001, 1_400_000]]
    values += [10**4000, 2**13_333 - 1, 2**13_333, 2**16_384 - 1, 2**16_384, 0, 1]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for value in values:
            assert cli._int_text(value) == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_circulant_with_growing_generator_in_process(capsys):
    # C_{5n}^{1,n} at n = 200 is a 200-fold cover of the 5-cycle: a 5 x 5 determinant
    t0 = time.perf_counter()
    rc, out = run_cli(capsys, "count", "--circulant", "1000", "1,200")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 1.0
    verdict = hp.verify_conjecture(200)  # the closed form, checked against the count
    assert verdict.match and int(out) == verdict.exact


def test_count_torus(capsys):
    rc, out = run_cli(capsys, "count", "--torus", "3,3")
    assert rc == 0 and out.strip() == "11664"


def test_spectrum_rows(capsys):
    rc, out = run_cli(capsys, "--no-header", "spectrum", "--torus", "2,2")
    assert rc == 0
    values = sorted(float(line.split(",")[1]) for line in out.strip().splitlines())
    assert values == pytest.approx([0.0, 4.0, 4.0, 8.0])


class _FixedClock:
    @staticmethod
    def now(tz=None):
        return datetime(2020, 1, 2, 3, 4, 5, tzinfo=tz)


@pytest.mark.parametrize("flags", [[], ["--no-header"], ["--format", "json"],
                                   ["--format", "json", "--no-header"]])
@pytest.mark.parametrize("spec", [["--circulant", "3", "1"], ["--circulant", "7", "1,3"],
                                  ["--circulant", "10", "1,5"], ["--torus", "1,2,3"],
                                  ["--torus", "3,4"]])
def test_spectrum_stream_matches_dict_writer(capsys, monkeypatch, flags, spec):
    # the streamed rows are the bytes the table writer gives one dict per row
    monkeypatch.setattr(cli, "datetime", _FixedClock)
    rc, out = run_cli(capsys, *flags, "spectrum", *spec)
    assert rc == 0
    args = cli.build_parser().parse_args(["spectrum", *spec])
    values = cli.spectrum(cli._spec_from_args(args))
    rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(values)]
    sink = cli.OutputSink(fmt="json" if "json" in flags else "csv",
                          header="--no-header" not in flags)
    expected = io.StringIO()
    sink.emit(["index", "eigenvalue"], rows, expected)
    assert out == expected.getvalue()


# ---------------------------------------------------------------------------
# compare tables
# ---------------------------------------------------------------------------


def test_compare_cycle_residual_zero(capsys):
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "circulant",
                      "--gens", "1", "--n", "5,50,500")
    assert rc == 0
    for line in out.strip().splitlines():
        residual = float(line.split(",")[-2])
        assert abs(residual) < 1e-12


def test_compare_residuals_decrease_with_precision(capsys):
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "circulant",
                      "--gens", "1,2", "--n", "10,20,30,40", "--precision", "60")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    residuals = [abs(float(r[5])) for r in rows]
    ns = [int(r[1]) for r in rows]
    assert ns == sorted(ns)
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    # exact counts come along for free at these sizes
    assert int(rows[0][6]) == 30250


def test_compare_torus_constant_residuals_decrease(capsys):
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "torus-constant",
                      "--alpha", "2", "--beta", "1", "--n", "100,500", "--precision", "120")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    res = [abs(float(r[5])) for r in rows]
    assert res[1] < res[0]


def test_compare_float_circulant_residual_is_not_quadrature_bias(capsys):
    # the true residual is below 1e-400; an n x 2.5e-11 bias in the lead term
    # would read -2.56e-5 at n = 10^6
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "circulant",
                      "--gens", "1,2", "--n", "1000,100000,1000000")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [int(r[1]) for r in rows] == [1000, 100000, 1000000]
    for row in rows:
        exact, residual = float(row[3]), float(row[5])
        assert abs(residual) <= 1e-13 * abs(exact)


def test_compare_csv_round_trip_exact(capsys):
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "torus-sublinear",
                      "--alpha", "1", "--beta", "1", "--an-rule", "floor_sqrt",
                      "--n", "50,100")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows:
        for cell in (row[3], row[4], row[5]):
            # 17 significant digits -> exact float64 round trip
            assert float(cell) == float(format(float(cell), ".17g"))
    rc2, again = run_cli(capsys, "--no-header", "compare", "--family", "torus-sublinear",
                         "--alpha", "1", "--beta", "1", "--an-rule", "floor_sqrt",
                         "--n", "50,100")
    assert again == out  # byte-identical without the timestamp header


def test_compare_header_carries_timestamp(capsys):
    _, out1 = run_cli(capsys, "compare", "--family", "circulant", "--gens", "1",
                      "--n", "5")
    assert out1.startswith("# spantor")
    assert "family,n,params" in out1.splitlines()[1]


def test_compare_json_format(capsys):
    rc, out = run_cli(capsys, "--no-header", "--format", "json", "compare",
                      "--family", "circulant", "--gens", "1,2", "--n", "10")
    doc = json.loads(out)
    assert "generated_at" not in doc
    row = doc["rows"][0]
    assert row["n"] == 10 and row["tree_count"] == 30250


@pytest.mark.parametrize("family", [
    ["circulant", "--gens", "1,2"],
    ["torus-constant", "--alpha", "2", "--beta", "1"],
    ["torus-sublinear", "--alpha", "1", "--beta", "1", "--an-rule", "floor_sqrt"],
])
def test_compare_families_write_one_json_row_layout(capsys, family):
    rc, out = run_cli(capsys, "--no-header", "--format", "json", "compare",
                      "--family", *family, "--n", "10,12")
    assert rc == 0
    for row in json.loads(out)["rows"]:
        assert list(row) == ["exact_log_det", "predicted_log_det", "residual",
                             "family", "n", "params", "tree_count"]


def test_compare_exact_unavailable_above_cap(capsys):
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "circulant",
                      "--gens", "1,2", "--n", "50", "--max-vertices", "40")
    assert rc == 0
    row = next(csv.reader(io.StringIO(out)))
    assert row[3] == "" and row[5] == ""
    assert float(row[4]) > 0


def test_compare_precision_torus_blank_above_cap(capsys):
    # V = 2 * 50 = 100 exceeds the cap of 60: no exact value, no residual,
    # but the prediction is still printed
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "torus-constant",
                      "--alpha", "2", "--beta", "1", "--n", "50",
                      "--max-vertices", "60", "--precision", "40")
    assert rc == 0
    row = next(csv.reader(io.StringIO(out)))
    assert row[3] == "" and row[5] == "" and row[6] == ""
    assert float(row[4]) == pytest.approx(95.961404712810591, rel=1e-15)


def test_compare_precision_torus_filled_below_cap(capsys):
    # V = 2 * 20 = 40 is within the cap; the residual is 2 log(1 - (3 + 2 sqrt 2)^-20)
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "torus-constant",
                      "--alpha", "2", "--beta", "1", "--n", "20",
                      "--max-vertices", "60", "--precision", "40")
    assert rc == 0
    row = next(csv.reader(io.StringIO(out)))
    exact, predicted, residual = float(row[3]), float(row[4]), float(row[5])
    assert exact == pytest.approx(predicted + residual, rel=1e-15)
    assert residual == pytest.approx(-2 * (3 + 2 * math.sqrt(2)) ** -20, rel=1e-12)
    assert int(row[6]) > 0


def test_compare_precision_rejects_invalid_generators(capsys):
    # the --precision path reports a bad generator set as the float path does,
    # before any high-precision evaluation
    for extra in ((), ("--precision", "40")):
        rc = cli.main(["compare", "--family", "circulant", "--gens", "2,4",
                       "--n", "700", *extra])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "invalid graph specification: first generator must be 1, got 2\n"


_TORUS = ["compare", "--family", "torus-constant", "--alpha", "2", "--beta", "1"]
_SUBLINEAR = ["compare", "--family", "torus-sublinear", "--alpha", "2", "--beta", "1"]


# sizes below 1 reached math.log, math.isqrt or a division by zero, an
# invalid graph in specfun theta read as bad arguments, a cap below 1 printed
# blank cells or hit the cap, a negative theta or bessel argument and a zeta
# argument of at most 1 and an epstein s of at most r/2 read as numerical
# failures, and a negative number in exponent form read as an unknown option
@pytest.mark.parametrize("argv,code,message", [
    (_TORUS + ["--n", "0"], 1, "usage error: --n sizes must be positive, got 0"),
    (_TORUS + ["--n", "30,-3"], 1, "usage error: --n sizes must be positive, got -3"),
    (_SUBLINEAR + ["--n", "-3"], 1, "usage error: --n sizes must be positive, got -3"),
    (_SUBLINEAR + ["--n", "0", "--an-rule", "floor_log"], 1,
     "usage error: --n sizes must be positive, got 0"),
    (["compare", "--family", "circulant", "--gens", "1,2", "--n", "0"], 1,
     "usage error: --n sizes must be positive, got 0"),
    (["compare", "--family", "torus-sublinear", "--alpha", "0", "--beta", "1", "--n", "5"], 2,
     "numerical failure: alpha and beta entries must be positive integers"),
    (["compare", "--family", "torus-sublinear", "--alpha", "2", "--beta", "-1", "--n", "5"], 2,
     "numerical failure: alpha and beta entries must be positive integers"),
    (["specfun", "theta", "0.5", "--torus", "0,3"], 1,
     "invalid graph specification: sides must be positive integers: (0, 3)"),
    (["specfun", "theta", "0.5", "--circulant", "7", "2,3"], 1,
     "invalid graph specification: first generator must be 1, got 2"),
    (_TORUS + ["--n", "5", "--max-vertices", "-1"], 1,
     "usage error: argument --max-vertices: expected a positive integer, got '-1'"),
    (["specfun", "theta", "0.5", "--circulant", "7", "1,2", "--max-vertices", "0"], 1,
     "usage error: argument --max-vertices: expected a positive integer, got '0'"),
    (["--max-vertices", "1e3", "count", "--torus", "3,3"], 1,
     "usage error: argument --max-vertices: expected a positive integer, got '1e3'"),
    (["specfun", "theta", "-1", "--torus", "3,3"], 1,
     "usage error: expected a non-negative number, got '-1'"),
    (["specfun", "theta", "-0.25", "--circulant", "7", "1,2"], 1,
     "usage error: expected a non-negative number, got '-0.25'"),
    (["specfun", "theta", "-1e-3", "--torus", "3,3"], 1,
     "usage error: expected a non-negative number, got '-1e-3'"),
    (["specfun", "zeta", "-1.5e0"], 1, "usage error: need s > 1, got '-1.5e0'"),
    (["specfun", "zeta", "-1.5"], 1, "usage error: need s > 1, got '-1.5'"),
    (["specfun", "zeta", "1"], 1, "usage error: need s > 1, got '1'"),
    (["specfun", "zeta", "0.5"], 1, "usage error: need s > 1, got '0.5'"),
    (["specfun", "bessel", "0", "-1"], 1, "usage error: expected a non-negative number, got '-1'"),
    (["specfun", "epstein", "1,1", "1.0"], 1, "usage error: need s > r/2 = 1.0, got '1.0'"),
    (["specfun", "epstein", "2", "0.25"], 1, "usage error: need s > r/2 = 0.5, got '0.25'"),
])
def test_invalid_sizes_and_graphs_exit_with_one_line(capsys, argv, code, message):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert "Traceback" not in captured.err


# The stdout of compare --precision, byte for byte: circulant and torus rows,
# rows with and without a tree count, a row above --max-vertices, CSV and JSON
_PRECISION_GOLDEN = [
    (["compare", "--family", "circulant", "--gens", "1,2,5", "--n", "60,650,683",
      "--precision", "94", "--max-vertices", "660"],
     'circulant,60,"gens=1,2,5",98.479015197700846,98.479015197336636,3.6420923754106387e-10,'
     '97890744890683417239042594011718750000000\n'
     'circulant,650,"gens=1,2,5",1024.5442514351253,1024.5442514351253,1.1528708061121613e-92,\n'
     'circulant,683,"gens=1,2,5",,1076.1736343284927,,\n'),
    (["--format", "json", "compare", "--family", "circulant", "--gens", "1,3,5",
      "--n", "64,620", "--precision", "240"],
     '{\n  "rows": [\n    {\n      "exact_log_det": 105.71461824143795,\n'
     '      "predicted_log_det": 105.71461824130576,\n      "residual": 1.321843431192407e-10,\n'
     '      "family": "circulant",\n      "n": 64,\n      "params": "gens=1,3,5",\n'
     '      "tree_count": 127378281322312909141622435372011648244891328\n    },\n    {\n'
     '      "exact_log_det": 987.2785297128235,\n      "predicted_log_det": 987.2785297128235,\n'
     '      "residual": -5.730799052138289e-99,\n      "family": "circulant",\n'
     '      "n": 620,\n      "params": "gens=1,3,5",\n      "tree_count": null\n    }\n  ]\n}\n'),
    (["compare", "--family", "torus-constant", "--alpha", "3", "--beta", "2",
      "--n", "10,120", "--precision", "150"],
     'torus-constant,10,alpha=3;beta=2,68.663434026004325,68.663434026004424,'
     '-9.8404449012952026e-14,11015374215522395448023437500\n'
     'torus-constant,120,alpha=3;beta=2,763.02491159344129,763.02491159344129,'
     '-2.7822200112383237e-159,\n'),
    (["--format", "json", "compare", "--family", "torus-constant", "--alpha", "2,2",
      "--beta", "1", "--n", "15,40", "--precision", "70", "--max-vertices", "100"],
     '{\n  "rows": [\n    {\n      "exact_log_det": 92.68499066678152,\n'
     '      "predicted_log_det": 92.68499066679466,\n      "residual": -1.3148201988073397e-11,\n'
     '      "family": "torus-constant",\n      "n": 15,\n      "params": "alpha=2,2;beta=1",\n'
     '      "tree_count": 298145838214215771355402106085193190880\n    },\n    {\n'
     '      "exact_log_det": null,\n      "predicted_log_det": 240.09479961380185,\n'
     '      "residual": null,\n      "family": "torus-constant",\n      "n": 40,\n'
     '      "params": "alpha=2,2;beta=1",\n      "tree_count": null\n    }\n  ]\n}\n'),
    # six generators below and above the 60..240 digits of the benchmark: at
    # 30 digits the n = 900 residual is the rounding floor, at 400 it is resolved
    (["compare", "--family", "circulant", "--gens", "1,2,3,5,7,11", "--n", "40,900",
      "--precision", "30"],
     'circulant,40,"gens=1,2,3,5,7,11",96.524842737719993,96.525947195228056,'
     '-0.0011044575080640239,20803987120818726690615592509219495845000\n'
     'circulant,900,"gens=1,2,3,5,7,11",2134.2992124013963,2134.2992124013963,'
     '-4.5381379457689977e-29,\n'),
    (["compare", "--family", "circulant", "--gens", "1,2,3,5,7,11", "--n", "40,900",
      "--precision", "400"],
     'circulant,40,"gens=1,2,3,5,7,11",96.524842737719993,96.525947195228056,'
     '-0.0011044575080640239,20803987120818726690615592509219495845000\n'
     'circulant,900,"gens=1,2,3,5,7,11",2134.2992124013963,2134.2992124013963,'
     '-2.9946847157379289e-86,\n'),
    # a 2-D A-block
    (["compare", "--family", "torus-constant", "--alpha", "3,4", "--beta", "1",
      "--n", "6,60", "--precision", "300"],
     'torus-constant,6,"alpha=3,4;beta=1",121.17520069380544,121.1771482944406,'
     '-0.0019476006351615582,586662742883632512381971425908070809600000000000000\n'
     'torus-constant,60,"alpha=3,4;beta=1",1184.1249826842891,1184.1249826842891,'
     '-1.9284450724579295e-34,\n'),
]


@pytest.mark.parametrize("argv, expected", _PRECISION_GOLDEN)
def test_compare_precision_golden_output(capsys, argv, expected):
    rc, out = run_cli(capsys, "--no-header", *argv)
    assert rc == 0
    assert out == expected


@pytest.mark.parametrize("argv, expected", _PRECISION_GOLDEN,
                         ids=[str(i) for i in range(len(_PRECISION_GOLDEN))])
def test_compare_precision_counts_each_tree_once(capsys, monkeypatch, argv, expected):
    # a row at or below the tree-count limit prints tau, and an hp log det*
    # that takes the count route reuses it: one count per such row, and one
    # per larger row whose log det* takes the count route
    calls = []

    def counting(spec, cap):
        calls.append(spec)
        return spanning_tree_count_exact(spec, cap=cap)

    monkeypatch.setattr(cli, "spanning_tree_count_exact", counting)
    monkeypatch.setattr(hp, "spanning_tree_count_exact", counting)
    rc, out = run_cli(capsys, "--no-header", *argv)
    assert rc == 0
    assert out == expected
    assert len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# conjecture and coefficient fitting
# ---------------------------------------------------------------------------


def test_conjecture_table(capsys):
    rc, out = run_cli(capsys, "--no-header", "conjecture", "--n-max", "4")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [int(r[0]) for r in rows] == [2, 3, 4]
    assert all(r[3] == "True" for r in rows)
    assert int(rows[0][1]) == 30250
    assert all(int(r[4]) >= 15 for r in rows)


def test_conjecture_precision_above_the_doubling_limit(capsys):
    # 5000 digits exceed the 4000-digit limit on doublings, but the requested
    # precision is always tried
    rc, out = run_cli(capsys, "--no-header", "conjecture", "--n-max", "2", "--precision", "5000")
    assert rc == 0
    assert out.startswith("2,30250,30250.0,True,")


def test_conjecture_without_a_verdict_is_a_numerical_failure(capsys, monkeypatch):
    # a value half-way between two integers never gives a verdict
    monkeypatch.setattr(hp, "conjecture_tau_hp", lambda n, dps: mp.mpf(30250.5))
    assert cli.main(["conjecture", "--n-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: no unambiguous conjecture verdict")


def test_estimate_alpha_beta5_recovers_conjecture():
    terms, norm = estimate_alpha(5, (2, 3, 4, 5, 6, 7, 8))
    alphas = [a for (_, _, a, _) in terms]
    expected = [(1 - math.sqrt(5)) / 2, GOLDEN, GOLDEN, (1 - math.sqrt(5)) / 2]
    for got, want in zip(alphas, expected):
        assert got == pytest.approx(want, abs=1e-6)
    assert norm < 1e-8
    tags = [tag for (_, _, _, tag) in terms]
    assert tags == ["(1-sqrt5)/2", "(1+sqrt5)/2", "(1+sqrt5)/2", "(1-sqrt5)/2"]


def test_estimate_alpha_beta2_consistent_across_subsets():
    t1, _ = estimate_alpha(2, (2, 3, 4, 5, 6))
    t2, _ = estimate_alpha(2, (3, 4, 5, 6, 7, 8))
    assert t1[0][2] == pytest.approx(t2[0][2], abs=1e-6)
    # J_1^2 = arccosh(2 - cos(pi)) = arccosh(3)
    assert t1[0][1] == pytest.approx(math.acosh(3.0), rel=1e-12)


def test_estimate_alpha_beta7_exploratory(capsys):
    rc, out = run_cli(capsys, "--no-header", "estimate-alpha", "--beta", "7",
                      "--n", "2,3,4,5,6,7,8")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 6
    norm = float(rows[0][4])
    assert norm < 1e-6  # the product form fits the exact counts closely
    # symmetry k <-> beta-k enforced
    assert float(rows[0][2]) == pytest.approx(float(rows[5][2]), abs=1e-12)


def test_estimate_alpha_usage_errors(capsys):
    rc, _ = run_cli(capsys, "estimate-alpha", "--beta", "5", "--n", "2,3")
    assert rc == 1
    rc, _ = run_cli(capsys, "estimate-alpha", "--beta", "5", "--n", "1,2,3,4,5")
    assert rc == 1


@pytest.mark.parametrize("ns", [(20, 30, 40, 50, 60), (200, 300, 400, 500, 600)])
def test_estimate_alpha_large_n_resolves_the_golden_coefficients(ns):
    # 2cosh(nJ_k) swamps alpha_k in float64 at these n; the fit used to stay
    # at its start and print alpha = 0, tagged "0"
    terms, norm = estimate_alpha(5, ns)
    minus, plus = (1 - math.sqrt(5)) / 2, GOLDEN
    for (_, _, got, _), want in zip(terms, [minus, plus, plus, minus]):
        assert got == pytest.approx(want, abs=1e-12)
    assert [tag for (_, _, _, tag) in terms] == [
        "(1-sqrt5)/2", "(1+sqrt5)/2", "(1+sqrt5)/2", "(1-sqrt5)/2"]
    assert norm < 1e-20


@pytest.mark.parametrize("beta", range(2, 11))
def test_estimate_alpha_recovers_the_cover_identity(beta):
    # the cover route factorizes tau(C_{beta n}^{1,n}) over the characters of
    # Z/beta, which gives alpha_k = -2cos(2 pi k / beta) at every beta
    terms, _ = estimate_alpha(beta, tuple(range(2, beta + 3)))
    assert [k for (k, _, _, _) in terms] == list(range(1, beta))
    for k, _, alpha, _ in terms:
        assert alpha == pytest.approx(-2.0 * math.cos(2.0 * math.pi * k / beta), abs=1e-12)


@pytest.mark.parametrize("beta", range(2, 11))
def test_estimate_alpha_j_is_correctly_rounded_and_mirrored(beta):
    terms, _ = estimate_alpha(beta, tuple(range(2, beta + 2)))
    by_k = {k: j for (k, j, _, _) in terms}
    for k, j in by_k.items():
        assert j == by_k[beta - k]  # bit-identical, not merely close
        with mp.workdps(50):
            assert j == float(mp.acosh(2 - mp.cospi(mp.mpf(2 * k) / beta)))


def test_estimate_alpha_refuses_a_fit_that_misses_the_counts():
    beta, ns = 5, (2, 3, 4, 5, 6)
    weights = [2, 2]
    with mp.workdps(30):
        js = [mp.acosh(2 - mp.cospi(mp.mpf(2 * j) / beta)) for j in (1, 2)]
        rows = [cli._alpha_row(beta, n, js, weights) for n in ns]
        exact = [1 - (1 + mp.sqrt(5)) / 2, (1 + mp.sqrt(5)) / 2]
        assert cli._fit_residual_norm(rows, weights, exact) < 1e-20
        with pytest.raises(cli.QuadratureError, match="local minimum"):
            cli._fit_residual_norm(rows, weights, [exact[0], exact[1] + mp.mpf("1e-9")])


def test_cli_import_loads_no_gauss_legendre_tables():
    # the Mellin rule is a trapezoid rule; only the test oracles build
    # Gauss-Legendre tables (numpy.polynomial)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import spantor.cli\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules\n"
            "                             if m.startswith('numpy.polynomial'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stderr == "[]"


def test_estimate_alpha_runs_without_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from spantor.cli import main\n"
            "rc = main(['--no-header', 'estimate-alpha', '--beta', '5', '--n', '2,3,4,5,6'])\n"
            "sys.stderr.write(repr((rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stderr == repr((0, []))
    assert len(done.stdout.splitlines()) == 4


# ---------------------------------------------------------------------------
# specfun passthrough
# ---------------------------------------------------------------------------


def test_specfun_values(capsys):
    rc, out = run_cli(capsys, "specfun", "cd", "2")
    doc = json.loads(out)
    assert rc == 0 and doc["value"] == pytest.approx(1.1662436, abs=1e-6)
    rc, out = run_cli(capsys, "specfun", "eta", "1")
    assert json.loads(out)["value"] == pytest.approx(0.7682254, abs=1e-6)
    rc, out = run_cli(capsys, "specfun", "lead", "1,2")
    assert json.loads(out)["value"] == pytest.approx(0.9624237, abs=1e-6)
    rc, out = run_cli(capsys, "specfun", "zeta", "3")
    assert json.loads(out)["value"] == pytest.approx(1.2020569, abs=1e-6)
    rc, out = run_cli(capsys, "specfun", "bessel", "0", "2.0")
    assert json.loads(out)["value"] == pytest.approx(0.3085083, abs=1e-6)
    rc, out = run_cli(capsys, "specfun", "theta", "0.5", "--circulant", "7", "1,2")
    doc = json.loads(out)
    assert doc["error"] < 1e-10
    rc, out = run_cli(capsys, "specfun", "zeta-prime-zero", "2")
    assert json.loads(out)["value"] == pytest.approx(-2.0 * math.log(2.0), abs=1e-8)
    rc, out = run_cli(capsys, "specfun", "epstein", "1", "1.5")
    assert json.loads(out)["value"] == pytest.approx(2 * (2 * math.pi) ** -3 * 1.2020569,
                                                     abs=1e-8)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_usage(capsys):
    assert cli.main(["count"]) == 1                       # missing spec
    capsys.readouterr()
    assert cli.main(["compare", "--family", "circulant", "--n", "5"]) == 1  # no gens
    capsys.readouterr()
    assert cli.main(["specfun", "bessel", "zzz"]) == 1    # bad arity/argument
    capsys.readouterr()


def test_negative_precision_is_a_usage_error(capsys):
    argv = ["compare", "--family", "circulant", "--gens", "1,2", "--n", "10,40"]
    assert cli.main([*argv, "--precision=-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --precision:")
    # 0 still selects the float64 path
    assert cli.main(["--no-header", *argv, "--precision", "0"]) == 0
    zero = capsys.readouterr().out
    assert cli.main(["--no-header", *argv]) == 0
    assert zero == capsys.readouterr().out


def test_exit_invalid_spec(capsys):
    assert cli.main(["count", "--circulant", "6", "1,9"]) == 1
    capsys.readouterr()


def test_exit_cap(capsys):
    assert cli.main(["--max-vertices", "100", "spectrum", "--torus", "20,20"]) == 3
    capsys.readouterr()


def test_exit_cap_spectrum_circulant(capsys):
    assert cli.main(["--max-vertices", "100", "spectrum", "--circulant", "101", "1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("size cap exceeded: circulant has 101 eigenvalues, "
                            "exceeding the cap 100\n")
    assert cli.main(["--max-vertices", "101", "--no-header",
                     "spectrum", "--circulant", "101", "1,2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 101


def test_exit_cap_theta_torus_before_allocation(capsys):
    # 3163^2 vertices is just above the 10^7 eigenvalue cap; the half spectrum
    # alone would take 20 MB
    tracemalloc.start()
    try:
        rc = cli.main(["specfun", "theta", "0.5", "--torus", "3163,3163"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 10**6
    assert capsys.readouterr().err == ("size cap exceeded: torus has 10004569 eigenvalues, "
                                       "exceeding the cap 10000000\n")


@pytest.mark.parametrize("argv,message", [
    (["specfun", "theta", "0.5", "--circulant", "100000000000", "1"],
     "circulant has 100000000000 eigenvalues, exceeding the cap 10000000"),
    (["--max-vertices", "1000", "specfun", "theta", "0.5", "--circulant", "100000000000", "1"],
     "circulant has 100000000000 eigenvalues, exceeding the cap 1000"),
    (["specfun", "theta", "0.5", "--circulant", "1001", "1,2", "--max-vertices", "1000"],
     "circulant has 1001 eigenvalues, exceeding the cap 1000"),
    (["--max-vertices", "1000", "specfun", "theta", "0.5", "--torus", "10,101"],
     "torus has 1010 eigenvalues, exceeding the cap 1000"),
])
def test_exit_cap_theta_honours_max_vertices_before_allocation(capsys, argv, message):
    # a 10^11-vertex circulant's half table alone would take 400 GB
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 10**6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"size cap exceeded: {message}\n"


def test_theta_runs_at_the_vertex_cap(capsys):
    rc, out = run_cli(capsys, "--max-vertices", "1001", "specfun", "theta", "0.5",
                      "--circulant", "1001", "1,2")
    assert rc == 0
    assert json.loads(out)["name"] == "theta"


def test_exit_numerical(capsys):
    # a tolerance below the computed error bound; zeta at s <= 1 is a usage error
    assert cli.main(["specfun", "zeta-prime-zero", "3", "--tol", "1e-300"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_specfun_cd_1_is_exactly_zero(capsys):
    rc, out = run_cli(capsys, "specfun", "cd", "1")
    assert rc == 0
    assert out == '{"name": "cd", "value": 0.0, "error": 2e-323}\n'


def test_specfun_zeta_prime_zero_of_the_unit_circle_is_exactly_zero(capsys):
    # -2 log 1 in closed form: +0.0, never -0.0 or a rounding residue
    rc, out = run_cli(capsys, "specfun", "zeta-prime-zero", "1")
    assert rc == 0
    assert out == '{"name": "zeta-prime-zero", "value": 0.0, "error": 1e-10}\n'


def test_specfun_zeta_prime_zero_refuses_an_unmeetable_tol(capsys):
    # the closed form -2 log 2 carries a bound of 4 ulps, about 9e-16, not the 1e-16 asked for
    assert cli.main(["specfun", "zeta-prime-zero", "2", "--tol", "1e-16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: requested tolerance not met")


@pytest.mark.parametrize("tol", ["1e-16", "1e-200", "1e-280", "1e-300"])
def test_specfun_cd_names_the_tolerance_it_cannot_meet(capsys, tol):
    # below e^-320 the Mellin rule's negligible-term threshold stops shrinking,
    # so the smallest tols fail on the tolerance, not on the integrand's decay
    assert cli.main(["specfun", "cd", "3", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: requested tolerance not met: error estimate")


@pytest.mark.parametrize("argv", [
    ["specfun", "lead", "1,2", "--tol", "-1"],
    ["specfun", "lead", "1,2", "--tol", "nan"],
    ["specfun", "cd", "3", "--tol", "0"],
    ["specfun", "cd", "3", "--tol", "inf"],
    ["--tol", "x", "specfun", "lead", "1,2"],
    ["compare", "--family", "circulant", "--gens", "1,2", "--n", "10", "--tol", "nan"],
])
def test_non_positive_or_non_finite_tol_is_a_usage_error(capsys, argv):
    # refused while parsing, before any quadrature runs towards an unreachable tol
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --tol: expected a positive finite")


def test_specfun_theta_refuses_both_specs(capsys):
    argv = ["specfun", "theta", "0.5", "--circulant", "7", "1,2", "--torus", "3,3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --torus: not allowed with")
    # the same as count with both flags
    assert cli.main(["count", *argv[3:]]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["zeta", "nan"], ["zeta", "inf"], ["eta", "nan"],
                                  ["epstein", "1", "nan"], ["epstein", "1,inf", "2"],
                                  ["bessel", "0", "nan"],
                                  ["theta", "inf", "--circulant", "7", "1,2"]])
def test_specfun_non_finite_argument_is_a_usage_error(capsys, argv):
    assert cli.main(["specfun", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: expected a finite number")


def test_specfun_non_finite_result_is_a_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "riemann_zeta_real", lambda s: math.nan)
    assert cli.main(["specfun", "zeta", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: specfun zeta gave the non-finite")
    assert cli.main(["specfun", "epstein", "1e200", "3"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: epstein value overflows")


def test_specfun_epstein_circle_underflow_is_finite(capsys):
    # 2 (1/pi)^2000 zeta(2000) is about 1e-994: it underflows to 0, with a bound
    rc, out = run_cli(capsys, "specfun", "epstein", "2", "1e3")
    doc = json.loads(out)
    assert rc == 0 and doc["value"] == 0.0 and 0.0 < doc["error"] < 1e-300


@pytest.mark.parametrize("sides, s, value", [("2,2", "1e3", 0.0),
                                             ("1,3", "400", 2.8453722057169132e-257)])
def test_specfun_epstein_lattice_at_large_s_is_finite(capsys, sides, s, value):
    # the lattice part once overflowed to inf against an underflowed prefactor;
    # 4 (1/pi)^2000 underflows to 0, and 2 (4 pi^2 / 9)^-400 is a normal float
    rc, out = run_cli(capsys, "specfun", "epstein", sides, s)
    doc = json.loads(out)
    assert rc == 0
    assert doc["value"] == pytest.approx(value, rel=1e-13)
    assert 0.0 < doc["error"] <= 1e-10 * value + 1e-300


@pytest.mark.parametrize("side, s", [("1,1", "2.0"), ("1.5,1.5", "3.0")])
def test_specfun_epstein_square_within_1e_14_of_mpmath(capsys, side, s):
    # the benchmark's two-sided Epstein jobs, against (4 pi^2)^-s 4 zeta(s) beta(s) m^2s;
    # the lattice sum gave 9.8 and 7.97 digits
    rc, out = run_cli(capsys, "specfun", "epstein", side, s)
    doc = json.loads(out)
    with mp.workdps(30):
        m, s = mp.mpf(side.split(",")[0]), mp.mpf(s)
        ref = (4 * mp.pi ** 2) ** -s * 4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]) * m ** (2 * s)
        assert rc == 0 and abs(doc["value"] - ref) <= min(doc["error"], 1e-14 * ref)


@pytest.mark.parametrize("alpha", [(2, 3), (1, 1), (1, 1, 1)])
def test_compare_torus_sublinear_with_a_wide_block_prints_rows(capsys, alpha):
    # the lattice-sum Epstein value of the A-block needed more lattice points
    # than its 20 M cap here, and the table exited 3
    rc, out = run_cli(capsys, "compare", "--family", "torus-sublinear",
                      "--alpha", ",".join(map(str, alpha)), "--beta", "1",
                      "--an-rule", "floor_sqrt", "--n", "400", "--no-header")
    assert rc == 0
    (row,) = list(csv.reader(io.StringIO(out)))
    exact, predicted, residual = (float(x) for x in row[3:6])
    assert residual == exact - predicted
    n, a_n, d = 400, 20, len(alpha) + 1
    vertices = math.prod(alpha) * a_n ** len(alpha) * n
    lead = torus_mode_mellin(0.0, d)  # c_d
    with mp.workdps(30):
        zeta = epstein_theta_mp([mp.mpf(1) / a for a in alpha], mp.mpf(d) / 2)
        second = (mp.mpf(n) / a_n * math.prod(alpha) * (4 * mp.pi) ** (mp.mpf(d) / 2)
                  * mp.gamma(mp.mpf(d) / 2) * zeta)
        expected = vertices * mp.mpf(lead.value) - second
    # the benchmark's row tolerance, widened by the oracle's own c_d error
    allowed = vertices * (10 * 1e-10 + lead.error_estimate) + 1e-13 * abs(expected)
    assert abs(predicted - expected) <= allowed
    # the Epstein term alone, far inside that tolerance
    report = predict_torus_sublinear(n, a_n, alpha, (1,), cap=0)
    assert abs(report.components["second_order"] + second) <= 1e-13 * second


def _readme_examples():
    """(argv, stdout lines) of each `$ spantor ...` example in README's command-line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n")[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *lines = chunk.split("\n")
        assert command.startswith("$ spantor "), command
        examples.append(pytest.param(command.split()[2:], lines, id=command[2:]))
    return examples


@pytest.mark.parametrize("argv, lines", _readme_examples())
def test_readme_cli_examples_print_their_lines(capsys, argv, lines):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert out.splitlines() == lines


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_build_parser_returns_one_parser():
    assert cli.build_parser() is cli.build_parser()


def _in_a_fresh_interpreter(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "spantor", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _untimed(text):
    return re.sub(r"\d{4}-\d\d-\d\dT[\d:.+]+", "<time>", text)


# a usage error raised inside argparse, then flags that must not carry over:
# JSON, then CSV, then --no-header after the subcommand, then the header again
_REUSE_SEQUENCE = [
    (["compare", "--family", "spiral", "--n", "5"], 1),
    (["--format", "json", "compare", "--family", "circulant", "--gens", "1,2",
      "--n", "10,12"], 0),
    (["compare", "--family", "circulant", "--gens", "1,2", "--n", "10,12"], 0),
    (["conjecture", "--n-max", "3", "--no-header"], 0),
    (["conjecture", "--n-max", "3"], 0),
]


def test_one_parser_gives_a_fresh_interpreters_bytes_call_after_call(capsys):
    cli.build_parser()
    for argv, code in _REUSE_SEQUENCE:
        rc = cli.main(argv)
        captured = capsys.readouterr()
        fresh = _in_a_fresh_interpreter(argv)
        assert (rc, _untimed(captured.out), captured.err) == \
            (fresh[0], _untimed(fresh[1]), fresh[2])
        assert rc == code
    assert captured.out.startswith("# spantor")


def test_main_builds_no_parser_after_the_first(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argv = ["--no-header", "count", "--circulant", "10", "1,2"]
    assert cli.main(argv) == 0
    first = len(built)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "30250\n" * 2
    assert first > 0 and len(built) == first
