import csv
import io
import json
import math
import time

import pytest

from spantor import cli
from spantor.cli import estimate_alpha

from oracles import fibonacci


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


def test_count_torus(capsys):
    rc, out = run_cli(capsys, "count", "--torus", "3,3")
    assert rc == 0 and out.strip() == "11664"


def test_spectrum_rows(capsys):
    rc, out = run_cli(capsys, "--no-header", "spectrum", "--torus", "2,2")
    assert rc == 0
    values = sorted(float(line.split(",")[1]) for line in out.strip().splitlines())
    assert values == pytest.approx([0.0, 4.0, 4.0, 8.0])


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


def test_compare_jobs_deterministic(capsys):
    args = ("--no-header", "compare", "--family", "circulant", "--gens", "1,3",
            "--n", "12,24,36")
    _, serial = run_cli(capsys, *args)
    _, parallel = run_cli(capsys, *args, "--jobs", "3")
    assert serial == parallel


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


def test_compare_exact_unavailable_above_cap(capsys):
    rc, out = run_cli(capsys, "--no-header", "compare", "--family", "circulant",
                      "--gens", "1,2", "--n", "50", "--max-vertices", "40")
    assert rc == 0
    row = next(csv.reader(io.StringIO(out)))
    assert row[3] == "" and row[5] == ""
    assert float(row[4]) > 0


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


def test_exit_invalid_spec(capsys):
    assert cli.main(["count", "--circulant", "6", "1,9"]) == 1
    capsys.readouterr()


def test_exit_cap(capsys):
    assert cli.main(["--max-vertices", "100", "spectrum", "--torus", "20,20"]) == 3
    capsys.readouterr()


def test_exit_numerical(capsys):
    assert cli.main(["specfun", "zeta", "0.5"]) == 2
    capsys.readouterr()
