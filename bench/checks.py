"""Check one job's output against the reference.

``check(job, stdout)`` returns ``(ok, digits, reason)``: whether every value
the job printed agrees with its reference within the tolerance fixed below,
the correct significant digits of each float output, and why a check failed.

Tolerances, fixed before any run:

* specfun values: the error the program prints beside the value;
* float compare rows: 1e-13 relative for exact log det* (a float64 sum of
  logs), V * 10 * tol for the prediction (tol is the quadrature tolerance,
  1e-10 by default, and the lead term is multiplied by the vertex count V);
* --precision compare rows: 1e-15 relative for the printed floats and
  10^(3 - DIGITS) |log det*| for the residual, the absolute accuracy that
  DIGITS significant digits of log det* allow;
* exact integers, flags and tags: equality.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp

import reference
from workloads import TREE_COUNT_VERTEX_LIMIT

DEFAULT_TOL = 1e-10
MAX_DIGITS = 17.0

COLUMNS = {
    "compare": ["family", "n", "params", "exact_log_det", "predicted_log_det",
                "residual", "tree_count"],
    "conjecture": ["n", "exact", "predicted", "match", "digits_agreement"],
    "estimate-alpha": ["k", "J", "alpha", "algebraic", "fit_residual_norm"],
}


class Mismatch(Exception):
    pass


def digits(value, ref) -> float:
    """Correct significant digits of ``value`` against ``ref``, capped at 17."""
    err = abs(mp.mpf(value) - ref)
    if err == 0:
        return MAX_DIGITS
    return float(min(MAX_DIGITS, -mp.log10(err / abs(ref))))


def _text(value) -> str:
    return "" if value is None else str(value)


def table_rows(job: dict, stdout: str) -> list[dict]:
    columns = COLUMNS[job["argv"][0]]
    if "json" in job["argv"]:
        rows = json.loads(stdout)["rows"]
        return [{c: _text(row.get(c)) for c in columns} for row in rows]
    rows = list(csv.reader(io.StringIO(stdout)))
    for row in rows:
        if len(row) != len(columns):
            raise Mismatch(f"row {row} does not have the {len(columns)} columns")
    return [dict(zip(columns, row)) for row in rows]


def _near(name, value, ref, tol):
    if not abs(mp.mpf(value) - ref) <= tol:
        raise Mismatch(f"{name} = {value!r}, reference {mp.nstr(ref, 20)}, "
                       f"allowed error {mp.nstr(mp.mpf(tol), 3)}")


def _equal(name, value, ref):
    if value != ref:
        raise Mismatch(f"{name} = {value!r}, expected {ref!r}")


def _check_specfun(job, stdout, out):
    doc = json.loads(stdout)
    kind, p = job["kind"], job["params"]
    _equal("name", doc["name"], job["argv"][1])
    value, err = float(doc["value"]), float(doc["error"])
    if kind == "lead":
        ref = reference.mahler_lead(tuple(p["gens"]))
    elif kind == "cd":
        ref = reference.c_d(p["d"])
    elif kind == "zeta-prime-zero":
        ref = reference.zeta_prime_zero(tuple(p["sides"]))
    elif kind == "epstein":
        ref = reference.epstein(tuple(p["sides"]), p["s"])
    elif kind == "bessel":
        ref = reference.bessel_scaled(p["order"], p["t"])
    else:
        raise ValueError(f"no oracle for {kind}")
    if not math.isfinite(err) or err < 0:
        raise Mismatch(f"reported error {err!r} is not a finite bound")
    _near("value", value, ref, err + 4 * 2.0 ** -52 * abs(ref))
    out.append(digits(value, ref))


def _check_compare(job, stdout, out):
    kind, p = job["kind"], job["params"]
    rows = table_rows(job, stdout)
    _equal("row sizes", [int(r["n"]) for r in rows], sorted(p["ns"]))
    for row in rows:
        n = int(row["n"])
        exact, predicted, residual = (float(row[c]) for c in
                                      ("exact_log_det", "predicted_log_det", "residual"))
        if kind == "compare-circulant-hp":
            dps = p["dps"]
            refs = reference.circulant_log_det(n, tuple(p["gens"]), dps + 30)
            vertices = n
            count = lambda: reference.circulant_count(n, tuple(p["gens"]))
        elif kind == "compare-torus-hp":
            dps = p["dps"]
            refs = reference.torus_constant_hp(n, tuple(p["alpha"]), p["b"], dps + 30)
            sides = tuple(p["alpha"]) + (p["b"] * n,)
            vertices = math.prod(sides)
            count = lambda: reference.torus_count(sides)
        else:
            dps = None
            if kind == "compare-circulant":
                ex, pred, _ = reference.circulant_log_det(n, tuple(p["gens"]))
                vertices = n
            elif kind == "compare-torus-constant":
                ex, pred = reference.torus_constant_float(n, tuple(p["alpha"]), tuple(p["beta"]))
                vertices = math.prod(p["alpha"]) * math.prod(p["beta"]) * n ** len(p["beta"])
            else:
                a_n = math.isqrt(n)  # the default floor_sqrt rule
                ex, pred = reference.torus_sublinear_float(n, a_n, p["alpha"], p["beta"])
                vertices = p["alpha"] * a_n * p["beta"] * n
            refs = ex, pred, ex - pred
            count = None
        ref_exact, ref_pred, ref_res = refs
        if dps is None:
            tol_exact = 1e-13 * abs(ref_exact)
            tol_pred = vertices * 10 * DEFAULT_TOL + 1e-13 * abs(ref_pred)
            tol_res = tol_exact + tol_pred
        else:
            tol_exact = 1e-15 * abs(ref_exact)
            tol_pred = 1e-15 * abs(ref_pred)
            tol_res = mp.mpf(10) ** (3 - dps) * abs(ref_exact) + 1e-15 * abs(ref_res)
        _near(f"n={n} exact_log_det", exact, ref_exact, tol_exact)
        _near(f"n={n} predicted_log_det", predicted, ref_pred, tol_pred)
        _near(f"n={n} residual", residual, ref_res, tol_res)
        out.append(digits(exact, ref_exact))
        out.append(digits(predicted, ref_pred))
        if count is None or vertices > TREE_COUNT_VERTEX_LIMIT:
            _equal(f"n={n} tree_count", row["tree_count"], "")
        else:
            _equal(f"n={n} tree_count", int(row["tree_count"]), count())


def _check_conjecture(job, stdout, out):
    rows = table_rows(job, stdout)
    _equal("rows", [int(r["n"]) for r in rows], list(range(2, job["params"]["n_max"] + 1)))
    for row in rows:
        n = int(row["n"])
        count = reference.circulant_count(5 * n, (1, n))
        _equal(f"n={n} exact", int(row["exact"]), count)
        with mp.workdps(count.bit_length() // 3 + 40):
            closed = reference.conjecture_closed_form(n, mp.mp.dps)
            _equal(f"n={n} match", row["match"], str(int(mp.nint(closed)) == count))
            predicted = mp.mpf(row["predicted"])
            _near(f"n={n} predicted", predicted, count, mp.mpf(10) ** -25 * count)
            out.append(digits(predicted, mp.mpf(count)))


def _check_estimate_alpha(job, stdout, out):
    rows = table_rows(job, stdout)
    refs = reference.alpha_reference(job["params"]["beta"])
    _equal("rows", [int(r["k"]) for r in rows], [k for k, *_ in refs])
    for row, (k, j_ref, alpha_ref, tag) in zip(rows, refs):
        _near(f"k={k} J", float(row["J"]), j_ref, 1e-14)
        _near(f"k={k} alpha", float(row["alpha"]), alpha_ref, 1e-6)
        _equal(f"k={k} algebraic", row["algebraic"], tag)
        if not 0 <= float(row["fit_residual_norm"]) <= 1e-6:
            raise Mismatch(f"fit residual norm {row['fit_residual_norm']} exceeds 1e-6")
        out.append(digits(float(row["J"]), j_ref))
        out.append(digits(float(row["alpha"]), alpha_ref))


def _check_count(job, stdout, out):
    p = job["params"]
    if job["kind"] == "count-circulant":
        ref = reference.circulant_count(p["n"], tuple(p["gens"]))
    else:
        ref = reference.torus_count(tuple(p["sides"]))
    _equal("count", stdout, f"{ref}\n")


_CHECKS = {
    "count": _check_count,
    "specfun": _check_specfun,
    "compare": _check_compare,
    "conjecture": _check_conjecture,
    "estimate-alpha": _check_estimate_alpha,
}


def check(job: dict, stdout: str) -> tuple[bool, list[float], str]:
    found: list[float] = []
    try:
        _CHECKS[job["argv"][0]](job, stdout, found)
    except (Mismatch, ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        return False, [], f"{type(exc).__name__}: {exc}"
    return True, found, ""
