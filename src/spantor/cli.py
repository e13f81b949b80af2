"""Command-line harness: exact counts, spectra, asymptotics-verification tables,
the beta=5 conjecture checker and the exploratory coefficient estimator.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 size cap
exceeded.  Tables are emitted as CSV (default) or JSON with numbers at 17
significant digits, so re-parsing reproduces the in-memory values exactly;
output is byte-identical across runs except for the timestamp header, which
--no-header suppresses.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import mpmath as mp

from . import __version__
from .graphs import (
    CirculantSpec,
    TorusSpec,
    GraphSpecError,
    EnumerationCapError,
    DEFAULT_EIGENVALUE_CAP,
    spectrum,
    spanning_tree_count_exact,
)
from .quadrature import QuadratureError
from .specfun import (
    SpecfunError,
    bessel_i_scaled,
    theta_discrete_spectral,
    theta_discrete_bessel,
    _eta_with_bound,
    riemann_zeta_real,
)
from .asym import (
    AsymError,
    arccosh_lead,
    lead_term_circulant,
    c_d,
    epstein_zeta_sum,
    epstein_zeta_prime_zero,
    predict_circulant,
    predict_torus_constant,
    predict_torus_sublinear,
)
from . import hp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CAP = 3

# `compare` leaves the tree-count column blank above this many vertices.  Exact
# counts are fast for narrow shapes but can take seconds to minutes within the
# limit on wide ones (C_600^{1,3,300} takes about 30 s); the limit is part of the
# output format, which callers (the benchmark's oracle among them) rely on.
TREE_COUNT_VERTEX_LIMIT = 600


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in exponent form (-1e-3) is an argument, not an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class OutputSink:
    fmt: str
    header: bool

    def _csv_head(self, columns: list[str], out):
        """Write the CSV timestamp and column header if asked for; return the writer."""
        writer = csv.writer(out, lineterminator="\n")
        if self.header:
            out.write(f"# spantor {__version__} generated "
                      f"{datetime.now(timezone.utc).isoformat()}\n")
            writer.writerow(columns)
        return writer

    def emit(self, columns: list[str], rows: list[dict], out) -> None:
        if self.fmt == "json":
            doc = {"rows": rows}
            if self.header:
                doc["generated_at"] = datetime.now(timezone.utc).isoformat()
            json.dump(doc, out, indent=2, default=_fmt)
            out.write("\n")
            return
        writer = self._csv_head(columns, out)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])

    def stream(self, columns: list[str], formats: list[str], records, out) -> None:
        """Write records (tuples of ints and finite floats) one block at a time.

        ``formats`` are the CSV %-formats of the columns ("%d", or "%.17g" as
        in _fmt); JSON writes each cell with %r, as json does.  The bytes are
        those of emit on dict rows with the keys in column order, without one
        dict per row.
        """
        if self.fmt == "json":
            line = "    {\n" + ",\n".join(f"      {json.dumps(c)}: %r" for c in columns) + "\n    }"
            out.write('{\n  "rows": [')
            first, sep = "\n", ",\n"
        else:
            self._csv_head(columns, out)
            line = ",".join(formats)
            first, sep = "", "\n"
        wrote = False
        records = iter(records)
        while block := list(itertools.islice(records, 1 << 14)):
            out.write((sep if wrote else first) + sep.join([line % r for r in block]))
            wrote = True
        if self.fmt == "csv":
            out.write("\n" if wrote else "")
            return
        out.write("\n  ]" if wrote else "]")
        if self.header:
            out.write(',\n  "generated_at": ' + json.dumps(datetime.now(timezone.utc).isoformat()))
        out.write("\n}\n")


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _int_at_least(low: int, kind: str):
    """An argparse type for an integer of at least ``low``, "a {kind} integer" in its error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """A --tol value: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _finite(text: str) -> float:
    """float(text), refusing nan and inf as a usage error."""
    x = float(text)
    if not math.isfinite(x):
        raise UsageError(f"expected a finite number, got {text!r}")
    return x


def _non_negative(text: str) -> float:
    """_finite(text), refusing a negative number as a usage error."""
    x = _finite(text)
    if x < 0:
        raise UsageError(f"expected a non-negative number, got {text!r}")
    return x


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(_finite(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circulant", nargs=2, metavar=("N", "GENS"),
                       help="circulant graph: vertex count and generator list, e.g. 7 1,2")
    group.add_argument("--torus", metavar="SIDES",
                       help="diagonal discrete torus side lengths, e.g. 3,3")


def _spec_from_args(args) -> CirculantSpec | TorusSpec:
    if args.circulant is not None:
        n_text, gens_text = args.circulant
        try:
            n = int(n_text)
        except ValueError as exc:
            raise UsageError(f"bad vertex count {n_text!r}") from exc
        return CirculantSpec(n, _parse_int_list(gens_text))
    return TorusSpec(_parse_int_list(args.torus))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _int_text(value: int) -> str:
    """Decimal digits of a non-negative integer of any size.

    str() refuses integers of more than sys.get_int_max_str_digits() digits
    (4300 by default), which exact counts pass at a few thousand vertices,
    and its conversion is quadratic.  A longer value is split in halves on
    powers of 2 down to 2^4096 and put together again in exact decimal
    arithmetic (libmpdec multiplies large operands by number-theoretic
    transform), which then prints in linear time.
    """
    if value.bit_length() * 3 // 10 < 4000:  # at most the digit count
        return str(value)
    import decimal  # only for counts past str()'s limit, so the CLI starts without it

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        level = (value.bit_length() - 1).bit_length()  # value < 2^(2^level)
        powers = [decimal.Decimal(1 << 4096)]  # powers[i] = 2^(2^(12 + i))
        while len(powers) < level - 12:
            powers.append(powers[-1] * powers[-1])

        def join(x: int, k: int) -> decimal.Decimal:
            """x < 2^(2^k) as a Decimal."""
            if k <= 12:
                return decimal.Decimal(x)
            half = 1 << (k - 1)
            high, low = x >> half, x & ((1 << half) - 1)
            return join(high, k - 1) * powers[k - 13] + join(low, k - 1)

        return format(join(value, level), "f")


def cmd_count(args, sink, out) -> int:
    spec = _spec_from_args(args)
    count = spanning_tree_count_exact(spec, cap=args.max_vertices)
    out.write(f"{_int_text(count)}\n")
    return EXIT_OK


def cmd_spectrum(args, sink, out) -> int:
    values = spectrum(_spec_from_args(args), cap=args.max_vertices)
    # a memoryview yields Python floats, whose %r is the JSON text
    sink.stream(["index", "eigenvalue"], ["%d", "%.17g"], enumerate(memoryview(values)), out)
    return EXIT_OK


def _an_value(rule: str, const: int, n: int) -> int:
    if rule == "floor_sqrt":
        return max(1, int(math.isqrt(n)))
    if rule == "floor_log":
        return max(1, int(math.log(n)))
    return const


def _compare_row(rep, family: str, params: str, spec, args) -> dict:
    """One compare row from a float (asym) or mpf (hp) report."""
    row = {key: None if value is None else float(value)
           for key, value in (("exact_log_det", rep.exact_log_det),
                              ("predicted_log_det", rep.predicted_log_det),
                              ("residual", rep.residual))}
    row.update(family=family, n=rep.n, params=params)
    row["tree_count"] = _tree_count_or_blank(spec, args)
    return row


def _compare_row_circulant(n, gens, args) -> dict:
    spec = CirculantSpec(n, gens)
    if args.precision:
        rep = hp.predict_circulant_hp(n, gens, args.precision, cap=args.max_vertices)
    else:
        rep = predict_circulant(n, gens, cap=args.max_vertices, tol=args.tol)
    return _compare_row(rep, "circulant", "gens=" + ",".join(str(g) for g in gens), spec, args)


def _compare_row_torus_constant(n, alpha, beta, args) -> dict:
    params = ("alpha=" + ",".join(map(str, alpha))
              + ";beta=" + ",".join(map(str, beta)))
    if args.precision:
        if len(beta) != 1:
            raise UsageError("--precision supports torus-constant only with one growing side")
        rep = hp.predict_torus_constant_hp(n, alpha, beta, args.precision, cap=args.max_vertices)
    else:
        rep = predict_torus_constant(n, alpha, beta, cap=args.max_vertices, tol=args.tol)
    spec = TorusSpec(tuple(alpha) + tuple(b * n for b in beta))
    return _compare_row(rep, "torus-constant", params, spec, args)


def _compare_row_torus_sublinear(n, alpha, beta, rule, const, args) -> dict:
    a_n = _an_value(rule, const, n)
    params = ("alpha=" + ",".join(map(str, alpha))
              + ";beta=" + ",".join(map(str, beta))
              + f";an={rule}" + (f":{const}" if rule == "constant" else ""))
    rep = predict_torus_sublinear(n, a_n, alpha, beta, cap=args.max_vertices, tol=args.tol)
    spec = TorusSpec(tuple(a * a_n for a in alpha) + tuple(b * n for b in beta))
    return _compare_row(rep, "torus-sublinear", params, spec, args)


def _tree_count_or_blank(spec, args):
    limit = min(TREE_COUNT_VERTEX_LIMIT, args.max_vertices)
    if spec.vertex_count > limit:
        return None
    return spanning_tree_count_exact(spec, cap=limit)


def cmd_compare(args, sink, out) -> int:
    ns = _parse_int_list(args.n)
    if not ns:
        raise UsageError("--n must list at least one size")
    if min(ns) < 1:
        raise UsageError(f"--n sizes must be positive, got {min(ns)}")
    if args.family == "circulant":
        if not args.gens:
            raise UsageError("--gens is required for the circulant family")
        gens = _parse_int_list(args.gens)
        build = lambda n: _compare_row_circulant(n, gens, args)
    else:
        alpha = _parse_int_list(args.alpha) if args.alpha else ()
        beta = _parse_int_list(args.beta) if args.beta else ()
        if not beta:
            raise UsageError("--beta is required for torus families")
        if args.family == "torus-constant":
            build = lambda n: _compare_row_torus_constant(n, alpha, beta, args)
        else:
            if not alpha:
                raise UsageError("torus-sublinear needs a nonempty --alpha block")
            if args.precision:
                raise UsageError("--precision is not supported for torus-sublinear")
            build = lambda n: _compare_row_torus_sublinear(
                n, alpha, beta, args.an_rule, args.an_value, args)

    rows = [build(n) for n in ns]
    rows.sort(key=lambda r: r["n"])
    sink.emit(["family", "n", "params", "exact_log_det", "predicted_log_det",
               "residual", "tree_count"], rows, out)
    return EXIT_OK


def cmd_conjecture(args, sink, out) -> int:
    if args.n_max < 2:
        raise UsageError("the conjecture is stated for n >= 2")
    min_dps = max(60, args.precision or 60)
    rows = []
    for n in range(2, args.n_max + 1):
        v = hp.verify_conjecture(n, min_dps=min_dps)
        rows.append({
            "n": v.n,
            "exact": v.exact,
            "predicted": mp.nstr(v.predicted, 30),
            "match": v.match,
            "digits_agreement": v.digits_agreement,
        })
    sink.emit(["n", "exact", "predicted", "match", "digits_agreement"], rows, out)
    return EXIT_OK


def _alpha_candidates(beta: int) -> list[tuple[str, float]]:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    cands = [(str(k), float(k)) for k in range(-4, 5)]
    cands += [("(1-sqrt5)/2", 1.0 - golden), ("(1+sqrt5)/2", golden),
              ("-(1-sqrt5)/2", golden - 1.0), ("-(1+sqrt5)/2", -golden)]
    for j in range(1, beta):
        cands.append((f"2cos(2pi*{j}/{beta})", 2.0 * math.cos(2.0 * math.pi * j / beta)))
        cands.append((f"-2cos(2pi*{j}/{beta})", -2.0 * math.cos(2.0 * math.pi * j / beta)))
    return cands


# The alpha fit: Gauss-Newton stops once no alpha moves by more than
# _ALPHA_STEP_TOL and gives up after _ALPHA_MAX_STEPS steps; a fit to the exact
# counts converges quadratically in far fewer.
_ALPHA_STEP_TOL = 1e-20
_ALPHA_MAX_STEPS = 64
# A converged fit must reproduce every P_n to this fraction of its
# alpha-dependent part; a local minimum of the residual misses by far more.
_ALPHA_FIT_TOL = 1e-12


def estimate_alpha(beta: int, ns: tuple[int, ...]):
    """Fit the conjectured product form tau(C_{beta n}^{1,n}) = (n/beta) prod_k (2cosh(nJ_k)+alpha_k).

    J_k = arccosh(2 - cos(2 pi k/beta)) is known.  One alpha per pair
    {k, beta-k} (weight w = 2, or w = 1 at k = beta/2) is fitted to the exact
    counts tau_n by Gauss-Newton from alpha = 0 in the linear domain:
    prod_j (1 + alpha_j s_{j,n})^{w_j} = P_n, with s_{j,n} = 1/(2cosh(nJ_j))
    and P_n = (beta tau_n / n) prod_j s_{j,n}^{w_j}.  The fit runs in mpmath
    at dps = 20 + ceil(n_max J_max / ln 10), so the smallest alpha term
    exp(-n_max J_max) still carries 20 digits and alpha resolves at any n.
    The residual norm is sqrt(sum_n log(model_n / P_n)^2).  A fit that does
    not converge, or that ends in a local minimum of the residual, raises
    QuadratureError rather than return its alpha.
    Returns (terms, residual_norm) where each term is (k, J_k, alpha_k, tag).
    """
    if beta < 2:
        raise UsageError("need beta >= 2")
    if any(n < 2 for n in ns):
        raise UsageError("n values must be >= 2")
    if len(set(ns)) < beta:
        raise UsageError(f"need at least beta = {beta} distinct n values")

    ns = sorted(set(ns))
    m = beta // 2
    weights = [1 if 2 * j == beta else 2 for j in range(1, m + 1)]
    j_max = arccosh_lead(4.0 - 2.0 * math.cos(2.0 * math.pi * m / beta))
    with mp.workdps(20 + math.ceil(ns[-1] * j_max / math.log(10))):
        js = [mp.acosh(2 - mp.cospi(mp.mpf(2 * j) / beta)) for j in range(1, m + 1)]
        rows = [_alpha_row(beta, n, js, weights) for n in ns]
        alphas = _gauss_newton(rows, weights)
        norm = float(_fit_residual_norm(rows, weights, alphas))
        js = [float(j) for j in js]
        alphas = [float(a) for a in alphas]

    candidates = _alpha_candidates(beta)
    terms = []
    for k in range(1, beta):
        j = min(k, beta - k) - 1
        tag = next((name for name, value in candidates if abs(alphas[j] - value) < 1e-6), None)
        terms.append((k, js[j], alphas[j], tag))
    return terms, norm


def _alpha_row(beta: int, n: int, js: list, weights: list[int]):
    """(s, P_n) with s_j = 1/(2cosh(nJ_j)) and P_n = (beta tau_n / n) prod_j s_j^{w_j}."""
    tau = spanning_tree_count_exact(CirculantSpec(beta * n, (1, n)))
    s = []
    p = mp.mpf(beta * tau) / n
    for j, w in zip(js, weights):
        e = mp.exp(-n * j)
        s.append(e / (1 + e * e))
        p *= s[-1] ** w
    return s, p


def _product_form(s: list, weights: list[int], alphas: list):
    """prod_j (1 + alpha_j s_j)^{w_j} and its gradient in alpha."""
    factors = [1 + a * sj for a, sj in zip(alphas, s)]
    model = mp.fprod(f * f if w == 2 else f for f, w in zip(factors, weights))
    return model, [model * w * sj / f for f, w, sj in zip(factors, weights, s)]


def _gauss_newton(rows: list, weights: list[int]) -> list:
    """The alphas fitted to ``rows`` by Gauss-Newton from zero."""
    m = len(weights)
    alphas = [mp.mpf(0)] * m
    for _ in range(_ALPHA_MAX_STEPS):
        grads, residuals = [], []
        for s, p in rows:
            model, grad = _product_form(s, weights, alphas)
            grads.append(grad)
            residuals.append(p - model)
        columns = list(zip(*grads))
        a = [[mp.fdot(columns[i], columns[k]) for k in range(i + 1)] for i in range(m)]
        b = [mp.fdot(column, residuals) for column in columns]
        step = _solve_normal(a, b)
        alphas = [x + d for x, d in zip(alphas, step)]
        if max(abs(d) for d in step) <= _ALPHA_STEP_TOL:
            return alphas
    raise QuadratureError(f"alpha fit did not converge in {_ALPHA_MAX_STEPS} Gauss-Newton steps")


def _solve_normal(a: list, b: list) -> list:
    """Solve a x = b for symmetric positive definite a, given its lower triangle.

    Elimination without pivoting (LDL^T), which is stable for such a; a and b
    are overwritten.
    """
    m = len(b)
    for c in range(m):
        if not a[c][c] > 0:
            raise QuadratureError("alpha fit: the normal equations are singular")
        for i in range(c + 1, m):
            ratio = a[i][c] / a[c][c]
            for k in range(c + 1, i + 1):
                a[i][k] -= ratio * a[k][c]
            b[i] -= ratio * b[c]
    x = [mp.mpf(0)] * m
    for c in reversed(range(m)):
        x[c] = (b[c] - mp.fsum(a[i][c] * x[i] for i in range(c + 1, m))) / a[c][c]
    return x


def _fit_residual_norm(rows: list, weights: list[int], alphas: list):
    """sqrt(sum_n log(model_n / P_n)^2), after checking that the fit reproduces every P_n."""
    total = mp.mpf(0)
    for s, p in rows:
        log_ratio = mp.log(_product_form(s, weights, alphas)[0] / p)
        if abs(log_ratio) > _ALPHA_FIT_TOL * mp.fsum(w * sj for w, sj in zip(weights, s)):
            raise QuadratureError(
                f"alpha fit stopped at a local minimum (log residual {mp.nstr(log_ratio, 3)})")
        total += log_ratio ** 2
    return mp.sqrt(total)


def cmd_estimate_alpha(args, sink, out) -> int:
    ns = _parse_int_list(args.n)
    terms, norm = estimate_alpha(args.beta, ns)
    rows = [{"k": k, "J": j, "alpha": a, "algebraic": tag or ""}
            for (k, j, a, tag) in terms]
    for row in rows:
        row["fit_residual_norm"] = norm
    sink.emit(["k", "J", "alpha", "algebraic", "fit_residual_norm"], rows, out)
    return EXIT_OK


def cmd_specfun(args, sink, out) -> int:
    name = args.name
    rest = args.args
    try:
        if name == "bessel":
            order, t = int(rest[0]), _non_negative(rest[1])
            value, err = bessel_i_scaled(order, t), 1e-12
        elif name == "theta":
            t = _non_negative(rest[0])
            if args.circulant is None and args.torus is None:
                raise UsageError("theta needs --circulant or --torus")
            spec = _spec_from_args(args)
            spectral = theta_discrete_spectral(spec, t, cap=args.max_vertices)
            lattice = theta_discrete_bessel(spec, t, tol=args.tol)
            value = spectral.value
            err = abs(spectral.value - lattice.value) + lattice.tail_bound
        elif name == "eta":
            value, err = _eta_with_bound(_finite(rest[0]))
        elif name == "zeta":
            s = _finite(rest[0])
            if s <= 1:
                raise UsageError(f"need s > 1, got {rest[0]!r}")
            value, err = riemann_zeta_real(s), 1e-13
        elif name == "lead":
            lead = lead_term_circulant(_parse_int_list(rest[0]), tol=args.tol)
            value, err = lead.value, lead.error_estimate
        elif name == "cd":
            lead = c_d(int(rest[0]), tol=args.tol)
            value, err = lead.value, lead.error_estimate
        elif name == "epstein":
            ev = epstein_zeta_sum(_parse_float_list(rest[0]), _finite(rest[1]))
            value, err = ev.value, ev.tail_bound
        elif name == "zeta-prime-zero":
            value = epstein_zeta_prime_zero(_parse_float_list(rest[0]), tol=args.tol)
            err = args.tol
        else:
            raise UsageError(f"unknown specfun operation {name!r}")
    except (IndexError, ValueError) as exc:
        if isinstance(exc, (SpecfunError, AsymError, GraphSpecError)):
            raise
        raise UsageError(f"bad arguments for specfun {name}: {rest}") from exc
    if not (math.isfinite(value) and math.isfinite(err)):
        raise SpecfunError(f"specfun {name} gave the non-finite value {value!r}, error {err!r}")
    json.dump({"name": name, "value": value, "error": err}, out)
    out.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    # built once per process: parsing leaves the parser unchanged, and each
    # parse_args call fills a fresh namespace.  The shared flags are accepted
    # both before and after the subcommand; SUPPRESS keeps an unset
    # subcommand-level flag from clobbering one given at the top level
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--tol", type=_tolerance,
                        help="target tolerance for quadrature-backed values")
    common.add_argument("--precision", type=_int_at_least(0, "non-negative"),
                        metavar="DIGITS",
                        help="decimal digits for high-precision paths (0 = float64)")
    common.add_argument("--max-vertices", type=_int_at_least(1, "positive"),
                        help="cap on enumerated eigenvalues / dense matrices")
    common.add_argument("--no-header", action="store_true",
                        help="suppress the timestamp and column header")

    parser = _Parser(prog="spantor",
                     description="spanning-tree counts and spectral asymptotics "
                                 "of circulant graphs and discrete tori",
                     parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact spanning-tree count", parents=[common])
    _add_spec_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", help="closed-form Laplacian spectrum", parents=[common])
    _add_spec_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compare", help="exact vs predicted log det* table",
                       parents=[common])
    p.add_argument("--family", required=True,
                   choices=("circulant", "torus-constant", "torus-sublinear"))
    p.add_argument("--gens", help="circulant generators, e.g. 1,2")
    p.add_argument("--alpha", help="constant/sublinear torus block, e.g. 2")
    p.add_argument("--beta", help="growing torus block, e.g. 1")
    p.add_argument("--an-rule", choices=("floor_sqrt", "floor_log", "constant"),
                   default="floor_sqrt")
    p.add_argument("--an-value", type=int, default=1,
                   help="a_n for the constant rule")
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("conjecture", help="check the beta=5 closed form against exact counts",
                   parents=[common])
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("estimate-alpha", help="fit product-form coefficients from exact counts",
                   parents=[common])
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--n", required=True, help="comma-separated n values (each >= 2)")
    p.set_defaults(func=cmd_estimate_alpha)

    p = sub.add_parser("specfun", help="evaluate one special function as JSON",
                   parents=[common])
    p.add_argument("name", choices=("bessel", "theta", "eta", "zeta", "lead",
                                    "cd", "epstein", "zeta-prime-zero"))
    p.add_argument("args", nargs="*")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--circulant", nargs=2, metavar=("N", "GENS"))
    group.add_argument("--torus", metavar="SIDES")
    p.set_defaults(func=cmd_specfun)
    return parser


# global-flag defaults are applied after parsing: the flags live on a shared
# parent parser with SUPPRESS defaults so they can be given before or after
# the subcommand without one position clobbering the other
_GLOBAL_DEFAULTS = {
    "format": "csv",
    "tol": 1e-10,
    "precision": 0,
    "max_vertices": DEFAULT_EIGENVALUE_CAP,
    "no_header": False,
}


def main(argv=None) -> int:
    parser = build_parser()
    out = sys.stdout
    try:
        args = parser.parse_args(argv)
        for key, value in _GLOBAL_DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, value)
        sink = OutputSink(fmt=args.format, header=not args.no_header)
        return args.func(args, sink, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphSpecError as exc:
        print(f"invalid graph specification: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (QuadratureError, SpecfunError, AsymError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
