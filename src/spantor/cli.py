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
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
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
    circulant_spectrum,
    torus_spectrum,
    spanning_tree_count_exact,
    log_det_star,
)
from .quadrature import QuadratureError
from .specfun import (
    SpecfunError,
    bessel_i_scaled,
    theta_discrete_spectral,
    theta_discrete_bessel,
    dedekind_eta,
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
# counts are cheap at any size; the limit is part of the output format, which
# callers (the benchmark's oracle among them) rely on.
TREE_COUNT_VERTEX_LIMIT = 600


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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

    def emit(self, columns: list[str], rows: list[dict], out) -> None:
        if self.fmt == "json":
            doc = {"rows": rows}
            if self.header:
                doc["generated_at"] = datetime.now(timezone.utc).isoformat()
            json.dump(doc, out, indent=2, default=_fmt)
            out.write("\n")
            return
        if self.header:
            out.write(f"# spantor {__version__} generated "
                      f"{datetime.now(timezone.utc).isoformat()}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
        else:
            writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x != "")
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
    (4300 by default), which exact counts pass at a few thousand vertices;
    longer values are split in halves until each part is below that limit.
    """
    digits = value.bit_length() * 3 // 10  # at most the digit count
    if digits < 4000:
        return str(value)
    half = digits // 2
    high, low = divmod(value, 10 ** half)
    return _int_text(high) + _int_text(low).zfill(half)


def cmd_count(args, sink, out) -> int:
    spec = _spec_from_args(args)
    count = spanning_tree_count_exact(spec, cap=args.max_vertices)
    out.write(f"{_int_text(count.value)}\n")
    return EXIT_OK


def cmd_spectrum(args, sink, out) -> int:
    spec = _spec_from_args(args)
    if isinstance(spec, CirculantSpec):
        if spec.n > args.max_vertices:
            raise EnumerationCapError(
                f"circulant has {spec.n} eigenvalues, exceeding the cap "
                f"{args.max_vertices}")
        spectrum = circulant_spectrum(spec)
    else:
        spectrum = torus_spectrum(spec, cap=args.max_vertices)
    rows = [{"index": i, "eigenvalue": float(v)}
            for i, v in enumerate(spectrum.values)]
    sink.emit(["index", "eigenvalue"], rows, out)
    return EXIT_OK


def _an_value(rule: str, const: int, n: int) -> int:
    if rule == "floor_sqrt":
        return max(1, int(math.isqrt(n)))
    if rule == "floor_log":
        return max(1, int(math.log(n)))
    return const


def _compare_row_circulant(n, gens, args) -> dict:
    params = "gens=" + ",".join(str(g) for g in gens)
    vertices = n
    if args.precision:
        dps = args.precision
        lead = hp.lead_term_circulant_hp(gens, dps)
        c_gamma = 1 + sum(g * g for g in gens[1:])
        with mp.workdps(dps):
            predicted = n * lead + 2 * mp.log(n) - mp.log(c_gamma)
            exact = hp.log_det_star_circulant_hp(n, gens, dps) if n <= args.max_vertices else None
            residual = None if exact is None else exact - predicted
        row = {"exact_log_det": None if exact is None else float(exact),
               "predicted_log_det": float(predicted),
               "residual": None if residual is None else float(residual)}
    else:
        rep = predict_circulant(n, gens, cap=args.max_vertices, tol=args.tol)
        row = {"exact_log_det": rep.exact_log_det,
               "predicted_log_det": rep.predicted_log_det,
               "residual": rep.residual}
    row.update(family="circulant", n=n, params=params)
    row["tree_count"] = _tree_count_or_blank(CirculantSpec(n, gens), vertices, args)
    return row


def _compare_row_torus_constant(n, alpha, beta, args) -> dict:
    params = ("alpha=" + ",".join(map(str, alpha))
              + ";beta=" + ",".join(map(str, beta)))
    vertices = math.prod(alpha) * math.prod(beta) * n ** len(beta) if alpha else \
        math.prod(beta) * n ** len(beta)
    if args.precision:
        if len(beta) != 1:
            raise UsageError("--precision supports torus-constant only with one growing side")
        dps = args.precision
        residual = hp.torus_constant_residual_hp(n, alpha, beta, dps)
        exact = hp.log_det_star_torus_hp(tuple(alpha) + (beta[0] * n,), dps)
        row = {"exact_log_det": float(exact),
               "predicted_log_det": float(exact - residual),
               "residual": float(residual)}
    else:
        rep = predict_torus_constant(n, alpha, beta, cap=args.max_vertices, tol=args.tol)
        row = {"exact_log_det": rep.exact_log_det,
               "predicted_log_det": rep.predicted_log_det,
               "residual": rep.residual}
    row.update(family="torus-constant", n=n, params=params)
    sides = tuple(alpha) + tuple(b * n for b in beta)
    row["tree_count"] = _tree_count_or_blank(TorusSpec(sides), vertices, args)
    return row


def _compare_row_torus_sublinear(n, alpha, beta, rule, const, args) -> dict:
    a_n = _an_value(rule, const, n)
    params = ("alpha=" + ",".join(map(str, alpha))
              + ";beta=" + ",".join(map(str, beta))
              + f";an={rule}" + (f":{const}" if rule == "constant" else ""))
    rep = predict_torus_sublinear(n, a_n, alpha, beta, cap=args.max_vertices, tol=args.tol)
    vertices = int(rep.components["_vertices"])
    row = {"family": "torus-sublinear", "n": n, "params": params,
           "exact_log_det": rep.exact_log_det,
           "predicted_log_det": rep.predicted_log_det,
           "residual": rep.residual}
    sides = tuple(a * a_n for a in alpha) + tuple(b * n for b in beta)
    row["tree_count"] = _tree_count_or_blank(TorusSpec(sides), vertices, args)
    return row


def _tree_count_or_blank(spec, vertices, args):
    limit = min(TREE_COUNT_VERTEX_LIMIT, args.max_vertices)
    if vertices > limit:
        return None
    return spanning_tree_count_exact(spec, cap=limit).value


def cmd_compare(args, sink, out) -> int:
    ns = _parse_int_list(args.n)
    if not ns:
        raise UsageError("--n must list at least one size")
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

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(build, ns))
    else:
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


def _log_factor(x: float, a: float) -> float:
    """log(2 cosh(x) + a), stable for large x."""
    return x + math.log1p(math.exp(-2.0 * x) + a * math.exp(-x))


def estimate_alpha(beta: int, ns: tuple[int, ...]):
    """Fit the conjectured product form tau(C_{beta n}^{1,n}) = (n/beta) prod_k (2cosh(nJ_k)+alpha_k).

    J_k = arccosh(2 - cos(2 pi k/beta)) is known; the alpha_k are fitted by
    least squares on log tau with the k <-> beta-k symmetry enforced.
    Returns (terms, residual_norm) where each term is (k, J_k, alpha_k, tag).
    """
    from scipy.optimize import least_squares

    if beta < 2:
        raise UsageError("need beta >= 2")
    if any(n < 2 for n in ns):
        raise UsageError("n values must be >= 2")
    if len(set(ns)) < beta:
        raise UsageError(f"need at least beta = {beta} distinct n values")

    js = [arccosh_lead(4.0 - 2.0 * math.cos(2.0 * math.pi * k / beta))
          for k in range(1, beta)]
    pair_count = (beta - 1) // 2
    has_middle = (beta % 2 == 0)

    logs = []
    for n in sorted(set(ns)):
        tau = spanning_tree_count_exact(CirculantSpec(beta * n, (1, n))).value
        logs.append((n, _log_of_int(tau)))

    def unpack(u):
        alphas = [0.0] * (beta - 1)
        for j in range(pair_count):
            alphas[j] = alphas[beta - 2 - j] = u[j]
        if has_middle:
            alphas[beta // 2 - 1] = u[pair_count]
        return alphas

    def resid(u):
        alphas = unpack(u)
        out = []
        for n, logtau in logs:
            model = math.log(n / beta) + math.fsum(
                _log_factor(n * js[k], alphas[k]) for k in range(beta - 1))
            out.append(model - logtau)
        return out

    n_unknowns = pair_count + (1 if has_middle else 0)
    fit = least_squares(resid, x0=[0.0] * n_unknowns, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not fit.success:
        raise QuadratureError(f"alpha fit did not converge: {fit.message}")
    alphas = unpack(fit.x)
    norm = math.sqrt(sum(r * r for r in resid(fit.x)))

    terms = []
    for k in range(1, beta):
        a = float(alphas[k - 1])
        tag = None
        for name, value in _alpha_candidates(beta):
            if abs(a - value) < 1e-6:
                tag = name
                break
        terms.append((k, js[k - 1], a, tag))
    return terms, float(norm)


def _log_of_int(v: int) -> float:
    """log of a (possibly huge) positive integer without overflow."""
    if v.bit_length() <= 1000:
        return math.log(v)
    shift = v.bit_length() - 900
    return math.log(v >> shift) + shift * math.log(2.0)


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
            order, t = int(rest[0]), float(rest[1])
            value, err = bessel_i_scaled(order, t), 1e-12
        elif name == "theta":
            t = float(rest[0])
            if args.circulant is None and args.torus is None:
                raise UsageError("theta needs --circulant or --torus")
            spec = _spec_from_args(args)
            spectral = theta_discrete_spectral(spec, t)
            lattice = theta_discrete_bessel(spec, t, tol=args.tol)
            value = spectral.value
            err = abs(spectral.value - lattice.value) + lattice.tail_bound
        elif name == "eta":
            value, err = dedekind_eta(float(rest[0])), 1e-15
        elif name == "zeta":
            value, err = riemann_zeta_real(float(rest[0])), 1e-13
        elif name == "lead":
            lead = lead_term_circulant(_parse_int_list(rest[0]), tol=args.tol)
            value, err = lead.value, lead.error_estimate
        elif name == "cd":
            lead = c_d(int(rest[0]), tol=args.tol)
            value, err = lead.value, lead.error_estimate
        elif name == "epstein":
            ev = epstein_zeta_sum(_parse_float_list(rest[0]), float(rest[1]))
            value, err = ev.value, ev.tail_bound
        elif name == "zeta-prime-zero":
            value = epstein_zeta_prime_zero(_parse_float_list(rest[0]), tol=args.tol)
            err = args.tol
        else:
            raise UsageError(f"unknown specfun operation {name!r}")
    except (IndexError, ValueError) as exc:
        if isinstance(exc, (SpecfunError, AsymError)):
            raise
        raise UsageError(f"bad arguments for specfun {name}: {rest}") from exc
    json.dump({"name": name, "value": value, "error": err}, out)
    out.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset subcommand-level flag from clobbering one
    # given at the top level
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--tol", type=float,
                        help="target tolerance for quadrature-backed values")
    common.add_argument("--precision", type=int, metavar="DIGITS",
                        help="decimal digits for high-precision paths (0 = float64)")
    common.add_argument("--jobs", type=int, metavar="K",
                        help="parallel workers for table rows")
    common.add_argument("--max-vertices", type=int,
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
    p.add_argument("--circulant", nargs=2, metavar=("N", "GENS"))
    p.add_argument("--torus", metavar="SIDES")
    p.set_defaults(func=cmd_specfun)
    return parser


# global-flag defaults are applied after parsing: the flags live on a shared
# parent parser with SUPPRESS defaults so they can be given before or after
# the subcommand without one position clobbering the other
_GLOBAL_DEFAULTS = {
    "format": "csv",
    "tol": 1e-10,
    "precision": 0,
    "jobs": 1,
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
