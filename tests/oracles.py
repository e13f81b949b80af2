"""Independent reference computations used to pin expected test values.

Nothing in here may call into the code paths it is checking: tree counts are
enumerated edge subsets or dense matrix-tree determinants of a Laplacian
assembled from an explicit edge list, spectra come from a dense symmetric
eigensolver or the eigenvalue formula evaluated at every mode, log det*
values sum one log (float or mpmath) per nonzero eigenvalue, the
high-precision lead term is a tanh-sinh quadrature of the log-sin integral or
mpmath polyroots of a symbol polynomial built here, the float lead term is
the paper's Mellin-Bessel integral over a d-dimensional Bessel function
integrated here by its own windowed trapezoid or the log-sin integral by
Gauss panels drilling into its endpoints, torus mode integrals are
Mellin-Bessel integrals of that trapezoid's Bessel function, Bessel values
come from mpmath/scipy, and the circulant-lattice isomorphism is realized by
building Lambda_Gamma here and reducing explicitly.  From spantor only the
spec classes and the Mellin quadrature engine are imported.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable

import mpmath as mp
import numpy as np

from spantor.graphs import CirculantSpec
from spantor.quadrature import IntegralResult, QuadratureConfig, QuadratureError, integrate_mellin


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def multigraph_edges(spec) -> list[tuple[int, int]]:
    """Edge list (with multiplicity, no self loops) of the 2d-regular multigraph.

    Vertices are numbered 0..V-1 (torus vertices in the same mixed-radix
    order as graphs.spectrum).  Doubled edges appear twice; a torus side of
    length 1 yields only self loops for that dimension, which are dropped.
    """
    edges: list[tuple[int, int]] = []
    if isinstance(spec, CirculantSpec):
        n = spec.n
        for v in range(n):
            for g in spec.generators:
                w = (v + g) % n
                if w != v:
                    edges.append((min(v, w), max(v, w)))
                # g == n/2 reaches the same vertex from both sides; the
                # single pass over +g already sees each doubled edge twice
                # (once from each endpoint), so nothing extra is needed.
        return edges
    sides = spec.sides
    strides = []
    acc = 1
    for l in reversed(sides):
        strides.append(acc)
        acc *= l
    strides.reverse()
    for v in range(spec.vertex_count):
        for i, (stride, l) in enumerate(zip(strides, sides)):
            if l == 1:
                continue  # self loop, drops out of the Laplacian
            coord = (v // stride) % l
            w = v + ((coord + 1) % l - coord) * strides[i]
            # l >= 3: each edge appears once (from its +e_i endpoint).
            # l == 2: +e_i and -e_i coincide, and the loop visits the same
            # unordered edge from both endpoints, which is the doubling.
            edges.append((min(v, w), max(v, w)))
    return edges


def laplacian_matrix(spec) -> list[list[int]]:
    """Dense integer Laplacian L = D - A of the multigraph."""
    total = spec.vertex_count
    L = [[0] * total for _ in range(total)]
    for u, v in multigraph_edges(spec):
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    return L


def integer_determinant(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination, whose divisions
    are exact, with the pivot of least magnitude in each column."""
    m = [list(row) for row in m]
    size = len(m)
    sign, previous = 1, 1
    for k in range(size):
        candidates = [i for i in range(k, size) if m[i][k] != 0]
        if not candidates:
            return 0
        p = min(candidates, key=lambda i: abs(m[i][k]))
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            factor = m[i][k]
            m[i] = [(pivot * x - factor * y) // previous if j > k else 0
                    for j, (x, y) in enumerate(zip(m[i], m[k]))]
        previous = pivot
    return sign * (m[-1][-1] if size else 1)


def dense_tree_count(spec, delete: int = 0) -> int:
    """Matrix-tree count: the Laplacian with row and column ``delete`` removed."""
    L = laplacian_matrix(spec)
    return integer_determinant([[x for j, x in enumerate(row) if j != delete]
                                for i, row in enumerate(L) if i != delete])


def brute_force_tree_count(spec) -> int:
    """Count spanning trees by enumerating (V-1)-subsets of the edge multiset."""
    edges = multigraph_edges(spec)
    nverts = spec.vertex_count
    count = 0
    for subset in combinations(range(len(edges)), nverts - 1):
        parent = list(range(nverts))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for ei in subset:
            u, v = edges[ei]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def folded_spectrum(spec) -> np.ndarray:
    """Every eigenvalue in enumeration order, each 4 sin^2(pi r / l) taken at min(r, l - r).

    Built mode by mode over the full index range from the eigenvalue
    formula, with no half tables and no weights: a circulant sums over its
    generators in order, a torus over its sides in order, with the first
    side's index moving slowest.
    """
    if isinstance(spec, CirculantSpec):
        n = spec.n
        flat = np.arange(n)
        terms = [((g * flat) % n, n) for g in spec.generators]
    else:
        total = math.prod(spec.sides)
        flat = np.arange(total)
        terms, stride = [], total
        for l in spec.sides:
            stride //= l
            terms.append(((flat // stride) % l, l))
    lam = np.zeros(flat.size)
    for r, l in terms:
        s = np.sin(np.pi * (np.minimum(r, l - r) / l))
        lam += 4.0 * s * s
    return lam


def log_det_star_full(values: np.ndarray) -> float:
    """math.fsum of log(lambda) over every nonzero eigenvalue, one log each."""
    if np.count_nonzero(values == 0.0) != 1:
        raise ValueError("expected exactly one zero eigenvalue")
    return math.fsum(np.log(values[values != 0.0]))


def dense_spectrum(spec) -> np.ndarray:
    """Sorted eigenvalues of the dense integer Laplacian (numpy eigensolver)."""
    L = np.array(laplacian_matrix(spec), dtype=float)
    return np.linalg.eigvalsh(L)


def circulant_lattice(spec: CirculantSpec) -> tuple[tuple[int, ...], ...]:
    """Lambda_Gamma: first row (n, -g_1, ..., -g_{d-1}) over an identity block.

    Z^d / Lambda_Gamma Z^d with nearest-neighbour edges is isomorphic to
    C_n^Gamma, and |det Lambda_Gamma| = n.
    """
    d = spec.d
    first = (spec.n,) + tuple(-g for g in spec.generators[1:])
    return (first,) + tuple(tuple(int(k == i) for k in range(d)) for i in range(1, d))


def quotient_graph_spectrum(lattice_entries) -> np.ndarray:
    """Spectrum of Z^d / M Z^d for M = (n, -g_1, ..., -g_{d-1}) over an identity block.

    A point x of Z^d reduces to the residue (x_1 - sum_j M[0][j] x_{j+1}) mod n
    by subtracting multiples of the identity-block columns of M, so the
    quotient graph lives on 0..n-1 with the reduced +-e_i steps as edges.  The
    Laplacian is assembled from those steps and solved densely, independent of
    the closed-form eigenvalues.
    """
    M = [list(r) for r in lattice_entries]
    d = len(M)
    n = M[0][0]
    for i in range(1, d):
        expected = [1 if j == i else 0 for j in range(d)]
        assert M[i] == expected, f"not an identity-block lattice matrix: {M}"
    steps = [1] + [(-M[0][j]) % n for j in range(1, d)]
    L = np.zeros((n, n))
    for v in range(n):
        for s in steps:
            for w in ((v + s) % n, (v - s) % n):
                L[v, v] += 1.0
                L[v, w] -= 1.0
    return np.linalg.eigvalsh(L)


def log_det_star_circulant_mp(n: int, gens, dps: int) -> mp.mpf:
    """Sum of log(4 sum_g sin^2(pi g j / n)) over j = 1..n-1, one log per eigenvalue."""
    gens = tuple(int(g) for g in gens)
    with mp.workdps(dps + 10):
        total = mp.mpf(0)
        for j in range(1, n):
            lam = 4 * mp.fsum(mp.sinpi(mp.mpf((g * j) % n) / n) ** 2 for g in gens)
            total += mp.log(lam)
        return +total


def log_det_star_torus_mp(sides, dps: int) -> mp.mpf:
    """Sum of log lambda over every nonzero mode of the torus, one log per mode."""
    sides = tuple(int(s) for s in sides)
    with mp.workdps(dps + 10):
        parts = [[4 * mp.sinpi(mp.mpf(m) / l) ** 2 for m in range(l)] for l in sides]
        total = mp.mpf(0)
        for flat in range(1, math.prod(sides)):
            rest = flat
            lam = mp.mpf(0)
            for i in range(len(sides) - 1, -1, -1):
                lam += parts[i][rest % sides[i]]
                rest //= sides[i]
            total += mp.log(lam)
        return +total


def lead_term_circulant_hp_quad(gens, dps: int) -> mp.mpf:
    """Lead term by tanh-sinh quadrature of log 4 + int_0^1 log(sum sin^2).

    The integration is split at the oscillation scale of the largest
    generator so each panel is free of interior structure; the log endpoint
    singularities sit at panel boundaries where tanh-sinh converges
    exponentially.
    """
    gens = tuple(int(g) for g in gens)
    with mp.workdps(dps + 10):
        def integrand(w):
            return mp.log(mp.fsum(mp.sinpi(g * w) ** 2 for g in gens))

        g_max = max(gens)
        points = [mp.mpf(j) / (2 * g_max) for j in range(2 * g_max + 1)]
        val = mp.quad(integrand, points)
        return +(mp.log(4) + val)


def bessel_multi_scaled(generators, order: int, u: float) -> float:
    """Scaled d-dimensional I-Bessel e^{-d u} I_order^Gamma(u, ..., u).

    (1/pi) int_0^w exp(-2u sum_g sin^2(g w / 2)) cos(order w) dw, the integral
    representation cut to the window that carries its mass (the whole half
    period unless generator 1 bounds the exponent from below), by a trapezoid
    rule doubled until two levels agree to 1e-13 of the value's scale.
    Symmetric in order <-> -order.
    """
    if u < 0.0:
        raise ValueError(f"u must be non-negative, got {u}")
    gens = tuple(int(g) for g in generators)
    if not gens or any(g < 1 for g in gens):
        raise ValueError(f"generators must be positive integers: {generators}")
    m = abs(int(order))
    if u == 0.0:
        return 1.0 if m == 0 else 0.0
    c_sum = float(sum(g * g for g in gens))
    E = 50.0 + 0.5 * math.log1p(u) + min(m * m / (2.0 * c_sum * u), 700.0)
    window = min(math.pi, math.pi * math.sqrt(E / (2.0 * u))) if 1 in gens else math.pi
    points = int(8.0 * math.sqrt(0.5 * E)) + int(1.3 * m * window) + 64 * max(gens)
    points = 1 << (max(128, points) - 1).bit_length()
    floor = 1.0 / math.sqrt(2.0 * math.pi * max(c_sum * u, 1.0))
    previous = None
    while points <= 1 << 23:
        w = np.linspace(0.0, window, points + 1)
        exponent = np.zeros(points + 1)
        for g in gens:
            s = np.sin(0.5 * g * w)
            exponent -= 2.0 * u * s * s
        f = np.exp(exponent) * np.cos(m * w)
        value = float(f[1:-1].sum() + 0.5 * (f[0] + f[-1])) * window / (points * math.pi)
        if previous is not None and abs(value - previous) <= 1e-13 * max(abs(value), floor):
            return value
        previous = value
        points *= 2
    raise ArithmeticError(f"multi-Bessel trapezoid did not settle for {gens} at u = {u}")


def lead_term_circulant_mellin(gens, tol: float = 1e-10) -> IntegralResult:
    """Lead term as the Mellin integral int_0^inf (e^{-t} - e^{-2dt} I_0^Gamma(2t)) dt/t.

    This is the paper's Bessel route to the growth constant, independent of
    the symbol polynomial's roots and of the log-sin integral.
    """
    gens = tuple(int(g) for g in gens)
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=10 * tol)
    return integrate_mellin(lambda t: math.exp(-t) - bessel_multi_scaled(gens, 0, 2.0 * t), cfg)


def mahler_lead_mp(gens, dps: int) -> mp.mpf:
    """Mahler measure of the symbol z^g (2d - sum (z^g + z^-g)) by mpmath polyroots.

    The symbol is built from its definition as a Laurent polynomial, and its
    double root at z = 1 is divided out by polynomial division, so nothing
    here shares code with spantor's symbol helpers.
    """
    gens = tuple(int(g) for g in gens)
    g_max = max(gens)
    laurent = {0: 2 * len(gens)}
    for g in gens:
        for k in (g, -g):
            laurent[k] = laurent.get(k, 0) - 1
    symbol = [laurent.get(k, 0) for k in range(g_max, -g_max - 1, -1)]
    quotient, remainder = np.polynomial.polynomial.polydiv(symbol[::-1], [1, -2, 1])
    if np.any(remainder):
        raise ArithmeticError(f"z = 1 is not a double root of the symbol of {gens}")
    coeffs = [int(round(c)) for c in quotient[::-1]]
    with mp.workdps(dps + 10):
        total = mp.log(abs(coeffs[0]))
        if len(coeffs) > 1:
            roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * dps)
            total += mp.fsum(mp.log(abs(r)) for r in roots if abs(r) > 1)
        return +total


def integrate_periodic(f: Callable[[float], float], tol: float = 1e-12,
                       max_points: int = 1 << 20) -> IntegralResult:
    """(1/2pi) int_{-pi}^{pi} f(w) dw by trapezoid doubling.

    For smooth 2pi-periodic f the trapezoid rule converges spectrally; the
    doubling stops when two successive levels agree to tol (relative, with an
    absolute floor).
    """
    n = 16
    h = 2.0 * math.pi / n
    samples = [f(-math.pi + h * i) for i in range(n)]
    mean = math.fsum(samples) / n
    fmax = max((abs(v) for v in samples), default=0.0)
    evals = n
    stable = 0
    while n < max_points:
        samples = [f(-math.pi + h / 2 + h * i) for i in range(n)]
        mid_mean = math.fsum(samples) / n
        fmax = max(fmax, max((abs(v) for v in samples), default=0.0))
        evals += n
        new_mean = 0.5 * (mean + mid_mean)
        diff = abs(new_mean - mean)
        mean = new_mean
        n *= 2
        h *= 0.5
        # tolerance is taken relative to the integrand scale, so exact
        # cancellations (mean zero) still converge
        if diff <= max(tol * max(abs(new_mean), fmax), 1e-300):
            stable += 1
            if stable >= 2:  # two consecutive agreeing doublings
                return IntegralResult(mean, diff, evals)
        else:
            stable = 0
    raise QuadratureError(
        f"periodic trapezoid did not converge within {max_points} points",
        partial=IntegralResult(mean, math.nan, evals),
    )


_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(16)
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(8)


def _adaptive_gauss(h: Callable[[float], float], a: float, b: float, tol: float,
                    budget: int) -> tuple[float, float, int]:
    """(value, |GL16 - GL8| error, bisections) on [a, b], halving the left piece first."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    hi = half * math.fsum(w * h(mid + half * x) for x, w in zip(_GL_HI_X, _GL_HI_W))
    lo = half * math.fsum(w * h(mid + half * x) for x, w in zip(_GL_LO_X, _GL_LO_W))
    err = abs(hi - lo)
    if err <= tol or budget <= 0 or (b - a) < 1e-13 * max(abs(a), abs(b), 1.0):
        return hi, err, 0
    lv, le, ln = _adaptive_gauss(h, a, mid, 0.5 * tol, budget - 1)
    rv, re, rn = _adaptive_gauss(h, mid, b, 0.5 * tol, budget - 1 - ln)
    return lv + rv, le + re, ln + rn + 1


def integrate_log_endpoint(h: Callable[[float], float], tol: float = 1e-10,
                           max_depth: int = 60) -> IntegralResult:
    """int_0^1 h(w) dw with at most logarithmic singularities at 0 and 1.

    Dyadic panels drill toward both endpoints; on each panel the integrand is
    smooth and a nested Gauss-Legendre pair applies.  A panel sequence that
    grows while drilling signals a non-integrable blow-up.  With
    h = log sum_g sin^2(pi g w) this is the log-sin form of the circulant
    lead term, minus log 4, by a rule that shares nothing with the periodic
    trapezoid the library uses for it.
    """
    evals = [0]

    def counted(w: float) -> float:
        evals[0] += 1
        return h(w)

    panel_tol = 0.02 * tol
    total = 0.0
    err = 0.0
    used = 0
    for (lo, hi) in ((0.25, 0.5), (0.5, 0.75)):
        v, e, n = _adaptive_gauss(counted, lo, hi, panel_tol, 4000 - used)
        total += v
        err += e
        used += n
    for side in (0, 1):
        prev_mag = math.inf
        grow = 0
        k = 2
        while True:
            a, b = 2.0 ** -(k + 1), 2.0 ** -k
            if side == 1:
                a, b = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
            v, e, n = _adaptive_gauss(counted, a, b, panel_tol, 4000 - used)
            total += v
            err += e
            used += n
            mag = abs(v)
            if mag > prev_mag * 1.05 and mag > tol:
                grow += 1
                if grow >= 4:
                    raise QuadratureError(
                        "integrand grows while drilling into the endpoint; "
                        "not integrable",
                        partial=IntegralResult(total, math.inf, evals[0]),
                    )
            else:
                grow = 0
            prev_mag = mag
            if mag <= 0.125 * tol and k >= 8:
                # remaining mass: |h| is at worst ~|log w|, so the tail is
                # bounded by a small multiple of the last panel magnitude
                err += 2.0 * mag
                break
            k += 1
            if k > max_depth:
                err += 2.0 * mag
                break
    result = IntegralResult(total, err, evals[0])
    if err > max(tol, tol * abs(total)):
        raise QuadratureError(
            f"requested tolerance not met: error estimate {err:.3e}",
            partial=result,
        )
    return result


def torus_mode_mellin(lam: float, q: int, tol: float = 1e-10) -> IntegralResult:
    """int_0^inf (e^{-t} - (e^{-2t} I_0(2t))^q e^{-lam t}) dt/t, one torus mode.

    The lead integral of an A-block mode lam with q growing sides, as the
    paper writes it; lam = 0 gives c_q.  The scaled Bessel function is this
    module's trapezoid bessel_multi_scaled, not spantor's series.
    """
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=10 * tol)
    return integrate_mellin(
        lambda t: math.exp(-t) - bessel_multi_scaled((1,), 0, 2.0 * t) ** q * math.exp(-lam * t),
        cfg)
