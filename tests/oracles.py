"""Independent reference computations used to pin expected test values.

Nothing in here may call into the code paths it is checking: tree counts are
enumerated edge subsets or dense matrix-tree determinants of a Laplacian
assembled from an explicit edge list, spectra come from a dense symmetric
eigensolver or the eigenvalue formula evaluated at every mode (each sin^2
term by the float table's definition: direct below 2^15, angle addition
above), log det* values sum one log per nonzero eigenvalue in float, and
in mpmath one log per product of the eigenvalues along a torus's largest
side, torus theta values multiply the sides' Bessel lattice sums in mpmath, the
high-precision lead term is a tanh-sinh quadrature of the log-sin integral,
mpmath polyroots of a symbol polynomial built here or mpc Newton steps from
numpy roots of it, the float lead term also numpy's roots of that polynomial
or Jensen's periodic mean of the log-sin ratio by a trapezoid rule written
here, fixed-point sin^2 tables and mpf products follow their
textbook four-product and mpf-chain forms, the float lead term is
the paper's Mellin-Bessel integral over a d-dimensional Bessel function
integrated here by its own windowed trapezoid or the log-sin integral by
Gauss panels drilling into its endpoints, torus mode integrals are
Mellin-Bessel integrals of that trapezoid's Bessel function, Bessel values
come from mpmath/scipy, the circulant-lattice isomorphism is realized by
building Lambda_Gamma here and reducing explicitly, and the real-torus
constants, which the library reduces along the largest side, come from the
theta-split Mellin integral (zeta'(0)), a direct lattice sum with a sandwich
tail and an mpmath theta split (Epstein zeta), and the tree counts of
C_{beta n}^{1,n} and the beta = 5 surds come from the cycle-cover product
form in mpmath.  From spantor only the spec classes and the Mellin
quadrature engine are imported.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from spantor.graphs import CirculantSpec
from spantor.quadrature import IntegralResult, QuadratureError, integrate_mellin


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def product_form_tree_count(beta: int, n: int) -> int:
    """tau(C_{beta n}^{1,n}) from the product form, rounded to the nearest integer.

    (n / beta) prod_{k=1}^{beta-1} (2 cosh(n J_k) - 2 cos(2 pi k / beta)) with
    J_k = arccosh(2 - cos(2 pi k / beta)), the cycle-cover identity.  The
    product is evaluated in mpmath at bits(tau) / 3 + 30 digits, bits(tau)
    read from a 30-digit pass, and rounded inside that precision.
    """
    def product():
        value = mp.mpf(n) / beta
        for k in range(1, beta):
            c = mp.cospi(mp.mpf(2 * k) / beta)
            value *= 2 * mp.cosh(n * mp.acosh(2 - c)) - 2 * c
        return value

    with mp.workdps(30):
        bits = int(mp.log(product(), 2)) + 1
    with mp.workdps(bits // 3 + 30):
        return int(mp.nint(product()))


def surd_deviations(x_plus, y_plus, dps: int = 60) -> dict[str, mp.mpf]:
    """Absolute deviations of the beta = 5 surds from their cover-route forms.

    x_+ = e^{J_1}, y_+ = e^{J_2}, cosh J_1 = (9 - sqrt 5) / 4, J_1 = J_4 and
    J_2 = J_3, with J_k = arccosh(2 - cos(2 pi k / 5)), at dps digits.
    """
    with mp.workdps(dps):
        j1 = mp.acosh(2 - mp.cospi(mp.mpf(2) / 5))
        j2 = mp.acosh(2 - mp.cospi(mp.mpf(4) / 5))
        return {
            "x_plus_vs_exp_J1": abs(x_plus - mp.exp(j1)),
            "y_plus_vs_exp_J2": abs(y_plus - mp.exp(j2)),
            "cosh_J1_vs_surd": abs(mp.cosh(j1) - (9 - mp.sqrt(5)) / 4),
            "J1_equals_J4": abs(j1 - mp.acosh(2 - mp.cospi(mp.mpf(8) / 5))),
            "J2_equals_J3": abs(j2 - mp.acosh(2 - mp.cospi(mp.mpf(6) / 5))),
        }


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
    """Every eigenvalue in enumeration order, each 4 sin^2(pi k / l) taken at k = min(r, l - r).

    Built mode by mode over the full index range from the eigenvalue
    formula, with no half tables and no weights: a circulant sums over its
    generators in order, a torus over its sides in order, with the first
    side's index moving slowest.  Each term is ``sin2_term(k, l)``.
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
        lam += sin2_term(np.minimum(r, l - r), l)
    return lam


# the float sin^2 table's definition: direct sines for k below 2^15, then
# angle addition from row bases 2^15 + i 2^14
SIN2_DIRECT, SIN2_ROW = 2**15, 2**14


def sin2_term(k: np.ndarray, l: int) -> np.ndarray:
    """4 s^2 for each k in 0..l/2, s = sin(pi k / l) by the float table's definition.

    Below SIN2_DIRECT, s = sin(pi (k / l)).  Above, k = k0 + r with k0 the
    start of k's row of SIN2_ROW, a = pi (k0 / l), b = pi (r / l) and
    s = sin a + (sin a (cos b - 1) + cos a sin b), cos b - 1 being
    -2 sin^2(pi (r / (2 l))), evaluated term by term in that order.
    """
    direct = np.sin(np.pi * (k / l))
    k0 = np.where(k < SIN2_DIRECT, k, SIN2_DIRECT + (k - SIN2_DIRECT) // SIN2_ROW * SIN2_ROW)
    r = k - k0
    sin_a, cos_a = np.sin(np.pi * (k0 / l)), np.cos(np.pi * (k0 / l))
    half_b = np.sin(np.pi * (r / (2 * l)))
    added = sin_a + (sin_a * (-2.0 * (half_b * half_b)) + cos_a * np.sin(np.pi * (r / l)))
    s = np.where(k < SIN2_DIRECT, direct, added)
    return 4.0 * s * s


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


def _sin2_mp(l: int) -> list[mp.mpf]:
    """4 sin^2(pi m / l) for m = 0..l - 1 at the working precision, one sine per pair {m, l - m}."""
    return _sin2_mp_at(int(l), mp.mp.prec)


@lru_cache(maxsize=4)
def _sin2_mp_at(l: int, prec: int) -> list[mp.mpf]:
    with mp.workprec(prec):
        half = [4 * mp.sinpi(mp.mpf(m) / l) ** 2 for m in range(l // 2 + 1)]
    return [half[min(m, l - m)] for m in range(l)]


def log_det_star_torus_mp(sides, dps: int) -> mp.mpf:
    """Sum of log lambda over every nonzero mode of the torus, one log per row of its largest side.

    Each mode is lambda = mu + 4 sin^2(pi m / L) in mpmath, with mu the sum
    of the other sides' terms of its row and L the largest side; the L modes
    of a row are multiplied together before one log is taken, once for each
    distinct mu, times the number of rows that share it.  A product of L
    values each rounded at dps + 10 digits keeps about dps + 10 - log10(L)
    of them.
    """
    sides = sorted(int(s) for s in sides)
    with mp.workdps(dps + 10):
        *lead, last = [_sin2_mp(l) for l in sides]
        rows: dict[mp.mpf, int] = {}
        for row in product(*lead):
            mu = mp.fsum(row)
            rows[mu] = rows.get(mu, 0) + 1
        return mp.fsum(count * mp.log(mp.fprod(mu + s for s in (last if mu else last[1:])))
                       for mu, count in rows.items())


def theta_torus_mp(sides, t: float, dps: int) -> mp.mpf:
    """sum over every mode of e^{-t lambda}: the product over the sides of their own sums.

    A side's sum_m e^{-t 4 sin^2(pi m / l)} is l e^{-2t} sum_{k in Z} I_{|k| l}(2t)
    by Poisson summation of the heat kernel e^{-2t} I_x(2t) on Z; the terms
    fall faster than geometrically in |k| once k l > 2t, and the sum stops
    at the first term below 10^-(dps + 10) of it.
    """
    with mp.workdps(dps + 10):
        z, sums = 2 * mp.mpf(t), []
        for l in sides:
            total, k = mp.besseli(0, z), 1
            while (term := 2 * mp.besseli(k * l, z)) > total * mp.eps or k * l <= z:
                total, k = total + term, k + 1
            sums.append(l * mp.exp(-z) * total)
        return mp.fprod(sums)


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
    return integrate_mellin(
        lambda ts: np.array([math.exp(-t) - bessel_multi_scaled(gens, 0, 2.0 * t) for t in ts]),
        tol)


def _deflated_symbol(gens: tuple[int, ...]) -> list[int]:
    """Integer coefficients, highest first, of the symbol z^g (2d - sum (z^g + z^-g)) / (z - 1)^2.

    The symbol is built from its definition as a Laurent polynomial, and its
    double root at z = 1 is divided out by polynomial division, so nothing
    here shares code with spantor's symbol helpers.
    """
    g_max = max(gens)
    laurent = {0: 2 * len(gens)}
    for g in gens:
        for k in (g, -g):
            laurent[k] = laurent.get(k, 0) - 1
    symbol = [laurent.get(k, 0) for k in range(g_max, -g_max - 1, -1)]
    quotient, remainder = np.polynomial.polynomial.polydiv(symbol[::-1], [1, -2, 1])
    if np.any(remainder):
        raise ArithmeticError(f"z = 1 is not a double root of the symbol of {gens}")
    return [int(round(c)) for c in quotient[::-1]]


def mahler_lead_mp(gens, dps: int) -> mp.mpf:
    """Mahler measure of the deflated symbol polynomial by mpmath polyroots."""
    coeffs = _deflated_symbol(tuple(int(g) for g in gens))
    with mp.workdps(dps + 10):
        total = mp.log(abs(coeffs[0]))
        if len(coeffs) > 1:
            roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * dps)
            total += mp.fsum(mp.log(abs(r)) for r in roots if abs(r) > 1)
        return +total


def mahler_lead_numpy(gens) -> tuple[float, float, np.ndarray]:
    """(I, bound, outside roots) of the deflated symbol Q from numpy's companion-matrix roots.

    np.roots on Q, of degree D = 2 g_max - 2, a dense D x D eigenproblem.
    A Newton step |Q(rho)| / |Q'(rho)| bounds each root's error, with
    |Q(rho)| widened by the rounding bound 2 D eps Q~(|rho|) of its
    evaluation (Q~ has the absolute coefficients); log|rho| moves by that
    over |rho|.  Raises ArithmeticError when the D roots do not split evenly
    across the unit circle, each off it by more than its bound.
    """
    coeffs = _deflated_symbol(tuple(int(g) for g in gens))
    degree = len(coeffs) - 1
    eps = np.finfo(float).eps
    q = np.array(coeffs, dtype=float)
    roots = np.roots(q)
    radii = np.abs(roots)
    shift = ((np.abs(np.polyval(q, roots)) + 2 * degree * eps * np.polyval(np.abs(q), radii))
             / np.abs(np.polyval(np.polyder(q), roots)))
    outside = radii > 1.0
    if np.any(np.abs(radii - 1.0) <= shift) or 2 * np.count_nonzero(outside) != degree:
        raise ArithmeticError(f"numpy roots of the symbol of {gens} do not pair across the circle")
    value = math.log(abs(coeffs[0])) + math.fsum(np.log(radii[outside]))
    error = math.fsum(shift[outside] / radii[outside]) + 4 * eps * abs(value)
    return value, error, roots[outside]


def lead_term_periodic_mean(gens, tol: float = 1e-10) -> IntegralResult:
    """I as Jensen's periodic mean int_0^1 log S(w) dw, S = sum_g sin^2(pi g w) / sin^2(pi w).

    log S is analytic and periodic, with S(0) = sum_g g^2, so the trapezoid
    rule on the nodes k / N converges geometrically.  S(w) = S(1 - w) halves
    the nodes, and each sin^2(pi r / N) is read at min(r, N - r) of
    r = g k mod N, so no argument loses accuracy near a zero.  N doubles from
    the first power of 2 at least 4 g_max, which cannot alias S, of degree
    g_max - 1, until two doublings in a row move the mean by at most
    ``tol``; the error is the last move plus 8 ulps of the largest |log S|.
    """
    gens = tuple(int(g) for g in gens)

    def mean(n: int) -> tuple[float, float]:
        k = np.arange(1, n // 2 + 1)

        def sin2(r):
            r = r % n
            return np.sin(np.pi * np.minimum(r, n - r) / n) ** 2

        logs = np.log(sum(sin2(g * k) for g in gens) / sin2(k))
        logs[-1] *= 0.5  # k = n/2 stands for itself alone
        at_zero = math.log(sum(g * g for g in gens))
        return (at_zero + 2.0 * math.fsum(logs)) / n, max(at_zero, float(np.abs(logs).max()))

    n = 1 << (4 * max(gens) - 1).bit_length()
    value, _ = mean(n)
    agreed = 0
    while agreed < 2:
        n *= 2
        if n > 1 << 24:
            raise ArithmeticError(f"periodic mean of log S did not settle for {gens}")
        new, scale = mean(n)
        move, value = abs(new - value), new
        agreed = agreed + 1 if move <= tol else 0
    return IntegralResult(value, move + 8 * math.ulp(scale), n)


def mahler_lead_newton_mpc(gens, dps: int) -> mp.mpf:
    """Mahler measure by mpc Newton steps on the sparse symbol from numpy root starts.

    Each root outside the unit circle with Im >= 0 is refined at dps + 20
    digits by Newton on f(z) = sum_g (2 - z^g - z^-g), which has the
    deflated symbol's roots, until |step| <= 10^-(dps + 10) |rho|; a root
    with Im > 0 stands for its conjugate pair and counts twice.
    """
    gens = tuple(int(g) for g in gens)
    coeffs = _deflated_symbol(gens)
    starts = np.roots(np.array(coeffs, dtype=float)) if len(coeffs) > 1 else np.zeros(0)
    with mp.workdps(dps + 20):
        target = mp.mpf(10) ** -(dps + 10)
        total = mp.log(abs(coeffs[0]))
        for start in starts[(np.abs(starts) > 1) & (starts.imag >= 0)]:
            rho = mp.mpc(complex(start))
            for _ in range(100):
                value, slope = mp.mpf(2 * len(gens)), mp.mpf(0)
                for g in gens:
                    up = rho ** g
                    down = 1 / up
                    value -= up + down
                    slope -= g * (up - down)
                step = value / (slope / rho)
                rho -= step
                if abs(step) <= target * abs(rho):
                    break
            else:
                raise ArithmeticError(f"Newton steps from {start} did not converge for {gens}")
            total += (2 if start.imag > 0 else 1) * mp.log(abs(rho))
        return +total


def mpf_product_chain(values, prec: int) -> mp.mpf:
    """mp.mpf(1) * v_1 * v_2 * ... by mpf-times-int products at ``prec`` bits."""
    with mp.workprec(prec):
        product = mp.mpf(1)
        for value in values:
            product *= int(value)
        return product


def sin2_table_four_products(l: int, bits: int) -> list[int]:
    """sin^2(pi k / l) 2^bits for k = 0..floor(l/2) by four-product integer rotations.

    One exp(i pi / l) is rounded to a fixed-point pair (c, s), and
    2^bits exp(i pi k / l) is advanced by (x, y) -> ((x c - y s), (x s + y c)) >> bits.
    """
    with mp.workprec(bits + 10):
        w = mp.expjpi(mp.mpf(1) / l)
        c, s = int(mp.nint(mp.ldexp(w.real, bits))), int(mp.nint(mp.ldexp(w.imag, bits)))
    x, y = 1 << bits, 0
    table = [0]
    for _ in range(l // 2):
        x, y = (x * c - y * s) >> bits, (x * s + y * c) >> bits
        table.append((y * y) >> bits)
    return table


def torus_constant_prediction_per_mode(n: int, alpha, b: int, dps: int) -> mp.mpf:
    """n b sum_m arccosh(1 + lambda_m / 2) + 2 log n + 2 log b at dps + 10 digits.

    One arccosh per mode, in mode order.  Every A-block mode lambda_m sums 4 sin^2(pi m_i / a_i) over the sides in
    order, each term from its own mp.sinpi, with the last side's index
    moving fastest.
    """
    with mp.workdps(dps + 10):
        lams = [mp.mpf(0)]
        for a in alpha:
            lams = [lam + 4 * mp.sinpi(mp.mpf(m) / a) ** 2 for lam in lams for m in range(a)]
        lead = n * b * mp.fsum(mp.acosh(1 + lam / 2) for lam in lams)
        return lead + 2 * mp.log(n) + 2 * mp.log(b)


def log_det_star_from_modes(values, weights, bits: int, vertex_count: int,
                            dps: int) -> mp.mpf:
    """log of prod_j (4 values_j 2^-bits)^weights_j over the nonzero modes, by mpf chains.

    ``values`` are fixed-point sin^2 sums with power-of-2 ``weights``, the
    zero mode first.  The modes of weight 2^e multiply into one mpf at
    ``bits`` bits, in order, which is raised to 2^e; one shift and one log
    finish.
    """
    powers = [int(w).bit_length() - 1 for w in weights[1:]]
    values = list(values[1:])
    with mp.workprec(bits):
        total = mp.mpf(1)
        for e in range(max(powers, default=0) + 1):
            partial = mpf_product_chain([v for v, p in zip(values, powers) if p == e], bits)
            total *= partial ** (2 ** e)
        total = mp.ldexp(total, (2 - bits) * (vertex_count - 1))
    with mp.workdps(dps + 10):
        return +mp.log(total)


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
    return integrate_mellin(
        lambda ts: np.array([math.exp(-t) - bessel_multi_scaled((1,), 0, 2.0 * t) ** q
                             * math.exp(-lam * t) for t in ts]),
        tol)


# ---------------------------------------------------------------------------
# Real tori: theta functions, the theta-split zeta'(0) and the lattice-sum
# Epstein zeta, independent of the reduction that spantor.asym uses
# ---------------------------------------------------------------------------

EULER_GAMMA = 0.577215664901532860606512090082


def _gauss_tail(a: np.ndarray) -> np.ndarray:
    """sum_{k >= 1} 2 e^{-k^2 a} for a > 0, elementwise, to below 1e-17 of 1.

    Each entry sums its own ceil(sqrt(40 / a)) terms in order, so it does
    not depend on the other entries.
    """
    if not a.size:
        return a
    need = np.ceil(np.sqrt(40.0 / a))
    if need.max() == 1.0:
        return 2.0 * np.exp(-a)
    k = np.arange(1.0, need.max() + 1.0)
    terms = np.exp(np.multiply.outer(a, -k * k))
    terms[k > need[:, None]] = 0.0
    return 2.0 * np.add.accumulate(terms, axis=1)[:, -1]


def _positive_times(t) -> np.ndarray:
    """t as a 1-D float array, all of it positive."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not (times > 0.0).all():
        raise ValueError(f"t must be positive, got {t}")
    return times


def _like(values: np.ndarray, t):
    """A float for a scalar t, the array otherwise."""
    return float(values[0]) if np.ndim(t) == 0 else values


def _theta_circle(times: np.ndarray) -> np.ndarray:
    eigen = times >= 1.0
    s = 1.0 + _gauss_tail(np.where(eigen, 4.0 * math.pi * math.pi * times, 0.25 / times))
    return np.where(eigen, s, s / np.sqrt(4.0 * math.pi * times))


def theta_circle(t):
    """Theta function of the unit circle R/Z, elementwise in t.

    Eigenvalue form sum_k e^{-4 pi^2 k^2 t} for t >= 1, Gaussian (inverted)
    form (4 pi t)^{-1/2} sum_k e^{-k^2/(4t)} for t < 1; both tails below 1e-17
    of the value.
    """
    return _like(_theta_circle(_positive_times(t)), t)


def _torus_sides(sides: Sequence[float]) -> tuple[float, ...]:
    sides = tuple(float(m) for m in sides)
    if not sides or any(m <= 0 for m in sides):
        raise ValueError(f"sides must be positive: {sides}")
    return sides


def _theta_torus(sides: tuple[float, ...], times: np.ndarray) -> np.ndarray:
    return math.prod(_theta_circle(times / (m * m)) for m in sides)


def theta_real_torus(sides: Sequence[float], t):
    """Theta of the diagonal real torus R^r / diag(sides) Z^r, elementwise in t.

    Eigenvalues are (2 pi)^2 sum (k_i / m_i)^2, so the theta factorizes into
    circle thetas with per-factor rescaled time t / m_i^2.
    """
    return _like(_theta_torus(_torus_sides(sides), _positive_times(t)), t)


def theta_real_torus_minus_leading(sides: Sequence[float], t):
    """Theta(t) - det(M) (4 pi t)^{-r/2}, without cancellation for small t; elementwise.

    Below t = min m_i^2 each circle factor is in Gaussian form,
    m_i (4 pi t)^{-1/2} (1 + eps_i); the difference is the leading coefficient
    times prod(1+eps_i) - 1, accumulated stably.  Used by the theta-split
    zeta'(0).
    """
    sides = _torus_sides(sides)
    times = _positive_times(t)
    out = math.prod(sides) * (4.0 * math.pi * times) ** (-0.5 * len(sides))
    far = times >= min(m * m for m in sides)
    if far.any():
        out[far] = _theta_torus(sides, times[far]) - out[far]
    if not far.all():
        near = times[~far]
        prod_minus_one = 0.0
        for m in sides:
            e = _gauss_tail(0.25 * m * m / near)
            prod_minus_one = prod_minus_one + e + prod_minus_one * e
        out[~far] *= prod_minus_one
    return _like(out, t)




def zeta_prime_zero_theta_split(sides, split: float = 1.0, tol: float = 1e-9) -> float:
    """zeta'(0) of the diagonal real torus via the theta-split formula.

    zeta'(0) = int_0^c (Theta(t) - det(M)(4 pi t)^{-r/2}) dt/t
               - (2/r) det(M) (4 pi)^{-r/2} c^{-r/2} - log c + Gamma'(1)
               + int_c^inf (Theta(t) - 1) dt/t

    with Gamma'(1) = -euler_gamma and c the split point; the result is
    split-invariant (c = 1 and c = c_Gamma are the natural choices).  The
    cut at c is a substitution, two integrate_mellin calls:
    int_0^c A dt/t = int_0^inf (s/(1+s)) A(c/(1+s)) ds/s and
    int_c^inf B dt/t = int_0^inf (s/(1+s)) B(c(1+s)) ds/s, each to an
    error estimate of at most tol/2, so the value is within ``tol``.
    integrate_mellin may return an estimate up to 10 times what it was asked
    for relative to the value, or raise on one that lands just above it (its
    far tail adds to the last move), so each call that misses tol/2 is
    asked again at a quarter of the last request, up to twice.  Raises
    QuadratureError when the third misses too.
    """
    sides = _torus_sides(sides)
    r = len(sides)
    if split <= 0:
        raise ValueError(f"split must be positive, got {split}")
    det = math.prod(sides)

    def below(s: np.ndarray) -> np.ndarray:
        return s / (1.0 + s) * theta_real_torus_minus_leading(sides, split / (1.0 + s))

    def above(s: np.ndarray) -> np.ndarray:
        return s / (1.0 + s) * (theta_real_torus(sides, split * (1.0 + s)) - 1.0)

    def half(f) -> float:
        for share in (0.5 * tol, 0.125 * tol, 0.03125 * tol):
            try:
                res = integrate_mellin(f, share)
            except QuadratureError:
                continue
            if res.error_estimate <= 0.5 * tol:
                return res.value
        raise QuadratureError(f"theta split of {sides} missed tol/2 = {0.5 * tol:.3e}")

    body = half(below) + half(above)
    middle = (-(2.0 / r) * det * (4.0 * math.pi) ** (-0.5 * r) * split ** (-0.5 * r)
              - math.log(split) - EULER_GAMMA)
    return body + middle


def _tail_integral(a: float, h: float, r: int, s: float, sign: float) -> float:
    """int_a^inf sigma^{-2s} (sigma + sign*h)^{r-1} dsigma, integer r >= 1."""
    total = 0.0
    for j in range(r):
        p = r - 1 - j  # power of sigma after binomial expansion
        denom = 2.0 * s - p - 1.0
        total += math.comb(r - 1, j) * (sign * h) ** j * a ** (p + 1 - 2.0 * s) / denom
    return total


def epstein_lattice_sum(sides, s: float, tail_target: float = 1e-10,
                        max_lattice_points: int = 20_000_000) -> tuple[float, float]:
    """(zeta(s), bound) of R^r/diag(sides)Z^r, r >= 2, s > r/2, by a direct lattice sum.

    zeta(s) = (4 pi^2)^{-s} sum_{k != 0} (sum_i k_i^2/m_i^2)^{-s}.  The
    ellipsoid Q(k) <= R^2 is summed with a sandwich tail: the midpoint of the
    upper/lower integral comparisons is added and their half-width is the
    certified tail bound, at most ``tail_target``.  The terms are summed as
    (m_max^2 Q)^{-s} <= 1, with m_max^2s in the prefactor, so no large s
    overflows; the bound adds the rounding, which grows with s.  More than
    ``max_lattice_points`` points raise ValueError.
    """
    sides_t = _torus_sides(sides)
    r = len(sides_t)
    h = 0.5 * math.sqrt(sum(1.0 / (m * m) for m in sides_t))
    omega = 2.0 * math.pi ** (0.5 * r) / math.gamma(0.5 * r)
    vol = math.prod(sides_t)
    prefactor = (4.0 * math.pi * math.pi) ** (-s)

    R = max(8.0, 4.0 * h + 4.0)
    while True:
        points = math.prod(2 * int(m * R) + 1 for m in sides_t)
        if points > max_lattice_points:
            raise ValueError(f"epstein sum would need {points} lattice points for tail "
                             f"{tail_target:.1e}; cap is {max_lattice_points}")
        upper = vol * omega * _tail_integral(R - 2.0 * h, h, r, s, +1.0)
        lower = vol * omega * _tail_integral(R + 2.0 * h, h, r, s, -1.0)
        remainder = 0.5 * (upper - lower) * prefactor
        if remainder <= tail_target:
            break
        R *= 1.35

    m_max = max(sides_t)
    q = np.zeros((1,))
    for m in sides_t:
        k = np.arange(-int(m * R), int(m * R) + 1, dtype=float)
        q = (q[:, None] + (k * (m_max / m)) ** 2).ravel()
    q = q[(q > 0.0) & (q <= (R * m_max) ** 2)]
    scale = (4.0 * math.pi * math.pi / (m_max * m_max)) ** (-s)
    value = scale * float(np.sum(q ** (-s))) + prefactor * 0.5 * (upper + lower)
    # each q and the scale carry about (r + 2) rounding units, whose relative
    # error the power multiplies by s
    rounding = (s * (3 * r + 10) + q.size.bit_length() + 3) * math.ulp(value)
    return value, remainder + rounding


def epstein_theta_mp(sides, s, dps: int = 30) -> mp.mpf:
    """Epstein zeta of R^r/diag(sides)Z^r at s > r/2 by the theta split at t = 1, in mpmath.

    Gamma(s) zeta(s) = int_1^inf t^{s-1} (Theta(t) - 1) dt
                       + int_0^1 t^{s-1} (Theta(t) - V (4 pi t)^{-r/2}) dt
                       + V (4 pi)^{-r/2} / (s - r/2) - 1/s,
    with V the volume and Theta the product of circle thetas, each in its
    eigenvalue form for t above its side squared and in its Gaussian form
    below; dps + 20 digits absorb the cancellation near t = 0.
    """
    with mp.workdps(dps + 20):
        b = [mp.mpf(x) for x in sides]
        s = mp.mpf(s)
        r = len(b)
        vol = mp.fprod(b)

        def theta(t):
            return mp.fprod(mp.jtheta(3, 0, mp.exp(-4 * mp.pi ** 2 * t / (m * m))) if t >= m * m
                            else m / mp.sqrt(4 * mp.pi * t) * mp.jtheta(3, 0, mp.exp(-m * m / (4 * t)))
                            for m in b)

        upper = mp.quad(lambda t: t ** (s - 1) * (theta(t) - 1), [1, 4, mp.inf])
        lower = mp.quad(lambda t: t ** (s - 1) * (theta(t) - vol * (4 * mp.pi * t) ** (-r / 2)),
                        [0, mp.mpf(1) / 4, 1])
        total = upper + lower + vol * (4 * mp.pi) ** (-r / mp.mpf(2)) / (s - mp.mpf(r) / 2) - 1 / s
        return +(total / mp.gamma(s))
