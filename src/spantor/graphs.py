"""Graph specifications, closed-form Laplacian spectra and exact spanning-tree counts.

Two graph families are supported:

* circulant graphs C_n^{Gamma}: vertices Z/nZ, vertex v adjacent to v +- g (mod n)
  for every generator g in Gamma = {1, g_1, ..., g_{d-1}};
* diagonal discrete tori Z^d / diag(l_1, ..., l_d) Z^d with the standard +-e_i
  generators.

Both are 2d-regular once edge multiplicities are counted: a generator g = n/2
(or a torus side l = 2) contributes a doubled edge, and a torus side l = 1
contributes a self loop that cancels out of the Laplacian.  The closed-form
eigenvalues fix this convention, and the exact counts follow it, so that the
matrix-tree count and the eigenvalue product agree.

Every eigenvalue is a sum of terms 4 sin^2(pi r / l), each read from a half
table at min(r, l - r), so a mode and its mirror r -> l - r agree bit for bit.
One evaluator, ``_half_spectrum``, computes the eigenvalues of the half-range
modes with the number of modes each stands for; every eigenvalue consumer
reads it, at either of two tables: the float64 one here, or the fixed-point
integers of spantor.hp, whose eigenvalues are exact integer sums.  log det*
(``log_det_star``) takes a spec, not a spectrum: it sums w log(lambda) over
the half-range modes only and equals the sum over the full spectrum exactly.
That sum, and theta's sum of w e^{-lambda t}, run in blocks of 2^15 terms
through one exact summation (``_exact_parts``), whose few parts one
math.fsum rounds: the float that math.fsum over the full spectrum returns,
bit for bit.  ``spectrum(spec, cap)`` expands the half-range values into the
full spectrum by indexing them at min(r, l - r).

Spanning-tree counts are exact arbitrary-precision integers, each one integer
determinant of V_L(x) = 2 T_L(x / 2) at a small integer matrix, which one
Lucas doubling routine (``_lucas``) evaluates in O(log L) matrix products.
By the Chebyshev identity prod_k (t - 2 cos((phi + 2 pi k) / L)) =
V_L(t) - 2 cos(phi):

* a torus is an L-fold cyclic cover of all but its largest side L, and
  C_N^{1,g} with g | N a g-fold twisted cover of the (N / g)-cycle; the
  matrix is the base graph's Laplacian shifted by 2;
* any other circulant is written in x = z + 1/z, where its symbol is
  (x - 2) R(x) with deg R = g_max - 1; the matrix is R's companion matrix.

The count takes whichever of the two matrices is smaller.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

DEFAULT_EIGENVALUE_CAP = 10**7
DEFAULT_DETERMINANT_CAP = 4096


class GraphSpecError(ValueError):
    """Invalid graph specification (bad generators, sides, or spectrum)."""


class EnumerationCapError(RuntimeError):
    """The requested computation would exceed the configured size cap."""


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirculantSpec:
    """Circulant graph C_n^{1, g_1, ..., g_{d-1}} on n vertices.

    Only first generator 1 is supported; other specs are rejected.  The
    derived constant c_gamma = 1 + sum g_i^2 is the O(1) correction constant
    of the circulant asymptotics.
    """

    n: int
    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(int(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "n", int(self.n))
        if self.n < 3:
            raise GraphSpecError(f"need n >= 3, got n={self.n}")
        if not gens:
            raise GraphSpecError("generator set is empty")
        if gens[0] != 1:
            raise GraphSpecError(f"first generator must be 1, got {gens[0]}")
        if list(gens) != sorted(gens):
            raise GraphSpecError(f"generators must be sorted: {gens}")
        if any(g < 1 for g in gens):
            raise GraphSpecError(f"generators must be positive: {gens}")
        # The canonical range is 1..floor(n/2); a generator g in (n/2, n) is
        # the mirror step n-g and is accepted so that small members of fixed
        # families (C_3^{1,2}, C_{beta n}^{1,n}, ...) stay well defined.
        if gens[-1] >= self.n:
            raise GraphSpecError(
                f"generator {gens[-1]} exceeds n-1 = {self.n - 1} "
                f"(canonical range is 1..floor(n/2))"
            )

    @property
    def d(self) -> int:
        return len(self.generators)

    @property
    def degree(self) -> int:
        return 2 * len(self.generators)

    @property
    def c_gamma(self) -> int:
        return 1 + sum(g * g for g in self.generators[1:])

    @property
    def vertex_count(self) -> int:
        return self.n


@dataclass(frozen=True)
class TorusSpec:
    """Diagonal discrete torus Z^d / diag(l_1, ..., l_d) Z^d.

    ``split`` optionally marks the first p sides as the A-block (the sides
    that stay constant or grow sublinearly in the degeneration experiments);
    it does not affect the spectrum or the tree count.
    """

    sides: tuple[int, ...]
    split: int | None = None

    def __post_init__(self):
        sides = tuple(int(s) for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if not sides or any(s < 1 for s in sides):
            raise GraphSpecError(f"sides must be positive integers: {sides}")
        if self.split is not None and not 0 <= self.split <= len(sides):
            raise GraphSpecError(f"split {self.split} out of range 0..{len(sides)}")

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def degree(self) -> int:
        return 2 * len(self.sides)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.sides)


GraphSpec = Union[CirculantSpec, TorusSpec]


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def _sin2_half(l: int) -> np.ndarray:
    """4 sin^2(pi k / l) for k = 0..floor(l/2).

    sin^2(pi r / l) = sin^2(pi (l - r) / l), so index min(r, l - r) of this
    table covers every residue r mod l.  A mode and its mirror then get the
    same rounded value, and the modes near r = l keep the full relative
    accuracy of those near r = 0: evaluated directly, sin(pi r / l) there
    takes the rounding error of an argument near pi relative to a value
    near zero.
    """
    s = np.sin(np.pi * (np.arange(l // 2 + 1) / l))
    return 4.0 * s * s


def _half_weights(l: int) -> np.ndarray:
    """How many residues r mod l share index k = min(r, l - r), for k = 0..floor(l/2)."""
    weights = np.full(l // 2 + 1, 2.0)
    weights[0] = 1.0
    if l % 2 == 0:
        weights[-1] = 1.0
    return weights


def _check_cap(spec: GraphSpec, cap: int) -> None:
    total = spec.vertex_count
    if total > cap:
        kind = "circulant" if isinstance(spec, CirculantSpec) else "torus"
        raise EnumerationCapError(
            f"{kind} has {total} eigenvalues, exceeding the cap {cap}"
        )


# _add_folded takes strided slices when the runs of constant floor(g j / n),
# about n/g modes each, are at least this long, and one gather otherwise.
# A run costs two slices of Python overhead, and the gather a mod, a fold
# and a fetch per mode; on a 2-vCPU x86 VM they crossed at n/g of about 250
# for n = 2000, 450 for n = 2*10^4 and above 1700 for n = 10^6
_STRIDE_MIN_RUN = 256


def _add_folded(lam: np.ndarray, half: np.ndarray, n: int, g: int) -> None:
    """lam[j] += half[min(r, n - r)] with r = g j mod n, for j = 0..lam.size - 1.

    g and n - g (mod n) give the same folded index, so g is first reduced
    to min(g mod n, n - g mod n).  Then r = g j - q n on each run of j with
    q = floor(g j / n) constant, and the folded index climbs by g while
    r <= n/2 and falls by g after; each such piece is one strided slice of
    the half table.  A run holds about n/g modes, so for g near n/2 the
    slices get short and one gather of the folded indices is cheaper.
    Either way lam[j] gets the same addend, so the sums agree bit for bit.
    """
    g %= n
    g = min(g, n - g)
    m = lam.size
    if g == 0:
        lam += half[0]
        return
    if g * _STRIDE_MIN_RUN > n:
        r = (g * np.arange(m, dtype=np.int64)) % n
        lam += half[np.minimum(r, n - r)]
        return
    for q in range(g * (m - 1) // n + 1):
        a = -(-q * n // g)  # first j of the run
        b = min(((2 * q + 1) * n) // (2 * g) + 1, m)  # first j past r <= n/2
        c = min(-(-(q + 1) * n // g), m)  # first j of the next run
        if b > a:
            r = g * a - q * n
            lam[a:b] += half[r:r + g * (b - a - 1) + 1:g]
        if c > b:
            top = (q + 1) * n - g * b
            lam[b:c] += half[top:top - g * (c - b - 1) - 1:-g]


def _half_spectrum(spec: GraphSpec, cap: int = DEFAULT_EIGENVALUE_CAP,
                   table=_sin2_half) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the half-range modes and their multiplicities.

    An eigenvalue depends on each index only through min(r, l - r).  A
    circulant's half-range modes are j = 0..floor(n/2), where lambda_j sums
    the half table of n at min(r, n - r), r = g j mod n, over the generators
    in order; their weights are 2 except at j = 0 and j = n/2.  A torus's are
    the outer sum of the per-side half tables, with the outer product of the
    per-side weights, which are 1 at k = 0 and k = l/2 and 2 otherwise.
    Every weight is a power of 2, and the weights add up to the vertex count.
    ``table(l)`` gives the half table of a side l: 4 sin^2(pi k / l) in
    float64 by default, or the fixed-point integers of spantor.hp in an
    object array, whose sums stay exact integers.
    Raises EnumerationCapError above ``cap`` vertices.
    """
    _check_cap(spec, cap)
    if isinstance(spec, CirculantSpec):
        n = spec.n
        half = table(n)
        lam = np.zeros(n // 2 + 1, dtype=half.dtype)
        for g in spec.generators:
            _add_folded(lam, half, n, g)
        return lam, _half_weights(n)
    halves = [table(l) for l in spec.sides]
    lam, weights = np.zeros((1,), dtype=halves[0].dtype), np.ones((1,))
    for l, half in zip(spec.sides, halves):
        lam = (lam[:, None] + half).ravel()
        weights = (weights[:, None] * _half_weights(l)).ravel()
    return lam, weights


def _folded(l: int) -> np.ndarray:
    """min(r, l - r) for every residue r = 0..l-1: its index in a half table."""
    r = np.arange(l, dtype=np.int64)
    return np.minimum(r, l - r)


def spectrum(spec: GraphSpec, cap: int = DEFAULT_EIGENVALUE_CAP) -> np.ndarray:
    """Every Laplacian eigenvalue of ``spec``, read from ``_half_spectrum``.

    The order is the natural enumeration: the character index j for a
    circulant, lambda_j = 4 sum_g sin^2(pi g j / n); the mixed-radix index
    over prod Z/l_i for a torus, lambda_m = 4 sum_i sin^2(pi m_i / l_i), with
    the last side moving fastest.  The zero mode sits at index 0 and is exact.
    Each mode is the half-range value at min(r, l - r) in every index, so a
    mode and its mirror agree bit for bit and the near-zero modes keep full
    relative accuracy.  Raises EnumerationCapError above ``cap`` vertices.
    """
    values, _ = _half_spectrum(spec, cap)
    if isinstance(spec, CirculantSpec):
        return values[_folded(spec.n)]
    table = values.reshape([l // 2 + 1 for l in spec.sides])
    return table[np.ix_(*[_folded(l) for l in spec.sides])].ravel()


def _exact_parts(x: np.ndarray, parts: list[float]) -> None:
    """Append to ``parts`` a few floats whose exact sum is the exact sum of x.

    With n = x.size and n max|x| < 2^e, take u = 52 - e and
    sigma = 1.5 2^(52 - u).  Every x + sigma lies in [2^e, 2^(e + 1)), where
    the float spacing is 2^-u, so hi = (x + sigma) - sigma is x rounded to a
    multiple of 2^-u, and x - hi is exact.  Each partial sum of hi is a
    multiple of 2^-u below 2^(53 - u) in magnitude, hence a float:
    np.add.reduce sums hi exactly in whatever order it takes.  The residuals are at most
    2^-(u + 1) each, and the next level splits them with that bound.  Once
    fewer than a quarter of the residuals are nonzero they are compressed to
    those, and the last 64 or fewer are appended as they are.  At and below
    the subnormal range every term is a multiple of 2^-1074 and hi = x.  So
    math.fsum of the parts, being correctly rounded, returns math.fsum(x).  A
    non-finite term, or one too large to split, is appended as it is.
    """
    if x.size > 64:
        top = float(np.max(np.abs(x)))
        if top == 0.0:
            parts.append(float(np.add.reduce(x)))  # keeps the sign of an all -0.0 block
            return
        bound = x.size * top
        e = math.frexp(bound)[1]
        if not math.isfinite(bound) or e > 1023:
            parts.extend(x.tolist())
            return
    while x.size > 64:
        sigma = math.ldexp(1.5, e)
        hi = (x + sigma) - sigma
        parts.append(float(np.add.reduce(hi)))
        x = x - hi
        if 4 * np.count_nonzero(x) < x.size:
            x = x[x != 0.0]
        e += x.size.bit_length() - 53
    parts.extend(x.tolist())


# terms per block of an exact weighted sum: the block's temporaries stay in cache
_BLOCK = 1 << 15


def _weighted_fsum(values: np.ndarray, weights: np.ndarray, f) -> float:
    """math.fsum(weights * f(values)), bit for bit, evaluated in blocks of _BLOCK terms."""
    parts: list[float] = []
    for start in range(0, values.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _exact_parts(weights[block] * f(values[block]), parts)
    return math.fsum(parts)


def _log_nonzero(values: np.ndarray) -> np.ndarray:
    """log(lambda), with 0 in place of log 0, so that a zero mode adds nothing."""
    zero = values == 0.0
    if zero.any():
        values = np.where(zero, 1.0, values)
    return np.log(values)


def _weighted_log_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """math.fsum of w log(lambda) over the nonzero values, after the spectrum checks.

    The zero values must carry total weight 1 (a connected graph); a negative
    value, or no nonzero value at all, is an error.  The sum is exact and
    blocked (``_weighted_fsum``), so it returns the single math.fsum's float.
    """
    zero = np.flatnonzero(values == 0.0)
    zeros = int(weights[zero].sum())
    if zeros != 1:
        raise GraphSpecError(f"expected exactly one zero eigenvalue, got {zeros}")
    if zero.size == values.size:
        raise GraphSpecError("spectrum has no nonzero eigenvalues")
    if values.min() < 0.0:
        raise GraphSpecError("spectrum has a negative eigenvalue")
    return _weighted_fsum(values, weights, _log_nonzero)


def log_det_star(spec: GraphSpec, cap: int = DEFAULT_EIGENVALUE_CAP) -> float:
    """log of the product of the nonzero Laplacian eigenvalues of ``spec``.

    The sum of w log(lambda) over the half-range modes of ``_half_spectrum``,
    so about half the logs of a circulant and a 2^-d share of a
    d-dimensional torus's are taken.  A mirrored mode's eigenvalue is bitwise
    its own, and w log(lambda) is exact for a power of 2, so the exact sum
    is that over the full spectrum.  It is summed exactly in blocks and
    rounded once, so the result equals the math.fsum of log(lambda) over the
    full spectrum bit for bit, whatever the order.
    Raises EnumerationCapError above ``cap`` vertices and GraphSpecError for
    a disconnected graph (more than one zero eigenvalue) or a single vertex.
    """
    return _weighted_log_sum(*_half_spectrum(spec, cap))


# ---------------------------------------------------------------------------
# Exact tree counts
# ---------------------------------------------------------------------------


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination over Z."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _symbol_poly(gens: Sequence[int]) -> list[int]:
    """Integer coefficients (highest degree first) of z^g (2d - sum (z^g_i + z^-g_i))."""
    gens = tuple(int(g) for g in gens)
    g_max = max(gens)
    coeffs = [0] * (2 * g_max + 1)
    coeffs[g_max] = 2 * len(gens)
    for g in gens:
        coeffs[g_max + g] -= 1
        coeffs[g_max - g] -= 1
    return coeffs[::-1]


def _deflate(coeffs: list[int], root: int) -> list[int]:
    """Exact synthetic division by (z - root), highest degree first; the remainder must vanish."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    remainder = coeffs[-1] + root * out[-1]
    if remainder != 0:
        raise ValueError(f"(z - {root}) is not a factor; remainder {remainder}")
    return out


def _matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in x]


def _plus_identity(x: list[list[int]], c: int) -> list[list[int]]:
    return [[v + c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(x)]


def _lucas(x: list[list[int]], L: int, c: int = 1) -> list[list[int]]:
    """c^L V_L(x / c) for a square integer matrix x, where V_k(t) = 2 T_k(t / 2).

    V_k(s + 1/s) = s^k + s^-k, so W_k = c^k V_k(x / c) obeys
    W_2k = W_k^2 - 2 c^2k I and W_2k+1 = W_k W_k+1 - c^2k x; the bits of L,
    highest first, take (W_k, W_k+1) to (W_2k, W_2k+1) or (W_2k+1, W_2k+2).
    """
    w, w_next = _plus_identity([[0] * len(x) for _ in x], 2), x
    k = 0
    for bit in bin(L)[2:]:
        scale = c ** (2 * k)
        cross = [[u - scale * v for u, v in zip(urow, vrow)]
                 for urow, vrow in zip(_matmul(w, w_next), x)]
        if bit == "1":
            w, w_next = cross, _plus_identity(_matmul(w_next, w_next), -2 * scale * c * c)
            k = 2 * k + 1
        else:
            w, w_next = _plus_identity(_matmul(w, w), -2 * scale), cross
            k = 2 * k
    return w


def _symbol_in_x(gens: Sequence[int]) -> list[int]:
    """S(x), highest degree first, with S(z + 1/z) = sum_g (2 - z^g - z^-g).

    The symbol's palindromic coefficients p give S = p_0 + sum_j p_j V_j(x),
    with V_0 = 2, V_1 = x and V_j+1 = x V_j - V_j-1 (lowest degree first).
    """
    p = _symbol_poly(gens)
    g_max = len(p) // 2
    s = [p[g_max]] + [0] * g_max
    v_prev, v = [2], [0, 1]
    for j in range(1, g_max + 1):
        for i, c in enumerate(v):
            s[i] += p[g_max + j] * c
        v_next = [0] + v
        for i, c in enumerate(v_prev):
            v_next[i] -= c
        v_prev, v = v, v_next
    return s[::-1]


def _circulant_tree_count(spec: CirculantSpec) -> int:
    """tau = n |lc|^n |det(W_n - 2 lc^n I)| / (|lc|^(n m) |R(2)|): the symbol route.

    In x = z + 1/z the eigenvalue at omega^j is S(x_j) = (x_j - 2) R(x_j),
    x_j = 2 cos(2 pi j / n), where R has degree m = g_max - 1 and leading
    coefficient lc = -(multiplicity of g_max).  prod_{j != 0} |x_j - 2| = n^2,
    and prod_j (x_j - r) = +-(V_n(r) - 2) for each root r of R.  With C the
    companion matrix of the monic integer form lc^(m-1) R(y / lc), whose roots
    are lc r, W_n = lc^n V_n(C / lc) has the eigenvalues lc^n V_n(r).
    """
    n = spec.n
    # a step g in (n/2, n) is the step n - g taken backwards: the same edges,
    # and a symbol polynomial of degree n - g instead of g
    gens = [min(g, n - g) for g in spec.generators]
    r = _deflate(_symbol_in_x(gens), 2)[::-1]
    m = len(r) - 1
    lc = r[m]
    monic = [r[i] * lc ** (m - 1 - i) for i in range(m)]
    companion = [[(i == j + 1) - (monic[i] if j == m - 1 else 0) for j in range(m)]
                 for i in range(m)]
    power = lc ** n
    det = _bareiss_determinant(_plus_identity(_lucas(companion, n, lc), -2 * power))
    numerator = n * abs(power) * abs(det)
    denominator = abs(lc) ** (n * m) * abs(sum(c * 2 ** i for i, c in enumerate(r)))
    tau, remainder = divmod(numerator, denominator)
    if remainder:
        raise GraphSpecError(f"resultant of {spec} is not divisible by {denominator}")
    return tau


def _block_laplacian(sides: Sequence[int]) -> list[list[int]]:
    """Laplacian of the torus on ``sides``: the Kronecker sum of 2I - S - S^T.

    S is the cyclic shift on Z/l, so a side 1 contributes 0 (its self loop
    drops out) and a side 2 the doubled edge 2I - 2S.
    """
    x = [[0]]
    for l in sides:
        cycle = [[(2 if i == j else 0) - (j == (i + 1) % l) - (i == (j + 1) % l)
                  for j in range(l)] for i in range(l)]
        a = len(x)
        x = [[(x[u][v] if i == j else 0) + (cycle[i][j] if u == v else 0)
              for v in range(a) for j in range(l)]
             for u in range(a) for i in range(l)]
    return x


def _cycle_cover(beta: int, g: int) -> tuple[list[list[int]], list[list[int]], int]:
    """C_{beta g}^{1,g} as a g-fold cyclic cover of the beta-cycle: (B, W, g).

    Vertex r + g s lies in layer r over base vertex s.  Step g moves s, so B
    is the beta-cycle's Laplacian; step 1 moves r, and at the wrap from layer
    g - 1 to layer 0 it also moves s, so W is the cycle's shift.
    """
    shift = [[int(j == (i + 1) % beta) for j in range(beta)] for i in range(beta)]
    return _block_laplacian([beta]), shift, g


def _as_cover(spec: GraphSpec) -> tuple[list[list[int]], list[list[int]], int] | None:
    """(B, W, L) for a graph that the cover route counts, else None.

    A torus is an L-fold cover of all but its largest side L with W = I.
    C_N^{1,g} with g | N is the cycle cover of ``_cycle_cover`` when its
    beta x beta determinant (beta = N / g) is smaller than the symbol route's
    (g - 1) x (g - 1) one, that is when beta < g.
    """
    if isinstance(spec, TorusSpec):
        sides = sorted(spec.sides)
        L = sides.pop()
        base = _block_laplacian(sides)
        return base, _plus_identity([[0] * len(base) for _ in base], 1), L
    n = spec.n
    g = min(spec.generators[-1], n - spec.generators[-1])
    if spec.d != 2 or n % g or n // g >= g:
        return None
    return _cycle_cover(n // g, g)


def _cover_tree_count(base: list[list[int]], twist: list[list[int]], L: int) -> int:
    """tau = L det(V_L(2I + B) - W - W^T + J) / a^2 for an L-fold cyclic cover.

    The cover has L layers of a base graph with Laplacian B on a vertices;
    layer r joins layer r + 1 through the identity, and layer L - 1 joins
    layer 0 through a permutation W that commutes with B.  On a common
    eigenvector with B = b and W = w the layers form a cycle twisted by w,
    whose L eigenvalues multiply to V_L(2 + b) - w - 1/w.  Only the zero mode
    (b = 0, w = 1) vanishes there; its other L - 1 eigenvalues multiply to L^2,
    and adding J (all ones) replaces the zero by a.
    """
    a = len(base)
    v = _lucas(_plus_identity(base, 2), L)
    m = [[x - t - u + 1 for x, t, u in zip(vrow, trow, urow)]
         for vrow, trow, urow in zip(v, twist, zip(*twist))]
    tau, remainder = divmod(L * _bareiss_determinant(m), a * a)
    if remainder:
        raise GraphSpecError(f"cover determinant is not divisible by {a * a}")
    return tau


def _is_connected(spec: GraphSpec) -> bool:
    if isinstance(spec, CirculantSpec):
        return math.gcd(spec.n, *spec.generators) == 1
    return True  # torus Cayley graphs on the standard generators are connected


def spanning_tree_count_exact(spec: GraphSpec, cap: int = DEFAULT_DETERMINANT_CAP) -> int:
    """Matrix-tree count, exact over arbitrary-precision integers.

    Every count is one integer determinant of a Chebyshev polynomial V_L of a
    small matrix, evaluated by ``_lucas``; no V x V matrix is formed.  A torus,
    and C_N^{1,g} with g | N and N / g < g, are cyclic covers of a small base
    graph (``_cover_tree_count``); any other circulant goes through its
    symbol polynomial in x = z + 1/z (``_circulant_tree_count``), a
    determinant of size g_max - 1.  Raises GraphSpecError for a disconnected
    graph and EnumerationCapError above ``cap`` vertices.
    """
    if not _is_connected(spec):
        raise GraphSpecError(f"graph {spec} is disconnected")
    total = spec.vertex_count
    if total > cap:
        raise EnumerationCapError(f"{total} vertices exceed the tree-count cap {cap}")
    cover = _as_cover(spec)
    tau = _cover_tree_count(*cover) if cover else _circulant_tree_count(spec)
    if tau <= 0:
        raise GraphSpecError(f"tree count {tau} of {spec} is not positive")
    return tau
