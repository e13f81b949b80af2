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

Spanning-tree counts are exact arbitrary-precision integers.  For a circulant
the product of the nonzero eigenvalues is a resultant of the symbol polynomial
with z^n - 1: O(log n) products of polynomials of degree 2 g_max - 2 and one
determinant of that size.  For a torus, the Chebyshev identity
prod_k (x + 4 sin^2(pi k / L)) = 2 T_L(1 + x/2) - 2 over the largest side L
leaves one determinant of the size of the other sides' vertex count.
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


@dataclass(frozen=True)
class Spectrum:
    """Full multiset of combinatorial-Laplacian eigenvalues.

    ``values`` keeps the natural enumeration order (character index j for a
    circulant, mixed-radix index for a torus); the zero mode sits at index 0
    and is exact.
    """

    values: np.ndarray
    zero_multiplicity: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "Spectrum":
        values = np.asarray(values, dtype=float)
        return cls(values=values, zero_multiplicity=int(np.count_nonzero(values == 0.0)))

    def __len__(self) -> int:
        return int(self.values.size)


def circulant_spectrum(spec: CirculantSpec) -> Spectrum:
    """Closed-form spectrum lambda_j = 2d - 2 sum_g cos(2 pi g j / n), j = 0..n-1.

    Evaluated in the equivalent form 4 sum_g sin^2(pi g j / n), which is exact
    at j = 0 and keeps full relative accuracy for the near-zero modes (the
    cosine form loses them to cancellation for large n).
    """
    n = spec.n
    j = np.arange(n, dtype=np.int64)
    lam = np.zeros(n)
    for g in spec.generators:
        a = (g * j) % n
        s = np.sin(np.pi * (a.astype(float) / n))
        lam += 4.0 * s * s
    return Spectrum.from_values(lam)


def torus_spectrum(spec: TorusSpec, cap: int = DEFAULT_EIGENVALUE_CAP) -> Spectrum:
    """Spectrum of the discrete torus, lambda_m = sum_i (2 - 2 cos(2 pi m_i / l_i)).

    Eigenvalues are enumerated in mixed-radix order over m in prod Z/l_i; the
    first index moves fastest along the last side.  Raises
    EnumerationCapError when det Lambda exceeds ``cap``.
    """
    total = spec.vertex_count
    if total > cap:
        raise EnumerationCapError(
            f"torus has {total} eigenvalues, exceeding the cap {cap}"
        )
    lam = np.zeros((1,))
    for l in spec.sides:
        m = np.arange(l, dtype=float)
        s = np.sin(np.pi * m / l)
        lam = (lam[:, None] + 4.0 * s * s).ravel()
    return Spectrum.from_values(lam)


def log_det_star(spectrum: Spectrum) -> float:
    """log of the product of the nonzero Laplacian eigenvalues.

    Requires a connected spectrum (exactly one zero eigenvalue); any further
    zero or negative value is an error.  Logs are accumulated with math.fsum
    in enumeration order, so the result is deterministic and independent of
    any caller-side parallelism.
    """
    vals = spectrum.values
    if spectrum.zero_multiplicity != 1:
        raise GraphSpecError(
            f"expected exactly one zero eigenvalue, got {spectrum.zero_multiplicity}"
        )
    nonzero = vals[vals != 0.0]
    if nonzero.size == 0:
        raise GraphSpecError("spectrum has no nonzero eigenvalues")
    if np.any(nonzero < 0.0):
        raise GraphSpecError("spectrum has a negative eigenvalue")
    return math.fsum(np.log(nonzero))


# ---------------------------------------------------------------------------
# Lattice form of a circulant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeMatrix:
    """Integer lattice matrix whose quotient torus realizes a circulant graph."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        return _bareiss_determinant([list(row) for row in self.entries])


def circulant_to_lattice(spec: CirculantSpec) -> LatticeMatrix:
    """Matrix Lambda_Gamma with first row (n, -g_1, ..., -g_{d-1}) over an identity block.

    Z^d / Lambda_Gamma Z^d with nearest-neighbour edges is isomorphic to
    C_n^Gamma; |det| = n.
    """
    d = spec.d
    first = (spec.n,) + tuple(-g for g in spec.generators[1:])
    rows = [first]
    for i in range(1, d):
        rows.append(tuple(1 if k == i else 0 for k in range(d)))
    return LatticeMatrix(entries=tuple(rows))


# ---------------------------------------------------------------------------
# Exact tree counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeCount:
    """Exact spanning-tree count."""

    value: int


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


def _deflate_once_at_one(coeffs: list[int]) -> list[int]:
    """Exact synthetic division by (z - 1); the remainder must vanish."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1])
    remainder = coeffs[-1] + out[-1]
    if remainder != 0:
        raise ValueError(f"(z-1) is not a factor; remainder {remainder}")
    return out


def _reduce(p: list[int], monic: list[int]) -> list[int]:
    """p mod (y^D + sum_i monic[i] y^i), D = len(monic); coefficients lowest first."""
    D = len(monic)
    for k in range(len(p) - 1, D - 1, -1):
        c = p[k]
        if c:
            base = k - D
            for i, m in enumerate(monic):
                p[base + i] -= c * m
    return p[:D] + [0] * (D - len(p))


def _power_of_y(n: int, monic: list[int]) -> list[int]:
    """y^n mod the monic polynomial, by square-and-multiply."""
    result = _reduce([1], monic)
    for bit in bin(n)[2:]:
        square = [0] * max(2 * len(result) - 1, 0)
        for i, a in enumerate(result):
            if a:
                for j, b in enumerate(result):
                    square[i + j] += a * b
        result = _reduce(square, monic)
        if bit == "1":
            result = _reduce([0] + result, monic)
    return result


def _circulant_tree_count(spec: CirculantSpec) -> int:
    """tau = n |lc|^n |prod_rho (rho^n - 1)| / |Q(1)| over the roots rho of Q.

    Q is the symbol polynomial with its double root at z = 1 divided out, of
    degree D = 2 g_max - 2 and leading coefficient lc = -(multiplicity of
    g_max).  The eigenvalues are |P(omega^j)| = |omega^j - 1|^2 |Q(omega^j)|,
    and prod_{j != 0} |omega^j - 1| = n.  The root product is the resultant
    det(M - lc^n I), where M multiplies by y^n in Z[y] modulo the monic
    integer polynomial lc^{D-1} Q(y / lc), whose roots are lc rho.
    """
    n = spec.n
    # a step g in (n/2, n) is the step n - g taken backwards: the same edges,
    # and a symbol polynomial of degree 2(n - g) instead of 2g
    gens = [min(g, n - g) for g in spec.generators]
    q = _deflate_once_at_one(_deflate_once_at_one(_symbol_poly(gens)))[::-1]
    D = len(q) - 1
    lc = q[D]
    monic = [q[i] * lc ** (D - 1 - i) for i in range(D)]
    power = lc ** n
    # row k of the transpose of M - lc^n I is y^{n+k} mod the monic form
    rows = []
    column = _power_of_y(n, monic)
    for k in range(D):
        rows.append([c - power if i == k else c for i, c in enumerate(column)])
        column = _reduce([0] + column, monic)
    numerator = n * abs(lc) ** n * abs(_bareiss_determinant(rows))
    denominator = abs(lc) ** (n * D) * abs(sum(q))  # Q(1) = -sum g^2
    tau, remainder = divmod(numerator, denominator)
    if remainder:
        raise GraphSpecError(f"resultant of {spec} is not divisible by {denominator}")
    return tau


def _matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in x]


def _plus_identity(x: list[list[int]], c: int) -> list[list[int]]:
    return [[v + c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(x)]


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


def _torus_tree_count(spec: TorusSpec) -> int:
    """tau = L det(f_L(L_A) + J) / a^2, with L the largest side.

    L_A is the a x a Laplacian of the other sides (the A-block).  By the
    Chebyshev identity prod_k (x + 4 sin^2(pi k / L)) = 2 T_L(1 + x/2) - 2 =
    f_L(x), the torus eigenvalues with A-block part mu multiply to f_L(mu);
    f_L(0) = 0, the cycle alone gives L^2, and adding J (all ones) replaces
    the zero mode of f_L(L_A) by a.  W_k = 2 T_k(1 + L_A / 2) obeys
    W_{k+1} = (2I + L_A) W_k - W_{k-1}, evaluated by Lucas doubling.
    """
    sides = sorted(spec.sides)
    L = sides.pop()
    a = math.prod(sides)
    step = _plus_identity(_block_laplacian(sides), 2)
    w, w_next = _plus_identity([[0] * a for _ in range(a)], 2), step
    for bit in bin(L)[2:]:
        # (W_k, W_{k+1}) -> (W_{2k}, W_{2k+1}) or (W_{2k+1}, W_{2k+2})
        cross = [[u - s for u, s in zip(urow, srow)]
                 for urow, srow in zip(_matmul(w, w_next), step)]
        if bit == "1":
            w, w_next = cross, _plus_identity(_matmul(w_next, w_next), -2)
        else:
            w, w_next = _plus_identity(_matmul(w, w), -2), cross
    f_plus_j = [[v + 1 for v in row] for row in _plus_identity(w, -2)]
    tau, remainder = divmod(L * _bareiss_determinant(f_plus_j), a * a)
    if remainder:
        raise GraphSpecError(f"determinant of {spec} is not divisible by {a * a}")
    return tau


def _is_connected(spec: GraphSpec) -> bool:
    if isinstance(spec, CirculantSpec):
        return math.gcd(spec.n, *spec.generators) == 1
    return True  # torus Cayley graphs on the standard generators are connected


def spanning_tree_count_exact(spec: GraphSpec,
                              cap: int = DEFAULT_DETERMINANT_CAP) -> TreeCount:
    """Matrix-tree count, exact over arbitrary-precision integers.

    A circulant is counted from the resultant of its symbol polynomial with
    z^n - 1, a torus from a Chebyshev polynomial of the Laplacian of all but
    its largest side; no V x V matrix is formed.  Raises GraphSpecError for a
    disconnected graph and EnumerationCapError above ``cap`` vertices.
    """
    if not _is_connected(spec):
        raise GraphSpecError(f"graph {spec} is disconnected")
    total = spec.vertex_count
    if total > cap:
        raise EnumerationCapError(f"{total} vertices exceed the tree-count cap {cap}")
    if isinstance(spec, CirculantSpec):
        tau = _circulant_tree_count(spec)
    else:
        tau = _torus_tree_count(spec)
    if tau <= 0:
        raise GraphSpecError(f"tree count {tau} of {spec} is not positive")
    return TreeCount(value=tau)
