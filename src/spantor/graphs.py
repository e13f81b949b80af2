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
The float table (``_sin2_half``) evaluates its first 2^15 sines directly;
the rest come by angle addition in rows from that head, which costs one
direct row of cos b - 1 and one sine and cosine per row, not one sine per
entry.
``_half_spectrum`` builds the whole half range, each mode with the number
of modes it stands for, from the float table or spantor.hp's integer one,
for ``spectrum``, spantor.hp, spantor.asym's A-block modes and the torus
cover's base.  ``_half_blocks`` streams only a circulant's float modes
j = 1..floor(n/2), past 2^15 of them summed from the half table block by
block into one reused buffer, so no array outgrows a block or the table.
A circulant's log det* (``log_det_star``) and theta's sum of
w e^{-lambda t} take one exact split per block (``_exact_parts``) and one
math.fsum of the parts, the full spectrum's math.fsum bit for bit.  A
torus's log det* sums one closed-form term per half-range mode of all but
its largest side, by the Chebyshev identity below, in the same exact way.

Spanning-tree counts are exact arbitrary-precision integers, each the
determinant of multiplication by V_L(x) = 2 T_L(x / 2), x in a commutative
ring of small dimension m, which ``_lucas`` evaluates in O(log L) ring
products of about m^2 multiplications.  By the Chebyshev identity
prod_k (t - 2 cos((phi + 2 pi k) / L)) = V_L(t) - 2 cos(phi):

* a torus is an L-fold cyclic cover of all but its largest side L, and
  C_N^{1,g} with g | N a g-fold twisted cover of the (N / g)-cycle; the
  ring is the group ring of the base's sides, x the base Laplacian plus 2;
* any other circulant is written in x = z + 1/z, where its symbol is
  (x - 2) R(x) with deg R = g_max - 1; the ring is Z[y] modulo R's monic
  integer form.

The count takes whichever of the two rings is smaller.
"""

from __future__ import annotations

import itertools
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

    @property
    def sides(self) -> tuple[int, ...]:
        """(n,): the one side whose sin^2 table every eigenvalue reads."""
        return (self.n,)


@dataclass(frozen=True)
class TorusSpec:
    """Diagonal discrete torus Z^d / diag(l_1, ..., l_d) Z^d."""

    sides: tuple[int, ...]

    def __post_init__(self):
        sides = tuple(int(s) for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if not sides or any(s < 1 for s in sides):
            raise GraphSpecError(f"sides must be positive integers: {sides}")

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


# modes per block of the half-range stream, whose block-sized arrays then stay in cache
_BLOCK = 1 << 15

# entries per angle-addition row of _sin2_half past its first _BLOCK; the row's
# cos b - 1 costs one sine per entry, so a wider row is slower at l near 2^17
_ROW = 1 << 14


def _sin2_half(l: int) -> np.ndarray:
    """4 sin^2(pi k / l) for k = 0..floor(l/2).

    sin^2(pi r / l) = sin^2(pi (l - r) / l), so index min(r, l - r) of this
    table covers every residue r mod l.  A mode and its mirror then get the
    same rounded value, and the modes near r = l keep the full relative
    accuracy of those near r = 0: evaluated directly, sin(pi r / l) there
    takes the rounding error of an argument near pi relative to a value
    near zero.

    The first _BLOCK sines are np.sin(pi (k / l)), so a table of at most
    _BLOCK entries is that direct evaluation.  Past them the sines come in
    rows of _ROW by angle addition: with a = pi (k0 / l) at the row's base
    k0 and b = pi (r / l), sin(a + b) = sin a + (sin a (cos b - 1) +
    cos a sin b), where sin b is the table's own head, cos b - 1 =
    -2 sin^2(pi (r / (2 l))) is one direct row, and sin a and cos a are one
    np.sin and one np.cos per row.  a + b <= pi / 2, so the correction is
    small against sin a and the last addition's rounding dominates: each
    entry stays within 4 eps (2^-50) relative of 4 sin^2(pi k / l), as the
    direct evaluation does, though up to about 40% of the entries past
    l = 2^16 differ from it by an ulp.  A row is written as 2 sin(a + b),
    from 2 sin a and 2 cos a, and squared: (2 s) (2 s) = 4 (s s) exactly.
    Only the head's indices are written before the rows, by doubling in
    place, so a long table takes no index array and no spare write.
    """
    size = l // 2 + 1
    if size <= _BLOCK:  # the many small tables take no view
        out = head = np.arange(size, dtype=np.float64)
    else:
        out = np.empty(size)
        head = out[:_BLOCK]
        head[0], n = 0.0, 1
        while n < _BLOCK:  # head = 0, 1, ..., _BLOCK - 1
            np.add(head[:n], n, out=head[n:2 * n])
            n *= 2
        width = min(_ROW, size - _BLOCK)
        cosm1 = np.divide(head[:width], 2 * l)  # cos b - 1 for r = 0..width - 1
    head /= l
    head *= np.pi
    np.sin(head, head)
    if size > _BLOCK:
        cosm1 *= np.pi
        np.sin(cosm1, cosm1)
        cosm1 *= cosm1
        cosm1 *= -2.0
        bases = range(_BLOCK, size, _ROW)
        a = np.array(bases, dtype=np.float64)
        a /= l
        a *= np.pi
        term = np.empty(width)
        for k0, sin_a, cos_a in zip(bases, np.sin(a).tolist(), np.cos(a).tolist()):
            row = out[k0:k0 + _ROW]
            n = row.size
            np.multiply(head[:n], 2.0 * cos_a, out=term[:n])
            np.multiply(cosm1[:n], 2.0 * sin_a, out=row)
            row += term[:n]
            row += 2.0 * sin_a
            row *= row
    head *= head
    head *= 4.0
    return out


def _half_weights(l: int) -> np.ndarray:
    """How many residues r mod l share index k = min(r, l - r), for k = 0..floor(l/2)."""
    weights = np.full(l // 2 + 1, 2.0)
    weights[::l - l // 2] = 1.0  # k = 0, and k = l/2 for even l
    return weights


# _add_folded takes strided slices when the runs of constant floor(g j / n),
# about n/g modes each, are at least this long, and one gather otherwise.
# A run costs two slices of Python overhead, and the gather a mod, a fold
# and a fetch per mode; on a 2-vCPU x86 VM they crossed at n/g of about 250
# for n = 2000, 450 for n = 2*10^4 and above 1700 for n = 10^6
_STRIDE_MIN_RUN = 256


def _add_folded(lam: np.ndarray, half: np.ndarray, n: int, g: int, start: int = 0) -> None:
    """lam[i] += half[min(r, n - r)] with r = g j mod n, j = start + i, for i = 0..lam.size - 1.

    g and n - g (mod n) give the same folded index, so g is first reduced
    to min(g mod n, n - g mod n).  Then r = g j - q n on each run of j with
    q = floor(g j / n) constant, and the folded index climbs by g while
    r <= n/2 and falls by g after; each such piece, cut to the modes from
    ``start`` on, is one strided slice of the half table.  A run holds about
    n/g modes, so for g near n/2 the slices get short and a gather of the
    folded indices, one _BLOCK of modes at a time so its temporaries stay
    block-sized, is cheaper.  Either way lam[i] gets the same addend, so the
    sums agree bit for bit.
    """
    g %= n
    g = min(g, n - g)
    stop = start + lam.size
    if g == 0 or g * _STRIDE_MIN_RUN > n:
        for a in range(start, stop, _BLOCK):
            r = (g * np.arange(a, min(a + _BLOCK, stop), dtype=np.int64)) % n
            lam[a - start:a - start + r.size] += half[np.minimum(r, n - r)]
        return
    for q in range(g * start // n, g * (stop - 1) // n + 1):
        a = max(-(-q * n // g), start)  # first j of the run
        b = min(max(((2 * q + 1) * n) // (2 * g) + 1, a), stop)  # first j past r <= n/2
        c = min(-(-(q + 1) * n // g), stop)  # first j of the next run
        if b > a:
            r = g * a - q * n
            lam[a - start:b - start] += half[r:r + g * (b - a - 1) + 1:g]
        if c > b:
            top = (q + 1) * n - g * b
            lam[b - start:c - start] += half[top:top - g * (c - b - 1) - 1:-g]


def _check_cap(spec: GraphSpec, cap: int) -> None:
    """EnumerationCapError when ``spec`` has more than ``cap`` eigenvalues."""
    if spec.vertex_count > cap:
        kind = "circulant" if isinstance(spec, CirculantSpec) else "torus"
        raise EnumerationCapError(
            f"{kind} has {spec.vertex_count} eigenvalues, exceeding the cap {cap}")


def _half_spectrum(spec: GraphSpec, cap: int = DEFAULT_EIGENVALUE_CAP,
                   table=_sin2_half) -> tuple[np.ndarray, np.ndarray]:
    """Every half-range mode and its weight, the number of modes it stands for.

    An eigenvalue depends on each index only through min(r, l - r).  A
    circulant's modes j = 0..floor(n/2) sum the half table of n at
    min(r, n - r), r = g j mod n, over the generators.  A torus's modes are
    the outer sum of its sides' tables, the last side moving fastest.  Every
    weight is a power of 2.  ``table(l)`` gives a side's 4 sin^2(pi k / l),
    or spantor.hp's integers.  Raises EnumerationCapError above ``cap``,
    before any table is built.
    """
    _check_cap(spec, cap)
    if isinstance(spec, CirculantSpec):
        n, half = spec.n, table(spec.n)
        lam = np.zeros_like(half)  # written zeros: a page faults once, not on read and write
        for g in spec.generators:
            _add_folded(lam, half, n, g)
        return lam, _half_weights(n)
    values, weights = None, np.ones(1)
    for l in spec.sides:
        half = table(l)
        values = half if values is None else (values[:, None] + half).ravel()
        weights = (weights[:, None] * _half_weights(l)).ravel()
    return values, weights


def _half_blocks(spec: CirculantSpec):
    """A circulant's float modes j = 1..floor(n/2) as a stream of (values, weight) blocks.

    j = n/2 (even n only) comes first with weight 1, then the modes
    j = 1..ceil(n/2) - 1 with weight 2, at most _BLOCK a block.  Within one
    block they are views of the ``_half_spectrum`` array.  Past it each
    block is summed straight from the half table into one block-sized
    buffer, which every later block of the stream overwrites: a consumer
    must be done with a block before it asks for the next.  The zero mode
    j = 0 is left out, and the caller checks the cap.
    """
    n = spec.n
    end = n - n // 2  # first j past the modes of weight 2
    spans = [(n // 2, n // 2 + 1, 1.0)] * (1 - n % 2)
    spans += [(a, min(a + _BLOCK, end), 2.0) for a in range(1, end, _BLOCK)]
    if n // 2 < _BLOCK:
        lam, _ = _half_spectrum(spec, n)
        for a, b, weight in spans:
            yield lam[a:b], weight
        return
    half, buffer = _sin2_half(n), np.empty(_BLOCK)
    for a, b, weight in spans:
        lam = buffer[:b - a]
        lam.fill(0)
        for g in spec.generators:
            _add_folded(lam, half, n, g, a)
        yield lam, weight


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
    folded = [np.minimum(np.arange(l), l - np.arange(l)) for l in spec.sides]  # min(r, l - r)
    return values.reshape([l // 2 + 1 for l in spec.sides])[np.ix_(*folded)].ravel()


def _exact_parts(x: np.ndarray, parts: list[float]) -> float:
    """Append to ``parts`` two floats within the returned bound of the exact sum of x.

    With n = x.size and n max|x| < 2^e, sigma = 1.5 2^e puts every x + sigma
    in [2^e, 2^(e + 1)), where the float spacing is 2^(e - 52), so
    hi = (x + sigma) - sigma is x rounded to a multiple of 2^(e - 52), and
    lo = x - hi is exact with |lo| <= 2^(e - 53).  Each partial sum of hi is
    such a multiple below 2^(e + 1) in magnitude, hence a float:
    np.add.reduce sums hi exactly in whatever order it takes.  The float sum
    of lo errs by at most (n - 1) 2^-53 sum|lo| <= (n - 1) n 2^(e - 106) in
    any order (additions that land among the subnormals are exact); the
    bound returned is that times 1 + 2^-20, for the higher-order terms.  A
    block of 64 or fewer terms, one of zeros, and one with a non-finite term
    or a term too large to split, is appended exactly: as its terms or its
    exact sum, with bound 0.  x is left holding lo.
    """
    if x.size <= 64:
        parts.extend(x.tolist())
        return 0.0
    top = max(float(x.max()), -float(x.min()))  # NaN when any term is
    if top == 0.0:
        parts.append(float(np.add.reduce(x)))
        return 0.0
    bound = x.size * top
    e = math.frexp(bound)[1]
    if not math.isfinite(bound) or e > 1023:
        parts.extend(x.tolist())
        return 0.0
    sigma = math.ldexp(1.5, e)
    hi = np.add(x, sigma)
    hi -= sigma
    x -= hi
    parts.append(float(np.add.reduce(hi)))
    parts.append(float(np.add.reduce(x)))
    return math.ldexp((x.size - 1) * x.size, e - 106) * (1.0 + 2.0 ** -20)


def _weighted_fsum(blocks, f) -> float:
    """math.fsum of w f(lambda) over the stream ``blocks()`` of (values, w), bit for bit.

    ``f(values, out)`` writes into ``out``, which w, a scalar or an array like
    the values, scales.  Each block's terms are computed in place in one
    block-sized array and split (``_exact_parts``) into parts within ``err``
    of the exact sum.  When the parts shifted by -err and +err round alike,
    so does the exact sum; else the stream runs again into one math.fsum.
    """
    def terms():
        for values, weight in blocks():
            out = np.empty(values.shape)
            f(values, out)
            out *= weight
            yield out

    parts: list[float] = []
    err = math.fsum(_exact_parts(x, parts) for x in terms())
    if err == 0.0 or math.fsum(parts + [-err]) == math.fsum(parts + [err]):
        return math.fsum(parts)
    return math.fsum(itertools.chain.from_iterable(x.tolist() for x in terms()))


def _zero_modes(spec: GraphSpec) -> int:
    """How many Laplacian eigenvalues of ``spec`` are 0: 1 for a connected graph."""
    if isinstance(spec, CirculantSpec):
        # lambda_j = 0 exactly when g j = 0 (mod n) for every generator g
        return math.gcd(spec.n, *spec.generators)
    return 1  # torus Cayley graphs on the standard generators are connected


def log_det_star(spec: GraphSpec, cap: int = DEFAULT_EIGENVALUE_CAP) -> float:
    """log of the product of the nonzero Laplacian eigenvalues of ``spec``.

    A circulant's eigenvalue at any mode but its ``_zero_modes`` sums table
    entries, one at least positive.  So once those are just j = 0 the value
    is the sum of w log(lambda) over the modes j = 1..floor(n/2) of
    ``_half_blocks``, about half its logs.  A mirrored mode's eigenvalue is
    bitwise its own and w is a power of 2, so the sum, exact block by block
    (``_weighted_fsum``) and rounded once, is the math.fsum of log(lambda)
    over the full spectrum bit for bit.

    A torus is an L-fold cover of all but its largest side L, and by the
    Chebyshev identity the L eigenvalues over a base mode mu multiply to
    prod_k (mu + 4 sin^2(pi k / L)) = 2 cosh(L phi) - 2 = 4 sinh^2(L phi / 2),
    phi = 2 asinh(sqrt(mu) / 2); over mu = 0 the nonzero ones multiply to L^2.
    So log det* = 2 log L + sum_{mu != 0} w_mu 2 log(2 sinh x_mu) with
    x_mu = L asinh(sqrt(mu) / 2), over the half-range modes of the base
    (``_half_spectrum``), V / L modes or fewer, summed as above and rounded
    once; log(2 sinh x) is x + log1p(-e^(-2x)), which keeps its relative
    accuracy at every x.  A nonzero base mode is at least 4 sin^2(pi / L),
    so x_mu >= 2 asinh(1) and e^(-2 x_mu) < 0.03.  Each table entry is
    within 5 eps of its exact value and mu adds d - 2 roundings, so x_mu is
    within (d + 16) eps x_mu / 4 of its value at the exact mu, and each term
    is within (d + 10) eps (x_mu + 1) of 2 log(2 sinh x_mu) there; the sum
    adds half an ulp.

    Raises EnumerationCapError above ``cap`` vertices, and GraphSpecError
    for a disconnected circulant (more than one zero eigenvalue), both
    before any table is built, or a single-vertex torus.
    """
    _check_cap(spec, cap)
    if isinstance(spec, CirculantSpec):
        if (zeros := _zero_modes(spec)) != 1:
            raise GraphSpecError(f"expected exactly one zero eigenvalue, got {zeros}")
        return _weighted_fsum(lambda: _half_blocks(spec), np.log)
    *base, L = sorted(spec.sides)
    if L == 1:
        raise GraphSpecError("spectrum has no nonzero eigenvalues")
    mu, weights = _half_spectrum(TorusSpec(base or (1,)), cap)

    def cover_terms(values: np.ndarray, out: np.ndarray) -> None:
        x = out[1:]  # values[0] = 0 is the base's zero mode
        np.sqrt(values[1:], x)
        x *= 0.5
        np.arcsinh(x, x)
        x *= L
        tail = np.multiply(x, -2.0)
        np.exp(tail, tail)
        np.negative(tail, tail)
        np.log1p(tail, tail)
        x += tail
        x *= 2.0
        out[0] = 2.0 * math.log(L)

    return _weighted_fsum(lambda: [(mu, weights)], cover_terms)


# ---------------------------------------------------------------------------
# Exact tree counts
# ---------------------------------------------------------------------------


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination over Z."""
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        pivot, tail = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            mik = row[k]
            row[k + 1:] = [(pivot * u - mik * v) // prev for u, v in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * m[-1][-1] if m else 1


def _deflate(coeffs: list[int], root: int) -> list[int]:
    """Exact synthetic division by (z - root), highest degree first; the remainder must vanish."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    remainder = coeffs[-1] + root * out[-1]
    if remainder != 0:
        raise ValueError(f"(z - {root}) is not a factor; remainder {remainder}")
    return out


def _plus(x: list[int], c: int) -> list[int]:
    """x + c for a ring element x: a list of ints with the unit at index 0."""
    return [v + c if i == 0 else v for i, v in enumerate(x)]


def _lucas(x: list[int], L: int, product, c: int = 1) -> list[int]:
    """c^L V_L(x / c) for an element x of a commutative ring that ``product`` multiplies.

    V_k(s + 1/s) = s^k + s^-k, so W_k = c^k V_k(x / c) obeys W_2k = W_k^2 - 2 c^2k
    and W_2k+1 = W_k W_k+1 - c^2k x; the bits of L, highest first, take
    (W_k, W_k+1) to (W_2k, W_2k+1) or (W_2k+1, W_2k+2).
    """
    w, w_next, k = _plus([0] * len(x), 2), x, 0
    for bit in bin(L)[2:]:
        scale = c ** (2 * k)
        cross = [u - scale * v for u, v in zip(product(w, w_next), x)]
        if bit == "1":
            w, w_next = cross, _plus(product(w_next, w_next), -2 * scale * c * c)
        else:
            w, w_next = _plus(product(w, w), -2 * scale), cross
        k = 2 * k + int(bit)
    return w


def _symbol_in_x(gens: Sequence[int]) -> list[int]:
    """S(x), highest degree first, with S(z + 1/z) = sum_g (2 - V_g(x)).

    V_g(z + 1/z) = z^g + z^-g: V_0 = 2, V_1 = x, V_j+1 = x V_j - V_j-1.
    """
    v = [[2], [0, 1]]
    while len(v) <= max(gens):
        v.append([a - b for a, b in itertools.zip_longest([0] + v[-1], v[-2], fillvalue=0)])
    s = [2 * len(gens)] + [0] * (len(v) - 1)
    for g in gens:
        for i, c in enumerate(v[g]):
            s[i] -= c
    return s[::-1]


def _poly_ring(monic: list[int]):
    """(product, regular) of Z[y]/(p), p = y^m + sum_i monic[i] y^i, coefficients lowest first.

    A product takes m^2 products, then about m^2 more to fold coefficients
    k = 2m - 2..m back by y^k = -y^(k - m) sum_i monic[i] y^i.  Row j of
    regular(e) is y^j e: the transpose of the matrix of multiplication by e.
    """
    m = len(monic)

    def product(u: list[int], v: list[int]) -> list[int]:
        full = [0] * (2 * m - 1)
        for i, c in enumerate(u):
            for k, d in enumerate(v, i):
                full[k] += c * d
        for k in range(2 * m - 2, m - 1, -1):
            top = full.pop()
            for i, c in enumerate(monic, k - m):
                full[i] -= top * c
        return full

    def regular(e: list[int]) -> list[list[int]]:
        rows = []
        for _ in range(m):
            rows.append(e)
            e = [(e[i - 1] if i else 0) - e[-1] * c for i, c in enumerate(monic)]
        return rows

    return product, regular


def _circulant_tree_count(spec: CirculantSpec) -> int:
    """tau = n |lc|^n |N(W_n - 2 lc^n)| / (|lc|^(n m) |R(2)|): the symbol route.

    In x = z + 1/z the eigenvalue at omega^j is S(x_j) = (x_j - 2) R(x_j),
    x_j = 2 cos(2 pi j / n), where R has degree m = g_max - 1 and leading
    coefficient lc = -(multiplicity of g_max).  prod_{j != 0} |x_j - 2| = n^2,
    and prod_j (x_j - r) = +-(V_n(r) - 2) for each root r of R.  The monic
    integer form p(y) = lc^(m-1) R(y / lc) has the roots lc r, so in
    ``_poly_ring`` W_n = lc^n V_n(y / lc) has eigenvalues lc^n V_n(r), and
    N, the determinant of multiplication, multiplies them.
    """
    n = spec.n
    # a step g in (n/2, n) is the step n - g taken backwards: the same edges,
    # and a symbol polynomial of degree n - g instead of g
    gens = [min(g, n - g) for g in spec.generators]
    r = _deflate(_symbol_in_x(gens), 2)[::-1]
    m, lc = len(r) - 1, r[-1]
    monic = [r[i] * lc ** (m - 1 - i) for i in range(m)]
    y = [int(i == 1) for i in range(m)] if m > 1 else [-c for c in monic]  # y mod p
    power = lc ** n
    product, regular = _poly_ring(monic)
    det = _bareiss_determinant(regular(_plus(_lucas(y, n, product, lc), -2 * power)))
    numerator = n * abs(power) * abs(det)
    denominator = abs(lc) ** (n * m) * abs(sum(c * 2 ** i for i, c in enumerate(r)))
    tau, remainder = divmod(numerator, denominator)
    if remainder:
        raise GraphSpecError(f"resultant of {spec} is not divisible by {denominator}")
    return tau


def _group_ring(sides: Sequence[int]):
    """(product, regular) of Z[G], G = Z/l_1 x ... x Z/l_k, on lists over G in mixed radix.

    The last side runs fastest and the identity is at index 0.  Row g of
    regular(e), the matrix of multiplication by e, is e[g - h] over h, one
    gather through a table of differences; (u v)[g] is u times that of v.
    """
    table = [[0]]  # table[g][h] = g - h
    for l in sides:
        table = [[d * l + (i - j) % l for d in row for j in range(l)]
                 for row in table for i in range(l)]
    # an itemgetter of one index returns the entry, not a tuple
    gathers = [operator.itemgetter(*row) for row in table] if len(table) > 1 else [list]

    def product(u: list[int], v: list[int]) -> list[int]:
        return [sum(map(operator.mul, u, gather(v))) for gather in gathers]

    def regular(e: list[int]) -> list[list[int]]:
        return [list(gather(e)) for gather in gathers]

    return product, regular


def _as_cover(spec: GraphSpec) -> tuple[tuple[int, ...], int, int] | None:
    """(sides, t, L) when the count takes ``spec`` as an L-fold cover of G's Cayley graph.

    A torus covers all but its largest side L with twist t = 0.  In
    C_N^{1,g}, g | N, vertex r + g s lies in layer r over vertex s of the
    beta-cycle, beta = N / g: step g moves s, and step 1 moves r and, from
    layer g - 1 to layer 0, s too, so t = 1.  That cover is taken when its
    ring is the smaller, beta < g.  None for any other circulant.
    """
    if isinstance(spec, TorusSpec):
        *sides, L = sorted(spec.sides)
        return tuple(sides), 0, L
    n = spec.n
    g = min(spec.generators[-1], n - spec.generators[-1])
    if spec.d != 2 or n % g or n // g >= g:
        return None
    return (n // g,), 1, g


def _cover_shape(spec: GraphSpec) -> tuple[int, int] | None:
    """(a, L): the base's vertex count and the fold count of ``_as_cover``, or None."""
    return (cover := _as_cover(spec)) and (math.prod(cover[0]), cover[2])


def _cover_tree_count(sides: Sequence[int], t: int, L: int) -> int:
    """tau = L N(V_L(2 + B) - w - 1/w + J) / a^2 for an L-fold cyclic cover.

    The base, on a vertices, has the Laplacian B = sum_i (2 - s_i - 1/s_i)
    in ``_group_ring``, s_i the generator of side i (a side 1 adds 0, its
    self loop, and a side 2 the doubled edge 2 - 2 s_i).  Layer r joins
    layer r + 1 through the identity and layer L - 1 joins layer 0 through
    the twist w at index t, so on a character with B = b and w = omega the
    L eigenvalues multiply to V_L(2 + b) - omega - 1/omega.  Only the zero
    mode (b = 0, omega = 1) vanishes; its other L - 1 multiply to L^2, and
    J = sum_g g replaces the zero by a.  The norm N, the product over the
    characters, is the determinant of multiplication.
    """
    product, regular = _group_ring(sides)
    a = math.prod(sides)
    x, stride = _plus([0] * a, 2 + 2 * len(sides)), a
    for l in sides:
        stride //= l
        x[1 % l * stride] -= 1
        x[(l - 1) % l * stride] -= 1
    w = [int(g == t) for g in range(a)]  # row 0 of regular(w) is w[-h] over h: 1/w
    v = [c - p - q + 1 for c, p, q in zip(_lucas(x, L, product), w, regular(w)[0])]
    tau, remainder = divmod(L * _bareiss_determinant(regular(v)), a * a)
    if remainder:
        raise GraphSpecError(f"cover determinant is not divisible by {a * a}")
    return tau


def spanning_tree_count_exact(spec: GraphSpec, cap: int = DEFAULT_DETERMINANT_CAP) -> int:
    """Matrix-tree count, exact over arbitrary-precision integers.

    One determinant of multiplication by V_L at an element of a small ring
    (``_lucas``); no V x V matrix is formed.  A torus, and C_N^{1,g} with
    g | N and N / g < g, are cyclic covers, counted in the group ring of
    their base (``_cover_tree_count``); any other circulant in the ring of
    its symbol, of dimension g_max - 1 (``_circulant_tree_count``).  Raises
    GraphSpecError for a disconnected graph and EnumerationCapError above
    ``cap`` vertices.
    """
    if _zero_modes(spec) != 1:
        raise GraphSpecError(f"graph {spec} is disconnected")
    total = spec.vertex_count
    if total > cap:
        raise EnumerationCapError(f"{total} vertices exceed the tree-count cap {cap}")
    cover = _as_cover(spec)
    tau = _cover_tree_count(*cover) if cover else _circulant_tree_count(spec)
    if tau <= 0:
        raise GraphSpecError(f"tree count {tau} of {spec} is not positive")
    return tau
