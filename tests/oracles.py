"""Independent reference computations used to pin expected test values.

Nothing in here may call into the code paths it is checking: tree counts are
enumerated edge subsets or dense matrix-tree determinants of a Laplacian
assembled from an explicit edge list, spectra come from a dense symmetric
eigensolver, Bessel values from mpmath/scipy, and the circulant-lattice
isomorphism is realized by explicit lattice reduction.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from spantor.graphs import CirculantSpec


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def multigraph_edges(spec) -> list[tuple[int, int]]:
    """Edge list (with multiplicity, no self loops) of the 2d-regular multigraph.

    Vertices are numbered 0..V-1 (torus vertices in the same mixed-radix
    order as torus_spectrum).  Doubled edges appear twice; a torus side of
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


def dense_tree_count(spec, delete: int = 0) -> int:
    """Matrix-tree count: the Laplacian with row and column ``delete`` removed.

    The determinant is taken by fraction-free (Bareiss) elimination, whose
    divisions are exact, with the pivot of least magnitude in each column.
    """
    L = laplacian_matrix(spec)
    m = [[x for j, x in enumerate(row) if j != delete]
         for i, row in enumerate(L) if i != delete]
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


def dense_spectrum(spec) -> np.ndarray:
    """Sorted eigenvalues of the dense integer Laplacian (numpy eigensolver)."""
    L = np.array(laplacian_matrix(spec), dtype=float)
    return np.linalg.eigvalsh(L)


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
