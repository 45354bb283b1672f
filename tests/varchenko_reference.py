"""References for the determinant tests, kept out of the library.

``coxvar.varchenko.modular_matrix`` builds the two halves of the matrix
folded by the longest element; the tests compare their determinants and
entries with the full |W| x |W| matrix built here.  The fully symbolic
determinant and the sympy form of a factorization need sympy, which only
the test extra installs.
"""

import numpy as np
import sympy

from coxvar.arrangement import Arrangement
from coxvar.coxeter_core import EnumeratedGroup
from coxvar.exact_algebra import Factorization
from coxvar.varchenko import (
    WeightAssignment,
    build_varchenko_matrix,
    check_order,
)

_MATRIX_CHUNK = 1 << 16  # entries formed at a time


def modular_matrix_reference(group: EnumeratedGroup, values: np.ndarray,
                             p: int) -> np.ndarray:
    """Numeric Varchenko matrix mod p for per-reflection weight values.

    Eight reflections at a time: their inversion bits form a byte key per
    chamber, the XOR of two keys is the byte of the separating set, and a
    256-entry table holds the product of the weights for every byte.  The
    matrix is filled one chunk of rows at a time, so that its products, in
    uint64 since entries stay below p < 2**32, take no n x n temporary.
    Returns uint32, rows and columns in element order.
    """
    N = group.inversion_table
    n = group.order
    keys, tables = [], []
    for t0 in range(0, group.num_reflections, 8):
        bits = N[:, t0:t0 + 8]
        keys.append((bits << np.arange(bits.shape[1], dtype=np.uint8)).sum(
            axis=1, dtype=np.uint8))
        table = np.ones(1, dtype=np.uint64)
        for v in values[t0:t0 + 8]:
            table = np.concatenate([table, table * np.uint64(int(v) % p)
                                    % np.uint64(p)])
        tables.append(table)
    E = np.empty((n, n), dtype=np.uint32)
    step = max(1, _MATRIX_CHUNK // n)
    for r0 in range(0, n, step):
        rows = tables[0][keys[0][r0:r0 + step, None] ^ keys[0]]
        for key, table in zip(keys[1:], tables[1:]):
            rows *= table[key[r0:r0 + step, None] ^ key]
            rows %= np.uint64(p)
        E[r0:r0 + step] = rows
    return E


def to_sympy(f: Factorization):
    """The product of (1 - a(E)^2)^l(E) as a sympy expression."""
    expr = sympy.Integer(1)
    for m, e in f.factors:
        term = sympy.Integer(1)
        for v, k in m.exps:
            term *= sympy.Symbol(v) ** k
        expr *= (1 - term**2) ** e
    return expr


def symbolic_determinant(group: EnumeratedGroup, wa: WeightAssignment):
    """Exact multivariate determinant of a tiny chamber matrix.

    Laplace expansion along the rows in order.  The minor left after the
    first k rows depends only on the set of columns not yet used, so each
    of the 2^n minors is computed once, as a bitmask-indexed `sympy.Poly`,
    instead of n! products along the expansion tree, for n <= 8.
    """
    ar = Arrangement(group)
    check_order(ar, 8, "cofactor expansion cap")
    names = wa.variables()
    pos = {v: i for i, v in enumerate(names)}
    gens = [sympy.Symbol(v) for v in names]

    def poly(m):
        exps = [0] * len(names)
        for v, e in m.exps:
            exps[pos[v]] = e
        return sympy.Poly.from_dict({tuple(exps): 1}, *gens)

    rows = [[poly(m) for m in r] for r in build_varchenko_matrix(ar, wa)]
    n = len(rows)
    minors = [None] * (1 << n)
    minors[0] = sympy.Poly(1, *gens)
    for cols in range(1, 1 << n):
        row = rows[n - bin(cols).count("1")]
        total = sympy.Poly(0, *gens)
        sign = 1
        for j in range(n):
            if cols >> j & 1:
                total += sign * row[j] * minors[cols ^ (1 << j)]
                sign = -sign
        minors[cols] = total
    return minors[-1].as_expr()
