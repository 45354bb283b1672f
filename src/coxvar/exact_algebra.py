"""Sparse monomial algebra and a modular determinant kernel.

Scalars are plain ``int``; a value over the prime field of p elements is
an int in range(p).  The golden ratio of H3 and H4 appears only in the
root orbit of ``coxeter_core``, and no other ring does.  Everything is
immutable and exact.

``det_mod_p`` is a blocked elimination over F_p for any p < 2**32.  Each
32 x 32 diagonal block is inverted by Gauss-Jordan in uint64 residues,
where every update stays below p**2 < 2**64; the rest of the matrix is
updated through float64 products on 16-bit limbs, where every sum is an
integer below 2**53, which float64 holds and sums exactly.  A block that
is singular mod p at column j takes a row from below, reduced against its
j pivot rows, and Gauss-Jordan goes on from column j, so every block runs
exactly 32 pivot steps.  Floating point appears nowhere else.

A symmetric input, such as a Varchenko matrix, is eliminated on its lower
triangle alone: A12 is read as A21 transposed, and each chunk of rows of
the trailing update stops at the column of its own last row, a staircase
that forms about half the products.  The first block that needs a row
from below ends this: the trailing matrix is mirrored from its lower
triangle, and elimination goes on over the full matrix.  Entries of the
trailing matrix are reduced mod p only every few updates, as many as
keep them below 2**53 (three for primes near 2**31, one near 2**32), and
every read of the trailing matrix reduces what it reads.

Every matrix product goes through ``_product``, in tiles of at most 2**19
multiply-adds.  OpenBLAS 0.3.31, the BLAS numpy ships, forms a product of
that size on the calling thread and hands one of about 2**20 or more to
its worker threads; on a 2-core host the second thread saved no wall time
on these products, spun between them and doubled the CPU time.  So
``det_mod_p`` wakes no BLAS worker, and it sets no thread count and reads
no environment variable to get there.  The ``coxvar`` command goes one
step further for its own process: ``cli`` sets OPENBLAS_NUM_THREADS to 1
when it is unset, before numpy loads, so the process starts no pool.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantError,
    ModulusOutOfRange,
    NonIntegerMatrix,
    NonSquareMatrix,
    UnassignedVariable,
)


# Blocked elimination over F_p after Dumas, Giorgi and Pernet, "Dense linear
# algebra over word-size prime fields", ACM TOMS 35(3), 2008.  Entries live
# in float64 as integers; a product of two residues is formed from 16-bit
# limbs, so that every sum BLAS forms stays an exact integer below 2**53.
DET_MODULUS_LIMIT = 1 << 32  # det_mod_p is exact for 2 <= p below this
_PANEL = 32  # order of the diagonal blocks inverted one at a time
# rows of A per product, to bound temporaries; a multiple of _PANEL
_ROW_CHUNK = 128
# Most multiply-adds (M * N * K) in one float64 product.  OpenBLAS 0.3.31
# runs a GEMM on its worker threads from about 2**20 multiply-adds on
# (measured on a 2-core host: M, K = 128, 64 ran on one thread up to
# N = 120 and on two from N = 127), so 2**19 keeps a factor of two of
# margin.  Row chunks of _ROW_CHUNK also keep every matrix-vector product
# at M * K <= 2**13, far below OpenBLAS's threshold for those (between
# 4.6e5 and 4.9e5 multiply-adds, measured the same way).
_PRODUCT_LIMIT = 1 << 19


def _product(a, b, out):
    """out = a @ b in column tiles of at most _PRODUCT_LIMIT multiply-adds.

    a is one row chunk of at most _ROW_CHUNK rows and out, which may be a
    view of a larger buffer, receives every tile in place.  Each tile is
    small enough that BLAS forms it on the calling thread.  This is the
    only place where the kernel multiplies matrices.
    """
    m, k = a.shape
    width = max(1, _PRODUCT_LIMIT // max(1, m * k))
    for c0 in range(0, b.shape[1], width):
        c1 = c0 + width
        np.matmul(a, b[:, c0:c1], out=out[:, c0:c1])
    return out


def _split(x, p):
    """Limbs [lo; hi] of integers x mod p, stacked on axis 0, as float64.

    Each x is taken by ``_reduce`` to |b| <= p/2 + 2 and written
    lo + 2**16 hi with |lo|, |hi| <= 2**15.
    """
    b = np.empty(x.shape)
    _reduce(x, p, out=b)
    hi = np.rint(b * (1.0 / (1 << 16)))
    lo = b - hi * (1 << 16)
    return np.concatenate([lo, hi])


def _with_shift(x, p):
    """[x | 2**16 x] mod p for integers x, as float64, each entry taken by
    ``_reduce`` to at most p/2 + 2 in magnitude.

    Times ``_split`` of an inner dimension k this is a sum of 2k terms of
    less than 2**31 * 2**15 each: below 2**52 for k <= _PANEL, the inner
    dimension of every product the kernel forms (A21 times the block
    inverse, the trailing update, the reduction of rows below the block).
    ``_delayed_updates`` counts how many such sums an entry of A takes
    before it must be reduced to stay below 2**53 - p.
    """
    w = x.shape[-1]
    out = np.empty(x.shape[:-1] + (2 * w,))
    _reduce(x, p, out=out[..., :w])
    np.multiply(out[..., :w], 1 << 16, out=out[..., w:])
    _reduce(out[..., w:], p, out=out[..., w:])
    return out


def _reduce(d, p, out):
    """out = d - p * round(d / p) for integers d with |d| + p <= 2**53.

    Then out = d mod p and |out| <= p/2 + 2 < 2**31.  d may be float64 or
    int64; out is float64 and may be d itself.
    """
    q = d * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    np.subtract(d, q, out=out)


def _residues(a, p):
    """Residues in [0, p) of float64 integers below 2**53."""
    return a.astype(np.int64) % p


def _gauss_jordan(G, p, rows, start, det):
    """Gauss-Jordan on the w x w block G of uint64 residues from column start.

    This is [A11 | I] reduced to [I | A11^-1] in place, with the inverse
    stored over the block: after step j, column j holds the inverse's
    column, not a unit vector.  Columns before start are already reduced.
    Pivots are the first nonzero entry at or below the diagonal of the
    current column; each update adds at most p (p - 1) to an entry below
    p, and p**2 - 1 < 2**64.  ``rows[i]`` is the block row at position i,
    and in-block swaps update it.  Returns ``(det, j)``, det the given det
    times the pivots and swap signs.  When j equals w, G is the inverse of
    the block with its rows in the order ``rows``.  Otherwise column j has
    no pivot: G[:j, j] is column j of the j reduced pivot rows, which are
    1 in their own column and 0 in the other columns before j.
    """
    w = G.shape[0]
    up = np.uint64(p)
    for j in range(start, w):
        if not G[j, j]:
            nz = np.flatnonzero(G[j + 1:, j])
            if nz.size == 0:
                return det, j
            b = j + 1 + int(nz[0])
            G[[j, b]] = G[[b, j]]
            rows[j], rows[b] = rows[b], rows[j]
            det = -det
        pivot = int(G[j, j])
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        row = G[j] * np.uint64(inverse) % up
        row[j] = inverse
        f = up - G[:, j]
        G[:, j] = 0
        G += f[:, None] * row
        G %= up
        G[j] = row
    return det, w


def _reduced_row_below(a21, G, j, p):
    """First row below the block that supplies a pivot in column j.

    a21 is ``_with_shift`` of the rows below the block, over its columns.
    One such row v, reduced against the j pivot rows of G, is
    [0, v[j:]] - v[:j] G[:j]: the row Gauss-Jordan would hold at position
    j had v been in the block from the start, its first j entries on the
    stored inverse columns.  Column j is reduced one chunk of _ROW_CHUNK
    rows at a time until an entry is nonzero.  Returns ``(i, row)``, i the
    index in a21 of the first such row and row its reduced residues, or
    None when there is none.
    """
    w = G.shape[0]
    pivot_rows = G.view(np.int64).copy()
    pivot_rows[j:] = 0
    right = _split(pivot_rows, p)
    column = right[:, j:j + 1]
    g = np.empty((_ROW_CHUNK, 1))
    for r0 in range(0, a21.shape[0], _ROW_CHUNK):
        chunk = a21[r0:r0 + _ROW_CHUNK]
        m = chunk.shape[0]
        _product(chunk, column, g[:m])
        nz = np.flatnonzero(_residues(chunk[:, j] - g[:m, 0], p))
        if nz.size:
            i = r0 + int(nz[0])
            row = _product(a21[i:i + 1], right, np.empty((1, w)))[0]
            v = a21[i, :w].copy()
            v[:j] = 0
            return i, _residues(v - row, p)
    return None


def _invert_diagonal_block(A, a21, k0, k1, p, symmetric):
    """Determinant and inverse of A11 = A[k0:k1, k0:k1], exchanging rows.

    Gauss-Jordan runs on the block alone.  If column j of A11 has no pivot,
    the first row below whose column j, reduced against the j pivot rows,
    is nonzero is exchanged for the block row at position j (over columns
    k0 onward, and in a21, the ``_with_shift`` of A21), its reduced row
    takes position j in G, and Gauss-Jordan goes on from column j, so each
    block runs exactly w pivot steps.  An exchange that does not supply
    the pivot raises InvariantError.  When ``symmetric``, A[k0:, k0:] is
    held on its lower triangle and on the diagonal blocks, which the
    staircase of ``_schur_update`` covers whole; an exchange, which moves
    whole rows, first mirrors the trailing matrix from the lower triangle.
    Returns ``(d, inverse, symmetric)``, d the determinant of the final
    A11 times the sign of the exchanges and symmetric false once an
    exchange was made, or ``(0, None, symmetric)`` when no row below can
    supply a pivot, so that det(A) = 0.
    """
    w = k1 - k0
    G = _residues(A[k0:k1, k0:k1], p).view(np.uint64)
    rows = list(range(w))
    d, j = _gauss_jordan(G, p, rows, 0, 1)
    if j < w and symmetric:
        _mirror_lower(A, k0)
        symmetric = False
    while j < w:
        found = _reduced_row_below(a21, G, j, p)
        if found is None:
            return 0, None, symmetric
        i, G[j] = found
        a, b = k0 + rows[j], k1 + i
        A[[a, b], k0:] = A[[b, a], k0:]
        a21[i] = _with_shift(A[b, k0:k1], p)
        d, stop = _gauss_jordan(G, p, rows, j, -d)
        if stop == j:
            raise InvariantError(
                f"row exchange at column {k0 + j} did not supply a pivot")
        j = stop
    # G is the inverse of the block with its rows in the order ``rows``
    G[:, rows] = G.copy()
    return d % p, G.view(np.int64), symmetric


def _schur_update(A, a21, inverse, k0, k1, p, symmetric, reduce):
    """A22 -= (A21 A11^-1) A12, one chunk of _ROW_CHUNK rows at a time.

    a21 is ``_with_shift`` of A21.  z = A21 A11^-1 is formed chunk by
    chunk, and then each chunk's z A12 by ``_product`` into one buffer
    and subtracted from the chunk in place.  When ``symmetric``, A12 is
    read as A21 transposed, from a21, and each chunk stops at the column
    of its own last row: this staircase covers the lower triangle of A22,
    which stays symmetric, with about half the products.  Chunks start at
    multiples of _PANEL, as _ROW_CHUNK is one, so each later diagonal
    block lies in one chunk and is updated whole.  The chunk is reduced
    mod p only when ``reduce``.  Otherwise its entries move by less than
    2 _PANEL (p//2 + 2) 2**15, a sum of 2 _PANEL products of a
    ``_with_shift`` residue and a 16-bit limb, and ``_delayed_updates``
    says how many such updates keep them below 2**53 - p.
    """
    n = A.shape[0]
    inverse_limbs = _split(inverse, p)
    z = np.empty((n - k1, k1 - k0))
    for r0 in range(0, n - k1, _ROW_CHUNK):
        _product(a21[r0:r0 + _ROW_CHUNK], inverse_limbs,
                 z[r0:r0 + _ROW_CHUNK])
    z = _with_shift(z, p)
    # a21 begins with the residues of A21, contiguous where A is not
    right = _split(a21[:, :k1 - k0].T if symmetric else A[k0:k1, k1:], p)
    g = np.empty((_ROW_CHUNK, n - k1))
    for r0 in range(0, n - k1, _ROW_CHUNK):
        r1 = min(r0 + _ROW_CHUNK, n - k1)
        width = r1 if symmetric else n - k1
        block = A[k1 + r0:k1 + r1, k1:k1 + width]
        update = _product(z[r0:r1], right[:, :width], g[:r1 - r0, :width])
        if reduce:
            np.subtract(block, update, out=update)
            _reduce(update, p, out=block)
        else:
            np.subtract(block, update, out=block)


def _delayed_updates(p):
    """Trailing updates an entry of A takes between two reductions mod p.

    An entry is below p before its first update and at most p/2 + 2 in
    magnitude after a reduction, and one update moves it by less than
    bound = 2 _PANEL (p//2 + 2) 2**15 (see ``_schur_update``).  After c
    updates it stays below p + c bound, and ``_reduce`` and every read of
    the trailing matrix need that plus p within 2**53.  This is 3 for
    primes near 2**31 and 1 near 2**32, where each update reduces.
    """
    bound = 2 * _PANEL * (p // 2 + 2) << 15
    return max(1, (2**53 - 2 * p) // bound)


def _is_symmetric(A):
    """Whether A equals its transpose, read one row chunk at a time."""
    return all(np.array_equal(A[r0:r0 + _ROW_CHUNK, :r0 + _ROW_CHUNK],
                              A[:r0 + _ROW_CHUNK, r0:r0 + _ROW_CHUNK].T)
               for r0 in range(0, A.shape[0], _ROW_CHUNK))


def _mirror_lower(A, k0):
    """Copy the lower triangle of A[k0:, k0:] onto its upper one, one band
    of _ROW_CHUNK columns at a time."""
    n = A.shape[0]
    for c0 in range(k0, n, _ROW_CHUNK):
        c1 = min(c0 + _ROW_CHUNK, n)
        A[k0:c0, c0:c1] = A[c0:c1, k0:c0].T
        square = A[c0:c1, c0:c1]
        square[...] = np.tril(square) + np.tril(square, -1).T


def _entry(e, p):
    try:
        return operator.index(e) % p
    except TypeError:
        raise NonIntegerMatrix(f"matrix entry {e!r} is not an integer") \
            from None


def _residue_matrix(matrix, p):
    """Residues in [0, p) of a square integer matrix, as float64."""
    if isinstance(matrix, np.ndarray) and matrix.dtype != object:
        kind = matrix.dtype.kind
        if kind not in "biu":
            raise NonIntegerMatrix(
                f"matrix of dtype {matrix.dtype} is not an integer matrix")
        A = np.empty(matrix.shape, dtype=np.float64)
        # entries in range(p), such as those of modular_matrix, are copied
        # as they are; others are reduced, unsigned ones as uint64 and
        # signed ones as int64, so that no entry wraps before it is reduced
        if matrix.size and 0 <= matrix.min() and matrix.max() < p:
            A[...] = matrix
        elif kind == "u":
            np.remainder(matrix, np.uint64(p), out=A)
        else:
            np.remainder(matrix.astype(np.int64, copy=False), p, out=A)
    else:
        if isinstance(matrix, np.ndarray) and matrix.ndim != 2:
            raise NonSquareMatrix(
                f"matrix of shape {matrix.shape} is not square")
        rows = [[_entry(e, p) for e in row] for row in matrix]
        try:
            A = np.array(rows, dtype=np.float64)
        except ValueError:
            raise NonSquareMatrix("matrix rows differ in length") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareMatrix(f"matrix of shape {A.shape} is not square")
    return A


def det_mod_p(matrix, p: int) -> int:
    """Determinant over the field of p elements, as an int in range(p).

    Accepts nested lists of ints, or an ndarray of integer or object
    dtype; every entry is reduced mod p before any cast.  Blocked
    right-looking elimination: for each diagonal block A11 of _PANEL
    columns, Gauss-Jordan on [A11 | I] gives det(A11) and A11^-1 in uint64
    residues, and the trailing matrix becomes A22 - (A21 A11^-1) A12
    through exact float64 products on 16-bit limbs, each small enough to
    run on the calling thread.  A block singular mod p at column j takes,
    in exchange for its row at position j, the first row below whose
    column j is nonzero once reduced by the block's pivot rows, and
    Gauss-Jordan goes on from column j; a row-permuted matrix can need
    such an exchange for nearly every column, which makes it the slowest
    input.  A matrix whose residues are symmetric is eliminated on its
    lower triangle, up to the first exchange, and the trailing matrix is
    reduced mod p every ``_delayed_updates(p)`` updates.  Pivots are the
    first nonzero entry wherever one is searched, so the result is
    deterministic for fixed input.  Exact for 2 <= p < 2**32 (p is assumed
    prime): the uint64 updates stay below p**2 < 2**64 and every sum of a
    product below 2**53.  Raises NonSquareMatrix, NonIntegerMatrix (float,
    complex or other non-integer entries) and ModulusOutOfRange.
    """
    if not 2 <= p < DET_MODULUS_LIMIT:
        raise ModulusOutOfRange(
            f"modulus {p} outside the exact range 2 <= p < 2**32")
    A = _residue_matrix(matrix, p)
    n = A.shape[0]
    symmetric = _is_symmetric(A)
    delay = _delayed_updates(p)
    det = 1
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        a21 = _with_shift(A[k1:, k0:k1], p)
        d, inverse, symmetric = _invert_diagonal_block(A, a21, k0, k1, p,
                                                       symmetric)
        if inverse is None:
            return 0
        det = det * d % p
        if k1 < n:
            _schur_update(A, a21, inverse, k0, k1, p, symmetric,
                          reduce=k0 // _PANEL % delay == delay - 1)
    return det


@dataclass(frozen=True, order=True)
class Monomial:
    """Sparse monomial: sorted tuple of (variable, exponent) pairs."""

    exps: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_vars(cls, variables):
        """Product of the given variables (repeats accumulate exponents)."""
        acc = {}
        for v in variables:
            acc[v] = acc.get(v, 0) + 1
        return cls.from_dict(acc)

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(sorted((v, e) for v, e in d.items() if e)))

    def __mul__(self, other):
        acc = dict(self.exps)
        for v, e in other.exps:
            acc[v] = acc.get(v, 0) + e
        return Monomial.from_dict(acc)

    def __pow__(self, k):
        return Monomial(tuple((v, e * k) for v, e in self.exps)) if k else Monomial()

    @property
    def degree(self):
        return sum(e for _, e in self.exps)

    def variables(self):
        return [v for v, _ in self.exps]

    def eval_mod(self, point, p) -> int:
        r = 1
        for v, e in self.exps:
            if v not in point:
                raise UnassignedVariable(v)
            r = r * pow(point[v] % p, e, p) % p
        return r

    def sort_key(self):
        return (self.degree, self.exps)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


@dataclass(frozen=True)
class Factorization:
    """Product of (1 - m_i**2)**e_i over stored (monomial, exponent) pairs.

    Stores the edge weight itself, not its square; squaring happens at
    render/evaluation time.  ``normalize`` gives the canonical sorted,
    merged form.
    """

    factors: tuple[tuple[Monomial, int], ...] = ()

    def normalize(self) -> "Factorization":
        acc = {}
        for m, e in self.factors:
            acc[m] = acc.get(m, 0) + e
        items = [(m, e) for m, e in acc.items() if e != 0]
        items.sort(key=lambda me: me[0].sort_key())
        return Factorization(tuple(items))

    def __mul__(self, other):
        return Factorization(self.factors + other.factors).normalize()

    def scale_exponents(self, k: int) -> "Factorization":
        return Factorization(tuple((m, e * k) for m, e in self.factors))

    def eval_mod(self, point, p) -> int:
        r = 1
        for m, e in self.factors:
            val = m.eval_mod(point, p)
            r = r * pow((1 - val * val) % p, e, p) % p
        return r

    @property
    def total_degree(self) -> int:
        return sum(e * 2 * m.degree for m, e in self.factors)

    def variables(self):
        vs = set()
        for m, _ in self.factors:
            vs.update(m.variables())
        return sorted(vs)

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for m, e in self.factors:
            ms = str(m)
            sq = "1" if ms == "1" else "".join(
                v + ("^%d" % (2 * k) if 2 * k != 1 else "") for v, k in m.exps
            )
            parts.append(f"(1-{sq})^{e}")
        return " ".join(parts)
