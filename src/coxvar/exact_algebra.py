"""Sparse monomial algebra and a modular determinant kernel.

Scalars are plain ``int``; a value over the prime field of p elements is
an int in range(p).  The golden ratio of H3 and H4 appears only in the
root orbit of ``coxeter_core``, and no other ring does.  Everything is
immutable and exact.

``det_mod_p_in_place`` is a blocked elimination over F_p for any
p < 2**32 of a stack of k matrices of one order, given as a C-contiguous
float64 array of residues that it overwrites, so that a caller which
writes its matrices there holds them only once.  ``det_mod_p`` takes one
integer matrix in any integer form, reduces it mod p into a fresh float64
stack of one and eliminates that.  Only Gauss-Jordan is stacked: each
pivot step runs over the diagonal blocks of all k members at once, so k
small matrices pay numpy's per-call overhead once.  The float64 trailing
update runs one member at a time, so a stack's temporaries are one
member's; a single matrix is a stack of one.  Each 32 x 32 diagonal block
is inverted by Gauss-Jordan in uint64 residues, reduced mod p only every
few steps, as many as keep every entry below 2**64 (three for primes near
2**31, one near 2**32); the rest of the matrix is updated through float64
products on 16-bit limbs, where every sum is an integer below 2**53,
which float64 holds and sums exactly.  Gauss-Jordan pivots on the
diagonal alone: a member whose pivot at column j is zero exchanges its
row j for the first later row, of the block or below it, whose column j
is nonzero once reduced against its j pivot rows, and Gauss-Jordan goes
on from column j, so every block runs exactly 32 pivot steps.  A member
with no such row has determinant 0: its blocks are identities from then
on, and its matrix is not written again.  Floating point appears nowhere
else.

A symmetric input, such as a Varchenko matrix, is eliminated on its lower
triangle alone: A12 is read as A21 transposed, and each chunk of rows of
the trailing update stops at the column of its own last row, a staircase
that forms about half the products.  The first zero pivot in any member
ends this for the whole stack, whether a row of its block or one below
it then takes its place: the trailing matrices are mirrored from their
lower triangles, and elimination goes on over the full matrices.  A row
of the block takes the place only where the block has a zero leading
minor, which a random block has with probability about 32/p, so that
matters only for small primes.  Entries of the trailing matrix are
reduced mod p only every few updates, as many as keep them below 2**53
(three for primes near 2**31, one near 2**32), and every read of the
trailing matrix reduces what it reads.

Every matrix product goes through ``_product``, in tiles of at most 2**19
multiply-adds.  OpenBLAS 0.3.31, the BLAS numpy ships, forms a
product of that size on the calling thread and hands one of about 2**20
or more to its worker threads; on a 2-core host the second thread saved
no wall time on these products, spun between them and doubled the CPU
time.  So the elimination wakes no BLAS worker, and it sets no thread count
and reads no environment variable to get there.  The ``coxvar`` command
goes one step further for its own process: ``cli`` sets
OPENBLAS_NUM_THREADS to 1 when it is unset, before numpy loads, so the
process starts no pool.
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
    NotAResidueStack,
    UnassignedVariable,
)


# Blocked elimination over F_p after Dumas, Giorgi and Pernet, "Dense linear
# algebra over word-size prime fields", ACM TOMS 35(3), 2008.  Entries live
# in float64 as integers; a product of two residues is formed from 16-bit
# limbs, so that every sum BLAS forms stays an exact integer below 2**53.
DET_MODULUS_LIMIT = 1 << 32  # the elimination is exact for 2 <= p below it
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

    a is one row chunk of at most _ROW_CHUNK rows of one member, and out,
    which may be a view of a larger buffer, receives every tile in place.
    Each tile is small enough that BLAS forms it on the calling thread.
    This is the only place where the kernel multiplies matrices.
    """
    m, k = a.shape
    width = max(1, _PRODUCT_LIMIT // max(1, m * k))
    for c0 in range(0, b.shape[1], width):
        c1 = c0 + width
        np.matmul(a, b[:, c0:c1], out=out[:, c0:c1])
    return out


def _split(x, p):
    """Limbs [lo; hi] of integers x mod p, stacked on the row axis, as
    float64: x taken by ``_reduce`` to |b| <= p/2 + 2 is written
    lo + 2**16 hi with |lo|, |hi| <= 2**15."""
    b = np.empty(x.shape)
    _reduce(x, p, out=b)
    w = b.shape[0]
    out = np.empty((2 * w, b.shape[1]))
    lo, hi = out[:w], out[w:]
    np.multiply(b, 1.0 / (1 << 16), out=hi)
    np.rint(hi, out=hi)
    np.multiply(hi, -(1 << 16), out=lo)
    lo += b
    return out


def _with_shift(x, p, out=None):
    """[x | 2**16 x] mod p for integers x, as float64, each entry taken by
    ``_reduce`` to at most p/2 + 2 in magnitude, into out when given.

    Times ``_split`` of an inner dimension k this is a sum of 2k terms of
    less than 2**31 * 2**15 each: below 2**52 for k <= _PANEL, the inner
    dimension of every product the kernel forms (A21 times the block
    inverse, the trailing update, the reduction of rows below the block).
    ``_delayed_updates`` counts how many such sums an entry of A takes
    before it must be reduced to stay below 2**53 - p.
    """
    w = x.shape[1]
    if out is None:
        out = np.empty((x.shape[0], 2 * w))
    _reduce(x, p, out=out[:, :w])
    np.multiply(out[:, :w], 1 << 16, out=out[:, w:])
    _reduce(out[:, w:], p, out=out[:, w:])
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
    """Residues in [0, p) of float64 integers below 2**53, as int64, by
    floor division: see ``reduce_whole``."""
    b = a.astype(np.int64)
    q = b // p
    q *= p
    b -= q
    return b


def _delayed_steps(p):
    """Gauss-Jordan steps a block takes between two full reductions mod p.

    Every entry is below p after a full reduction, and one step adds at
    most p (p - 1) to it: a multiplier p - c, c a reduced residue of the
    pivot column, times a reduced entry of the pivot row.  After c steps
    an entry stays below p + c p (p - 1), which must stay below 2**64.
    This is 3 for primes near 2**31 and 1 near 2**32, where every step
    reduces.
    """
    return max(1, (2**64 - p - 1) // (p * (p - 1)))


def _inverses(xs, p):
    """Inverses mod p of the nonzero residues xs, with one ``pow``.

    Montgomery's trick: invert the product of all of them, then peel one
    factor off at a time, three products per residue in place of one
    ``pow`` each.
    """
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % p)
    inverse = pow(prefix.pop(), -1, p)
    out = []
    for x, before in zip(reversed(xs), reversed(prefix)):
        out.append(inverse * before % p)
        inverse = inverse * x % p
    return out[::-1]


def reduce_whole(G, up, scratch):
    """G %= up in place for a uint64 array G, through scratch.

    numpy divides uint64 by a scalar with libdivide, a multiply and a
    shift, but takes % by the hardware division: on a (10, 32, 32) stack
    the floor division, product and difference took 14.5 us against 39 us
    for % (numpy 2.4, 2-core host).
    """
    np.floor_divide(G, up, out=scratch)
    scratch *= up
    G -= scratch


def _gauss_jordan(G, p, start, det):
    """Gauss-Jordan in lockstep on the stack G of w x w blocks of uint64
    residues, from column start, on diagonal pivots alone.

    For each member this is [A11 | I] reduced to [I | A11^-1] in place,
    with the inverse stored over the block: after step j, column j holds
    the inverse's column, not a unit vector.  Columns before start are
    already reduced, and every entry is below p on entry.  Each step
    reduces the pivot column and the pivot row mod p, unless the whole
    stack was reduced since the last step; that happens only every
    ``_delayed_steps(p)`` steps and before returning.  Step j takes each
    member's pivot at (j, j), and the pivots' inverses take one ``pow``
    for the whole stack; ``det``, the list of each member's determinant
    so far, is returned times the pivots.  Returns ``(det, j)``.  When j
    equals w, each member of G is the inverse of its block.  Otherwise j
    is the first column where some member's pivot is zero, and no member
    has taken step j: for such a member, G[m, :j, j] is column j of its j
    reduced pivot rows, which are 1 in their own column and 0 in the
    other columns before j.
    """
    w = G.shape[-1]
    up = np.uint64(p)
    delay = _delayed_steps(p)
    scratch = np.empty_like(G)
    since = 0  # steps since G was last reduced whole, as it is on entry
    for j in range(start, w):
        column, pivot_row = G[:, :, j], G[:, j]
        if since:
            column %= up
        pivots = column[:, j].tolist()
        if 0 in pivots:
            break
        det = [d * x % p for d, x in zip(det, pivots)]
        inverse = np.array(_inverses(pivots, p), dtype=np.uint64)
        if since:
            pivot_row %= up
        row = pivot_row * inverse[:, None]
        row %= up
        row[:, j] = inverse
        f = up - column
        column[...] = 0
        np.multiply(f[:, :, None], row[:, None, :], out=scratch)
        G += scratch
        pivot_row[...] = row
        since += 1
        if since == delay:
            reduce_whole(G, up, scratch)
            since = 0
    else:
        j = w
    if since:
        reduce_whole(G, up, scratch)
    return det, j


def _reduced_row_below(candidates, G, j, p):
    """First row below position j that supplies a pivot in column j.

    One member at a time: candidates is ``_with_shift`` of its rows after
    position j, those of the block and those below it, over the block's
    columns, and G its block.  One such row v, reduced against the j pivot
    rows of G, is [0, v[j:]] - v[:j] G[:j]: the row Gauss-Jordan would
    hold at position j had v been there from the start, its first j
    entries on the stored inverse columns.  For a row of the block this
    is the row G holds for it.  Column j is reduced one chunk of
    _ROW_CHUNK rows at a time until an entry is nonzero.  Returns
    ``(i, row)``, i the index in candidates of the first such row and row
    its reduced residues, or None when there is none.
    """
    w = G.shape[0]
    pivot_rows = G.view(np.int64).copy()
    pivot_rows[j:] = 0
    right = _split(pivot_rows, p)
    column = right[:, j:j + 1]
    g = np.empty((_ROW_CHUNK, 1))
    for r0 in range(0, candidates.shape[0], _ROW_CHUNK):
        chunk = candidates[r0:r0 + _ROW_CHUNK]
        m = chunk.shape[0]
        _product(chunk, column, g[:m])
        nz = np.flatnonzero(_residues(chunk[:, j] - g[:m, 0], p))
        if nz.size:
            i = r0 + int(nz[0])
            row = _product(candidates[i:i + 1], right, np.empty((1, w)))[0]
            v = candidates[i, :w].copy()
            v[:j] = 0
            return i, _residues(v - row, p)
    return None


def _invert_diagonal_block(A, k0, k1, p, symmetric, det):
    """Determinants and inverses of each member's A11 = A[m, k0:k1, k0:k1],
    exchanging rows.

    Gauss-Jordan runs on the blocks alone, on diagonal pivots.  Where it
    stops at column j, each member whose pivot there is zero takes the
    first row after position j, in its block or below it, whose column j,
    reduced against the j pivot rows, is nonzero: that row and the row at
    position j swap places in A, over columns k0 onward, and in G, where
    position j takes the reduced row.  Gauss-Jordan then goes on from
    column j for the whole stack, so each block runs exactly w pivot
    steps.  An exchange that does not supply the pivot raises
    InvariantError.  A member with no such row has determinant 0; its G
    block is the identity from then on, in this block and every later
    one, and A is not written for it again.  ``det`` is each member's
    determinant so far, 0 for such a member.  When ``symmetric``, each
    A[m, k0:, k0:] is held on its lower triangle and on the diagonal
    blocks, which the staircase of ``_schur_update`` covers whole; the
    first stop, which can move whole rows, first mirrors the trailing
    matrix of every member of nonzero determinant from its lower
    triangle.  Returns ``(det, inverse, symmetric)``: det times the
    determinants of the final blocks and the signs of the exchanges,
    inverse the stack of block inverses and symmetric false once
    Gauss-Jordan stopped.
    """
    w = k1 - k0
    G = _residues(A[:, k0:k1, k0:k1], p).view(np.uint64)
    G[[m for m, d in enumerate(det) if not d]] = np.eye(w, dtype=np.uint64)
    det, j = _gauss_jordan(G, p, 0, det)
    if j < w and symmetric:
        for m in np.flatnonzero(det):
            mirror_lower(A[m], k0)
        symmetric = False
    while j < w:
        for m in np.flatnonzero(G[:, j, j] == 0):
            found = _reduced_row_below(
                _with_shift(A[m, k0 + j + 1:, k0:k1], p), G[m], j, p)
            if found is None:
                G[m] = np.eye(w, dtype=np.uint64)
                det[m] = 0
                continue
            i, row = found
            b = j + 1 + i
            if b < w:  # a row of the block: row j's reduced row moves to b
                G[m, b] = G[m, j]
            G[m, j] = row
            A[m, [k0 + j, k0 + b], k0:] = A[m, [k0 + b, k0 + j], k0:]
            det[m] = -det[m] % p
        det, stop = _gauss_jordan(G, p, j, det)
        if stop == j:
            raise InvariantError(
                f"row exchange at column {k0 + j} did not supply a pivot")
        j = stop
    return det, G.view(np.int64), symmetric


def _schur_update(A, inverse, k0, k1, p, symmetric, reduce):
    """A22 -= (A21 A11^-1) A12 for one member A, one chunk of _ROW_CHUNK
    rows at a time.

    z = A21 A11^-1 is formed chunk by chunk as the ``_split`` limbs of A21
    times [A11^-1; 2**16 A11^-1], and then taken by ``_with_shift``.  When
    ``symmetric``, A12 is A21 transposed and its limbs are those already
    formed; each chunk stops at the column of its own last row, a
    staircase that covers the lower triangle of A22, which stays
    symmetric, with about half the products.  Each chunk's z A12 is formed
    by ``_product`` into one buffer of a single product's output, as many
    columns at a time as one GEMM forms for the chunk's rows, and
    subtracted from the chunk in place; so the temporaries, one member's,
    stay near three times the size of the shifted z.  Chunks start at
    multiples of _PANEL, as _ROW_CHUNK is one, so each later diagonal
    block lies in one chunk and is updated whole.  The chunk is reduced
    mod p only when ``reduce``.  Otherwise its entries move by less than
    2 _PANEL (p//2 + 2) 2**15, a sum of 2 _PANEL products of a
    ``_with_shift`` residue and a 16-bit limb, and ``_delayed_updates``
    says how many such updates keep them below 2**53 - p.
    """
    n, w = A.shape[0], k1 - k0
    below = _split(A[k1:, k0:k1].T, p)  # limbs of A21, transposed
    right = below if symmetric else _split(A[k0:k1, k1:], p)
    inverse_shifted = _with_shift(inverse.T, p).T
    # Fortran order keeps z and both halves of [z | 2**16 z] contiguous
    z = np.empty((n - k1, w), order="F")
    for r0 in range(0, n - k1, _ROW_CHUNK):
        _product(below[:, r0:r0 + _ROW_CHUNK].T, inverse_shifted,
                 z[r0:r0 + _ROW_CHUNK])
    del below
    z = _with_shift(z, p, out=np.empty((n - k1, 2 * w), order="F"))
    g = np.empty(min(_PRODUCT_LIMIT // (2 * w), _ROW_CHUNK * (n - k1)))
    for r0 in range(0, n - k1, _ROW_CHUNK):
        r1 = min(r0 + _ROW_CHUNK, n - k1)
        tile = len(g) // (r1 - r0)
        for c0 in range(0, r1 if symmetric else n - k1, tile):
            c1 = min(c0 + tile, r1 if symmetric else n - k1)
            block = A[k1 + r0:k1 + r1, k1 + c0:k1 + c1]
            update = _product(z[r0:r1], right[:, c0:c1],
                              g[:(r1 - r0) * (c1 - c0)].reshape(block.shape))
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


def _are_residues(A, p):
    """Whether every entry of the stack A is an integer in range(p): its
    least and greatest entries lie there, and every _PANEL rows less their
    floor, formed in one reused scratch, are zero."""
    if not A.size:
        return True
    # a NaN fails both comparisons
    if not (0 <= A.min() and A.max() < p):
        return False
    rows = A.reshape(-1, A.shape[2])
    scratch = np.empty((_PANEL, A.shape[2]))
    for r0 in range(0, len(rows), _PANEL):
        chunk, fraction = rows[r0:r0 + _PANEL], scratch[:len(rows) - r0]
        np.subtract(chunk, np.floor(chunk, out=fraction), out=fraction)
        if fraction.any():
            return False
    return True


def _is_symmetric(A):
    """Whether every member of the stack A equals its transpose, read one
    row chunk at a time."""
    return all(np.array_equal(A[:, r0:r0 + _ROW_CHUNK, :r0 + _ROW_CHUNK],
                              A[:, :r0 + _ROW_CHUNK,
                                r0:r0 + _ROW_CHUNK].swapaxes(1, 2))
               for r0 in range(0, A.shape[1], _ROW_CHUNK))


def mirror_lower(A, k0):
    """Copy the lower triangle of the matrix A[k0:, k0:] onto its upper
    one, one band of _ROW_CHUNK columns at a time."""
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
    if isinstance(matrix, np.ndarray) and matrix.ndim != 2:
        raise NonSquareMatrix(
            f"array of shape {matrix.shape} is not a square matrix")
    if isinstance(matrix, np.ndarray) and matrix.dtype != object:
        kind = matrix.dtype.kind
        if kind not in "biu":
            raise NonIntegerMatrix(
                f"matrix of dtype {matrix.dtype} is not an integer matrix")
        A = np.empty(matrix.shape, dtype=np.float64)
        # unsigned entries are reduced as uint64 and signed ones as int64,
        # so that no entry wraps before it is reduced
        if kind == "u":
            np.remainder(matrix, np.uint64(p), out=A)
        else:
            np.remainder(matrix.astype(np.int64, copy=False), p, out=A)
    else:
        try:
            rows = [[_entry(e, p) for e in row] for row in matrix]
        except TypeError:
            # _entry turns its own TypeError into NonIntegerMatrix, so this
            # one is a matrix, or a row of it, that cannot be iterated
            raise NonSquareMatrix("matrix is not a sequence of rows") \
                from None
        try:
            A = np.array(rows, dtype=np.float64)
        except ValueError:
            raise NonSquareMatrix("matrix rows differ in length") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareMatrix(f"matrix of shape {A.shape} is not square")
    return A


def det_mod_p(matrix, p: int) -> int:
    """Determinant over the field of p elements, as an int in range(p).

    Accepts nested lists of ints, or a 2-D ndarray of integer or object
    dtype; every entry is reduced mod p before any cast.  The residues go
    into a fresh float64 stack of one, which ``det_mod_p_in_place``
    eliminates; a stack of matrices goes to ``det_mod_p_in_place``
    itself.  Raises NonSquareMatrix, NonIntegerMatrix (float, complex or
    other non-integer entries) and ModulusOutOfRange.
    """
    _check_modulus(p)
    return det_mod_p_in_place(_residue_matrix(matrix, p)[None], p)[0]


def det_mod_p_in_place(A: np.ndarray, p: int) -> list[int]:
    """The determinants over the field of p elements of the k members of
    the stack A, as ints in range(p); the elimination overwrites A.

    A is a C-contiguous float64 array of shape (k, n, n) whose entries are
    integers in range(p), and it is the only copy of the matrices that
    the elimination holds.  Blocked right-looking elimination: for each
    diagonal block A11 of _PANEL columns, Gauss-Jordan on [A11 | I] gives
    det(A11) and A11^-1 in uint64 residues, reduced whole mod p every
    ``_delayed_steps(p)`` steps, and the trailing matrix becomes
    A22 - (A21 A11^-1) A12 through exact float64 products on 16-bit limbs,
    each small enough to run on the calling thread.  Gauss-Jordan takes
    each pivot step over the blocks of all members at once, sparing
    numpy's per-call overhead on small orders; the trailing update runs
    one member at a time, so besides A the elimination holds the
    (k, 32, 32) blocks and one member's float64 buffers.  A block whose
    pivot at column j is zero takes, in exchange for its row at position
    j, the first later row, of the block or below it, whose column j is
    nonzero once reduced by the block's pivot rows, and Gauss-Jordan goes
    on from column j; a row-permuted matrix can need such an exchange for
    nearly every column, which makes it the slowest input.  A member with
    no such row has determinant 0 and takes no further update.  A stack
    whose members are all symmetric is eliminated on its lower triangles,
    up to the first zero pivot in any member, and the trailing matrices are
    reduced mod p every ``_delayed_updates(p)`` updates.  Every exchange
    takes the first row that supplies the pivot, so the result is
    deterministic for fixed input, and a member's determinant does not
    depend on the stack it is in.  Exact for 2 <= p < 2**32 (p is assumed
    prime): the uint64 updates stay below 2**64 and every sum of a product
    below 2**53.  Raises ModulusOutOfRange, NonSquareMatrix for a rank
    other than 3 or non-square members, and NotAResidueStack for another
    dtype, a layout that is not C-contiguous, a read-only array or an
    entry that is not an integer in range(p).
    """
    _check_modulus(p)
    if not isinstance(A, np.ndarray) or A.dtype != np.float64:
        raise NotAResidueStack(
            f"expected a float64 ndarray, got {getattr(A, 'dtype', type(A))}")
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise NonSquareMatrix(
            f"array of shape {A.shape} is not a stack of square matrices")
    if not (A.flags.c_contiguous and A.flags.writeable):
        raise NotAResidueStack("the stack must be C-contiguous and writeable")
    if not _are_residues(A, p):
        raise NotAResidueStack(f"an entry is not an integer in range({p})")
    n = A.shape[1]
    symmetric = _is_symmetric(A)
    delay = _delayed_updates(p)
    det = [1] * A.shape[0]
    for k0 in range(0, n, _PANEL):
        if not any(det):
            break
        k1 = min(k0 + _PANEL, n)
        det, inverse, symmetric = _invert_diagonal_block(A, k0, k1, p,
                                                         symmetric, det)
        # a member of determinant 0 takes no further update
        for m in np.flatnonzero(det) if k1 < n else ():
            _schur_update(A[m], inverse[m], k0, k1, p, symmetric,
                          reduce=k0 // _PANEL % delay == delay - 1)
    return det


def _check_modulus(p):
    if not 2 <= p < DET_MODULUS_LIMIT:
        raise ModulusOutOfRange(
            f"modulus {p} outside the exact range 2 <= p < 2**32")


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
                f"{v}^{2 * k}" for v, k in m.exps)
            parts.append(f"(1-{sq})^{e}")
        return " ".join(parts)
