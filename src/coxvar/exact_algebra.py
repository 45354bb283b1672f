"""Prime-field scalars, sparse monomial algebra, a modular determinant kernel.

Scalars are plain ``int`` and ``Mod`` for prime-field evaluation.  The
rings Z[2cos(pi/m)] of the H and I2(m) types are never scalars here: the
matrix engine of ``coxeter_core`` embeds them into integer matrices through
the companion matrix of the minimal polynomial (``minimal_polynomial_2cos``).
Everything is immutable and exact.

``det_mod_p`` is a blocked elimination over F_p for any p < 2**32.  Each
32 x 32 diagonal block is inverted by Gauss-Jordan in uint64 residues,
where every update stays below p**2 < 2**64; the rest of the matrix is
updated through float64 GEMMs on 16-bit limbs, where every sum is an
integer below 2**53, which float64 holds and sums exactly.  A block that
is singular mod p exchanges a row with one from below and is inverted
again, so a row-permuted matrix, which needs that for nearly every
column, is the slowest input.  Floating point appears nowhere else.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DivisionByZero,
    InvariantError,
    MixedRings,
    ModulusOutOfRange,
    NonIntegerMatrix,
    NonSquareMatrix,
    ParameterOutOfRange,
    UnassignedVariable,
)


@lru_cache(maxsize=None)
def minimal_polynomial_2cos(m: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2cos(pi/m), descending integer coefficients."""
    if m < 3:
        raise ParameterOutOfRange(f"bond label m = {m}; need m >= 3")
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / m), x, polys=True)
    coeffs = tuple(int(c) for c in poly.all_coeffs())
    if coeffs[0] != 1:
        raise InvariantError(f"minimal polynomial of 2cos(pi/{m}) is not monic")
    return coeffs


@dataclass(frozen=True)
class Mod:
    """Residue in the prime field of p elements."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other):
        if isinstance(other, int):
            return Mod(other, self.p)
        if isinstance(other, Mod):
            if other.p != self.p:
                raise MixedRings("Mod operands with different moduli")
            return other
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Mod(self.value + o.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Mod(-self.value, self.p)

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Mod(self.value - o.value, self.p)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return Mod(self.value * o.value, self.p)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise DivisionByZero("inverse of 0 mod p")
        return Mod(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e):
        return Mod(pow(self.value, e, self.p), self.p)


# Blocked elimination over F_p after Dumas, Giorgi and Pernet, "Dense linear
# algebra over word-size prime fields", ACM TOMS 35(3), 2008.  Entries live
# in float64 as integers; a product of two residues is formed from 16-bit
# limbs, so that every sum BLAS forms stays an exact integer below 2**53.
DET_MODULUS_LIMIT = 1 << 32  # det_mod_p is exact for 2 <= p below this
_PANEL = 32  # order of the diagonal blocks inverted one at a time
_ROW_CHUNK = 128  # trailing rows per Schur-update GEMM, to bound temporaries


def _split(x, p):
    """Limbs [lo; hi] of residues x, stacked on axis 0, as float64.

    Each x in [0, p) is taken in (-p/2, p/2] and written lo + 2**16 hi with
    |lo|, |hi| <= 2**15.
    """
    b = x - p * (x > p // 2)
    hi = (b + (1 << 15)) >> 16
    lo = b - (hi << 16)
    return np.concatenate([lo, hi]).astype(np.float64)


def _with_shift(x, p):
    """[x | 2**16 x mod p] for residues x, in (-p/2, p/2], as float64.

    Times ``_split`` of an inner dimension k this is a sum of 2k terms of
    at most 2**31 * 2**15 each: below 2**52 for k <= _PANEL, the inner
    dimension of every product the kernel forms (A21 times the block
    inverse, the trailing update, the reduction of a column below the
    block).  Added to an entry of A, below p/2 + 1 < 2**31, the sum stays
    below 2**53.
    """
    both = np.concatenate([x, (x << 16) % p], axis=-1)
    return (both - p * (both > p // 2)).astype(np.float64)


def _reduce(d, p, out):
    """out = d - p * round(d / p), so |out| <= p/2 + 1, for |d| < 2**53."""
    q = d * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    np.subtract(d, q, out=out)


def _residues(a, p):
    """Residues in [0, p) of float64 integers below 2**53."""
    return a.astype(np.int64) % p


def _gauss_jordan(G, p):
    """Gauss-Jordan on the w x w block G of uint64 residues, in place.

    This is [A11 | I] reduced to [I | A11^-1] with the inverse stored
    over the block: after step j, column j holds the inverse's column, not
    a unit vector.  Pivots are the first nonzero entry at or below the
    diagonal of the current column; each update adds at most p (p - 1) to
    an entry below p, and p**2 - 1 < 2**64.  Returns ``(det, j, rows)``
    with ``rows[i]`` the block row now at position i.  When j equals w,
    det is det(A11) and G is A11^-1.  Otherwise column j has no pivot:
    G[:j, j] is column j of the j reduced pivot rows, which are 1 in their
    own column and 0 in the other columns before j, and det is meaningless.
    """
    w = G.shape[0]
    up = np.uint64(p)
    rows = list(range(w))
    det = 1
    for j in range(w):
        if not G[j, j]:
            nz = np.flatnonzero(G[j + 1:, j])
            if nz.size == 0:
                return det, j, rows
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
    # G is the inverse of the block with its rows in the order ``rows``
    G[:, rows] = G.copy()
    return det % p, w, rows


def _invert_diagonal_block(A, k0, k1, p):
    """Determinant and inverse of A11 = A[k0:k1, k0:k1], exchanging rows.

    Gauss-Jordan runs on the block alone.  If column j of A11 has no pivot,
    column j of the rows below the block is reduced against the j pivot
    rows, the first row with a nonzero entry there is exchanged for the
    block row at position j (over columns k0 onward), and the block is
    inverted again from the start.  The exchange raises the rank of the
    block's first j + 1 columns to j + 1, so each redo passes a later
    column: at most w exchanges per block, and a redo that does not pass a
    later column raises InvariantError.  Returns ``(d, inverse)``,
    d the determinant of the final A11 times the sign of the exchanges, or
    ``(0, None)`` when no row below can supply a pivot, so that det(A) = 0.
    """
    w = k1 - k0
    sign = 1
    last = -1
    while True:
        G = _residues(A[k0:k1, k0:k1], p).view(np.uint64)
        d, j, rows = _gauss_jordan(G, p)
        if j == w:
            return sign * d % p, G.view(np.int64)
        if j <= last:
            raise InvariantError(
                f"row exchange at column {k0 + last} did not advance the "
                "diagonal block's pivots")
        last = j
        below = _residues(A[k1:, k0:k0 + j], p)
        g = _with_shift(below, p) @ _split(G[:j, j].view(np.int64), p)
        nz = np.flatnonzero(_residues(A[k1:, k0 + j] - g, p))
        if nz.size == 0:
            return 0, None
        a, b = k0 + rows[j], k1 + int(nz[0])
        A[[a, b], k0:] = A[[b, a], k0:]
        sign = -sign


def _schur_update(A, inverse, k0, k1, p):
    """A22 -= (A21 A11^-1) A12 mod p, in row chunks."""
    z = _with_shift(_residues(A[k1:, k0:k1], p), p) @ _split(inverse, p)
    left = _with_shift(_residues(z, p), p)
    right = _split(_residues(A[k0:k1, k1:], p), p)
    for r0 in range(0, left.shape[0], _ROW_CHUNK):
        r1 = r0 + _ROW_CHUNK
        block = A[k1 + r0:k1 + r1, k1:]
        g = left[r0:r1] @ right
        np.subtract(block, g, out=g)
        _reduce(g, p, out=block)


def _entry(e, p):
    if isinstance(e, Mod):
        if e.p != p:
            raise MixedRings(f"Mod entry of modulus {e.p} in a matrix mod {p}")
        return e.value
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
        # unsigned entries are reduced as uint64, signed ones as int64, so
        # that no entry wraps before it is reduced
        if kind == "u":
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


def det_mod_p(matrix, p: int) -> Mod:
    """Determinant over the field of p elements.

    Accepts nested lists of ints and Mod entries, or an ndarray of integer
    or object dtype; every entry is reduced mod p before any cast.  Blocked
    right-looking elimination: for each diagonal block A11 of _PANEL
    columns, Gauss-Jordan on [A11 | I] gives det(A11) and A11^-1 in uint64
    residues, and the trailing matrix becomes A22 - (A21 A11^-1) A12
    through exact float64 GEMMs on 16-bit limbs.  A block singular mod p
    at column j takes, in exchange for its row at position j, the first row
    below whose column j is nonzero once reduced by the block's pivot rows,
    and is inverted again; a row-permuted matrix can need such an exchange
    for nearly every column, which makes it the slowest input.  Pivots are
    the first nonzero entry wherever one is searched, so the result is
    deterministic for fixed input.  Exact for 2 <= p < 2**32 (p is assumed
    prime): the uint64 updates stay below p**2 < 2**64 and every GEMM sum
    below 2**53.  Raises NonSquareMatrix, NonIntegerMatrix (float, complex
    or other non-integer entries), MixedRings (a Mod entry of another
    modulus) and ModulusOutOfRange.
    """
    if not 2 <= p < DET_MODULUS_LIMIT:
        raise ModulusOutOfRange(
            f"modulus {p} outside the exact range 2 <= p < 2**32")
    A = _residue_matrix(matrix, p)
    n = A.shape[0]
    det = 1
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        d, inverse = _invert_diagonal_block(A, k0, k1, p)
        if inverse is None:
            return Mod(0, p)
        det = det * d % p
        if k1 < n:
            _schur_update(A, inverse, k0, k1, p)
    return Mod(det, p)


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
            val = point[v]
            if isinstance(val, Mod):
                val = val.value
            r = r * pow(val % p, e, p) % p
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

    def eval_mod(self, point, p) -> Mod:
        r = 1
        for m, e in self.factors:
            val = m.eval_mod(point, p)
            r = r * pow((1 - val * val) % p, e, p) % p
        return Mod(r, p)

    @property
    def total_degree(self) -> int:
        return sum(e * 2 * m.degree for m, e in self.factors)

    def variables(self):
        vs = set()
        for m, _ in self.factors:
            vs.update(m.variables())
        return sorted(vs)

    def to_sympy(self):
        import sympy

        expr = sympy.Integer(1)
        for m, e in self.factors:
            term = sympy.Integer(1)
            for v, k in m.exps:
                term *= sympy.Symbol(v) ** k
            expr *= (1 - term**2) ** e
        return expr

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
