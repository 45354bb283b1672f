"""Prime-field scalars, sparse monomial algebra, a modular determinant kernel.

Scalars are plain ``int`` and ``Mod`` for prime-field evaluation.  The
rings Z[2cos(pi/m)] of the H and I2(m) types are never scalars here: the
matrix engine of ``coxeter_core`` embeds them into integer matrices through
the companion matrix of the minimal polynomial (``minimal_polynomial_2cos``).
Everything is immutable and exact.  Floating point appears only in the
``det_mod_p`` kernel, and only for integers below 2**53, which float64 holds
and sums exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DivisionByZero,
    InvariantError,
    MixedRings,
    ModulusOutOfRange,
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
_PANEL = 32  # columns eliminated per panel
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
    at most 2**31 * 2**15 each: below 2**52 for k <= _PANEL.
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


def _eliminate_panel(A, k0, k1, p):
    """Eliminate columns k0..k1-1 below the diagonal, first-nonzero pivoting.

    Row swaps are applied to the trailing columns of ``A`` too.  Returns the
    determinant of the pivot block with its sign, and the multipliers as
    residues with ``LT[j, i]`` for row k0 + i and column k0 + j; or
    ``(0, None)`` when a column has no pivot.  The panel is held transposed
    and unreduced: w - 1 rank-one updates of at most 2**47 each keep it
    below 2**53.
    """
    w = k1 - k0
    PT = A[k0:, k0:k1].T.copy()
    LT = np.zeros(PT.shape, dtype=np.int64)
    det = 1
    for j in range(w):
        col = _residues(PT[j, j:], p)
        if not col[0]:
            nz = np.flatnonzero(col)
            if nz.size == 0:
                return 0, None
            a, b = j, j + int(nz[0])
            PT[:, [a, b]] = PT[:, [b, a]]
            LT[:, [a, b]] = LT[:, [b, a]]
            A[[k0 + a, k0 + b], k1:] = A[[k0 + b, k0 + a], k1:]
            col[[0, b - j]] = col[[b - j, 0]]
            det = -det
        pivot = int(col[0])
        det = det * pivot % p
        # (p - 1)**2 < 2**64: the multipliers are formed in uint64
        f = (col[1:].view(np.uint64) * np.uint64(pow(pivot, -1, p))
             % np.uint64(p)).view(np.int64)
        LT[j, j + 1:] = f
        if j + 1 < w:
            row = _residues(PT[j + 1:, j], p)
            PT[j + 1:, j + 1:] -= (_split(row[None, :], p).T
                                   @ _with_shift(f[:, None], p).T)
    return det, LT


def _unit_lower_inverse(LT, p):
    """Residues of L^-1, L unit lower triangular with L[i, j] = LT[j, i]."""
    w = LT.shape[0]
    up = np.uint64(p)
    inv = np.eye(w, dtype=np.uint64)
    for j in range(w - 1):
        below = inv[j + 1:]
        below += up - np.outer(LT[j, j + 1:w].view(np.uint64), inv[j]) % up
        below %= up
    return inv.view(np.int64)


def _schur_update(A, LT, k0, k1, p):
    """A22 -= L21 U12 mod p, with U12 = L11^-1 A12, in row chunks."""
    w = k1 - k0
    a12 = _residues(A[k0:k1, k1:], p)
    u12 = _with_shift(_unit_lower_inverse(LT[:, :w], p), p) @ _split(a12, p)
    right = _split(_residues(u12, p), p)
    left = _with_shift(LT[:, w:].T, p)
    for r0 in range(0, left.shape[0], _ROW_CHUNK):
        r1 = r0 + _ROW_CHUNK
        block = A[k1 + r0:k1 + r1, k1:]
        g = left[r0:r1] @ right
        np.subtract(block, g, out=g)
        _reduce(g, p, out=block)


def det_mod_p(matrix, p: int) -> Mod:
    """Determinant over the field of p elements.

    Accepts nested int lists, Mod entries, or an integer ndarray.  Blocked
    right-looking LU with first-nonzero pivoting: panels of _PANEL columns
    are eliminated one column at a time, and the trailing matrix is updated
    by exact float64 GEMMs on 16-bit limbs.  Exact for 2 <= p < 2**32 (p is
    assumed prime); deterministic for fixed input.  Raises NonSquareMatrix
    and ModulusOutOfRange.
    """
    if not 2 <= p < DET_MODULUS_LIMIT:
        raise ModulusOutOfRange(
            f"modulus {p} outside the exact range 2 <= p < 2**32")
    if isinstance(matrix, np.ndarray):
        M = matrix.astype(np.int64) % p
    else:
        rows = [[(e.value if isinstance(e, Mod) else int(e)) % p for e in row]
                for row in matrix]
        try:
            M = np.array(rows, dtype=np.int64)
        except ValueError:
            raise NonSquareMatrix("matrix rows differ in length") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquareMatrix(f"matrix of shape {M.shape} is not square")
    n = M.shape[0]
    A = M.astype(np.float64)  # every entry stays an integer of size <= p
    del M
    det = 1
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        d, LT = _eliminate_panel(A, k0, k1, p)
        if LT is None:
            return Mod(0, p)
        det = det * d % p
        if k1 < n:
            _schur_update(A, LT, k0, k1, p)
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
