"""Unit tests for the exact arithmetic layer."""

import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxvar import group
from coxvar.exact_algebra import (
    DET_MODULUS_LIMIT,
    Factorization,
    Mod,
    Monomial,
    det_mod_p,
    minimal_polynomial_2cos,
)
from coxvar.errors import (
    CoxvarError,
    DivisionByZero,
    MixedRings,
    ModulusOutOfRange,
    NonIntegerMatrix,
    NonSquareMatrix,
)
from coxvar.varchenko import modular_matrix, primes_list

P = 2147483659


# -- minimal polynomials -----------------------------------------------------


def test_minimal_polynomial_2cos_known_values():
    # 2cos(pi/3) = 1, 2cos(pi/4) = sqrt2, 2cos(pi/5) = phi,
    # 2cos(pi/6) = sqrt3, 2cos(pi/12) has degree 4
    assert minimal_polynomial_2cos(3) == (1, -1)
    assert minimal_polynomial_2cos(4) == (1, 0, -2)
    assert minimal_polynomial_2cos(5) == (1, -1, -1)
    assert minimal_polynomial_2cos(6) == (1, 0, -3)
    assert minimal_polynomial_2cos(12) == (1, 0, -4, 0, 1)


@pytest.mark.parametrize("m", range(3, 16))
def test_minimal_polynomial_has_2cos_as_root(m):
    import math
    x = 2 * math.cos(math.pi / m)
    coeffs = minimal_polynomial_2cos(m)
    val = 0.0
    for c in coeffs:
        val = val * x + c
    assert abs(val) < 1e-9
    assert coeffs[0] == 1  # monic


# -- Mod ---------------------------------------------------------------------


@given(st.integers(0, P - 1), st.integers(0, P - 1), st.integers(0, P - 1))
def test_mod_field_axioms(a, b, c):
    x, y, z = Mod(a, P), Mod(b, P), Mod(c, P)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == Mod(0, P)
    if a:
        assert x * x.inverse() == Mod(1, P)
        assert x ** (P - 1) == Mod(1, P)


def test_mod_mixed_modulus_rejected():
    with pytest.raises(MixedRings):
        Mod(1, 7) + Mod(1, 11)


def test_mod_zero_division():
    with pytest.raises(DivisionByZero):
        Mod(3, 7) / Mod(0, 7)


# -- modular determinants ----------------------------------------------------


def _det_permanent_style(M, p):
    """Leibniz-formula determinant, the slow independent reference."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term = term * int(M[i][perm[i]]) % p
        total = (total + term) % p
    return total % p


def test_det_mod_p_against_leibniz():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(1, 5)
        M = np.array([[rng.randrange(P) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64)
        assert det_mod_p(M, P).value == _det_permanent_style(M.tolist(), P)


def test_det_mod_p_singular_and_identity():
    M = np.array([[1, 2, 3], [2, 4, 6], [5, 1, 0]], dtype=np.int64)
    assert det_mod_p(M, P).value == 0
    assert det_mod_p(np.eye(6, dtype=np.int64), P).value == 1


def test_det_mod_p_multiplicative():
    rng = random.Random(3)
    for _ in range(25):
        A = np.array([[rng.randrange(100) for _ in range(4)]
                      for _ in range(4)], dtype=np.int64)
        B = np.array([[rng.randrange(100) for _ in range(4)]
                      for _ in range(4)], dtype=np.int64)
        lhs = det_mod_p(A.dot(B) % P, P)
        assert lhs == det_mod_p(A, P) * det_mod_p(B, P)


def det_mod_p_unblocked(matrix, p: int) -> Mod:
    """Reference: the unblocked int64 elimination det_mod_p used to run.

    Accepts nested int lists, Mod entries, or an integer ndarray.  Gaussian
    elimination with first-nonzero pivoting; deterministic for fixed input.
    Requires p < 2**31.5 so products stay within int64.
    """
    if isinstance(matrix, np.ndarray):
        M = matrix.astype(np.int64) % p
    else:
        rows = [[e.value if isinstance(e, Mod) else int(e) for e in row]
                for row in matrix]
        M = np.array(rows, dtype=np.int64) % p
    n = M.shape[0]
    assert M.shape == (n, n)
    det = 1
    for k in range(n):
        col = M[k:, k]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            return Mod(0, p)
        piv = k + int(nz[0])
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
            det = -det
        pivval = int(M[k, k])
        det = det * pivval % p
        if k + 1 < n:
            inv = pow(pivval, p - 2, p)
            factors = M[k + 1:, k] * inv % p
            M[k + 1:, k:] = (M[k + 1:, k:] - np.outer(factors, M[k, k:])) % p
    return Mod(det, p)


def _agree_with_reference(M, p):
    det = det_mod_p(M, p)
    assert det == det_mod_p_unblocked(M, p)
    return det.value


# orders on both sides of the 32-column panel and the 128-row update chunk
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 129, 300])
def test_det_mod_p_matches_unblocked_reference(n):
    rng = np.random.default_rng(n)
    for p in primes_list(3):
        _agree_with_reference(rng.integers(0, p, size=(n, n)), p)


@pytest.mark.parametrize("c", [0, 5, 40, 69])
def test_det_mod_p_singular_column_found_after_pivoting(c):
    # column c is a combination of the columns before it, so it becomes
    # zero below the diagonal only once those columns are eliminated
    rng = np.random.default_rng(c)
    n = 70
    M = rng.integers(0, P, size=(n, n))
    coeffs = rng.integers(0, P, size=c).astype(object)
    M[:, c] = (M[:, :c].astype(object) @ coeffs) % P if c else 0
    assert _agree_with_reference(M, P) == 0


def test_det_mod_p_singular_repeated_rows():
    rng = np.random.default_rng(4)
    M = rng.integers(0, P, size=(100, 100))
    M[77] = M[3]
    assert _agree_with_reference(M, P) == 0


def _perm_sign(perm):
    sign = 1
    seen = np.zeros(len(perm), dtype=bool)
    for i in range(len(perm)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _shuffled_upper_triangular(n, p, rng):
    """Rows of a random upper triangular matrix in shuffled order, and its
    determinant mod p."""
    U = np.triu(rng.integers(0, p, size=(n, n)))
    np.fill_diagonal(U, rng.integers(1, p, size=n))
    perm = rng.permutation(n)
    expect = _perm_sign(perm)
    for d in np.diag(U):
        expect = expect * int(d) % p
    return U[perm], expect % p


@pytest.mark.parametrize("n", [7, 33, 70, 140])
def test_det_mod_p_row_swaps(n):
    # rows of an upper triangular matrix in shuffled order: every column
    # needs a swap to find its pivot; det = sign(perm) * prod(diagonal)
    rng = np.random.default_rng(n)
    shuffled, expect = _shuffled_upper_triangular(n, P, rng)
    assert _agree_with_reference(shuffled, P) == expect
    # a random mix of the shuffled rows keeps the swaps nontrivial
    L = np.tril(rng.integers(0, 2, size=(n, n)), -1) + np.eye(n, dtype=int)
    mixed = (L.astype(object) @ shuffled.astype(object)) % P
    assert _agree_with_reference(mixed.astype(np.int64), P) == expect


def _exchange_case(name):
    """Order-300 matrices whose diagonal blocks need rows from far below.

    M = L T mod P, with L unit lower triangular of 0/1 entries, keeps the
    Schur complements of T up to row mixing.  T is upper triangular except
    that T[100, 100] = 0 and T[290, 100] != 0: in the fourth panel column
    100 is zero on the block and on every row below it except row 290 and
    the rows L mixes it into, although the raw entries of column 100 are
    nonzero on most rows.  In "no-pivot-middle-panel" column 170 is moreover
    a combination of the columns before it, so the exchange in the sixth
    panel finds no row and the determinant is 0.
    """
    n, c = 300, 100
    rng = np.random.default_rng(300)
    T = np.triu(rng.integers(0, P, size=(n, n)))
    np.fill_diagonal(T, rng.integers(1, P, size=n))
    T[c, c] = 0
    T[290, c] = rng.integers(1, P)
    L = np.tril(rng.integers(0, 2, size=(n, n)), -1) + np.eye(n, dtype=int)
    M = (L @ T) % P  # below 300 * 2**32: exact in int64
    if name == "no-pivot-middle-panel":
        coeffs = rng.integers(0, P, size=170).astype(object)
        M[:, 170] = (M[:, :170].astype(object) @ coeffs) % P
    return M


@pytest.mark.parametrize("name", ["pivot-far-below", "no-pivot-middle-panel"])
def test_det_mod_p_block_exchange_matches_reference(name):
    det = _agree_with_reference(_exchange_case(name), P)
    assert (det == 0) == (name == "no-pivot-middle-panel")


@pytest.mark.parametrize("p", primes_list(5))
def test_det_mod_p_extreme_entries(p):
    # all entries p - 1: the largest limbs, rank one
    assert _agree_with_reference(np.full((40, 40), p - 1), p) == 0
    assert det_mod_p([[p - 1]], p).value == p - 1
    # p - 1 off the diagonal, 0 on it: (p-1)^n * (-1)^(n-1) * (n-1)
    n = 40
    M = np.full((n, n), p - 1)
    np.fill_diagonal(M, 0)
    expect = pow(p - 1, n, p) * (-1) ** (n - 1) * (n - 1) % p
    assert _agree_with_reference(M, p) == expect


def test_det_mod_p_real_chamber_matrix():
    g = group("B4")
    rng = random.Random(5)
    values = np.array([rng.randrange(1, P) for _ in range(g.num_reflections)],
                      dtype=np.int64)
    M = modular_matrix(g, values, P)
    assert M.shape == (384, 384)
    assert _agree_with_reference(M, P) != 0


def test_det_mod_p_exact_below_2_pow_32():
    # the largest prime below 2**32, beyond the unblocked kernel's range:
    # det(perm * L * U) = sign * prod(diag U) with L unit lower triangular
    p = 4294967291
    assert p < DET_MODULUS_LIMIT
    n = 200
    rng = np.random.default_rng(32)
    L = np.tril(rng.integers(0, p, size=(n, n)), -1)
    np.fill_diagonal(L, 1)
    U = np.triu(rng.integers(0, p, size=(n, n)))
    np.fill_diagonal(U, rng.integers(1, p, size=n))
    # exact L @ U mod p in int64 through 16-bit limbs of U
    lo, hi = U & 0xFFFF, U >> 16
    M = (L @ lo % p + ((L @ hi) % p << 16)) % p
    expect = 1
    for d in np.diag(U):
        expect = expect * int(d) % p
    assert det_mod_p(M, p).value == expect
    reversal_sign = (-1) ** (n * (n - 1) // 2)
    assert det_mod_p(M[::-1], p).value == expect * reversal_sign % p
    B = rng.integers(0, p, size=(n, n))
    blo, bhi = B & 0xFFFF, B >> 16
    MB = (M @ blo % p + ((M @ bhi) % p << 16)) % p
    assert det_mod_p(MB, p) == det_mod_p(M, p) * det_mod_p(B, p)


EDGE_P = 4294967291  # the largest prime below 2**32: the tightest bounds


@pytest.mark.parametrize("n", [33, 64, 130])
@pytest.mark.parametrize("c", [EDGE_P - 1, (EDGE_P + 1) // 2])
def test_det_mod_p_scaled_all_ones_minus_identity_at_the_edge_prime(n, c):
    # det(c (J - I)) = c**n * (-1)**(n-1) * (n-1); p - 1 is the largest
    # residue of the uint64 Gauss-Jordan, and (p + 1)/2, taken as
    # -(p - 1)/2, the largest in magnitude that the limb products see
    M = np.full((n, n), c, dtype=np.int64)
    np.fill_diagonal(M, 0)
    expect = pow(c, n, EDGE_P) * (-1) ** (n - 1) * (n - 1) % EDGE_P
    assert det_mod_p(M, EDGE_P).value == expect


@pytest.mark.parametrize("n", [33, 70, 140])
def test_det_mod_p_row_swaps_at_the_edge_prime(n):
    # shuffled rows make nearly every diagonal block singular, so the row
    # exchange runs at the largest prime as well
    rng = np.random.default_rng(n + 1)
    shuffled, expect = _shuffled_upper_triangular(n, EDGE_P, rng)
    assert det_mod_p(shuffled, EDGE_P).value == expect
    perm = rng.permutation(n)
    perm_matrix = np.eye(n, dtype=np.int64)[perm]
    assert det_mod_p(perm_matrix, EDGE_P).value == _perm_sign(perm) % EDGE_P
    assert det_mod_p(perm_matrix * 5, EDGE_P).value == \
        _perm_sign(perm) * pow(5, n, EDGE_P) % EDGE_P
    # one transposition across the first block: a single exchange, det -1
    swap = np.eye(n, dtype=np.int64)
    swap[[0, n - 1]] = swap[[n - 1, 0]]
    assert det_mod_p(swap, EDGE_P).value == EDGE_P - 1


def test_det_mod_p_reads_integer_arrays_without_wrapping():
    # uint64 entries above 2**63 and object entries above 2**64 are
    # reduced mod p before any cast to a fixed-width type
    assert det_mod_p(np.array([[2 ** 64 - 1]], dtype=np.uint64), 7).value == 1
    assert det_mod_p(np.array([[10 ** 30]], dtype=object), 7).value == \
        10 ** 30 % 7
    rng = random.Random(64)
    big = [[rng.randrange(2 ** 64) for _ in range(3)] for _ in range(3)]
    expect = _det_permanent_style([[e % P for e in row] for row in big], P)
    assert det_mod_p(np.array(big, dtype=np.uint64), P).value == expect
    huge = [[e * 2 ** 70 + 1 for e in row] for row in big]
    expect = _det_permanent_style([[e % P for e in row] for row in huge], P)
    assert det_mod_p(np.array(huge, dtype=object), P).value == expect
    assert det_mod_p(huge, P).value == expect
    small = np.array([[-3, 1], [2, 5]], dtype=np.int8)
    assert det_mod_p(small, P).value == -17 % P


@pytest.mark.parametrize("matrix", [
    np.array([[1.5]]),
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[1j]]),
    np.array([["1"]]),
    [[1, 2.5], [3, 4]],
    np.array([[1, 0.5], [0, 1]], dtype=object),
], ids=["float", "integral-float", "complex", "str", "list-float",
        "object-float"])
def test_det_mod_p_rejects_non_integer_entries(matrix):
    # float entries used to be truncated: [[1.5]] gave 1
    with pytest.raises(NonIntegerMatrix) as info:
        det_mod_p(matrix, P)
    assert isinstance(info.value, CoxvarError)
    assert isinstance(info.value, ValueError)


def test_det_mod_p_rejects_mod_entries_of_another_modulus():
    with pytest.raises(MixedRings):
        det_mod_p([[Mod(3, 5)]], 7)
    with pytest.raises(MixedRings):
        det_mod_p(np.array([[Mod(1, 7), 0], [0, Mod(3, 11)]], dtype=object), 7)
    assert det_mod_p([[Mod(3, 7), 1], [0, Mod(2, 7)]], 7) == Mod(6, 7)


def test_det_mod_p_rejects_non_square():
    with pytest.raises(NonSquareMatrix):
        det_mod_p(np.zeros((2, 3), dtype=np.int64), P)
    with pytest.raises(NonSquareMatrix):
        det_mod_p(np.zeros(4, dtype=np.int64), P)
    with pytest.raises(NonSquareMatrix):
        det_mod_p([[1, 2], [3]], P)


@pytest.mark.parametrize("p", [0, 1, DET_MODULUS_LIMIT, 2 ** 61 - 1])
def test_det_mod_p_rejects_modulus_outside_exact_range(p):
    # at 2**61 - 1 the int64 kernel silently returned a wrong value
    with pytest.raises(ModulusOutOfRange):
        det_mod_p(np.eye(3, dtype=np.int64), p)


# -- monomials and factorizations --------------------------------------------


def test_monomial_basics():
    m = Monomial.from_vars(["a2", "a1", "a2"])
    assert str(m) == "a1*a2^2"
    assert m.degree == 3
    assert str(Monomial.from_vars([])) == "1"
    assert (m * m).degree == 6
    assert m ** 3 == Monomial.from_dict({"a1": 3, "a2": 6})


@given(st.dictionaries(st.sampled_from(["x", "y", "z"]),
                       st.integers(1, 6), max_size=3),
       st.dictionaries(st.sampled_from(["x", "y", "z"]),
                       st.integers(1, 6), max_size=3))
def test_monomial_eval_is_multiplicative(d1, d2):
    point = {"x": 17, "y": 91, "z": 1234}
    m1, m2 = Monomial.from_dict(d1), Monomial.from_dict(d2)
    assert (m1 * m2).eval_mod(point, P) == \
        m1.eval_mod(point, P) * m2.eval_mod(point, P) % P


def test_factorization_normalize_idempotent_and_order_free():
    a = Monomial.from_vars(["a1"])
    b = Monomial.from_vars(["a1", "a2"])
    f1 = Factorization(((a, 2), (b, 1), (a, 3)))
    f2 = Factorization(((b, 1), (a, 5)))
    assert f1.normalize() == f2.normalize()
    assert f1.normalize().normalize() == f1.normalize()
    assert str(f1.normalize()) == "(1-a1^2)^5 (1-a1^2a2^2)^1"


def test_factorization_product_and_eval():
    a = Monomial.from_vars(["a1"])
    b = Monomial.from_vars(["a2"])
    f = Factorization(((a, 2),)) * Factorization(((b, 1), (a, 1)))
    point = {"a1": 5, "a2": 9}
    expect = pow(1 - 25, 3, P) * (1 - 81) % P
    assert f.eval_mod(point, P).value == expect % P
    assert f.scale_exponents(2).eval_mod(point, P).value == \
        expect * expect % P


def test_factorization_total_degree_and_sympy():
    import sympy
    a = Monomial.from_vars(["a1"])
    ab = Monomial.from_vars(["a1", "a2"])
    f = Factorization(((a, 2), (ab, 1))).normalize()
    # (1-a1^2)^2 (1-a1^2 a2^2): degree 4 + 4
    assert f.total_degree == 8
    a1, a2 = sympy.symbols("a1 a2")
    assert sympy.expand(f.to_sympy() -
                        (1 - a1 ** 2) ** 2 * (1 - a1 ** 2 * a2 ** 2)) == 0
