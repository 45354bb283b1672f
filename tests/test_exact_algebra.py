"""Unit tests for the exact arithmetic layer."""

import ast
import inspect
import random
import tracemalloc
from collections import namedtuple
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coxvar import exact_algebra, group
from coxvar.exact_algebra import (
    DET_MODULUS_LIMIT,
    Factorization,
    Monomial,
    det_mod_p,
    det_mod_p_in_place,
)
from coxvar.errors import (
    CoxvarError,
    InvariantError,
    ModulusOutOfRange,
    NonIntegerMatrix,
    NonSquareMatrix,
    NotAResidueStack,
)
from coxvar.varchenko import DEFAULT_PRIMES, primes_list
from varchenko_reference import modular_matrix_reference, to_sympy

P = 2147483659
EDGE_P = 4294967291  # the largest prime below 2**32: the tightest bounds


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
        assert det_mod_p(M, P) == _det_permanent_style(M.tolist(), P)


def test_det_mod_p_singular_and_identity():
    M = np.array([[1, 2, 3], [2, 4, 6], [5, 1, 0]], dtype=np.int64)
    assert det_mod_p(M, P) == 0
    assert det_mod_p(np.eye(6, dtype=np.int64), P) == 1


def test_modular_values_are_ints_in_range_p():
    M = np.array([[-3, 1], [2, 5]], dtype=np.int64)
    f = Factorization(((Monomial.from_vars(["a1"]), 3),))
    for value in (det_mod_p(M, 7), det_mod_p([[0, 1], [1, 0]], 7),
                  det_mod_p(np.zeros((2, 2), dtype=np.int64), 7),
                  f.eval_mod({"a1": 2}, 7), f.eval_mod({"a1": 10 ** 20}, 7)):
        assert type(value) is int and 0 <= value < 7
    assert det_mod_p(M, 7) == -17 % 7
    assert f.eval_mod({"a1": 2}, 7) == (1 - 4) ** 3 % 7


def test_det_mod_p_multiplicative():
    rng = random.Random(3)
    for _ in range(25):
        A = np.array([[rng.randrange(100) for _ in range(4)]
                      for _ in range(4)], dtype=np.int64)
        B = np.array([[rng.randrange(100) for _ in range(4)]
                      for _ in range(4)], dtype=np.int64)
        lhs = det_mod_p(A.dot(B) % P, P)
        assert lhs == det_mod_p(A, P) * det_mod_p(B, P) % P


def _mul_mod(a, b, p):
    """a * b mod p for int64 residues below p < 2**32, through the 16-bit
    limbs of b, so that every product stays below 2**48."""
    return (a * (b & 0xFFFF) + (a * (b >> 16) % p << 16)) % p


def _matmul_mod(a, b, p):
    """a @ b mod p for int64 residues below p < 2**32 and an inner
    dimension below 2**15, through the 16-bit limbs of b."""
    return (a @ (b & 0xFFFF) % p + (a @ (b >> 16) % p << 16)) % p


def det_mod_p_unblocked(matrix, p: int) -> int:
    """Reference: the unblocked int64 elimination det_mod_p used to run.

    Accepts nested int lists or an integer ndarray.  Gaussian
    elimination with first-nonzero pivoting; deterministic for fixed input.
    Exact for p < 2**32: products are formed by ``_mul_mod``.
    """
    if isinstance(matrix, np.ndarray):
        M = matrix.astype(np.int64) % p
    else:
        M = np.array([[int(e) for e in row] for row in matrix],
                     dtype=np.int64) % p
    n = M.shape[0]
    assert M.shape == (n, n)
    det = 1
    for k in range(n):
        col = M[k:, k]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            return 0
        piv = k + int(nz[0])
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
            det = -det
        pivval = int(M[k, k])
        det = det * pivval % p
        if k + 1 < n:
            inv = np.int64(pow(pivval, p - 2, p))
            factors = _mul_mod(M[k + 1:, k], inv, p)
            M[k + 1:, k:] = (M[k + 1:, k:]
                             - _mul_mod(factors[:, None], M[k, k:], p)) % p
    return det % p


def _agree_with_reference(M, p):
    det = det_mod_p(M, p)
    assert det == det_mod_p_unblocked(M, p)
    return det


# orders on both sides of the 32-column panel and the 128-row update chunk
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 129, 300])
def test_det_mod_p_matches_unblocked_reference(n):
    rng = np.random.default_rng(n)
    for p in primes_list(3):
        _agree_with_reference(rng.integers(0, p, size=(n, n)), p)


# one trailing update of one member: the panel's first column, the address
# of the member's first entry, and the flags it ran with
Update = namedtuple("Update", "k0 member symmetric reduce")


def _record_updates(monkeypatch):
    """An ``Update`` for every trailing update of det_mod_p_in_place, which
    updates one member at a time; each leaves the entries it keeps, the
    lower triangle of a symmetric matrix, below 2**53 - p, where float64
    is exact."""
    flags = []
    schur_update = exact_algebra._schur_update

    def recording(A, inverse, k0, k1, p, symmetric, reduce):
        assert A.ndim == 2  # one member
        flags.append(Update(k0, A.__array_interface__["data"][0],
                            symmetric, reduce))
        schur_update(A, inverse, k0, k1, p, symmetric, reduce)
        assert np.abs(np.tril(A) if symmetric else A).max() < 2**53 - p

    monkeypatch.setattr(exact_algebra, "_schur_update", recording)
    return flags


def _delay_kept(flags, p):
    """At most _delayed_updates(p) updates of a member from one reduction
    to the next."""
    run = {}
    for u in flags:
        run[u.member] = 0 if u.reduce else run.get(u.member, 0) + 1
        assert run[u.member] < exact_algebra._delayed_updates(p)


def _panel_flags(flags, k):
    """(symmetric, reduce) of each panel, in order, after checking that the
    panel updated k distinct members, each with those same flags."""
    panels = {}
    for u in flags:
        panels.setdefault(u.k0, []).append(u)
    out = []
    for k0 in sorted(panels):
        panel = panels[k0]
        assert len({u.member for u in panel}) == len(panel) == k, k0
        pairs = {(u.symmetric, u.reduce) for u in panel}
        assert len(pairs) == 1, (k0, pairs)
        out.append(pairs.pop())
    return out


SYMMETRIC_PRIMES = [7, DEFAULT_PRIMES[0], EDGE_P]


def test_delayed_updates_per_prime(monkeypatch):
    # three updates between reductions near 2**31, every update near 2**32
    assert exact_algebra._delayed_updates(DEFAULT_PRIMES[0]) == 3
    assert exact_algebra._delayed_updates(EDGE_P) == 1
    assert exact_algebra._delayed_updates(7) > 300 // 32
    # so the leading order-300 block of B4's chamber matrix, nine
    # updates, reduces on one update in three
    flags = _record_updates(monkeypatch)
    det_mod_p(_chamber_matrix("B4", P)[:300, :300], P)
    assert [u.reduce for u in flags] == [i % 3 == 2 for i in range(9)]


@pytest.mark.parametrize("p", [P, EDGE_P], ids=["P", "edge-prime"])
def test_gauss_jordan_delay_keeps_uint64_entries_from_wrapping(p):
    # with Python ints, which do not wrap: an entry is below p after a full
    # reduction and one step adds at most p (p - 1), so c steps between
    # reductions stay below 2**64 and c + 1 would not
    c = exact_algebra._delayed_steps(p)
    assert c == (3 if p == P else 1)
    assert p + c * p * (p - 1) < 2**64 <= p + (c + 1) * p * (p - 1)


@pytest.mark.parametrize("p", SYMMETRIC_PRIMES)
@pytest.mark.parametrize("n", [1, 31, 33, 129, 300])
def test_det_mod_p_symmetric_matches_unblocked_reference(monkeypatch, n, p):
    rng = np.random.default_rng(n)
    R = rng.integers(0, p, size=(n, n))
    S = (R + R.T) % p
    flags = _record_updates(monkeypatch)
    _agree_with_reference(S, p)
    assert len(flags) == (n - 1) // 32
    _delay_kept(flags, p)
    symmetric = [u.symmetric for u in flags]
    # mod 7 a block can be singular, and the general path takes over there
    assert all(symmetric) if p > 7 else \
        symmetric == sorted(symmetric, reverse=True)
    # one entry off symmetry takes the general path throughout
    if n > 1:
        S[0, n - 1] = (S[0, n - 1] + 1) % p
        flags.clear()
        _agree_with_reference(S, p)
        assert not any(u.symmetric for u in flags)
        _delay_kept(flags, p)


def _symmetric_without_pivot(n, p):
    """L diag(S1, J) L^T, with S1 = L1 D L1^T on the first 32 columns, J
    the anti-diagonal matrix and L unit lower triangular and nonzero
    below the diagonal only in those 32 columns.  L1 is random unit lower
    triangular and D diagonal with nonzero entries, so every leading minor
    of S1 is nonzero and the first block needs no exchange, even mod 7.
    Once those columns are eliminated the trailing matrix is J, whose
    first 32 x 32 block is zero, so the symmetric path switches to the
    general one there."""
    rng = np.random.default_rng(n + p % 1000)
    L1 = np.tril(rng.integers(0, p, size=(32, 32)), -1)
    np.fill_diagonal(L1, 1)
    D = np.diag(rng.integers(1, p, size=32))
    X = np.zeros((n, n), dtype=np.int64)
    X[:32, :32] = _matmul_mod(_matmul_mod(L1, D, p), L1.T, p)
    X[32:, 32:] = np.eye(n - 32, dtype=np.int64)[::-1]
    L = np.eye(n, dtype=np.int64)
    L[32:, :32] = rng.integers(0, p, size=(n - 32, 32))
    M = _matmul_mod(_matmul_mod(L, X, p), L.T, p)
    assert (M == M.T).all() and M[32:64, 32:64].any()
    return M


@pytest.mark.parametrize("p", SYMMETRIC_PRIMES)
@pytest.mark.parametrize("n", [129, 300])
def test_det_mod_p_symmetric_block_without_pivot(monkeypatch, n, p):
    M = _symmetric_without_pivot(n, p)
    flags = _record_updates(monkeypatch)
    det = _agree_with_reference(M, p)
    assert det != 0
    assert [u.symmetric for u in flags] == \
        [True] + [False] * (len(flags) - 1)
    _delay_kept(flags, p)


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
    assert det_mod_p([[p - 1]], p) == p - 1
    # p - 1 off the diagonal, 0 on it: (p-1)^n * (-1)^(n-1) * (n-1)
    n = 40
    M = np.full((n, n), p - 1)
    np.fill_diagonal(M, 0)
    expect = pow(p - 1, n, p) * (-1) ** (n - 1) * (n - 1) % p
    assert _agree_with_reference(M, p) == expect


def _chamber_matrix(name, p, seed=5):
    g = group(name)
    rng = random.Random(seed)
    values = np.array([rng.randrange(1, p) for _ in range(g.num_reflections)],
                      dtype=np.int64)
    return modular_matrix_reference(g, values, p)


def test_det_mod_p_real_chamber_matrix():
    M = _chamber_matrix("B4", P)
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
    assert det_mod_p(M, p) == expect
    reversal_sign = (-1) ** (n * (n - 1) // 2)
    assert det_mod_p(M[::-1], p) == expect * reversal_sign % p
    B = rng.integers(0, p, size=(n, n))
    blo, bhi = B & 0xFFFF, B >> 16
    MB = (M @ blo % p + ((M @ bhi) % p << 16)) % p
    assert det_mod_p(MB, p) == det_mod_p(M, p) * det_mod_p(B, p) % p


@pytest.mark.parametrize("n", [33, 64, 130])
@pytest.mark.parametrize("c", [EDGE_P - 1, (EDGE_P + 1) // 2])
def test_det_mod_p_scaled_all_ones_minus_identity_at_the_edge_prime(n, c):
    # det(c (J - I)) = c**n * (-1)**(n-1) * (n-1); p - 1 is the largest
    # residue of the uint64 Gauss-Jordan, and (p + 1)/2, taken as
    # -(p - 1)/2, the largest in magnitude that the limb products see
    M = np.full((n, n), c, dtype=np.int64)
    np.fill_diagonal(M, 0)
    expect = pow(c, n, EDGE_P) * (-1) ** (n - 1) * (n - 1) % EDGE_P
    assert det_mod_p(M, EDGE_P) == expect


@pytest.mark.parametrize("n", [33, 70, 140])
def test_det_mod_p_row_swaps_at_the_edge_prime(n):
    # shuffled rows make nearly every diagonal block singular, so the row
    # exchange runs at the largest prime as well
    rng = np.random.default_rng(n + 1)
    shuffled, expect = _shuffled_upper_triangular(n, EDGE_P, rng)
    assert det_mod_p(shuffled, EDGE_P) == expect
    perm = rng.permutation(n)
    perm_matrix = np.eye(n, dtype=np.int64)[perm]
    assert det_mod_p(perm_matrix, EDGE_P) == _perm_sign(perm) % EDGE_P
    assert det_mod_p(perm_matrix * 5, EDGE_P) == \
        _perm_sign(perm) * pow(5, n, EDGE_P) % EDGE_P
    # one transposition across the first block: a single exchange, det -1
    swap = np.eye(n, dtype=np.int64)
    swap[[0, n - 1]] = swap[[n - 1, 0]]
    assert det_mod_p(swap, EDGE_P) == EDGE_P - 1


def _product_inputs():
    rng = np.random.default_rng(17)
    for n in (1, 33, 129, 300):
        yield f"random-{n}", rng.integers(0, P, size=(n, n))
    yield "F4", _chamber_matrix("F4", P)
    for name in ("pivot-far-below", "no-pivot-middle-panel"):
        yield name, _exchange_case(name)


def test_det_mod_p_products_stay_below_the_threading_size(monkeypatch):
    # every float64 product is small enough for BLAS to form it on the
    # calling thread; np.matmul is recorded, since _product alone calls it
    shapes = []
    matmul = np.matmul

    def recording(a, b, out=None):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, out=out)

    for name, M in _product_inputs():
        expect = det_mod_p(M, P)
        shapes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(exact_algebra.np, "matmul", recording)
            assert det_mod_p(M, P) == expect, name
        assert shapes or M.shape[0] == 1, name
        # a product of stacks is one product per member, of the last two
        # axes
        for (*stack, m, k), (*stack2, k2, n) in shapes:
            assert k == k2 and stack == stack2
            assert m * n * k <= exact_algebra._PRODUCT_LIMIT, (name, m, n, k)


def test_matrix_products_appear_only_in_the_product_helper():
    tree = ast.parse(inspect.getsource(exact_algebra))
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                owner.setdefault(inner, node.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            found.append((node.lineno, owner.get(node)))
        elif isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot"):
            found.append((node.lineno, owner.get(node)))
    assert found, "the kernel forms no product at all"
    assert {name for _, name in found} == {"_product"}, found


def _row_permuted_diagonal(n, p, rng):
    """Rows of a diagonal matrix with nonzero entries, in shuffled order,
    and its determinant mod p.  A diagonal block holds few of its own
    diagonal entries, so nearly every column needs an exchange."""
    diagonal = rng.integers(1, p, size=n)
    perm = rng.permutation(n)
    expect = _perm_sign(perm)
    for d in diagonal:
        expect = expect * int(d) % p
    return np.diag(diagonal)[perm], expect % p


def _count_pivot_steps(monkeypatch):
    """Record (G, start, stop) of every Gauss-Jordan call of det_mod_p."""
    calls = []
    gauss_jordan = exact_algebra._gauss_jordan

    def counting(G, p, start, det):
        det, stop = gauss_jordan(G, p, start, det)
        calls.append((G, start, stop))
        return det, stop

    monkeypatch.setattr(exact_algebra, "_gauss_jordan", counting)
    return calls


@pytest.mark.parametrize("p", [P, EDGE_P], ids=["P", "edge-prime"])
@pytest.mark.parametrize("n", [140, 300])
@pytest.mark.parametrize("build", [_row_permuted_diagonal,
                                   _shuffled_upper_triangular],
                         ids=["row-permuted", "shuffled-upper"])
def test_det_mod_p_resumes_gauss_jordan_after_an_exchange(
        monkeypatch, build, n, p):
    M, expect = build(n, p, np.random.default_rng(n))
    calls = _count_pivot_steps(monkeypatch)
    assert det_mod_p(M, p) == expect
    if p == P:
        assert det_mod_p_unblocked(M, p) == expect
    # each block has its own G, a stack of one w x w block; after an
    # exchange Gauss-Jordan resumes where it stopped, so every block runs
    # exactly w pivot steps
    blocks = []
    for G, start, stop in calls:
        if blocks and blocks[-1][0] is G:
            assert start == blocks[-1][2]
        else:
            assert start == 0
            blocks.append([G, 0, 0])
        blocks[-1][1] += stop - start
        blocks[-1][2] = stop
    assert len(blocks) == -(-n // 32)
    assert [steps for _, steps, _ in blocks] == \
        [G.shape[-1] for G, _, _ in blocks]
    assert all(G.shape[0] == 1 for G, _, _ in blocks)
    assert len(calls) > 2 * len(blocks)  # exchanges did happen


def test_det_mod_p_exchange_that_supplies_no_pivot_raises(monkeypatch):
    # a reduced row whose column j is zero cannot advance the block
    def no_pivot(a21, G, j, p):
        return 0, np.zeros(G.shape[0], dtype=np.int64)

    monkeypatch.setattr(exact_algebra, "_reduced_row_below", no_pivot)
    M, _ = _row_permuted_diagonal(70, P, np.random.default_rng(70))
    with pytest.raises(InvariantError):
        det_mod_p(M, P)


def _missing_pivot_at_column_5(n, p, kind, rng):
    """L T mod p and its determinant: T random upper triangular, L random
    unit lower triangular, so that the row reduced at position i is T[i]
    mixed with T's rows before it.  "inside" swaps T's rows 5 and 20 and
    "below" its rows 5 and 40, so that column 5 finds its pivot at
    position 20, in the first block, or 40, below it; "none" zeroes
    T[5, 5], and column 5 finds no pivot at all."""
    T = np.triu(rng.integers(0, p, size=(n, n)))
    np.fill_diagonal(T, rng.integers(1, p, size=n))
    L = np.tril(rng.integers(0, p, size=(n, n)), -1)
    np.fill_diagonal(L, 1)
    expect = 1
    for d in np.diag(T):
        expect = expect * int(d) % p
    if kind == "none":
        T[5, 5], expect = 0, 0
    else:
        b = 20 if kind == "inside" else 40
        T[[5, b]] = T[[b, 5]]
        expect = -expect % p
    return _matmul_mod(L, T, p), expect


@pytest.mark.parametrize("p", [P, EDGE_P], ids=["P", "edge-prime"])
def test_det_mod_p_stack_exchanges_inside_below_and_none_at_one_column(
        monkeypatch, p):
    # at column 5 of the first block, one member takes a row of its block,
    # one a row below the block and one finds none: every search reads the
    # rows after position 5, and each member's determinant is its own
    n = 70
    rng = np.random.default_rng(5)
    members, expect = zip(*(_missing_pivot_at_column_5(n, p, kind, rng)
                            for kind in ("inside", "below", "none")))
    assert [det_mod_p_unblocked(M, p) for M in members] == list(expect)
    assert 0 not in expect[:2]
    searches = []
    reduced_row_below = exact_algebra._reduced_row_below

    def recording(candidates, G, j, p):
        found = reduced_row_below(candidates, G, j, p)
        searches.append((len(candidates), j, found and j + 1 + found[0]))
        return found

    monkeypatch.setattr(exact_algebra, "_reduced_row_below", recording)
    assert det_mod_p_in_place(_residue_stack(members), p) == list(expect)
    assert searches[:3] == [(n - 6, 5, 20), (n - 6, 5, 40), (n - 6, 5, None)]


def test_det_mod_p_member_singular_at_its_first_block_adds_no_copy():
    # a member whose first column is zero has determinant 0 at once; its
    # trailing matrix is left as it is, so the elimination holds less
    # beside it than beside a random member, and no (n - k0)**2 temporary
    n, p = 1000, 2**31 - 1

    def peak(M):
        A = _residue_stack([M])
        tracemalloc.start()
        try:
            dets = det_mod_p_in_place(A, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return dets, peak

    rng = np.random.default_rng(1000)
    M = rng.integers(0, p, size=(n, n))
    dets, random_peak = peak(M)
    assert dets[0] != 0
    M[:, 0] = 0
    dets, singular_peak = peak(M)
    assert dets == [0] == [det_mod_p_unblocked(M, p)]
    assert singular_peak <= random_peak
    assert singular_peak < 8 * n * n // 4


# -- stacks ------------------------------------------------------------------


def _stack_members(n, p):
    """Five order-n matrices mod p: symmetric; the rows of an upper
    triangular matrix shuffled, so that nearly every block needs a row
    exchange; singular, with a repeated row; random; symmetric."""
    rng = np.random.default_rng(n + p % 1000)

    def symmetric():
        R = rng.integers(0, p, size=(n, n))
        return (R + R.T) % p

    shuffled, _ = _shuffled_upper_triangular(n, p, rng)
    singular = rng.integers(0, p, size=(n, n))
    singular[-1] = singular[0]
    return [symmetric(), shuffled, singular,
            rng.integers(0, p, size=(n, n)), symmetric()]


def _residue_stack(members):
    """Integer residue matrices as the float64 stack det_mod_p_in_place
    takes."""
    return np.array(members, dtype=np.float64)


# orders on both sides of the 32-column panel and the 128-row update chunk
@pytest.mark.parametrize("p", [P, EDGE_P], ids=["P", "edge-prime"])
@pytest.mark.parametrize("n", [31, 33, 130])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_det_mod_p_stack_matches_its_members_taken_alone(monkeypatch, k, n,
                                                         p):
    members = _stack_members(n, p)[:k]
    alone = [det_mod_p(M, p) for M in members]
    assert alone == [det_mod_p_unblocked(M, p) for M in members]
    assert (0 in alone) == (k == 5)  # only the singular member is 0
    flags = _record_updates(monkeypatch)
    calls = _count_pivot_steps(monkeypatch)
    dets = det_mod_p_in_place(_residue_stack(members), p)
    assert dets == alone and all(type(d) is int for d in dets)
    # every member is updated on its own after every panel but the last,
    # all with the same flags: the staircase runs only while every member
    # is symmetric, and each member is reduced in time
    assert [s for s, _ in _panel_flags(flags, k)] == \
        [k == 1] * ((n - 1) // 32)
    _delay_kept(flags, p)
    # Gauss-Jordan runs on the whole stack, and resumes after the shuffled
    # member exchanges rows, from its first block on
    assert all(G.shape[0] == k for G, _, _ in calls)
    resumed = len(calls) > -(-n // 32)
    assert resumed == (k >= 2)


@pytest.mark.parametrize("p", [P, EDGE_P], ids=["P", "edge-prime"])
def test_det_mod_p_stack_leaves_the_staircase_when_one_member_exchanges(
        monkeypatch, p):
    # both members are symmetric; the second needs a row from below in its
    # second block, where every member's trailing matrix is mirrored and
    # the stack goes on over full matrices
    rng = np.random.default_rng(5)
    R = rng.integers(0, p, size=(129, 129))
    members = [(R + R.T) % p, _symmetric_without_pivot(129, p)]
    alone = [_agree_with_reference(M, p) for M in members]
    flags = _record_updates(monkeypatch)
    assert det_mod_p_in_place(_residue_stack(members), p) == alone
    assert [s for s, _ in _panel_flags(flags, 2)] == \
        [True, False, False, False]
    _delay_kept(flags, p)
    # a stack of one symmetric matrix stays on the staircase throughout
    flags.clear()
    assert det_mod_p_in_place(_residue_stack(members[:1]), p) == alone[:1]
    assert [s for s, _ in _panel_flags(flags, 1)] == [True] * 4
    _delay_kept(flags, p)


def test_det_mod_p_stack_temporaries_do_not_grow_with_its_size():
    # Gauss-Jordan runs on the stack's (k, 32, 32) blocks, but the float64
    # trailing update runs one member at a time, so the temporaries of ten
    # order-192 members are little more than those of one; so are they
    # when the last member needs a row exchange in its second block, which
    # mirrors every trailing matrix from its lower triangle
    p = 2**31 - 1

    def peak(k, exchange):
        R = np.random.default_rng(k).integers(0, p, size=(k, 192, 192))
        members = (R + R.swapaxes(1, 2)) % p
        if exchange:
            members[-1] = _symmetric_without_pivot(192, p)
        A = _residue_stack(members)
        del R, members
        tracemalloc.start()
        try:
            dets = det_mod_p_in_place(A, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dets) == k and all(dets)
        return peak

    for exchange in (False, True):
        assert peak(10, exchange) <= 1.5 * peak(1, exchange), exchange


def _first_block_permuted(n, p, rng):
    """L P U and its determinant mod p: U random upper triangular, P a
    shuffle of the first 32 rows, and L unit lower triangular, nonzero
    below the diagonal only in rows 32 on and columns before 32.  The
    first block takes every missing pivot from a later row of its own, and
    the inverse of the exchanged block feeds a trailing update with
    A21 != 0."""
    U = np.triu(rng.integers(0, p, size=(n, n)))
    np.fill_diagonal(U, rng.integers(1, p, size=n))
    perm = np.concatenate([rng.permutation(32), np.arange(32, n)])
    L = np.eye(n, dtype=np.int64)
    L[32:, :32] = rng.integers(0, p, size=(n - 32, 32))
    expect = _perm_sign(perm)
    for d in np.diag(U):
        expect = expect * int(d) % p
    return _matmul_mod(L, U[perm], p), expect % p


@pytest.mark.parametrize("n", [40, 70])
def test_det_mod_p_stack_of_members_with_row_swaps(n):
    # members that exchange rows inside their first block sit next to
    # members that take rows from below
    rng = np.random.default_rng(n)
    members, expect = zip(
        *(_first_block_permuted(n, P, rng) for _ in range(2)),
        *(_shuffled_upper_triangular(n, P, rng) for _ in range(2)))
    assert det_mod_p_in_place(_residue_stack(members), P) == list(expect)


def test_det_mod_p_stack_of_uint32_halves_and_edge_cases():
    # uint32 residues, each read alone by det_mod_p, agree with their
    # float64 stack; an empty stack has no determinants, and a stack of
    # order-0 matrices has determinants 1
    rng = np.random.default_rng(3)
    stack = rng.integers(0, P, size=(3, 40, 40)).astype(np.uint32)
    assert det_mod_p_in_place(_residue_stack(stack), P) == \
        [det_mod_p(M, P) for M in stack]
    assert det_mod_p_in_place(_residue_stack(np.zeros((0, 3, 3))), P) == []
    assert det_mod_p_in_place(_residue_stack(np.zeros((2, 0, 0))), P) == \
        [1, 1]


# -- in-place elimination ----------------------------------------------------


def _in_place_members(n, p):
    """The five ``_stack_members`` and two symmetric matrices that need a
    row exchange: c J, J the anti-diagonal matrix, whose leading block
    has a zero row (all zero from order 64), and, from order 65 on,
    ``_symmetric_without_pivot``, whose second block is zero once the
    first is eliminated."""
    members = _stack_members(n, p)
    members.append(np.eye(n, dtype=np.int64)[::-1] * 3 % p)
    if n > 64:
        members.append(_symmetric_without_pivot(n, p))
    return members


@pytest.mark.parametrize("p", [P, EDGE_P], ids=["P", "edge-prime"])
@pytest.mark.parametrize("n", [33, 130])
def test_det_mod_p_in_place_agrees_with_det_mod_p(monkeypatch, n, p):
    members = _in_place_members(n, p)
    expect = [det_mod_p(M, p) for M in members]
    assert expect[2] == 0 and expect.count(0) == 1  # the singular member
    flags = _record_updates(monkeypatch)
    for M, det in zip(members, expect):
        flags.clear()
        A = M.astype(np.float64)[None]
        assert det_mod_p_in_place(A, p) == [det]
        # symmetry is detected on what the elimination is given: a
        # symmetric member runs the staircase until its first row
        # exchange, which a zero row of its leading block forces at once
        if (M == M.T).all():
            assert flags[0].symmetric == M[:32, :32].any(axis=1).all()
        else:
            assert not any(u.symmetric for u in flags)
    stack = np.stack(members).astype(np.float64)
    dets = det_mod_p_in_place(stack, p)
    assert dets == expect and all(type(d) is int for d in dets)
    # a slice of a stack along its first axis is a stack too
    stack = np.stack(members).astype(np.float64)
    assert det_mod_p_in_place(stack[:2], p) == expect[:2]


def test_det_mod_p_in_place_overwrites_its_argument():
    M = np.eye(40)[::-1] * 5
    A = M[None].copy()
    assert det_mod_p_in_place(A, P) == [det_mod_p(M.astype(np.int64), P)]
    assert not np.array_equal(A[0], M)
    assert det_mod_p_in_place(np.zeros((0, 3, 3)), P) == []
    assert det_mod_p_in_place(np.zeros((2, 0, 0)), P) == [1, 1]


@pytest.mark.parametrize("array, error", [
    (np.eye(3, dtype=np.int64)[None], NotAResidueStack),
    (np.eye(3, dtype=np.float32)[None], NotAResidueStack),
    (np.eye(3, dtype=np.uint32)[None], NotAResidueStack),
    ([[[1.0]]], NotAResidueStack),
    (np.eye(3), NonSquareMatrix),
    (np.zeros((2, 2, 3, 3)), NonSquareMatrix),
    (np.zeros((2, 3, 4)), NonSquareMatrix),
    (np.asfortranarray(np.eye(3)[None].repeat(2, axis=0)), NotAResidueStack),
    (np.eye(6)[None, ::2, ::2], NotAResidueStack),
    (np.eye(3)[None] * P, NotAResidueStack),
    (-np.eye(3)[None], NotAResidueStack),
    (np.eye(3)[None] * 1.5, NotAResidueStack),
    (np.full((1, 2, 2), np.nan), NotAResidueStack),
    (np.full((1, 2, 2), np.inf), NotAResidueStack),
], ids=["int64", "float32", "uint32", "list", "rank-2", "rank-4",
        "non-square", "fortran", "strided", "entry-p", "negative",
        "non-integer", "nan", "inf"])
def test_det_mod_p_in_place_rejects_what_is_not_a_residue_stack(array,
                                                                error):
    with pytest.raises(error) as info:
        det_mod_p_in_place(array, P)
    assert isinstance(info.value, CoxvarError)
    assert isinstance(info.value, ValueError)


def test_det_mod_p_in_place_rejects_a_read_only_stack_and_a_bad_modulus():
    A = np.eye(3)[None]
    A.flags.writeable = False
    with pytest.raises(NotAResidueStack):
        det_mod_p_in_place(A, P)
    for p in (1, DET_MODULUS_LIMIT):
        with pytest.raises(ModulusOutOfRange):
            det_mod_p_in_place(np.eye(3)[None], p)


def test_det_mod_p_reads_integer_arrays_without_wrapping():
    # uint64 entries above 2**63 and object entries above 2**64 are
    # reduced mod p before any cast to a fixed-width type
    assert det_mod_p(np.array([[2 ** 64 - 1]], dtype=np.uint64), 7) == 1
    assert det_mod_p(np.array([[10 ** 30]], dtype=object), 7) == \
        10 ** 30 % 7
    rng = random.Random(64)
    big = [[rng.randrange(2 ** 64) for _ in range(3)] for _ in range(3)]
    expect = _det_permanent_style([[e % P for e in row] for row in big], P)
    assert det_mod_p(np.array(big, dtype=np.uint64), P) == expect
    huge = [[e * 2 ** 70 + 1 for e in row] for row in big]
    expect = _det_permanent_style([[e % P for e in row] for row in huge], P)
    assert det_mod_p(np.array(huge, dtype=object), P) == expect
    assert det_mod_p(huge, P) == expect
    small = np.array([[-3, 1], [2, 5]], dtype=np.int8)
    assert det_mod_p(small, P) == -17 % P


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


def test_det_mod_p_rejects_non_square():
    with pytest.raises(NonSquareMatrix):
        det_mod_p(np.zeros((2, 3), dtype=np.int64), P)
    with pytest.raises(NonSquareMatrix):
        det_mod_p(np.zeros(4, dtype=np.int64), P)
    with pytest.raises(NonSquareMatrix):
        det_mod_p([[1, 2], [3]], P)
    # a flat list or a scalar has no rows to iterate
    for matrix in ([1, 2], 5):
        with pytest.raises(NonSquareMatrix, match="sequence of rows"):
            det_mod_p(matrix, 7)
    # det_mod_p takes one matrix; a stack goes to det_mod_p_in_place,
    # which takes one square in its last two axes, and of three axes
    for stack in (np.zeros((2, 3, 3), dtype=np.int64),
                  np.zeros((2, 3, 3), dtype=object)):
        with pytest.raises(NonSquareMatrix):
            det_mod_p(stack, P)
    for stack in (np.zeros((2, 3, 4)), np.zeros((2, 2, 3, 3))):
        with pytest.raises(NonSquareMatrix):
            det_mod_p_in_place(stack, P)


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
    assert m * m * m == Monomial.from_dict({"a1": 3, "a2": 6})


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
    assert f.eval_mod(point, P) == expect % P
    assert f.scale_exponents(2).eval_mod(point, P) == \
        expect * expect % P


def test_factorization_total_degree_and_sympy():
    import sympy
    a = Monomial.from_vars(["a1"])
    ab = Monomial.from_vars(["a1", "a2"])
    f = Factorization(((a, 2), (ab, 1))).normalize()
    # (1-a1^2)^2 (1-a1^2 a2^2): degree 4 + 4
    assert f.total_degree == 8
    a1, a2 = sympy.symbols("a1 a2")
    assert sympy.expand(to_sympy(f) -
                        (1 - a1 ** 2) ** 2 * (1 - a1 ** 2 * a2 ** 2)) == 0
