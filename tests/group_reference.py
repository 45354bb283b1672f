"""References for the group and chamber-set tests, kept out of the library.

The paper proves its multiplicity formula by splitting each chamber set
L(E, t) into blocks indexed by (K, u).  That proof device, and the
parabolic data over W behind it (W_J, the minimal coset representatives
X_J, X(S,J) and the normalizer N_W(W_J) as element sets), check the
library; its commands never run them.  Each function takes an enumerated
group ``g`` or an ``Arrangement`` ``ar`` over one.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from coxvar.arrangement import Arrangement, Edge
from coxvar.coxeter_core import EnumeratedGroup, _mask
from coxvar.errors import CoxvarError, InvariantError


class BlocksOverlap(CoxvarError):
    pass


class SupportMismatch(CoxvarError, ValueError):
    pass


# -- element calculus --------------------------------------------------------
# W acts faithfully on R^n by its geometric representation, so an element
# is found by its matrix, rounded: products and inverses read W's stored
# words and nothing of its table.


def geometric_matrices(g: EnumeratedGroup):
    """M[x]: float64 matrix of x in the geometric representation.

    The bilinear form is B(alpha_i, alpha_j) = -cos(pi / m_ij), s_i maps v to
    v - 2 B(alpha_i, v) alpha_i, and M[x] is the product of the matrices of
    the letters of the stored reduced word of x.  Returns (M, gens).
    """
    bonds = np.array(g.diagram.bonds, dtype=float)
    B = -np.cos(np.pi / bonds)
    gens = np.eye(g.n) - 2 * np.eye(g.n)[:, :, None] * B[:, None, :]
    M = np.empty((g.order, g.n, g.n))
    M[0] = np.eye(g.n)
    for x in range(1, g.order):
        M[x] = M[g.parent[x]] @ gens[g.gen_of[x]]
    return M, gens


def _key(m):
    return np.rint(m * 1e6).astype(np.int64).tobytes()


@lru_cache(maxsize=8)
def _representation(g: EnumeratedGroup):
    M, gens = geometric_matrices(g)
    return M, gens, {_key(m): x for x, m in enumerate(M)}


def element_of_matrix(g: EnumeratedGroup, m) -> int:
    return _representation(g)[2][_key(m)]


def mul(g: EnumeratedGroup, x: int, y: int) -> int:
    M = _representation(g)[0]
    return element_of_matrix(g, M[x] @ M[y])


def element_of_word(g: EnumeratedGroup, word) -> int:
    gens = _representation(g)[1]
    m = np.eye(g.n)
    for s in word:
        m = m @ gens[s]
    return element_of_matrix(g, m)


def inverse(g: EnumeratedGroup, x: int) -> int:
    return element_of_matrix(g, np.linalg.inv(_representation(g)[0][x]))


@lru_cache(maxsize=8)
def inverses(g: EnumeratedGroup) -> np.ndarray:
    """inv[x] = x^-1, for every element x."""
    M = _representation(g)[0]
    return np.array([element_of_matrix(g, m) for m in np.linalg.inv(M)])


def longest_element(g: EnumeratedGroup) -> int:
    return int(np.argmax(g.length))


def inversion_set(g: EnumeratedGroup, x: int) -> set[int]:
    return set(np.nonzero(g.inversion_table[x])[0].tolist())


def separating_set(g: EnumeratedGroup, x: int, y: int) -> set[int]:
    N = g.inversion_table
    return set(np.nonzero(N[x] ^ N[y])[0].tolist())


# -- the diagram -------------------------------------------------------------


def connected_subsets_by_scan(diagram) -> list[tuple[int, ...]]:
    """Every nonempty connected subset J of the nodes, by a search of the
    bond graph (edges where m_ij >= 3) from each of the 2^rank - 1 node
    masks, sorted by size and then as tuples."""
    n, bonds = diagram.rank, diagram.bonds
    out = []
    for mask in range(1, 1 << n):
        J = [i for i in range(n) if mask >> i & 1]
        stack, seen = [J[0]], {J[0]}
        while stack:
            i = stack.pop()
            for j in J:
                if j not in seen and bonds[i][j] >= 3:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == len(J):
            out.append(tuple(J))
    return sorted(out, key=lambda J: (len(J), J))


# -- parabolic subgroups -----------------------------------------------------


def parabolic_members(g: EnumeratedGroup, J):
    """Element ids of W_J (those whose inversion set lies in T_J)."""
    TJ = g.roots.reflections_in(_mask(J))
    outside = np.setdiff1d(np.arange(g.num_reflections), TJ)
    ok = ~g.inversion_table[:, outside].any(axis=1)
    return np.nonzero(ok)[0]


def min_coset_reps(g: EnumeratedGroup, J):
    """X_J: elements with no left descent in J."""
    if len(J) == 0:
        return np.arange(g.order)
    ok = ~g.inversion_table[:, list(J)].any(axis=1)
    return np.nonzero(ok)[0]


def stabilizing_reps(g: EnumeratedGroup, X, J):
    """Members x of X with J^x = J (setwise)."""
    if len(J) == 0:
        return X
    block = np.sort(g.conj_tables[np.ix_(X, list(J))], axis=1)
    ok = (block == np.array(sorted(J))[None, :]).all(axis=1)
    return X[ok]


@dataclass
class ParabolicData:
    """W_J and its normalizer as element sets, for the chamber-set blocks."""

    J: tuple[int, ...]
    group: EnumeratedGroup
    W_J: np.ndarray
    T_J: np.ndarray
    X_SJ: np.ndarray
    normalizer_order: int


def parabolic_data(g: EnumeratedGroup, J) -> ParabolicData:
    J = tuple(sorted(int(s) for s in J))
    W_J = parabolic_members(g, J)
    X_SJ = stabilizing_reps(g, min_coset_reps(g, J), J)
    return ParabolicData(J=J, group=g, W_J=W_J,
                         T_J=g.roots.reflections_in(_mask(J)), X_SJ=X_SJ,
                         normalizer_order=len(W_J) * len(X_SJ))


def normalizer_members(pd: ParabolicData):
    """N_W(W_J) = W_J * X(S,J), materialized as a sorted id array."""
    g = pd.group
    out = {mul(g, int(u), int(x)) for u in pd.W_J for x in pd.X_SJ}
    if len(out) != pd.normalizer_order:
        raise InvariantError(
            f"W_J X(S,J) has {len(out)} elements, not "
            f"|N_W(W_J)| = {pd.normalizer_order}")
    return np.array(sorted(out), dtype=np.int64)


# -- chamber faces -----------------------------------------------------------


def edge_lookup(ar: Arrangement) -> dict[frozenset, Edge]:
    return {frozenset(e.reflections): e for e in ar.relevant_edges()}


def minimal_edge_through_chamber_face(ar: Arrangement, lookup, x: int,
                                      t: int) -> Edge:
    """The edge spanned by the face of chamber x on hyperplane t.

    ``lookup`` is ``edge_lookup(ar)``.
    """
    roots, g = ar.roots, ar.group
    D = g.conj_tables
    TK = roots.reflections_in(int(roots.support[D[inverse(g, x), t]]))
    return lookup[frozenset(int(D[x, u]) for u in TK)]


# -- the explicit chamber-set decomposition ----------------------------------


def conjugator(g: EnumeratedGroup, U, T, members) -> int:
    """Some c among the members with {u^c : u in U} = T."""
    D = g.conj_tables
    target = np.sort(np.ravel(T))
    for x in members:
        if np.array_equal(np.sort(D[x, U]), target):
            return int(x)
    raise InvariantError(f"no conjugator from {U} to {T}")


def decompose_L(ar: Arrangement, J, t: int):
    """Materialize the block decomposition of L(E_{T_J}, t).

    Returns (blocks, union) where blocks maps (K, u) to an element set; u
    runs over the library's floor of t.
    """
    J = tuple(sorted(J))
    g = ar.group
    if int(ar.roots.support[t]) != _mask(J):
        raise SupportMismatch(f"reflection {t} does not have support {J}")
    pd = parabolic_data(g, J)
    N_members = normalizer_members(pd)
    s, chain = ar.roots.chain(t)
    v = element_of_word(g, chain[::-1])  # t = v^-1 s v
    # centralizer of t in W_J, and N_{W_J}(W_{s})^v which must equal it
    D = g.conj_tables
    WJ = pd.W_J
    cent_t = [int(x) for x in WJ if int(D[x, t]) == t]
    vinv = inverse(g, v)
    cent_s_v = {mul(g, mul(g, vinv, int(c)), v)
                for c in WJ if int(D[c, s]) == s}
    if cent_s_v != set(cent_t):
        raise InvariantError(
            f"centralizer of reflection {t} in W_J is not the "
            f"centralizer of {s} conjugated by element {v}")
    floor = ar._floor_and_x_J_s(t)[1].tolist()
    lengths = g.length
    blocks = {}
    union = set()
    for K in ar.coxeter_class(J):
        # minimal-length representative of the coset c N_W(W_J), where
        # c is any element conjugating W_K onto W_J
        TK = ar.roots.reflections_in(_mask(K))
        cKJ = conjugator(g, TK, pd.T_J, range(g.order))
        coset = [mul(g, cKJ, int(x)) for x in N_members]
        cK = min(coset, key=lambda e: (int(lengths[e]), e))
        for u in floor:
            cut = conjugator(g, [u], [t], WJ)
            coset_u = [mul(g, int(cut), int(c)) for c in cent_t]
            cu = min(coset_u, key=lambda e: (int(lengths[e]), e))
            block = set()
            for x in pd.X_SJ:
                a = mul(g, cK, int(x))
                for c in cent_t:
                    block.add(mul(g, mul(g, a, cu), int(c)))
            key = (K, u)
            if union & block:
                raise BlocksOverlap(f"block {key} overlaps previous blocks")
            blocks[key] = block
            union |= block
    return blocks, union
