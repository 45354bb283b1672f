"""Reflection arrangement combinatorics: edges and their multiplicities.

Edges are identified purely by their closed sets of reflections; no
geometric subspace arithmetic happens anywhere.  Each edge multiplicity is
computed twice: by the closed product formula over parabolic data, and by
an independent chamber-counting oracle that scans the whole group.  The
oracle tests which chambers can span an edge once per edge, then counts,
for every hyperplane on the edge, those whose face on it does.

An `Arrangement` memoizes its edges, class representatives, parabolic
data and oracle candidates on the instance, so they live exactly as long
as it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from .coxeter_core import EnumeratedGroup, _mask
from .errors import (
    BlocksOverlap,
    InvarianceViolation,
    InvariantError,
    NoFullSupportReflection,
    ReducibleSubset,
    ReflectionNotOnEdge,
    SupportMismatch,
)

FORMULA_CROSSCHECK_LIMIT = 1152  # brute-force checks only below this order


def _memoized(method):
    """Cache a method without arguments in its instance's ``_memo``."""
    name = method.__name__

    @wraps(method)
    def cached(self):
        if name not in self._memo:
            self._memo[name] = method(self)
        return self._memo[name]
    return cached


@dataclass(frozen=True)
class Edge:
    """A relevant edge, stored as its closed set of reflection indices."""

    reflections: tuple[int, ...]
    class_J: tuple[int, ...]
    witness: int  # element w with reflections == T_J^w
    coset_id: int

    def __len__(self):
        return len(self.reflections)


@dataclass
class MultiplicityReport:
    class_J: tuple[int, ...]
    label: str
    ingredients: tuple[int, int, int, int]  # |floor|, |[J]|, |X(S,J)|, |X(J,{s})|
    l_formula: int
    l_oracle: int | None = None

    @property
    def match(self):
        return self.l_oracle is None or self.l_oracle == self.l_formula


class Arrangement:
    """Cached per-group view of the reflection arrangement."""

    def __init__(self, group: EnumeratedGroup, floor_ambient: str = "WJ"):
        self.group = group
        self.floor_ambient = floor_ambient
        self._parabolic_cache = {}
        self._memo = {}
        self._candidates = {}  # (reflections, class_J) -> (chambers, masks)

    # -- basic chamber combinatorics ----------------------------------------

    def separating_set(self, x: int, y: int) -> set[int]:
        N = self.group.inversion_table
        return set(np.nonzero(N[x] ^ N[y])[0].tolist())

    def parabolic(self, J):
        J = tuple(sorted(J))
        if J not in self._parabolic_cache:
            self._parabolic_cache[J] = self.group.parabolic_data(J)
        return self._parabolic_cache[J]

    # -- relevant edges ------------------------------------------------------

    @_memoized
    def class_representatives(self):
        """One representative per Coxeter class of irreducible subsets."""
        reps = []
        seen = set()
        for J in self.group.diagram.irreducible_subsets():
            if J in seen:
                continue
            pd = self.parabolic(J)
            seen.update(K for K, _ in pd.coxeter_class)
            reps.append(J)
        return reps

    @_memoized
    def relevant_edges(self):
        """All relevant edges, deduplicated and globally sorted."""
        g = self.group
        edges = []
        for J in self.class_representatives():
            pd = self.parabolic(J)
            rows, wits = g.subset_orbit(pd.T_J)
            expected = g.order // pd.normalizer_order
            if len(rows) != expected:
                raise InvariantError(
                    f"edge orbit of class {J} has {len(rows)} members, "
                    f"but |W|/|N_W(W_J)| = {expected}")
            # coset ids number the edges of a class in lexicographic order
            for cid, i in enumerate(np.lexsort(rows.T[::-1])):
                edges.append(Edge(
                    reflections=tuple(rows[i].tolist()),
                    class_J=J,
                    witness=int(wits[i]),
                    coset_id=cid,
                ))
        uniq = {e.reflections: e for e in edges}
        if len(uniq) != len(edges):
            raise InvariantError(
                f"{len(edges) - len(uniq)} edges occur in two classes")
        return sorted(uniq.values(), key=lambda e: (len(e), e.reflections))

    @_memoized
    def edge_lookup(self):
        return {frozenset(e.reflections): e for e in self.relevant_edges()}

    def minimal_edge_through_chamber_face(self, x: int, t: int) -> Edge:
        """The edge spanned by the face of chamber x on hyperplane t."""
        g = self.group
        D = g.conj_tables
        Kmask = int(g.refl_support[D[g.inv[x], t]])
        TK = g.reflection_indices_in(Kmask)
        refl = frozenset(int(D[x, u]) for u in TK)
        return self.edge_lookup()[refl]

    # -- multiplicity: chamber-counting oracle -------------------------------

    def chambers_spanning(self, edge: Edge, t: int) -> set[int]:
        """All x whose face on hyperplane t spans exactly this edge.

        The face of x on t spans the reflections D[x, T_K], where K is the
        support of t^(x^-1) = D[x^-1, t].  Only the support depends on t, so
        the test "D[x, T_K] = E" runs once per edge, in `_edge_candidates`,
        and each t keeps the candidates x whose support is their own K.
        That test is exact without a sort: each row of D is a permutation of
        the reflection indices, because conjugation by x is a bijection, so
        D[x, T_K] has |T_K| distinct entries, and its set equals E exactly
        when |T_K| = |E| and every entry lies in E.  A chamber is a
        candidate for at most one K: D[x, T_K] = E means T_K is the image of
        E under conjugation by x^-1, and T_K determines K, its simple
        reflections.  So the sets are those of the per-t test.
        """
        xs, spans = self._candidates_spanning(edge, t)
        return set(xs[spans].tolist())

    def count_L(self, edge: Edge, t: int) -> int:
        """|L(E, t)|, counted without building the chamber set.

        Each candidate occurs once, so this is len(chambers_spanning).
        """
        return int(np.count_nonzero(self._candidates_spanning(edge, t)[1]))

    def _candidates_spanning(self, edge: Edge, t: int):
        """The edge's candidates, and which of them span it from t."""
        if t not in edge.reflections:
            raise ReflectionNotOnEdge(f"reflection {t} not on edge")
        g = self.group
        xs, masks = self._edge_candidates(edge)
        return xs, g.refl_support[g.conj_tables[g.inv[xs], t]] == masks

    def _edge_candidates(self, edge: Edge):
        """Chambers x with D[x, T_K] = E for some K in the edge's class.

        Returns the chambers and, aligned with them, the bitmask of each
        chamber's K.  The edge's class is part of the memo key: one
        reflection set can be labelled with different classes.
        """
        key = (edge.reflections, edge.class_J)
        if key not in self._candidates:
            g = self.group
            D = g.conj_tables
            inE = np.zeros(g.num_reflections, dtype=bool)
            inE[list(edge.reflections)] = True
            size = int(inE.sum())
            xs = [np.empty(0, dtype=np.int64)]
            masks = [np.empty(0, dtype=np.int64)]
            pd = self.parabolic(edge.class_J)
            for Kmask in {_mask(K) for K, _ in pd.coxeter_class}:
                TK = g.reflection_indices_in(Kmask)
                if len(TK) != size:
                    continue
                found = np.flatnonzero(inE[D[:, TK]].all(axis=1))
                xs.append(found)
                masks.append(np.full(len(found), Kmask, dtype=np.int64))
            self._candidates[key] = (np.concatenate(xs),
                                     np.concatenate(masks))
        return self._candidates[key]

    def multiplicity_oracle(self, edge: Edge) -> int:
        """l(E): half the chamber count, checked for hyperplane independence."""
        t0 = edge.reflections[0]
        c = self.count_L(edge, t0)
        if c % 2:
            raise InvarianceViolation(f"|L(E,{t0})| = {c} is odd")
        for u in edge.reflections[1:]:
            cu = self.count_L(edge, u)
            if cu != c:
                raise InvarianceViolation(
                    f"|L(E,{u})| = {cu} but |L(E,{t0})| = {c}")
        return c // 2

    # -- multiplicity: closed formula ---------------------------------------

    def multiplicity_formula(self, J) -> MultiplicityReport:
        """Ingredient cardinalities and their product for the class of J."""
        J = tuple(sorted(J))
        g = self.group
        pd = self.parabolic(J)
        if not pd.irreducible:
            raise ReducibleSubset(f"J = {J} is not irreducible")
        Jmask = _mask(J)
        full = [t for t in range(g.num_reflections)
                if int(g.refl_support[t]) == Jmask]
        if not full:
            raise NoFullSupportReflection(f"no full-support reflection for {J}")
        reports = []
        choices = full if len(pd.W_J) <= FORMULA_CROSSCHECK_LIMIT else full[:1]
        for tJ in choices:
            s, _v = g.palindromic_decomposition(tJ)
            ing = (
                len(g.floor_class(tJ, ambient=self.floor_ambient)),
                len(pd.coxeter_class),
                len(pd.X_SJ),
                g.x_J_s(J, s),
            )
            reports.append(ing)
        products = {a * b * c * d for a, b, c, d in reports}
        if len(products) != 1:
            raise InvariantError(
                f"ingredient products for {J} depend on the full-support "
                f"reflection: {reports}")
        ing = reports[0]
        return MultiplicityReport(
            class_J=J,
            label=g.diagram.subdiagram_label(J),
            ingredients=ing,
            l_formula=ing[0] * ing[1] * ing[2] * ing[3],
        )

    def multiplicity_reports(self, with_oracle=False):
        """One report per irreducible Coxeter class."""
        out = []
        for J in self.class_representatives():
            rep = self.multiplicity_formula(J)
            if with_oracle:
                pd = self.parabolic(J)
                edge = Edge(
                    reflections=tuple(int(t) for t in pd.T_J),
                    class_J=J, witness=0, coset_id=0)
                rep.l_oracle = self.multiplicity_oracle(edge)
            out.append(rep)
        return out

    # -- the explicit chamber-set decomposition ------------------------------

    def decompose_L(self, J, t: int):
        """Materialize the block decomposition of L(E_{T_J}, t).

        Returns (blocks, union) where blocks maps (K, u) to an element set.
        """
        J = tuple(sorted(J))
        g = self.group
        if int(g.refl_support[t]) != _mask(J):
            raise SupportMismatch(f"reflection {t} does not have support {J}")
        pd = self.parabolic(J)
        N_members = pd.normalizer_members()
        nset = set(int(x) for x in N_members)
        s, v = g.palindromic_decomposition(t)
        # centralizer of t in W_J, and N_{W_J}(W_{s})^v which must equal it
        D = g.conj_tables
        WJ = pd.W_J
        cent_t = [int(x) for x in WJ if int(D[x, t]) == t]
        vinv = int(g.inv[v])
        cent_s_v = {g.mul(g.mul(vinv, int(c)), v)
                    for c in WJ if int(D[c, s]) == s}
        if cent_s_v != set(cent_t):
            raise InvariantError(
                f"centralizer of reflection {t} in W_J is not the "
                f"centralizer of {s} conjugated by element {v}")
        floor = g.floor_class(t, ambient=self.floor_ambient)
        lengths = g.length
        blocks = {}
        union = set()
        for K, cKJ in pd.coxeter_class:
            # minimal-length representative of the coset cKJ * N_W(W_J)
            coset = [g.mul(int(cKJ), int(x)) for x in N_members]
            cK = min(coset, key=lambda e: (int(lengths[e]), e))
            for u in floor:
                cut = self._conjugator(u, t, WJ)
                coset_u = [g.mul(int(cut), int(c)) for c in cent_t]
                cu = min(coset_u, key=lambda e: (int(lengths[e]), e))
                block = set()
                for x in pd.X_SJ:
                    a = g.mul(cK, int(x))
                    for c in cent_t:
                        block.add(g.mul(g.mul(a, cu), int(c)))
                key = (K, u)
                if union & block:
                    raise BlocksOverlap(f"block {key} overlaps previous blocks")
                blocks[key] = block
                union |= block
        return blocks, union

    def _conjugator(self, u: int, t: int, members) -> int:
        """Some c in the given member set with u^c = t."""
        D = self.group.conj_tables
        for x in members:
            if int(D[x, u]) == t:
                return int(x)
        raise InvariantError(f"no conjugator from {u} to {t}")
