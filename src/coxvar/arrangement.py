"""Reflection arrangement combinatorics: edges and their multiplicities.

Edges are identified purely by their closed sets of reflections; no
geometric subspace arithmetic happens anywhere.  The edges and the closed
product formula for their multiplicities need only the reflection table,
never W; its roots are numbered as W numbers its reflections, so edges
carry the same reflection indices either way.  An independent
chamber-counting oracle computes each multiplicity again over the
enumerated group: it tests which chambers can span an edge once per
edge, then counts, for every hyperplane on the edge, those whose face on
it does.

An `Arrangement` computes each Coxeter class's edges and multiplicity
once, into its class table, and keeps beside it only the oracle's
candidates per edge, so both live exactly as long as it does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coxeter_core import (
    DEFAULT_ORDER_LIMIT,
    EnumeratedGroup,
    ReflectionTable,
    _bits,
    _first_occurrences,
    _mask,
    _orbit,
    build_group,
    reflection_table,
)
from .errors import (
    InvarianceViolation,
    InvariantError,
    NoFullSupportReflection,
    ReducibleSubset,
    ReflectionNotOnEdge,
)


@dataclass(frozen=True)
class Edge:
    """A relevant edge, stored as its closed set of reflection indices."""

    reflections: tuple[int, ...]
    class_J: tuple[int, ...]
    coset_id: int

    def __len__(self):
        return len(self.reflections)


@dataclass(frozen=True)
class MultiplicityReport:
    class_J: tuple[int, ...]
    label: str
    ingredients: tuple[int, int, int, int]  # |floor|, |[J]|, |X(S,J)|, |X(J,{s})|
    l_formula: int
    l_oracle: int | None = None

    @property
    def match(self):
        return self.l_oracle is None or self.l_oracle == self.l_formula


@dataclass(frozen=True, eq=False)
class CoxeterClass:
    """A Coxeter class: its representative J, first of ``members`` = [J]
    in diagram order, the orbit of T_J as sorted rows of reflections in
    coset (lexicographic) order, and l, the product of the ingredients."""

    J: tuple[int, ...]
    label: str
    members: tuple[tuple[int, ...], ...]
    edges: np.ndarray
    ingredients: tuple[int, int, int, int]  # as in MultiplicityReport
    l: int


class Arrangement:
    """Cached per-group view of the reflection arrangement.

    Built from an enumerated group, or from a diagram alone; then W is
    enumerated, up to ``limit`` elements, only when ``group`` is first
    read, and ``limit`` also bounds the members of each edge orbit.  The
    reflection table is built only when ``roots`` is first read, so a
    command can refuse a group on its diagram's counts at no cost.
    """

    def __init__(self, group: EnumeratedGroup | None = None, diagram=None,
                 limit: int = DEFAULT_ORDER_LIMIT):
        if group is not None:
            self.group = group
            diagram = group.diagram
            limit = max(limit, group.order)
        self.diagram = diagram
        self.limit = limit
        # (reflections, class_J) -> (inverses of chambers, K masks, counts)
        self._candidates = {}

    @cached_property
    def roots(self) -> ReflectionTable:
        return reflection_table(self.diagram)

    @cached_property
    def group(self) -> EnumeratedGroup:
        return build_group(self.diagram, limit=self.limit)

    # -- Coxeter classes and edges, from the reflection table ---------------

    @cached_property
    def classes(self) -> dict[tuple[int, ...], CoxeterClass]:
        """The table of Coxeter classes, keyed by representative.

        Each irreducible J, in diagram order, that lies in no class found
        so far represents a new one: its edges are the orbit of T_J, and
        [J] the K whose T_K is one of them.  No edge may occur in two
        classes.
        """
        roots = self.roots
        # T_K, as a tuple of roots, -> K, for every irreducible K
        subsets = {tuple(roots.reflections_in(_mask(K)).tolist()): K
                   for K in self.diagram.irreducible_subsets()}
        table, seen, widths = {}, set(), {}
        for TJ, J in subsets.items():
            if J not in seen:
                rows = _orbit([TJ], roots.R, limit=self.limit)
                members = sorted(subsets[e] for e in map(tuple, rows.tolist())
                                 if e in subsets)
                table[J] = c = self._coxeter_class(J, rows, members)
                seen.update(members)
                widths.setdefault(c.edges.shape[1], []).append(c.edges)
        bits = max(1, (roots.num_reflections - 1).bit_length())
        repeated = sum(len(e) - len(_first_occurrences(e, bits)[0])
                       for e in map(np.concatenate, widths.values()))
        if repeated:
            raise InvariantError(f"{repeated} edges occur in two classes")
        return table

    def _coxeter_class(self, J, rows, members) -> CoxeterClass:
        """The record of the class ``members`` of J, whose edges are rows.

        The edges are the orbit W / N_W(W_J), so |X(S,J)| = |N_W(W_J)| /
        |W_J| is |W| / (|W_J| times their number).  The floor and
        |X(J,{s})| come from the W_J-class of t_J, the first root of
        support J, whose reflection is first in W's element order.  Every
        W_J-class of reflections of support J must give the same product.
        """
        sub = self.diagram.subdiagram(J)
        x_S_J, rest = divmod(self.diagram.order, sub.order * len(rows))
        if rest:
            raise InvariantError(
                f"|W_J| = {sub.order} times the {len(rows)} edges of class "
                f"{J} does not divide |W| = {self.diagram.order}, so the "
                "edges are no orbit W / N_W(W_J)")
        full = np.flatnonzero(self.roots.support == _mask(J)).tolist()
        if not full:
            raise NoFullSupportReflection(f"no full-support reflection for {J}")
        reports, covered = [], set()
        for t in full:
            if t not in covered:
                conjugates, floor, x = self._floor_and_x_J_s(t)
                covered.update(conjugates.tolist())
                reports.append((len(floor), len(members), x_S_J, x))
        products = {a * b * c * d for a, b, c, d in reports}
        if len(products) != 1:
            raise InvariantError(
                f"ingredient products for {J} depend on the full-support "
                f"reflection: {reports}")
        # in R's dtype, one byte per index: E8's edges take 2.6, not 17.7 MB
        edges = rows[np.lexsort(rows.T[::-1])].astype(self.roots.R.dtype)
        return CoxeterClass(J, sub.label, tuple(members), edges, reports[0],
                            products.pop())

    def _floor_and_x_J_s(self, t: int):
        """The W_J-class of root t (J its support), floor(t) and |X(J,{s})|.

        floor(t) holds the members of the class with support J, sorted.  A
        finite Coxeter diagram is a forest, so reflections of W_J that are
        conjugate in W are conjugate in W_J, and the class is also t's
        class in W.  s is a simple reflection conjugate to s_t in W_J, so
        |X(J,{s})|, half the order of the centralizer of s in W_J, is
        |W_J| / (2 |t^W_J|).
        """
        roots = self.roots
        members = roots.parabolic_class(t)
        order_J = self.diagram.subdiagram(_bits(int(roots.support[t]))).order
        x, rest = divmod(order_J, 2 * len(members))
        if rest:
            raise InvariantError(
                f"2 |t^W_J| = {2 * len(members)} does not divide "
                f"|W_J| = {order_J}")
        floor = members[roots.support[members] == roots.support[t]]
        return members, floor, x

    def _class_of(self, J) -> CoxeterClass:
        """The record of J's class; ReducibleSubset unless J is irreducible."""
        J = tuple(sorted(J))
        for c in self.classes.values():
            if J in c.members:
                return c
        raise ReducibleSubset(f"J = {J} is not irreducible")

    def coxeter_class(self, J):
        """[J]: the subsets K of S with W_K conjugate to W_J, sorted."""
        return list(self._class_of(J).members)

    def class_representatives(self):
        """One representative per Coxeter class of irreducible subsets."""
        return list(self.classes)

    def relevant_edges(self):
        """All relevant edges, sorted by size and then by reflections."""
        return sorted((Edge(tuple(row), J, cid)
                       for J in self.class_representatives()
                       for cid, row in enumerate(
                           self.classes[J].edges.tolist())),
                      key=lambda e: (len(e), e.reflections))

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
        inverses, spans = self._candidates_spanning(edge, t)
        return set(self.group.inv[inverses[spans]].tolist())

    def count_L(self, edge: Edge, t: int) -> int:
        """|L(E, t)|, counted without building the chamber set.

        Each candidate occurs once, so this is len(chambers_spanning).
        """
        return int(np.count_nonzero(self._candidates_spanning(edge, t)[1]))

    def _candidates_spanning(self, edge: Edge, t: int):
        """The inverses of the edge's candidates, and which candidates span
        it from t."""
        if t not in edge.reflections:
            raise ReflectionNotOnEdge(f"reflection {t} not on edge")
        inverses, masks, sizes = self._edge_candidates(edge)
        support = self.roots.support[self.group.conj_tables[inverses, t]]
        return inverses, support == np.repeat(masks, sizes)

    def _edge_candidates(self, edge: Edge):
        """Chambers x with D[x, T_K] = E for some K in the edge's class.

        Returns the inverses x^-1 of those chambers, which every t reads as
        D[x^-1, t], as int32 and grouped by K, the bitmask of each K and the
        number of chambers of each: the memo keeps one mask per K, not one
        per chamber.  The edge's class is part of the memo key: one
        reflection set can be labelled with different classes.  The
        chambers are narrowed one column t of T_K at a time, to those with
        D[x, t] in E, so the scan holds O(|W|) indices and never a
        |W| x |T_K| block of D.
        """
        key = (edge.reflections, edge.class_J)
        if key not in self._candidates:
            g = self.group
            D = g.conj_tables
            inE = np.zeros(g.num_reflections, dtype=bool)
            inE[list(edge.reflections)] = True
            size = int(inE.sum())
            inverses, masks = [np.empty(0, dtype=np.int32)], []
            for Kmask in {_mask(K) for K in self.coxeter_class(edge.class_J)}:
                TK = self.roots.reflections_in(Kmask)
                if len(TK) != size:
                    continue
                found = np.flatnonzero(inE[D[:, TK[0]]])
                for t in TK[1:]:
                    found = found[inE[D[found, t]]]
                inverses.append(g.inv[found].astype(np.int32))
                masks.append(Kmask)
            self._candidates[key] = (
                np.concatenate(inverses), np.array(masks, dtype=np.int64),
                np.array([len(x) for x in inverses[1:]], dtype=np.int64))
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
        """The ingredient cardinalities of the class of J and l, their
        product, from the class table."""
        c = self._class_of(J)
        return MultiplicityReport(tuple(sorted(J)), c.label, c.ingredients,
                                  c.l)

    def multiplicity_reports(self, with_oracle=False):
        """One report per irreducible Coxeter class."""
        out = []
        for J in self.class_representatives():
            rep = self.multiplicity_formula(J)
            if with_oracle:
                TJ = self.roots.reflections_in(_mask(J))
                rep = replace(rep, l_oracle=self.multiplicity_oracle(
                    Edge(tuple(TJ.tolist()), J, 0)))
            out.append(rep)
        return out
