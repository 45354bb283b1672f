"""Reflection arrangement combinatorics: edges and their multiplicities.

Edges are identified purely by their closed sets of reflections; no
geometric subspace arithmetic happens anywhere.  The edges and the closed
product formula for their multiplicities need only the reflection table,
never W; its roots are numbered as W numbers its reflections, so edges
carry the same reflection indices either way.  An independent
chamber-counting oracle computes each multiplicity again over the
enumerated group, in one pass per edge: it narrows the chambers to those
that can span the edge, then counts, for every hyperplane on the edge at
once, those whose face on it does.

An `Arrangement` computes each Coxeter class's edges and multiplicity
once, into its class table, which lives exactly as long as it does; the
oracle keeps nothing from one edge to the next.
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
    known_reflection_count,
    reflection_table,
)
from .errors import (
    InvarianceViolation,
    InvariantError,
    NoFullSupportReflection,
    OrderLimitExceeded,
    ReducibleSubset,
)


def _largest_class(comp) -> int:
    """Members of the largest class of reflections of one component: all
    of them unless an even bond splits them in two."""
    if comp.letter == "B":
        return max(comp.param * (comp.param - 1), comp.param)  # long, short
    if comp.letter == "F":
        return 12
    if comp.letter == "I" and comp.param % 2 == 0:
        return comp.param // 2
    return known_reflection_count(comp.letter, comp.param)


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

    @cached_property
    def roots(self) -> ReflectionTable:
        """The reflection table.  A component whose largest class of
        reflections passes ``limit`` is refused first: every class holds
        a simple reflection, whose one-node orbit ``classes`` walks."""
        if any(_largest_class(c) > self.limit
               for c in self.diagram.components):
            raise OrderLimitExceeded(
                f"an orbit passed {self.limit} members (the limit)")
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
        repeated = sum(len(e) - len(_first_occurrences(e, bits))
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

    def _chamber_counts(self, edge: Edge) -> np.ndarray:
        """|L(E, t)| for each hyperplane t of the edge, in the edge's order.

        The face of chamber x on t spans the reflections D[x, T_K], where K
        is the support of t^(x^-1).  Row y of W's root images, mod |T|, is
        D at y^-1; the sum runs over all of W, so row y stands for chamber
        x = y^-1.  Each row is a permutation, so D[x, T_K] = E exactly when
        |T_K| = |E| and every entry lies in E, which narrows the chambers
        one column of T_K at a time.  Then t^(x^-1) is the u of T_K with
        D[x, u] = t, so one bincount per u of support K counts every
        hyperplane at once.  T_K determines K, so no chamber is counted
        twice.  Both lookups take the 2|T| signed roots, sign ignored.
        """
        g = self.group
        g.refl_ids  # checks that W numbers the reflections as the roots do
        images, T = g.root_images, g.num_reflections
        inE = np.zeros(T, dtype=bool)
        inE[list(edge.reflections)] = True
        inE = np.tile(inE, 2)
        counts = np.zeros(2 * T, dtype=np.int64)
        for Kmask in map(_mask, self.coxeter_class(edge.class_J)):
            TK = self.roots.reflections_in(Kmask)
            if len(TK) != len(edge):
                continue
            found = np.flatnonzero(inE[images[:, TK[0]]])
            for u in TK[1:]:
                found = found[inE[images[found, u]]]
            for u in TK[self.roots.support[TK] == Kmask]:
                counts += np.bincount(images[found, u], minlength=2 * T)
        return (counts[:T] + counts[T:])[list(edge.reflections)]

    def multiplicity_oracle(self, edge: Edge) -> int:
        """l(E): half the chamber count, checked for hyperplane independence."""
        t0, *others = edge.reflections
        c, *rest = map(int, self._chamber_counts(edge))
        if c % 2:
            raise InvarianceViolation(f"|L(E,{t0})| = {c} is odd")
        for u, cu in zip(others, rest):
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
