"""Finite Coxeter groups: diagrams, the reflection table, exact enumeration.

A diagram is its irreducible components.  Its bond matrix and label are
read from them, and each type's counts (|W|, |T| and the largest class
of reflections) from one dispatch over the type letter.  Its connected
subsets J grow from single nodes, one bonded neighbour at a time, and
J's type is the first type of rank |J| whose own bond matrix, from
``_component_bonds``, has J's shape: the sorted degrees of its nodes,
each with the labels and degrees of its bonded neighbours.  The same
list of types per rank checks each component of a diagram.

Everything starts from one table, the permutation action of the simple
reflections on the roots: I2(m) in closed form, every other irreducible
type as the orbit of its simple roots under exact integer reflections
(Cartan integers, or Z[phi] for H3 and H4), and a product as the disjoint
union of its components' roots.

``ReflectionTable`` reads the reflections off that action without
enumerating W: each positive root stands for its reflection, with its
support, its depth and the conjugation action of S on it.  The roots are
numbered in W's element order, the one numbering of the reflections.
Every ingredient of the multiplicity formula, every edge orbit, the
closed-form determinant and the concordance checks are computed from it.

``EnumeratedGroup`` is W itself, one table of root images: row x holds
the signed root x(alpha_t) for each positive root alpha_t.  It is
enumerated from R alone, each element reached once from its least right
descent, with its reduced-word tree (``parent``, ``gen_of``).  The
conjugation and inversion tables are scatters of its rows, and its
reflections are the table's roots, their ids checked against it.

Every orbit the library needs is an orbit of sets of points under
generators, computed by the one helper ``_orbit``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvariantError,
    NonFiniteDiagram,
    OrderLimitExceeded,
    ParseError,
    RankOutOfRange,
    UnsupportedType,
)

MAX_RANK = 16
DEFAULT_ORDER_LIMIT = 10**6


# |W|, |T| and the size of the largest class of reflections of each
# irreducible type, n its rank or m for I2(m) (Humphreys, Table 2.2): the
# reflections form one class unless an even bond splits them in two
_TYPE_COUNTS = {
    "A": lambda n: (factorial(n + 1), n * (n + 1) // 2, n * (n + 1) // 2),
    "B": lambda n: (2**n * factorial(n), n * n, max(n * (n - 1), n)),
    "D": lambda n: (2 ** (n - 1) * factorial(n), n * (n - 1), n * (n - 1)),
    "E": lambda n: {6: (51840, 36, 36), 7: (2903040, 63, 63),
                    8: (696729600, 120, 120)}[n],
    "F": lambda n: (1152, 24, 12),
    "H": lambda n: {3: (120, 15, 15), 4: (14400, 60, 60)}[n],
    "I": lambda n: (2 * n, n, n if n % 2 else n // 2),
}


def known_reflection_count(letter: str, param: int) -> int:
    """|T| of one irreducible type; ``bench/test_bench.py`` reads it."""
    return _TYPE_COUNTS[letter](param)[1]


@dataclass(frozen=True)
class Component:
    """One irreducible factor of a diagram: type letter, parameter, node ids."""

    letter: str
    param: int  # rank, or m for I2(m)
    nodes: tuple[int, ...]

    def __post_init__(self):
        if self.letter not in _TYPE_COUNTS:
            raise UnsupportedType(f"no type letter {self.letter!r}")
        if (self.letter, self.param) not in _types_of_rank(self.rank,
                                                           self.param):
            raise NonFiniteDiagram(
                f"no finite type {self.label} has {self.rank} nodes")

    @property
    def rank(self):
        return len(self.nodes)

    @property
    def label(self):
        if self.letter == "I":
            return f"I2({self.param})"
        return f"{self.letter}{self.param}"

    @property
    def counts(self) -> tuple[int, int, int]:
        """|W|, |T| and the size of the largest class of reflections."""
        return _TYPE_COUNTS[self.letter](self.param)

    @property
    def order(self):
        return self.counts[0]

    @property
    def num_reflections(self):
        return self.counts[1]

    @property
    def largest_class(self):
        return self.counts[2]


def _component_bonds(letter: str, param: int):
    """Bond matrix of one irreducible type, on local node ids."""
    if letter == "I":
        return [[1, param], [param, 1]]
    n = param
    bonds = [[2] * n for _ in range(n)]
    for i in range(n):
        bonds[i][i] = 1

    def set_bond(i, j, m):
        bonds[i][j] = m
        bonds[j][i] = m

    if letter in ("A", "B", "F", "H"):
        for i in range(n - 1):
            set_bond(i, i + 1, 3)
        if letter == "B":
            set_bond(0, 1, 4)
        elif letter == "F":
            set_bond(1, 2, 4)
        elif letter == "H":
            set_bond(0, 1, 5)
    elif letter == "D":
        for i in range(n - 2):
            set_bond(i, i + 1, 3)
        set_bond(n - 3, n - 1, 3)
    elif letter == "E":
        for i in range(n - 2):
            set_bond(i, i + 1, 3)
        set_bond(2, n - 1, 3)
    else:
        raise UnsupportedType(letter)
    return bonds


@dataclass(frozen=True)
class CoxeterDiagram:
    """A finite Coxeter diagram, as its irreducible components.

    The components partition the nodes 0..rank-1; the bond matrix, the
    label and the counts are read from them.
    """

    components: tuple[Component, ...]

    def __post_init__(self):
        nodes = sorted(i for c in self.components for i in c.nodes)
        if nodes != list(range(len(nodes))):
            raise NonFiniteDiagram("components do not partition the nodes")

    @property
    def rank(self):
        return sum(c.rank for c in self.components)

    @cached_property
    def bonds(self) -> tuple[tuple[int, ...], ...]:
        """The bond matrix m_ij: 1 on the diagonal, 2 between components."""
        n = self.rank
        bonds = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for comp in self.components:
            local = _component_bonds(comp.letter, comp.param)
            for a, ga in enumerate(comp.nodes):
                for b, gb in enumerate(comp.nodes):
                    bonds[ga][gb] = local[a][b]
        return tuple(map(tuple, bonds))

    @property
    def type_label(self):
        return "x".join(c.label for c in self.components)

    @property
    def order(self):
        return prod(c.order for c in self.components)

    @property
    def num_reflections(self):
        """|T|, from the components' types: no root is built."""
        return sum(c.num_reflections for c in self.components)

    def irreducible_subsets(self):
        """All nonempty connected subsets of the nodes, sorted by size and
        then as tuples.  Each grows from a single node, one bonded
        neighbour (m_ij >= 3) at a time."""
        near = [[j for j, m in enumerate(row) if m >= 3] for row in self.bonds]
        level, found = {1 << i for i in range(self.rank)}, set()
        while level:
            found |= level
            level = {J | 1 << j for J in level for i in _bits(J)
                     for j in near[i] if not J >> j & 1}
        return sorted((tuple(_bits(J)) for J in found),
                      key=lambda J: (len(J), J))

    def subdiagram(self, J) -> Component:
        """The type of the connected induced subdiagram of J: the first
        type of rank |J| whose own bond matrix has J's shape (``_shape``).
        The types of one rank differ in shape but for the names of one
        diagram, and a forest's shape counts its edges, so a J that is
        not connected matches no type and raises NonFiniteDiagram."""
        J = tuple(sorted(J))
        sub = [[self.bonds[a][b] for b in J] for a in J]
        shape, m = _shape(sub), max(map(max, sub), default=1)
        for letter, param in _types_of_rank(len(J), m):
            if _shape(_component_bonds(letter, param)) == shape:
                return Component(letter, param, J)
        raise NonFiniteDiagram(f"the subdiagram on {J} has no finite type")


_NAME_RE = re.compile(r"^(A|B|D)([0-9]+)$|^(E6|E7|E8|F4|H3|H4)$|^I2\(([0-9]+)\)$")


def parse_group_spec(text: str) -> CoxeterDiagram:
    """Parse e.g. "A3", "I2(7)", "B3xA1xI2(5)" into a validated diagram."""
    text = text.strip()
    if not text:
        raise ParseError("empty group spec")
    comps = []
    offset = 0
    for name in text.split("x"):
        m = _NAME_RE.match(name.strip())
        if not m:
            raise ParseError(f"cannot parse component {name!r}")
        if m.group(1):
            letter, n = m.group(1), int(m.group(2))
            if n < 1:
                raise UnsupportedType(f"{letter}0: the rank must be at least 1")
            if letter == "B" and n < 2:
                raise UnsupportedType("B1: write A1")
            if letter == "D" and n < 3:
                raise UnsupportedType("D2 is reducible: write A1xA1")
            if n > MAX_RANK:
                raise RankOutOfRange(f"rank {n} exceeds limit {MAX_RANK}")
            param, rank = n, n
        elif m.group(3):
            letter, param = m.group(3)[0], int(m.group(3)[1])
            rank = param
        else:
            letter, param, rank = "I", int(m.group(4)), 2
            if param < 3:
                raise UnsupportedType("I2(m) needs m >= 3; I2(2) is A1xA1")
        comps.append(Component(letter, param, tuple(range(offset, offset + rank))))
        offset += rank
    return CoxeterDiagram(tuple(comps))


def _types_of_rank(k: int, m: int):
    """Every irreducible finite type of rank k as (letter, param), with
    I2(m) for the largest bond m of a rank-2 diagram (Humphreys, §2.4).
    Of two names for one diagram, A2 and I2(3), B2 and I2(4), A3 and D3,
    the first comes first."""
    listed = {"A": k >= 1, "B": k >= 2, "D": k >= 3, "E": 6 <= k <= 8,
              "F": k == 4, "H": 3 <= k <= 4, "I": k == 2 and m >= 3}
    return [(letter, m if letter == "I" else k)
            for letter, on in listed.items() if on]


def _shape(bonds):
    """The sorted entries of a bond matrix's nodes: a node's degree and the
    sorted (label, degree) pairs of its bonded neighbours (m_ij >= 3)."""
    near = [[b for b, m in enumerate(row) if m >= 3] for row in bonds]
    return sorted((len(ns), sorted((row[b], len(near[b])) for b in ns))
                  for row, ns in zip(bonds, near))


# ---------------------------------------------------------------------------
# the action of S on the roots

# multiplication by the golden ratio phi = 2cos(pi/5) on a + b phi, as the
# column (a, b): phi (a + b phi) = b + (a + b) phi, since phi^2 = phi + 1
_PHI = np.array([[0, 1], [1, 1]], dtype=np.int64)


def _simple_reflections(letter: str, param: int) -> np.ndarray:
    """Simple reflections of one irreducible type other than I2(m).

    gens[i] is an integer matrix acting on root coordinates, column vectors
    in the basis of simple roots: s_i(v) = v - <v, alpha_i^vee> alpha_i.  The
    crystallographic types use their Cartan integers; H3 and H4 use Z[phi],
    each coordinate a pair (a, b) standing for a + b phi.
    """
    bonds = _component_bonds(letter, param)
    n = len(bonds)
    d = 2 if letter == "H" else 1
    one = np.eye(d, dtype=np.int64)
    # <alpha_j, alpha_i^vee> by bond label, for i < j and for i > j
    cartan = {2: (0 * one, 0 * one), 3: (-one, -one), 4: (-one, -2 * one),
              5: (-_PHI, -_PHI)}
    gens = np.zeros((n, n * d, n * d), dtype=np.int64)
    for i in range(n):
        gens[i] = np.eye(n * d, dtype=np.int64)
        for j in range(n):
            c = 2 * one if i == j else cartan[bonds[i][j]][i > j]
            gens[i, i * d:(i + 1) * d, j * d:(j + 1) * d] -= c
    return gens


def _root_orbit(gens: np.ndarray, expected: int) -> np.ndarray:
    """sigma[g, i] = index of s_g(r_i) on the orbit of the simple roots.

    The roots r_0, r_1, ... are numbered in discovery order, the simple
    roots first.  The orbit must have ``expected`` roots (2|T|); growth stops
    as soon as it has more, so a broken action fails instead of running on.
    """
    n, N, _ = gens.shape
    roots = [tuple(r) for r in np.eye(N, dtype=np.int64)[::N // n].tolist()]
    index = {r: i for i, r in enumerate(roots)}
    rows = []  # rows[i][g] = index of s_g(r_i)
    while len(rows) < len(roots) <= expected:
        row = []
        for w in map(tuple, (gens @ roots[len(rows)]).tolist()):
            if w not in index:
                index[w] = len(roots)
                roots.append(w)
            row.append(index[w])
        rows.append(row)
    if len(roots) != expected:
        raise InvariantError(
            f"the orbit of the simple roots is not 2|T| = {expected} roots "
            f"(reached {len(roots)})")
    return np.array(rows, dtype=np.int32).T


@lru_cache(maxsize=32)
def _root_action(diagram: CoxeterDiagram):
    """The permutation action of S on the roots, and the simple roots.

    Returns (sigma, simple): sigma[g, i] is the index of the root s_g(r_i)
    and simple[g] that of alpha_g, both read-only and cached per diagram.
    A product's roots are the disjoint union of its components' roots, and
    a generator fixes every root of the other components.  I2(m) is closed
    form: r_k lies at angle k pi / m (k < 2m), the simple roots are r_0 and
    r_(m-1), and the reflections send the angle theta to pi - theta
    (k -> m - k) and to pi + 2(m - 1) pi / m - theta (k -> 3m - 2 - k).
    Every other type is the orbit of its simple roots.
    """
    parts = []
    for comp in diagram.components:
        if comp.letter == "I":
            m = comp.param
            k = np.arange(2 * m, dtype=np.int32)
            parts.append((np.stack([(m - k) % (2 * m),
                                    (3 * m - 2 - k) % (2 * m)]), [0, m - 1]))
        else:
            expected = 2 * comp.num_reflections
            parts.append((_root_orbit(
                _simple_reflections(comp.letter, comp.param), expected),
                range(comp.rank)))
    total = sum(sig.shape[1] for sig, _ in parts)
    sigma = np.tile(np.arange(total, dtype=np.int32), (diagram.rank, 1))
    simple = np.zeros(diagram.rank, dtype=np.int32)
    offset = 0
    for comp, (sig, simple_local) in zip(diagram.components, parts):
        nodes = list(comp.nodes)
        sigma[nodes, offset:offset + sig.shape[1]] = sig + offset
        simple[nodes] = np.asarray(simple_local) + offset
        offset += sig.shape[1]
    sigma.flags.writeable = simple.flags.writeable = False
    return sigma, simple


def _orbit(start, act, gens=None, limit=None):
    """Orbit of sorted int rows under the point action ``act[i, g]``.

    The generator g maps a row r to the sorted row act[r, g].  ``start``
    holds distinct rows of one width; ``gens`` defaults to every column of
    ``act``.  The orbit grows one level at a time, and a level keeps the
    first occurrence of each new row among its candidates, ordered
    frontier-major and generator-minor.  As every generator is an
    involution, a candidate is new unless it lies in the last two levels.
    Returns the rows in discovery order; past ``limit`` rows it raises
    OrderLimitExceeded.
    """
    gens = np.arange(act.shape[1]) if gens is None else np.asarray(gens)
    bits = max(1, (act.shape[0] - 1).bit_length())
    level = np.sort(np.asarray(start, dtype=np.int64), axis=1)
    parts, known = [level], level
    total = len(level)
    while len(level):
        cand = np.sort(act[level[:, None, :], gens[:, None]],
                       axis=2).reshape(len(level) * len(gens), level.shape[1])
        first = _first_occurrences(np.concatenate([known, cand]), bits)
        new = np.sort(first[first >= len(known)]) - len(known)
        total += len(new)
        if limit is not None and total > limit:
            raise OrderLimitExceeded(
                f"an orbit passed {limit} members (the limit)")
        known = np.concatenate([level, cand[new]])
        level = cand[new]
        parts.append(level)
    return np.concatenate(parts)


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def index_dtype(count: int) -> np.dtype:
    """The narrowest dtype of the indices below ``count``.

    uint8 up to 256, uint16 up to 65536, int32 beyond: R holds |T|
    reflection indices in it, W's root images 2|T| signed roots.
    """
    if count <= 1 << 8:
        return np.dtype(np.uint8)
    if count <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def conj_table_bytes(order: int, num_reflections: int) -> int:
    """Bytes of W's |W| x |T| root images, the conjugation table the
    oracle reads, from the two counts."""
    return order * num_reflections * index_dtype(2 * num_reflections).itemsize


# bytes of the largest table of root images W is enumerated into: 8 times
# B7's 31.6 MB, the largest but I2(m)'s under the default limit
TABLE_BYTES_LIMIT = 1 << 28


def enumeration_refusal(diagram: CoxeterDiagram, limit: int):
    """Why W cannot be enumerated under ``limit``, or None: from the
    diagram's counts alone, |W| past ``limit`` and then W's table of root
    images past ``TABLE_BYTES_LIMIT`` bytes."""
    order, label = diagram.order, diagram.type_label
    if order > limit:
        return OrderLimitExceeded(f"{label} has order {order} > limit {limit}",
                                  known_order=order)
    table = conj_table_bytes(order, diagram.num_reflections)
    if table > TABLE_BYTES_LIMIT:
        return OrderLimitExceeded(
            f"the conjugation table of {label} would take {table} bytes "
            f"> limit {TABLE_BYTES_LIMIT}")
    return None


class ReflectionTable:
    """The reflections of W as its positive roots, and how S conjugates them.

    Built from the root action alone; W is never enumerated.  The positive
    roots are numbered in the element order of their reflections in W, so
    root t stands for the reflection s_t with reflection index t, and root
    g is alpha_g.  ``R[t, g]`` is the root of s_g s_t s_g, in
    ``index_dtype(|T|)``; ``support[t]`` (a bitmask) is that of the root
    and of s_t, and l(s_t) = 2 ``depth[t]`` - 1.
    ``gen[t]`` is the least right descent of s_t, and a root t past the
    simple ones is s_gen[t](parent[t]), one deeper than its parent.
    """

    def __init__(self, diagram: CoxeterDiagram):
        self.sigma, self.simple = sigma, simple = _root_action(diagram)
        n = diagram.rank
        action = sigma.T.tolist()  # action[r][g] = index of s_g(r)
        roots = simple.tolist()
        index = {r: t for t, r in enumerate(roots)}
        R, support, depth = [], [1 << g for g in range(n)], [1] * n
        # roots grows while it is walked: breadth first, by depth.  s_g
        # permutes the positive roots other than alpha_g, which it negates.
        for t, r in enumerate(roots):
            row = []
            for g, image in enumerate(action[r]):
                if r == roots[g]:
                    image = r  # s_g s_g s_g = s_g
                elif image not in index:
                    index[image] = len(roots)
                    roots.append(image)
                    support.append(support[t] | 1 << g)
                    depth.append(depth[t] + 1)
                row.append(index[image])
            R.append(row)
        if 2 * len(roots) != sigma.shape[1]:
            raise InvariantError(
                f"{len(roots)} positive roots of {sigma.shape[1]} roots")
        R = np.array(R, dtype=np.int64).reshape(len(roots), n)
        depth, support = np.array(depth), np.array(support)
        self.positive = np.zeros(sigma.shape[1], dtype=bool)
        self.positive[roots] = True
        # g is a right descent of s_t exactly when s_g s_t s_g is shorter,
        # that is when root R[t, g] is shallower than t (Bjorner-Brenti,
        # ch. 4); a simple root's least right descent is itself
        down = depth[R] < depth[:, None]
        self.gen = np.where(down.any(axis=1), down.argmax(axis=1),
                            np.arange(len(R)))
        self.parent = np.where(depth > 1, R[np.arange(len(R)), self.gen], -1)
        # W numbers its elements by length and then by the normal form of
        # _normal_form, whose first letter is the least right descent; the
        # rest of it is read only where depth and descent tie
        key = list(zip(depth.tolist(), self.gen.tolist()))
        tied = Counter(key)
        order = np.array(sorted(range(len(R)), key=lambda t: (
            key[t], self._normal_form(t) if tied[key[t]] > 1 else [])))
        rank = np.empty(len(order), dtype=index_dtype(len(order)))
        rank[order] = np.arange(len(order))
        self.R = rank[R[order]]
        self.depth, self.support, self.gen = (
            depth[order], support[order], self.gen[order])
        # int64, as R's unsigned dtype cannot hold the -1 of a simple root
        self.parent = np.where(
            self.depth > 1,
            self.R[np.arange(len(R)), self.gen].astype(np.int64), -1)

    @property
    def num_reflections(self):
        return len(self.R)

    @cached_property
    def reflection_class_of(self):
        """Root -> index of its conjugacy class, by least member."""
        out = np.full(self.num_reflections, -1, dtype=np.int64)
        classes = 0
        for t in range(self.num_reflections):
            if out[t] < 0:
                out[_orbit([[t]], self.R)[:, 0]] = classes
                classes += 1
        return out

    def reflections_in(self, Jmask: int):
        """T_J: the roots with support inside J."""
        return np.flatnonzero((self.support & ~np.int64(Jmask)) == 0)

    def parabolic_class(self, t: int):
        """The class of s_t in W_J, J its support, as sorted roots."""
        J = _bits(int(self.support[t]))
        return np.sort(_orbit([[t]], self.R, J)[:, 0])

    def chain(self, t: int):
        """(a, [g1, ..., gk]) up the tree: s_t = g1..gk s_a gk..g1."""
        letters = []
        while self.parent[t] >= 0:
            letters.append(int(self.gen[t]))
            t = int(self.parent[t])
        return t, letters

    def _normal_form(self, t: int) -> list[int]:
        """The letters g1, g2, ... peeled off s_t from the right.

        g1 is the least right descent of s_t, g2 that of s_t g1, and so on;
        g is a right descent of w when w(alpha_g) is negative, w acting on
        all the roots.  ``_bfs_enumerate`` numbers the elements of one
        length in the order of this list.
        """
        a, chain = self.chain(t)
        w = np.arange(self.sigma.shape[1])
        for g in chain + [a] + chain[::-1]:
            w = w[self.sigma[g]]
        letters = []
        while True:
            descents = np.flatnonzero(~self.positive[w[self.simple]])
            if not len(descents):
                return letters
            letters.append(int(descents[0]))
            w = w[self.sigma[descents[0]]]


@lru_cache(maxsize=32)
def reflection_table(diagram: CoxeterDiagram) -> ReflectionTable:
    return ReflectionTable(diagram)


class EnumeratedGroup:
    """A fully enumerated finite Coxeter group, held as its root images.

    ``root_images[x, t]`` is u when x(alpha_t) = alpha_u and u + |T| when
    x(alpha_t) = -alpha_u, in ``index_dtype(2|T|)``.  Mod |T|, row x is
    t -> x t x^-1, the conjugation table D at x^-1; it has l(x) entries
    past |T|.  Ids run by length, then least right descent, then parent,
    so ids and reduced words are reproducible across runs.
    """

    def __init__(self, diagram, root_images, parent, gen_of, length):
        self.diagram = diagram
        self.n = diagram.rank
        self.root_images = root_images
        self.parent = parent
        self.gen_of = gen_of
        self.length = length
        self.order = len(length)

    def word(self, x: int) -> list[int]:
        """The stored reduced word of element x."""
        w = []
        while x:
            w.append(int(self.gen_of[x]))
            x = int(self.parent[x])
        return w[::-1]

    @cached_property
    def roots(self) -> ReflectionTable:
        return reflection_table(self.diagram)

    @cached_property
    def refl_ids(self):
        """Element ids of the reflections, in the order of the root table.

        Root t is s_g(parent) for g = gen[t], so the row of its reflection
        is that of g s_parent g, built from R out of the rows one depth
        shallower, and the reflection is the element of length 2 depth - 1
        whose key, the simple columns of its row, matches.  W's row there
        must be the row built, as W must conjugate as R does, and the ids
        must increase, as the table numbers the roots in element order.
        """
        roots, T, n = self.roots, self.num_reflections, self.n
        Rg = np.ascontiguousarray(roots.R.T, dtype=np.intp)  # R[:, g]
        ids = np.full(T, -1)
        rows = Rg + T * np.eye(n, T, dtype=np.intp)
        start, stop = 0, n
        for d in range(1, roots.depth[-1] + 1):
            if d > 1:
                # (x g)(alpha_u) is x(alpha_R[u, g]) for u != g and
                # -x(alpha_g); g(+-alpha_v) is +-alpha_R[v, g], negated once
                # more when v = g
                above, (start, stop) = start, np.searchsorted(
                    roots.depth, [d, d + 1])
                g, k = roots.gen[start:stop], np.arange(stop - start)
                p = roots.parent[start:stop, None] - above
                xg = rows.take(Rg[g] + T * p)
                xg[k, g] = (xg[k, g] + T) % (2 * T)
                v = xg % T
                g = g[:, None]
                rows = Rg.take(T * g + v) + T * ((xg >= T) != (v == g))
            a, b = np.searchsorted(self.length, [2 * d - 1, 2 * d])
            match = (self.root_images[a:b, None, :n] == rows[:, :n]).all(
                axis=2)
            found = np.where(match.any(axis=0), a + match.argmax(axis=0), -1)
            if not np.array_equal(self.root_images[found], rows):
                break  # ids[start] stays -1
            ids[start:stop] = found
        # e is element 0, so every reflection's id is positive
        if not np.all(np.diff(ids, prepend=0) > 0):
            raise InvariantError(
                "W and the root table number the reflections differently")
        return ids

    @property
    def num_reflections(self):
        return self.roots.num_reflections

    @cached_property
    def conj_by_gen(self):
        """R[t, g] = reflection index of t^g = g t g: the table's R.

        Reading ``refl_ids`` first checks that W conjugates as R does.
        """
        self.refl_ids
        return self.roots.R

    def _scatter(self, values):
        """out[x, P[x, t]] = values[x, t], P = ``root_images`` mod |T|,
        the columns checked first by ``refl_ids``."""
        self.refl_ids
        P = (self.root_images % self.num_reflections).astype(np.intp)
        out = np.empty(P.shape, dtype=values.dtype)
        np.put_along_axis(out, P, values, axis=1)
        return out

    @cached_property
    def conj_tables(self):
        """D[x, t] = index of t^x = x^-1 t x, in R's dtype: the inverse of
        row x's permutation.  The oracle reads the table itself instead."""
        return self._scatter(np.arange(self.num_reflections,
                                       dtype=self.roots.R.dtype))

    @cached_property
    def inversion_table(self):
        """Boolean table: N[x, t] iff reflection t is a left inversion of x,
        as x s_u x^-1 is one exactly when x(alpha_u) < 0."""
        negative = self.root_images >= self.num_reflections
        if not np.array_equal(negative.sum(axis=1), self.length):
            raise InvariantError(
                "a row of W's table does not have l(x) negative roots")
        return self._scatter(negative)

    @cached_property
    def reflection_class_of(self):
        """Reflection index -> conjugacy class index, from the root table."""
        return self.roots.reflection_class_of


def _mask(J) -> int:
    m = 0
    for s in J:
        m |= 1 << int(s)
    return m


def build_group(diagram: CoxeterDiagram,
                limit: int = DEFAULT_ORDER_LIMIT) -> EnumeratedGroup:
    """Enumerate the whole group through its root table, if it can be."""
    refusal = enumeration_refusal(diagram, limit)
    if refusal is not None:
        raise refusal
    return _bfs_enumerate(diagram, reflection_table(diagram).R)


def _bfs_enumerate(diagram, R) -> EnumeratedGroup:
    """Breadth-first enumeration of W's root images, one length per pass.

    Row e is 0..|T|-1, and row x s is row x with its columns taken
    through R[:, s] and entry s negated, as s(alpha_t) = alpha_R[t, s]
    for t != s.  x s is kept exactly when no g <= s has x(alpha_R[g, s])
    < 0: then it is longer than x, with s its least right descent.  So
    each element is reached once and no level is deduplicated.  Levels
    are made generator-major, straight into a table of |W| rows.
    """
    n, T, order = diagram.rank, len(R), diagram.order
    R = R.astype(np.intp)
    table = np.empty((order, T), dtype=index_dtype(2 * T))
    table[0] = np.arange(T)
    parent = np.zeros(order, dtype=np.int32)
    gen_of = np.full(order, -1, dtype=np.int16)
    length = np.zeros(order, dtype=np.int16)
    start, stop = 0, 1
    while stop > start:
        count = stop
        for s in range(n):
            xs = start + np.flatnonzero(
                (table[start:stop, R[:s + 1, s]] < T).all(axis=1))
            if count + len(xs) > order:
                raise InvariantError(
                    f"enumeration passed |W| = {order} elements")
            new = slice(count, count + len(xs))
            table[new] = table[xs].take(R[:, s], axis=1)
            table[new, s] += T
            parent[new], gen_of[new] = xs, s
            length[new] = length[start] + 1
            count = new.stop
        start, stop = stop, count
    if stop != order:
        raise InvariantError(
            f"enumeration found {stop} elements, expected {order}")
    return EnumeratedGroup(diagram, root_images=table, parent=parent,
                           gen_of=gen_of, length=length)


def _first_occurrences(rows, bits):
    """The smallest index of each distinct row, the entries below 2**bits:
    each row is packed into as few int64 words as hold its bits, and a
    stable sort of the words keeps equal rows in index order, so the head
    of each run is the first occurrence."""
    per = 63 // bits
    shifts = bits * np.arange(per, dtype=np.int64)
    words = [(rows[:, j:j + per].astype(np.int64) << shifts[:rows.shape[1] - j]
              ).sum(axis=1) for j in range(0, rows.shape[1], per)] or [
        np.zeros(len(rows), dtype=np.int64)]  # rows of width 0 are equal
    order = np.lexsort(words)
    head = np.zeros(len(rows), dtype=bool)
    head[:1] = True
    for w in words:
        sw = w[order]
        head[1:] |= sw[1:] != sw[:-1]
    return order[head]


@lru_cache(maxsize=32)
def group(spec: str, limit: int = DEFAULT_ORDER_LIMIT) -> EnumeratedGroup:
    """Parse and build, with caching keyed on the spec string."""
    return build_group(parse_group_spec(spec), limit=limit)
