"""Tests for edge enumeration and the two multiplicity routes."""

import ast
import copy
import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import coxvar
import coxvar.arrangement as arrangement_mod
from coxvar import group
from coxvar.arrangement import Arrangement, Edge
from coxvar.coxeter_core import _mask, _orbit, build_group, parse_group_spec
from coxvar.errors import (
    CoxvarError,
    InvarianceViolation,
    InvariantError,
    ReducibleSubset,
)
from group_reference import (
    SupportMismatch,
    conjugator,
    decompose_L,
    edge_lookup,
    inverses,
    inversion_set,
    minimal_edge_through_chamber_face,
    mul,
    parabolic_data,
    separating_set,
)


def arr(spec, **kw):
    return Arrangement(group(spec), **kw)


# -- separating sets ---------------------------------------------------------


def test_separating_set_metric_properties():
    g = group("B3")
    rng = random.Random(5)
    for _ in range(300):
        x, y, z = (rng.randrange(g.order) for _ in range(3))
        sxy = separating_set(g, x, y)
        syz = separating_set(g, y, z)
        sxz = separating_set(g, x, z)
        assert sxy == separating_set(g, y, x)
        # symmetric difference law: sep(x,z) = sep(x,y) XOR sep(y,z)
        assert sxz == sxy ^ syz
    for x in range(g.order):
        assert len(separating_set(g, 0, x)) == int(g.length[x])


# -- edge enumeration --------------------------------------------------------


def test_edge_counts_small_groups():
    # A2: three lines plus the center
    assert len(arr("A2").relevant_edges()) == 4
    # B2: four lines plus the center
    assert len(arr("B2").relevant_edges()) == 5
    # A1xA1: two lines, the center is not relevant (reducible support)
    assert len(arr("A1xA1").relevant_edges()) == 2
    # A3: 6 hyperplanes, 4 A2-type edges, 1 center
    assert len(arr("A3").relevant_edges()) == 11


def test_edges_are_closed_reflection_sets():
    for spec in ("A3", "B3", "I2(6)", "A2xA1"):
        a = arr(spec)
        g = a.group
        D = g.conj_tables
        for edge in a.relevant_edges():
            refl = set(edge.reflections)
            members = set()
            # subgroup generated by the edge reflections
            frontier = [0]
            seen = {0}
            while frontier:
                nxt = []
                for x in frontier:
                    for t in refl:
                        y = mul(g, x, int(g.refl_ids[t]))
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            members = seen
            inside = {t for t in range(g.num_reflections)
                      if int(g.refl_ids[t]) in members}
            assert inside == refl


def test_edge_witness_conjugates_class_onto_edge():
    # every edge is T_J^x for some x in W, J its class
    for spec in ("A3", "B3", "D4"):
        a = arr(spec)
        g = a.group
        D = g.conj_tables
        for edge in a.relevant_edges():
            TJ = a.roots.reflections_in(_mask(edge.class_J))
            images = np.sort(D[:, TJ], axis=1)
            assert (images == np.array(edge.reflections)).all(axis=1).any()


def test_edge_orbit_sizes_match_normalizer_index():
    for spec in ("A4", "B3", "H3"):
        a = arr(spec)
        g = a.group
        by_class = {}
        for e in a.relevant_edges():
            by_class.setdefault(e.class_J, []).append(e)
        for J, edges in by_class.items():
            pd = parabolic_data(g, J)
            assert len(edges) == g.order // pd.normalizer_order


# -- chamber faces span relevant edges (completeness) ------------------------


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "B3", "I2(7)",
                                  "A2xA1", "D4"])
def test_every_chamber_face_spans_a_relevant_edge(spec):
    a = arr(spec)
    g = a.group
    lookup = edge_lookup(a)
    for x in range(g.order):
        for t in inversion_set(g, x) | (set(range(g.num_reflections)) -
                                        inversion_set(g, x)):
            e = minimal_edge_through_chamber_face(a, lookup, x, t)
            assert t in e.reflections


@pytest.mark.parametrize("spec", ["A5", "D5", "H3", "H4"])
def test_chamber_faces_sampled_large_groups(spec):
    a = arr(spec)
    g = a.group
    lookup = edge_lookup(a)
    rng = random.Random(17)
    for _ in range(2500):
        x = rng.randrange(g.order)
        t = rng.randrange(g.num_reflections)
        e = minimal_edge_through_chamber_face(a, lookup, x, t)
        assert t in e.reflections


# -- chamber-counting oracle -------------------------------------------------


def test_count_L_examples():
    a = arr("A2")
    edges = a.relevant_edges()
    hyper = [e for e in edges if len(e) == 1]
    center = [e for e in edges if len(e) == 3]
    assert len(hyper) == 3 and len(center) == 1
    for e in hyper:
        assert a._chamber_counts(e).tolist() == [4]
        assert a.multiplicity_oracle(e) == 2
    assert a._chamber_counts(center[0]).tolist() == [2, 2, 2]
    assert a.multiplicity_oracle(center[0]) == 1
    # H3 hyperplane: l = 12, so 24 chambers
    h = arr("H3")
    e0 = [e for e in h.relevant_edges() if len(e) == 1][0]
    assert h._chamber_counts(e0).tolist() == [24]
    assert h.multiplicity_oracle(e0) == 12


def chambers_spanning_reference(self, edge, t):
    """The former per-chamber oracle loop, kept as the reference.

    `self` is an Arrangement; the body is the library code before the
    sorted-row comparison replaced it.
    """
    g = self.group
    D = g.conj_tables
    C = D[inverses(g)]  # C[x, t] = index of t^(x^-1)
    allowed = np.array(sorted({np.int64(_mask(K))
                               for K in self.coxeter_class(edge.class_J)}))
    Ksup = self.roots.support[C[:, t]]
    candidates = np.nonzero(np.isin(Ksup, allowed))[0]
    target = frozenset(edge.reflections)
    tk_cache = {}
    out = set()
    for x in candidates:
        Kmask = int(Ksup[x])
        TK = tk_cache.get(Kmask)
        if TK is None:
            TK = self.roots.reflections_in(Kmask)
            tk_cache[Kmask] = TK
        if frozenset(int(v) for v in D[x, TK]) == target:
            out.add(int(x))
    return out


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "I2(5)", "B2xA1"])
def test_chambers_spanning_matches_reference_on_every_edge(spec):
    a = arr(spec)
    edges = a.relevant_edges()
    assert len(edges) > len(a.class_representatives())
    for edge in edges:
        assert a._chamber_counts(edge).tolist() == [
            len(chambers_spanning_reference(a, edge, t))
            for t in edge.reflections], edge


@pytest.mark.parametrize("spec", ["F4", "H4"])
def test_chambers_spanning_matches_reference_on_class_edges(spec):
    a = arr(spec)
    for J in a.class_representatives():
        pd = parabolic_data(a.group, J)
        edge = Edge(reflections=tuple(int(t) for t in pd.T_J),
                    class_J=J, coset_id=0)
        counts = a._chamber_counts(edge)
        for t, count in zip(edge.reflections[:3], counts.tolist()):
            assert count, (J, t)
            assert count == len(chambers_spanning_reference(a, edge, t)), \
                (J, t)


class _NoRowGather:
    """numpy stand-in that fails when chambers of a support class are read."""

    def __getattr__(self, name):
        if name == "flatnonzero":
            raise AssertionError("a support class of the wrong size was read")
        return getattr(np, name)


def test_chambers_spanning_skips_classes_of_the_wrong_size(monkeypatch):
    # one A3 hyperplane labelled with the A2 class: every face of that class
    # spans three reflections, so no face spans this one-reflection set
    a = arr("A3")
    edge = Edge(reflections=(0,), class_J=(0, 1), coset_id=0)
    assert chambers_spanning_reference(a, edge, 0) == set()
    monkeypatch.setattr(arrangement_mod, "np", _NoRowGather())
    assert a._chamber_counts(edge).tolist() == [0]


def chambers_spanning_sorted_rows(self, edge, t):
    """The sorted-row oracle, kept as the reference for the per-edge hoist.

    `self` is an Arrangement; the body is the library code before the test
    "D[x, T_K] = E" moved out of the per-hyperplane loop.
    """
    g = self.group
    D = g.conj_tables
    target = np.array(sorted(set(edge.reflections)))
    Ksup = self.roots.support[D[inverses(g), t]]
    out = set()
    for Kmask in {_mask(K) for K in self.coxeter_class(edge.class_J)}:
        TK = self.roots.reflections_in(Kmask)
        if len(TK) != len(target):
            continue
        xs = np.flatnonzero(Ksup == Kmask)
        rows = np.sort(D[xs[:, None], TK[None, :]], axis=1)
        out.update(xs[(rows == target).all(axis=1)].tolist())
    return out


@pytest.mark.parametrize("spec", ["F4", "H4", "E6", "B6"])
def test_chambers_spanning_matches_sorted_rows_on_every_hyperplane(spec):
    a = arr(spec)
    for J in a.class_representatives():
        pd = parabolic_data(a.group, J)
        edge = Edge(reflections=tuple(int(t) for t in pd.T_J),
                    class_J=J, coset_id=0)
        counts = a._chamber_counts(edge)
        for t, count in zip(edge.reflections, counts.tolist()):
            assert count, (J, t)
            assert count == len(chambers_spanning_sorted_rows(a, edge, t)), \
                (J, t)


def test_oracle_never_copies_the_conjugation_table():
    # with W's tables built, the E6 oracle holds O(|W|) chamber indices: a
    # gather of D[:, T_K] for the E6 class alone would hold 51840 x 36
    # entries, 1.9 MB even at one byte each, and its boolean image; and
    # the oracle keeps nothing once an edge is counted
    g = group("E6")
    g.conj_tables
    a = Arrangement(g)
    edges = [Edge(tuple(a.roots.reflections_in(_mask(J)).tolist()), J, 0)
             for J in a.class_representatives()]
    tracemalloc.start()
    try:
        for edge in edges:
            a.multiplicity_oracle(edge)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert held < 2**16


def test_arrangement_memos_belong_to_the_instance():
    a3, b3 = arr("A3"), arr("B3")
    first = {a: (a.classes, a.relevant_edges()) for a in (a3, b3)}
    assert list(first[a3][0]) != list(first[b3][0])
    assert first[a3][1] != first[b3][1]
    for a in (a3, b3, a3, b3):
        assert a.classes is first[a][0]
        assert a.class_representatives() == list(first[a][0])
        assert a.relevant_edges() == first[a][1]
    # nothing outside the instance keeps it, or its group, alive
    g = build_group(parse_group_spec("A3"))
    a = Arrangement(g)
    a.relevant_edges()
    edge_lookup(a)
    a.multiplicity_oracle(a.relevant_edges()[-1])
    refs = weakref.ref(a), weakref.ref(g)
    del a, g
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_oracle_invariant_across_edge_cosets():
    # all edges in one class orbit get the same oracle count
    for spec in ("A3", "B3", "I2(8)"):
        a = arr(spec)
        by_class = {}
        for e in a.relevant_edges():
            by_class.setdefault(e.class_J, set()).add(
                a.multiplicity_oracle(e))
        for J, counts in by_class.items():
            assert len(counts) == 1


# -- formula vs oracle -------------------------------------------------------


@pytest.mark.parametrize("spec", ["A2", "A3", "A4", "B2", "B3", "D4",
                                  "H3", "I2(5)", "I2(6)", "I2(9)",
                                  "A2xA1", "B2xA1"])
def test_formula_matches_oracle(spec):
    a = arr(spec)
    for rep in a.multiplicity_reports(with_oracle=True):
        assert rep.match, (spec, rep.class_J, rep.l_formula, rep.l_oracle)


def test_formula_rejects_reducible_class():
    a = arr("A3")
    with pytest.raises(ValueError):
        a.multiplicity_formula((0, 2))


def test_multiplicity_report_values_H3():
    got = {(r.label, r.ingredients, r.l_formula)
           for r in arr("H3").multiplicity_reports()}
    assert got == {
        ("A1", (1, 3, 4, 1), 12),
        ("A2", (1, 1, 2, 1), 2),
        ("I2(5)", (3, 1, 2, 1), 6),
        ("H3", (8, 1, 1, 4), 32),
    }


def floor_class_over_W(g, t):
    """Reflections with the support of t that are conjugate to t in W."""
    members = _orbit([[t]], g.conj_by_gen)[:, 0]
    return sorted(u for u in members.tolist()
                  if g.roots.support[u] == g.roots.support[t])


def test_floor_over_W_equals_floor_over_W_J():
    # a finite Coxeter diagram is a forest, so the odd-bond path joining
    # two simple reflections of a connected J lies in J: reflections of W_J
    # conjugate in W are conjugate in W_J, and the floor of
    # multiplicity_formula, a W_J-class, is the W-class
    for spec in ("A4", "B3", "B4", "D4", "F4", "H3", "H4", "I2(6)", "I2(7)",
                 "B2xA1", "A2xB3"):
        a = arr(spec)
        g = a.group
        for t in range(g.num_reflections):
            floor = a._floor_and_x_J_s(t)[1].tolist()
            assert floor == floor_class_over_W(g, t), (spec, t)


# -- degree identities on the root tables -----------------------------------

IDENTITY_SPECS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(9)",
    "I2(10)", "I2(11)", "I2(12)", "A1xA1", "A2xA1", "B2xA1", "A2xA2",
    "A3xA1", "A1xA1xA1", "H4", "E6", "E7", "E8"]


@pytest.mark.parametrize("spec", IDENTITY_SPECS)
def test_degree_identities_on_the_root_tables(spec):
    # Each entry of the Varchenko matrix has degree at most 1 in the weight
    # of a hyperplane t, and the factorization has degree sum over the
    # edges E through t of 2 l(E) in it: that sum is |W| for every t.  Its
    # sum over t is the total degree |W| |T| = sum over E of 2 |E| l(E).
    d = parse_group_spec(spec)
    a = Arrangement(diagram=d)
    per_t = np.zeros(a.roots.num_reflections, dtype=np.int64)
    total = 0
    for c in a.classes.values():
        per_t += c.l * np.bincount(c.edges.ravel(),
                                   minlength=a.roots.num_reflections)
        total += 2 * c.edges.size * c.l
    assert total == d.order * a.roots.num_reflections
    assert (2 * per_t == d.order).all()
    assert "group" not in vars(a)  # W was never enumerated


# -- explicit chamber-set decomposition --------------------------------------


@pytest.mark.parametrize("spec,J", [("A3", (0, 1)), ("A3", (0, 1, 2)),
                                    ("B3", (0, 1)), ("B3", (0, 1, 2)),
                                    ("H3", (0, 1))])
def test_decompose_L_reproduces_chamber_set(spec, J):
    a = arr(spec)
    g = a.group
    pd = parabolic_data(g, J)
    edge = Edge(reflections=tuple(int(t) for t in pd.T_J),
                class_J=tuple(J), coset_id=0)
    Jmask = sum(1 << s for s in J)
    full = [t for t in edge.reflections
            if int(a.roots.support[t]) == Jmask]
    assert full
    l = a.multiplicity_oracle(edge)
    for t in full[:3]:
        blocks, union = decompose_L(a, J, t)
        assert union == chambers_spanning_reference(a, edge, t)
        assert len(union) == 2 * l
        assert sum(len(b) for b in blocks.values()) == len(union)
        # block count and sizes mirror the formula ingredients
        floor = floor_class_over_W(g, int(t))
        assert len(blocks) == len(a.coxeter_class(J)) * len(floor)
        assert {u for _, u in blocks} == set(floor)
    # reflections of smaller support are rejected
    small = [t for t in edge.reflections
             if int(a.roots.support[t]) != Jmask]
    if small:
        with pytest.raises(ValueError):
            decompose_L(a, J, small[0])


# -- invariant guards --------------------------------------------------------
# Healthy data never reaches these; each test feeds one deliberately wrong
# ingredient and expects a typed error that survives python -O.


class _OddOracle(Arrangement):
    def _chamber_counts(self, edge):
        return [3] * len(edge)


class _WrongOrbit(Arrangement):
    # each class's orbit lists its first edge twice
    def _coxeter_class(self, J, rows, members):
        return super()._coxeter_class(J, np.concatenate([rows, rows[:1]]),
                                      members)


class _RepeatedClass(Arrangement):
    # every class is recorded as the first class again
    def _coxeter_class(self, J, rows, members):
        first = super()._coxeter_class(J, rows, members)
        return self.__dict__.setdefault("first_class", first)


def test_oracle_rejects_odd_chamber_count():
    a = _OddOracle(group("A2"))
    with pytest.raises(InvarianceViolation, match="odd"):
        a.multiplicity_oracle(a.relevant_edges()[0])


def test_relevant_edges_checks_orbit_size():
    with pytest.raises(InvariantError, match="N_W"):
        _WrongOrbit(group("A2")).relevant_edges()


def test_relevant_edges_rejects_an_edge_in_two_classes():
    with pytest.raises(InvariantError, match="two classes"):
        _RepeatedClass(group("A2")).relevant_edges()


class _ClassDependentFormula(Arrangement):
    # a different |X(J,{s})| for each W_J-class of full-support reflections
    counter = itertools.count(1)

    def _floor_and_x_J_s(self, t):
        members, floor, _ = super()._floor_and_x_J_s(t)
        return members, floor, next(self.counter)


def test_formula_checks_agreement_over_full_support_reflections():
    # B2 has two classes of full-support reflections
    with pytest.raises(InvariantError, match="depend on"):
        _ClassDependentFormula(group("B2")).multiplicity_formula((0, 1))


def test_oracle_checks_the_root_numbering():
    # the edges come from the roots, the oracle counts chambers of W: with
    # W's root table doctored (generators swapped), the reflection ids
    # that join them raise
    g = build_group(parse_group_spec("A3"))
    g.roots = copy.copy(g.roots)
    g.roots.R = g.roots.R[:, ::-1]
    with pytest.raises(InvariantError, match="differently"):
        Arrangement(g).multiplicity_reports(with_oracle=True)


@pytest.mark.parametrize("spec", [
    "A4", "B2", "B3", "B5", "D5", "E6", "E7", "F4", "H3", "H4", "I2(5)",
    "I2(8)", "I2(12)"])
def test_largest_class_is_read_from_the_type(spec):
    # the early refusal bounds a component by its largest class of
    # reflections, which the root table finds too
    [comp] = parse_group_spec(spec).components
    roots = Arrangement(diagram=parse_group_spec(spec)).roots
    assert np.bincount(roots.reflection_class_of).max() == \
        comp.largest_class


def test_decompose_L_checks_centralizer_identity():
    # drop the letters of the chain, so v = e in t = v^-1 s v and the
    # centralizer of s stands in for that of t
    a = arr("A3")
    true_chain = a.roots.chain
    a.roots = copy.copy(a.roots)
    a.roots.chain = lambda t: (true_chain(t)[0], [])
    t = int(np.flatnonzero(a.roots.support == 0b111)[0])
    with pytest.raises(InvariantError, match="centralizer"):
        decompose_L(a, (0, 1, 2), t)


def test_conjugator_search_reports_failure():
    with pytest.raises(InvariantError, match="no conjugator"):
        conjugator(group("A2"), 0, 1, [])


@pytest.mark.parametrize("call,error", [
    (lambda: arr("A3").multiplicity_formula((0, 2)), ReducibleSubset),
    (lambda: arr("A3").coxeter_class((0, 2)), ReducibleSubset),
    (lambda: decompose_L(arr("A3"), (0, 1), 0), SupportMismatch),
], ids=["multiplicity_formula", "coxeter_class", "decompose_L"])
def test_bad_arguments_raise_typed_value_errors(call, error):
    # ValueError keeps callers that caught the former bare ValueError working
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, CoxvarError)
    assert isinstance(exc.value, ValueError)


_GUARDS_UNDER_O = """
from coxvar import Factorization, Monomial, group
from coxvar.arrangement import Arrangement
from coxvar.varchenko import zagier_formula


class OddOracle(Arrangement):
    def _chamber_counts(self, edge):
        return [3] * len(edge)


class HyperplaneDependentOracle(Arrangement):
    def _chamber_counts(self, edge):
        return [2] * (len(edge) - 1) + [4]


def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return "nothing"


a = Arrangement(group("A2"))
center = max(a.relevant_edges(), key=len)
print(__debug__)
print(raised(lambda: OddOracle(a.group).multiplicity_oracle(center)))
print(raised(lambda: HyperplaneDependentOracle(a.group)
             .multiplicity_oracle(center)))
print(raised(lambda: zagier_formula(1)))
# a point that lacks the variable y
print(raised(lambda: Factorization(((Monomial.from_vars("xy"), 1),))
             .eval_mod({"x": 2}, 7)))
"""


def test_guards_raise_under_python_O():
    # python -O strips assert statements; run the guards there for real
    src = str(Path(coxvar.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", _GUARDS_UNDER_O],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "InvarianceViolation",
                                   "InvarianceViolation",
                                   "ParameterOutOfRange",
                                   "UnassignedVariable"]


def test_arrangement_module_has_no_assert_statements():
    # python -O strips assert; invariants in every module of the library,
    # arrangement.py included, must raise typed errors
    paths = sorted(Path(coxvar.__file__).parent.glob("*.py"))
    assert len(paths) >= 7
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements at {found}"
