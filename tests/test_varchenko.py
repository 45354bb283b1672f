"""Tests for the determinant factorization and its verification routes."""

import copy
import json
import random

import numpy as np
import pytest

from coxvar import Factorization, Monomial, det_mod_p, group
from coxvar import arrangement, cli, coxeter_core, varchenko
from coxvar.arrangement import Arrangement
from coxvar.exact_algebra import det_mod_p_in_place
from coxvar.coxeter_core import (
    build_group,
    parse_group_spec,
    reflection_table,
)
from coxvar.errors import (
    CountOutOfRange,
    InvariantError,
    NonSquareMatrix,
    OrderLimitExceeded,
    ParameterOutOfRange,
    VariableCollision,
)
from coxvar.varchenko import (
    DEFAULT_PRIMES,
    WeightAssignment,
    _is_prime,
    a_type_dictionary,
    b_type_dictionary,
    build_varchenko_matrix,
    closed_form_factorization,
    concordance_checks,
    duchamp_formula_A,
    embedded_roots,
    modular_matrix,
    pair_var,
    primes_list,
    randriamaro_formula_B,
    reducible_product,
    signed_pair_var,
    singleton_var,
    verify_mod_p,
    zagier_formula,
)
from group_reference import (
    element_of_word,
    inversion_set,
    longest_element,
    mul,
)
from varchenko_reference import (
    modular_matrix_reference,
    symbolic_determinant,
    to_sympy,
)

P = DEFAULT_PRIMES[0]
EDGE_P = 4294967291  # the largest prime below 2**32


def test_primes_list():
    ps = primes_list(5)
    assert ps[:3] == list(DEFAULT_PRIMES)
    assert len(set(ps)) == 5
    import sympy
    assert all(sympy.isprime(p) for p in ps)
    assert all(p * p < 2 ** 63 - 1 for p in ps)  # products stay in int64


def test_primes_list_matches_a_chain_of_nextprime():
    import sympy
    chain = [DEFAULT_PRIMES[0]]
    while len(chain) < 8:
        chain.append(int(sympy.nextprime(chain[-1])))
    assert primes_list(8) == chain


def test_is_prime_agrees_with_sympy():
    # Carmichael numbers (211 * 421 * 631 has a**(n-1) = 1 on every base
    # but a nontrivial square root of 1 on some), the least strong
    # pseudoprimes to the first 1, 2, ..., 9 prime bases, and primes and
    # composites near 2**32 and 2**64
    import sympy
    cases = [*range(-3, 3000), 561, 1105, 211 * 421 * 631,
             2047, 1373653, 25326001, 3215031751, 2152302898747,
             3474749660383, 341550071728321, 3825123056546413051,
             *range(2**32 - 9, 2**32 + 16), *range(2**64 - 59, 2**64)]
    assert [_is_prime(n) for n in cases] == [sympy.isprime(n) for n in cases]


@pytest.mark.parametrize("count", [0, -1])
def test_primes_list_rejects_counts_below_one(count):
    # a negative count used to slice DEFAULT_PRIMES from the end
    with pytest.raises(CountOutOfRange):
        primes_list(count)


# -- matrix construction -----------------------------------------------------


def test_matrix_A1():
    g = group("A1")
    rows = build_varchenko_matrix(Arrangement(g),
                                  WeightAssignment.per_hyperplane(g))
    strs = [[str(m) for m in row] for row in rows]
    assert strs == [["1", "a1"], ["a1", "1"]]


def test_matrix_A2_single_q():
    g = group("A2")
    rows = build_varchenko_matrix(Arrangement(g), WeightAssignment.single_q(g))
    w0 = longest_element(g)
    assert str(rows[0][w0]) == "q^3"
    assert str(rows[0][0]) == "1"


@pytest.mark.parametrize("spec", ["A2", "B2", "I2(4)", "A2xA1"])
def test_matrix_symmetric_unit_diagonal(spec):
    g = group(spec)
    rows = build_varchenko_matrix(Arrangement(g),
                                  WeightAssignment.per_hyperplane(g))
    assert len(rows) == g.order
    for i in range(g.order):
        assert len(rows[i]) == g.order
        assert str(rows[i][i]) == "1"
        for j in range(i):
            assert rows[i][j] == rows[j][i]


def test_matrix_cap():
    with pytest.raises(OrderLimitExceeded):
        build_varchenko_matrix(
            Arrangement(group("A5")), WeightAssignment.single_q(group("A5")))


# B2 fills part of one 8-reflection key byte; B3 (9 reflections) and A4
# (10) need a second, partial byte
@pytest.mark.parametrize("spec", ["B2", "B3", "A4"])
def test_modular_matrix_agrees_with_symbolic_entries(spec):
    g = group(spec)
    wa = WeightAssignment.per_hyperplane(g)
    rng = random.Random(2)
    point = {v: rng.randrange(1, P) for v in wa.variables()}
    values = np.array([point[wa.var_of[t]]
                       for t in range(g.num_reflections)], dtype=np.int64)
    M = modular_matrix_reference(g, values, P)
    rows = build_varchenko_matrix(Arrangement(g), wa)
    for i in range(g.order):
        for j in range(g.order):
            assert int(M[i, j]) == rows[i][j].eval_mod(point, P)


# B4 (order 384) fills its matrix in several chunks of rows; its entries
# are sampled
@pytest.mark.parametrize("spec", ["B2", "B3", "A4", "B4"])
def test_modular_matrix_is_uint32_products_over_separating_sets(spec):
    # 4 bytes per entry; entry (x, y) is the product of the values of the
    # reflections separating x and y, mod P
    g = group(spec)
    rng = random.Random(3)
    values = np.array([rng.randrange(1, P) for _ in range(g.num_reflections)],
                      dtype=np.int64)
    M = modular_matrix_reference(g, values, P)
    assert M.dtype == np.uint32 and M.shape == (g.order, g.order)
    n = g.order
    pairs = ([(x, y) for x in range(n) for y in range(n)] if n <= 120
             else [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)])
    N = g.inversion_table
    for x, y in pairs:
        expect = 1
        for t in np.nonzero(N[x] ^ N[y])[0]:
            expect = expect * int(values[t]) % P
        assert int(M[x, y]) == expect


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(5)", "A2xA1"])
def test_right_multiplication_by_w0_preserves_the_matrix(spec):
    # x w0 is the chamber opposite x, and B(x w0, y w0) = B(x, y)
    g = group(spec)
    rows = build_varchenko_matrix(Arrangement(g),
                                  WeightAssignment.per_hyperplane(g))
    w0 = longest_element(g)
    opposite = [mul(g, x, w0) for x in range(g.order)]
    N = g.inversion_table
    for x in range(g.order):
        assert np.array_equal(N[opposite[x]], ~N[x])
        for y in range(g.order):
            assert rows[opposite[x]][opposite[y]] == rows[x][y]


def _halves(g, values, p):
    """S and D of ``modular_matrix``, written in one pass into float64
    arrays; each half written alone, into an array of NaNs, must match
    it, so that every entry is written."""
    h = g.order // 2
    S, D = np.empty((h, h)), np.empty((h, h))
    assert modular_matrix(g, values, p, S=S, D=D) is S
    for name, half in (("S", S), ("D", D)):
        alone = np.full((h, h), np.nan)
        assert modular_matrix(g, values, p, **{name: alone}) is alone
        assert np.array_equal(alone, half)
    return S, D


# as in the unfolded tests, B2 fills part of one key byte and B3 and A4
# need a second, partial byte
@pytest.mark.parametrize("spec", ["B2", "B3", "A4"])
def test_folded_halves_agree_with_symbolic_entries(spec):
    # S = B1 + B2 and D = B1 - B2 over the chambers X without reflection 0
    # in their inversion sets, in element order; B2 pairs x with y w0
    g = group(spec)
    wa = WeightAssignment.per_hyperplane(g)
    rng = random.Random(4)
    point = {v: rng.randrange(1, P) for v in wa.variables()}
    values = np.array([point[wa.var_of[t]]
                       for t in range(g.num_reflections)], dtype=np.int64)
    S, D = _halves(g, values, P)
    X = [x for x in range(g.order) if 0 not in inversion_set(g, x)]
    assert len(X) == g.order // 2
    assert S.dtype == D.dtype == np.float64
    assert S.shape == D.shape == (len(X), len(X))
    assert np.array_equal(S, S.T) and np.array_equal(D, D.T)
    w0 = longest_element(g)
    rows = build_varchenko_matrix(Arrangement(g), wa)
    for i, x in enumerate(X):
        for j, y in enumerate(X):
            b1 = rows[x][y].eval_mod(point, P)
            b2 = rows[x][mul(g, y, w0)].eval_mod(point, P)
            assert S[i, j] == (b1 + b2) % P
            assert D[i, j] == (b1 - b2) % P


# a product group, I2(m) for odd and even m, and F4, whose halves take
# several chunks of rows; at EDGE_P the elimination reduces the trailing
# matrix after every update
@pytest.mark.parametrize("p", [P, EDGE_P])
@pytest.mark.parametrize("spec", ["H3xA1", "I2(9)", "I2(10)", "F4"])
def test_folded_product_equals_the_unfolded_determinant(spec, p):
    g = group(spec)
    rng = random.Random(7)
    values = np.array([rng.randrange(1, p) for _ in range(g.num_reflections)],
                      dtype=np.int64)
    S, D = _halves(g, values, p)
    assert np.array_equal(S, S.T) and np.array_equal(D, D.T)
    full = det_mod_p(modular_matrix_reference(g, values, p), p)
    assert full != 0
    # each half alone, as verify takes F4's, and both as one stack
    alone = [det_mod_p_in_place(half.copy()[None], p)[0] for half in (S, D)]
    assert det_mod_p_in_place(np.stack([S, D]), p) == alone
    assert alone[0] * alone[1] % p == full


def test_modular_matrix_needs_a_half_of_the_folded_order():
    g = group("B3")
    values = np.arange(1, g.num_reflections + 1, dtype=np.int64)
    with pytest.raises(ParameterOutOfRange):
        modular_matrix(g, values, P)
    # B3 has 48 chambers, so its halves have order 24
    with pytest.raises(NonSquareMatrix):
        modular_matrix(g, values, P, S=np.empty((23, 23)))
    with pytest.raises(NonSquareMatrix):
        modular_matrix(g, values, P, S=np.empty((24, 24)),
                       D=np.empty((48, 48)))


# -- weight assignment modes -------------------------------------------------


def test_weight_modes_are_coherent():
    g = group("B3")
    per_h = WeightAssignment.per_hyperplane(g)
    per_o = WeightAssignment.per_orbit(g)
    f_h = closed_form_factorization(Arrangement(g), per_h)
    f_o = closed_form_factorization(Arrangement(g), per_o)
    rng = random.Random(9)
    for _ in range(50):
        orbit_vals = {v: rng.randrange(1, P) for v in per_o.variables()}
        point_h = {per_h.var_of[t]: orbit_vals[per_o.var_of[t]]
                   for t in range(g.num_reflections)}
        assert f_h.eval_mod(point_h, P) == f_o.eval_mod(orbit_vals, P)


def test_explicit_assignment_must_cover_all_reflections():
    g = group("A2")
    with pytest.raises(VariableCollision):
        WeightAssignment.explicit(g, {0: "x", 1: "y"})


# -- closed form -------------------------------------------------------------


def test_closed_form_A2_per_hyperplane():
    g = group("A2")
    f = closed_form_factorization(Arrangement(g),
                                  WeightAssignment.per_hyperplane(g))
    assert str(f) == "(1-a1^2)^2 (1-a2^2)^2 (1-a3^2)^2 (1-a1^2a2^2a3^2)^1"
    assert f.total_degree == 18


def test_closed_form_A3_single_q_is_zagier_4():
    g = group("A3")
    f = closed_form_factorization(Arrangement(g), WeightAssignment.single_q(g))
    assert str(f) == "(1-q^2)^36 (1-q^6)^8 (1-q^12)^2"
    assert f == zagier_formula(4)


def test_zagier_exponent_pattern():
    # exponent of (1 - q^(k^2+k)) is n! (n-k) / (k^2+k)
    from math import factorial
    for n in range(2, 7):
        f = zagier_formula(n)
        got = {m.degree * 2: e for m, e in f.factors}
        expect = {k * k + k: factorial(n) * (n - k) // (k * k + k)
                  for k in range(1, n)}
        assert got == expect


def test_degree_matches_matrix_size():
    # the determinant of the chamber matrix has degree sum over pairs
    # x != y of nothing obvious, but the closed form degree is stable
    # under weight coarsening
    g = group("B2")
    d1 = closed_form_factorization(
        Arrangement(g), WeightAssignment.per_hyperplane(g)).total_degree
    d2 = closed_form_factorization(
        Arrangement(g), WeightAssignment.single_q(g)).total_degree
    assert d1 == d2


# -- published formulas ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_duchamp_concordance(n):
    g = group(f"A{n - 1}")
    dic = a_type_dictionary(g.roots, n)
    f = closed_form_factorization(Arrangement(g),
                                  WeightAssignment("explicit", dic))
    assert f == duchamp_formula_A(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_randriamaro_concordance(n):
    g = group(f"B{n}")
    dic = b_type_dictionary(g.roots, n)
    f = closed_form_factorization(Arrangement(g),
                                  WeightAssignment("explicit", dic))
    assert f == randriamaro_formula_B(n)


def a_type_dictionary_reference(g, n):
    """Reflection index -> pair variable, from its word in W.

    The product of the letters' permutation matrices is the transposition
    of the two letters the reflection moves.
    """
    gens = []
    for i in range(n - 1):
        P = np.eye(n, dtype=np.int64)
        P[[i, i + 1]] = P[[i + 1, i]]
        gens.append(P)
    out = {}
    for t in range(g.num_reflections):
        M = np.eye(n, dtype=np.int64)
        for x in g.word(int(g.refl_ids[t])):
            M = M @ gens[x]
        moved = [i for i in range(n) if M[i, i] != 1]
        assert len(moved) == 2
        out[t] = pair_var(moved[0] + 1, moved[1] + 1)
    return out


def b_type_dictionary_reference(g, n):
    """Reflection index -> signed variable, from its word in W."""
    F = np.eye(n, dtype=np.int64)
    F[0, 0] = -1
    gens = [F]
    for i in range(n - 1):
        P = np.eye(n, dtype=np.int64)
        P[[i, i + 1]] = P[[i + 1, i]]
        gens.append(P)
    out = {}
    for t in range(g.num_reflections):
        M = np.eye(n, dtype=np.int64)
        for x in g.word(int(g.refl_ids[t])):
            M = M @ gens[x]
        moved = [i for i in range(n) if M[i, i] != 1]
        if len(moved) == 1:
            out[t] = singleton_var(moved[0] + 1)
        else:
            i, j = moved
            assert abs(int(M[i, j])) == 1
            out[t] = signed_pair_var(i + 1, (j + 1) * int(M[i, j]))
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_a_type_dictionary_matches_the_words(n):
    # uncached: A7 has 40320 elements
    g = build_group(parse_group_spec(f"A{n - 1}"))
    assert a_type_dictionary(g.roots, n) == a_type_dictionary_reference(g, n)


@pytest.mark.parametrize("n", range(2, 8))
def test_b_type_dictionary_matches_the_words(n):
    # uncached: B7 has 645120 elements
    g = build_group(parse_group_spec(f"B{n}"))
    assert b_type_dictionary(g.roots, n) == b_type_dictionary_reference(g, n)


def test_a_type_dictionary_is_a_bijection_onto_pairs():
    dic = a_type_dictionary(reflection_table(parse_group_spec("A3")), 4)
    assert sorted(dic) == list(range(6))
    assert len(set(dic.values())) == 6
    assert all(v.startswith("a_") for v in dic.values())


def test_b_type_dictionary_classifies_all_reflections():
    dic = b_type_dictionary(reflection_table(parse_group_spec("B3")), 3)
    vals = set(dic.values())
    assert len(vals) == 9
    singles = {v for v in vals if v.count("_") == 1}
    assert len(singles) == 3  # the sign flips


@pytest.mark.parametrize("formula,n", [(zagier_formula, 1),
                                       (zagier_formula, 0),
                                       (duchamp_formula_A, 1),
                                       (randriamaro_formula_B, 0)])
def test_published_formulas_reject_small_n(formula, n):
    # under python -O an assert here let zagier_formula(1) return det 1
    with pytest.raises(ParameterOutOfRange):
        formula(n)


def test_dictionaries_reject_a_rank_mismatch():
    with pytest.raises(ParameterOutOfRange):
        a_type_dictionary(reflection_table(parse_group_spec("A3")), 5)
    with pytest.raises(ParameterOutOfRange):
        b_type_dictionary(reflection_table(parse_group_spec("B3")), 4)


def chain_of_root_0_for_root_1(spec):
    """A copy of the table whose root 1 follows the chain of root 0."""
    roots = copy.copy(reflection_table(parse_group_spec(spec)))
    true_chain = roots.chain
    roots.chain = lambda t: true_chain(0 if t == 1 else t)
    return roots


def test_dictionaries_check_the_moved_letters():
    # a doctored chain moves the letters of root 0 for root 1 too, so two
    # reflections share a variable
    with pytest.raises(InvariantError, match="5 of the 6 pair"):
        a_type_dictionary(chain_of_root_0_for_root_1("A3"), 4)
    with pytest.raises(InvariantError, match="8 of the 9 signed"):
        b_type_dictionary(chain_of_root_0_for_root_1("B3"), 3)


def embedded_roots_reference(g, comp):
    """The product's reflection index for each reflection of a component.

    The component's own group spells the reflection as a word; the same
    word on the component's nodes is a reflection of the product.
    """
    sub = group(comp.label)
    out = []
    for t in range(sub.num_reflections):
        word = [comp.nodes[x] for x in sub.word(int(sub.refl_ids[t]))]
        x = element_of_word(g, word)
        u = int(np.searchsorted(g.refl_ids, x))
        assert g.refl_ids[u] == x
        out.append(u)
    return out


PRODUCT_SPECS = ["A1xA1", "B2xA1", "A2xA2", "H3xB3", "I2(5)xI2(7)xA2",
                 "A3xB2xI2(9)", "B3xA1xI2(5)"]


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_embedded_roots_match_the_words(spec):
    g = group(spec)
    for comp in g.diagram.components:
        sub = reflection_table(parse_group_spec(comp.label))
        assert embedded_roots(g.roots, comp, sub) == \
            embedded_roots_reference(g, comp)


def test_reducible_product_rule():
    # variables of each factor renamed into the product group's numbering
    g = group("A2xA1")
    a2, a1 = group("A2"), group("A1")

    def embedded(sub, comp):
        return {t: f"a{u + 1}"
                for t, u in enumerate(embedded_roots_reference(g, comp))}
    comp_a2, comp_a1 = g.diagram.components
    f1 = closed_form_factorization(
        Arrangement(a2), WeightAssignment("explicit", embedded(a2, comp_a2)))
    f2 = closed_form_factorization(
        Arrangement(a1), WeightAssignment("explicit", embedded(a1, comp_a1)))
    combined = reducible_product(f1, 2, f2, 6)
    direct = closed_form_factorization(
        Arrangement(g), WeightAssignment.per_hyperplane(g))
    assert combined == direct


def test_reducible_product_rejects_shared_variables():
    a1 = group("A1")
    f = closed_form_factorization(Arrangement(a1),
                                  WeightAssignment.per_hyperplane(a1))
    with pytest.raises(VariableCollision):
        reducible_product(f, 2, f, 2)


@pytest.mark.parametrize("spec", ["A1xA1", "B2xA1", "A2xA2"])
def test_concordance_reducible(spec):
    recs = concordance_checks(Arrangement(diagram=parse_group_spec(spec)))
    assert recs and all(r["verdict"] == "PASS" for r in recs)


def _never_enumerate(*args, **kwargs):
    raise AssertionError("W was enumerated")


def test_concordance_builds_no_group(monkeypatch):
    # every concordance branch reads reflection tables only
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    expected = {
        "A4": ["zagier_single_q", "duchamp_per_hyperplane"],
        "B3": ["randriamaro_per_hyperplane"],
        "H3xB3": ["reducible_product"],
        "A3xB2xI2(9)": ["reducible_product"],
    }
    for spec, checks in expected.items():
        recs = concordance_checks(Arrangement(diagram=parse_group_spec(spec)))
        assert [r["check"] for r in recs] == checks
        assert all(r["verdict"] == "PASS" for r in recs), recs


# -- modular verification ----------------------------------------------------


@pytest.mark.parametrize("spec,mode", [
    ("A2", "per_hyperplane"), ("A3", "single_q"), ("B2", "per_orbit"),
    ("I2(7)", "per_hyperplane"), ("A2xA1", "per_hyperplane"),
])
def test_verify_mod_p_passes(spec, mode):
    g = group(spec)
    wa = {
        "per_hyperplane": WeightAssignment.per_hyperplane,
        "per_orbit": WeightAssignment.per_orbit,
        "single_q": WeightAssignment.single_q,
    }[mode](g)
    report = verify_mod_p(Arrangement(g), wa, trials=2, primes=2, seed=3)
    assert report["verdict"] == "PASS"
    assert len(report["records"]) == 4
    for rec in report["records"]:
        assert rec["lhs"] == rec["rhs"]


def test_verify_mod_p_detects_wrong_exponents():
    # corrupt one multiplicity: the modular check must notice
    g = group("A2")
    wa = WeightAssignment.per_hyperplane(g)
    good = closed_form_factorization(Arrangement(g), wa)
    bad = Factorization(tuple(
        (m, e + (1 if m.degree == 3 else 0)) for m, e in good.factors))
    rng = random.Random(0)
    point = {v: rng.randrange(1, P) for v in wa.variables()}
    values = np.array([point[wa.var_of[t]] for t in range(3)],
                      dtype=np.int64)
    det = det_mod_p(modular_matrix_reference(g, values, P), P)
    assert good.eval_mod(point, P) == det
    assert bad.eval_mod(point, P) != det


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -2},
                                    {"primes": 0}, {"primes": -1}])
def test_verify_requires_a_determinant_record(kwargs):
    g = group("B3")
    with pytest.raises(CountOutOfRange):
        verify_mod_p(Arrangement(g), WeightAssignment.per_hyperplane(g),
                     **kwargs)


def test_verify_budget_enforced():
    g = group("H4")
    with pytest.raises(OrderLimitExceeded):
        verify_mod_p(Arrangement(g), WeightAssignment.single_q(g))


def test_verify_is_deterministic():
    g = group("B2")
    wa = WeightAssignment.per_hyperplane(g)
    r1 = verify_mod_p(Arrangement(g), wa, trials=3, primes=2, seed=11)
    r2 = verify_mod_p(Arrangement(g), wa, trials=3, primes=2, seed=11)
    assert r1 == r2
    r3 = verify_mod_p(Arrangement(g), wa, trials=3, primes=2, seed=12)
    assert [x["lhs"] for x in r1["records"]] != \
        [x["lhs"] for x in r3["records"]]


def _verify_B4_stacks(monkeypatch, capsys, stack_bytes):
    """Output of ``verify B4 --seed 7`` with DET_STACK_BYTES set, and the
    shape of every stack the elimination took."""
    shapes = []
    eliminate = varchenko.det_mod_p_in_place

    def recording(A, p):
        shapes.append(A.shape)
        return eliminate(A, p)

    monkeypatch.setattr(varchenko, "DET_STACK_BYTES", stack_bytes)
    monkeypatch.setattr(varchenko, "det_mod_p_in_place", recording)
    assert cli.main(["verify", "B4", "--seed", "7", "--format", "json"]) == 0
    return capsys.readouterr().out, shapes


def test_verify_output_does_not_depend_on_the_stack_size(monkeypatch,
                                                        capsys):
    # B4's halves have order 192, 8 * 192**2 float64 bytes each: by
    # default the five trials of a prime fit in one stack of ten
    half = 8 * 192 * 192
    assert varchenko.DET_STACK_BYTES // half == 14
    default, shapes = _verify_B4_stacks(monkeypatch, capsys,
                                        varchenko.DET_STACK_BYTES)
    assert shapes == [(10, 192, 192)] * 3
    # two trials per stack split each prime's five as 2, 2, 1
    split, shapes = _verify_B4_stacks(monkeypatch, capsys, 5 * half)
    assert shapes == [(4, 192, 192), (4, 192, 192), (2, 192, 192)] * 3
    # all fifteen trials would fit, but a stack holds one prime's
    whole, shapes = _verify_B4_stacks(monkeypatch, capsys, 1 << 30)
    assert shapes == [(10, 192, 192)] * 3
    # below one trial's two halves, each half goes alone, a stack of one
    alone, shapes = _verify_B4_stacks(monkeypatch, capsys, 2 * half - 1)
    assert shapes == [(1, 192, 192)] * 30
    assert split == default and whole == default and alone == default
    assert json.loads(default)["verdict"] == "PASS"


# F4's halves take turns in one (1, 576, 576) float64 buffer, and A5's
# two form one (2, 360, 360) stack.  The traced peak of verify is about
# 1.4 and 1.6 times that array; when each half was built as uint32 and
# copied to float64 for the elimination it was about 2.4 and 2.1 times.
@pytest.mark.parametrize("spec, order, members, bound", [
    ("F4", 576, 1, 1.9), ("A5", 360, 2, 1.85)])
def test_verify_holds_each_half_once(spec, order, members, bound):
    import tracemalloc

    g = group(spec)
    ar = arrangement.Arrangement(g)
    wa = WeightAssignment.per_hyperplane(g)
    g.inversion_table
    tracemalloc.start()
    try:
        report = verify_mod_p(ar, wa, trials=1, primes=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["verdict"] == "PASS"
    assert peak < bound * members * 8 * order**2


# -- symbolic anchor ---------------------------------------------------------


def cofactor_det(rows):
    """Cofactor-expansion determinant of a nested list of sympy expressions.

    The naive n!-term expansion, kept as the reference for the memoized
    Laplace expansion in `symbolic_determinant`.
    """
    import sympy

    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = sympy.Integer(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


@pytest.mark.parametrize("spec", ["A1", "A1xA1", "I2(3)"])
def test_symbolic_determinant_equals_cofactor_reference(spec):
    import sympy
    g = group(spec)
    for wa in (WeightAssignment.per_hyperplane(g),
               WeightAssignment.per_orbit(g),
               WeightAssignment.single_q(g)):
        rows = [[sympy.Mul(*(sympy.Symbol(v) ** e for v, e in m.exps))
                 for m in r]
                for r in build_varchenko_matrix(Arrangement(g), wa)]
        assert symbolic_determinant(g, wa) == \
            sympy.expand(cofactor_det(rows))


@pytest.mark.parametrize("spec", ["A1", "A1xA1", "I2(3)", "B2"])
def test_symbolic_determinant_equals_closed_form(spec):
    import sympy
    g = group(spec)
    wa = WeightAssignment.per_hyperplane(g)
    det = symbolic_determinant(g, wa)
    f = closed_form_factorization(Arrangement(g), wa)
    assert sympy.expand(det - sympy.expand(to_sympy(f))) == 0
