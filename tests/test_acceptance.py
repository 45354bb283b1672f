"""Acceptance suite: seven headline checks, one verdict line each.

Each test prints "criterion N: PASS/FAIL ..." before asserting, so the
verdicts survive in the captured output either way.  Expected multiplicity
tables are encoded from the published ingredient tables, verbatim except
for the F4 B2 and F4 rows: the published products 32 and 480 are
corrected to 16 and 240, and the published rows are kept in
PUBLISHED_ERRATA, where a degree identity shows them wrong.  Rows where
our computed ingredient attribution provably differs (product equal,
oracle confirmed) are listed in ATTRIBUTION_ROWS rather than silently
accepted.
"""

import math
from collections import Counter

import sympy

from coxvar import group
from coxvar.arrangement import Arrangement
from coxvar.varchenko import (
    WeightAssignment,
    a_type_dictionary,
    b_type_dictionary,
    closed_form_factorization,
    concordance_checks,
    duchamp_formula_A,
    randriamaro_formula_B,
    verify_mod_p,
    zagier_formula,
)
from varchenko_reference import symbolic_determinant, to_sympy


def _verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- criterion 1: full-support reflection counts -----------------------------

FULL_SUPPORT_EXPECT = {}
for _n in range(2, 8):
    FULL_SUPPORT_EXPECT[f"A{_n - 1}"] = [1]
for _n in range(2, 7):
    FULL_SUPPORT_EXPECT[f"B{_n}"] = sorted([1, _n - 1])
for _n in range(4, 7):
    FULL_SUPPORT_EXPECT[f"D{_n}"] = [_n - 2]
FULL_SUPPORT_EXPECT["E6"] = [7]
FULL_SUPPORT_EXPECT["F4"] = [5, 5]
FULL_SUPPORT_EXPECT["H3"] = [8]
FULL_SUPPORT_EXPECT["H4"] = [42]
for _m in range(3, 13):
    if _m % 2:
        FULL_SUPPORT_EXPECT[f"I2({_m})"] = [_m - 2]
    else:
        FULL_SUPPORT_EXPECT[f"I2({_m})"] = [(_m - 2) // 2, (_m - 2) // 2]


def test_criterion_1_full_support_counts():
    failures = []
    for spec, expect in sorted(FULL_SUPPORT_EXPECT.items()):
        g = group(spec)
        full = [t for t in range(g.num_reflections)
                if g.roots.support[t] == (1 << g.n) - 1]
        per_class = Counter(int(g.reflection_class_of[t]) for t in full)
        got = sorted(per_class.values()) if len(full) else [0]
        if got != expect:
            failures.append((spec, got, expect))
    _verdict(1, not failures,
             f"full-support counts for {len(FULL_SUPPORT_EXPECT)} groups"
             + (f"; mismatches: {failures}" if failures else ""))


# -- criterion 2: multiplicity ingredient table ------------------------------

# Rows are (label, acceptable ingredient tuples, product, class count);
# split columns like "1|2 ... 8|4" contribute one acceptable tuple per
# reading.  Labels with primes collapse to the bare type.


def _fact(n):
    return math.factorial(n)


def _a_rows(n):
    return [(f"A{i}", [(1, n - i, _fact(n - i - 1), _fact(i - 1))],
             (n - i) * _fact(n - i - 1) * _fact(i - 1), 1)
            for i in range(1, n)]


def _b_rows(n):
    rows = []
    for i in range(1, n):
        t = (1, n - i, 2 ** (n - i) * _fact(n - i - 1), _fact(i - 1))
        rows.append((f"A{i}", [t], t[0] * t[1] * t[2] * t[3], 1))
    # B_1 (the lone short generator) via the B_j row at j = 1
    rows.append(("A1", [(1, 1, 2 ** (n - 1) * _fact(n - 1), 1)],
                 2 ** (n - 1) * _fact(n - 1), 1))
    for j in range(2, n + 1):
        x = 2 ** (n - 1) * _fact(n - j)
        tuples = [(1, 1, x, _fact(j - 1)), (j - 1, 1, x, _fact(j - 2))]
        label = f"B{j}" if j > 2 else "B2"
        rows.append((label, tuples, x * _fact(j - 1), 1))
    return rows


TABLE_ROWS = {
    "A2": _a_rows(3),
    "A3": _a_rows(4),
    "A4": _a_rows(5),
    "A5": _a_rows(6),
    "B2": _b_rows(2),
    "B3": _b_rows(3),
    "B4": _b_rows(4),
    "D4": [
        ("A1", [(1, 4, 8, 1)], 32, 1),
        ("A2", [(1, 3, 2, 1)], 6, 1),
        ("A3", [(1, 2, 1, 2)], 4, 1),
        ("D4", [(2, 1, 1, 8)], 16, 1),
    ],
    "F4": [
        ("A1", [(1, 2, 48, 1)], 96, 2),
        ("A2", [(1, 1, 12, 1)], 12, 2),
        ("B2", [(1, 1, 8, 2)], 16, 1),
        ("B3", [(1, 1, 2, 8), (2, 1, 2, 4)], 16, 2),
        ("F4", [(5, 1, 1, 48)], 240, 1),
    ],
    "H3": [
        ("A1", [(1, 3, 4, 1)], 12, 1),
        ("A2", [(1, 1, 2, 1)], 2, 1),
        ("I2(5)", [(3, 1, 2, 1)], 6, 1),
        ("H3", [(8, 1, 1, 4)], 32, 1),
    ],
    "H4": [
        ("A1", [(1, 4, 120, 1)], 480, 1),
        ("A2", [(1, 2, 12, 1)], 24, 1),
        ("I2(5)", [(3, 1, 20, 1)], 60, 1),
        ("A3", [(1, 1, 2, 2)], 4, 1),
        ("H3", [(8, 1, 2, 4)], 64, 1),
        ("H4", [(42, 1, 1, 120)], 5040, 1),
    ],
}
for _m in (5, 7):
    TABLE_ROWS[f"I2({_m})"] = [
        ("A1", [(1, 2, 1, 1)], 2, 1),
        (f"I2({_m})", [(_m - 2, 1, 1, 1)], _m - 2, 1),
    ]
for _m in (4, 6, 8):
    # the rank-2 bond-4 diagram is classified as B2, so the center row of
    # I2(4) carries that label
    _center = "B2" if _m == 4 else f"I2({_m})"
    TABLE_ROWS[f"I2({_m})"] = [
        ("A1", [(2, 1, 1, 1)], 2, 2),
        (_center, [(_m - 2, 1, 1, 1)], _m - 2, 1),
    ]
TABLE_ROWS["I2(3)"] = _a_rows(3)

# Rows where the published ingredient split is a different but
# product-equal bookkeeping of the same multiplicity.  Kept out of the
# hard comparison; any other tuple mismatch is a failure.
ATTRIBUTION_ROWS = {
    ("B2", "B2"), ("B3", "B2"), ("B3", "B3"),
    ("B4", "B2"), ("B4", "B3"), ("B4", "B4"),
    ("D4", "A3"),
    ("I2(4)", "A1"), ("I2(6)", "A1"), ("I2(8)", "A1"),
    ("I2(4)", "B2"), ("I2(6)", "I2(6)"), ("I2(8)", "I2(8)"),
}


# Published rows that are wrong, verbatim, keyed like TABLE_ROWS.  The
# corrected rows above agree with the chamber oracle (criterion 3) and
# the modular determinants (criterion 4); the degree identity below
# tells the two apart without the code under test.  The published floors
# 2 and 10 add up the full-support reflections of both F4 reflection
# classes, which conjugation cannot mix (5 per class, criterion 1).
PUBLISHED_ERRATA = {
    "F4": [
        ("B2", [(2, 1, 8, 2)], 32, 1),
        ("F4", [(10, 1, 1, 48)], 480, 1),
    ],
}

# Degree identity.  With every weight q, V(C, D) = q^d(C, D), d <= |T|,
# and d = |T| only for D = -C, so deg det = |W| * |T|; the factorization
# gives deg det = sum over edges E of 2 * l(E) * |E|.  Per group: (|W|,
# |T|) and, per edge-class label, (edges per class, |E|), with edges
# per class = |W| / |N_W(W_J)| and |E| = |T_J|.
DEGREE_DATA = {
    "F4": ((1152, 24), {
        "A1": (1152 // 96, 1),    # N = W(A1) x W(B3): 2 * 48
        "A2": (1152 // 72, 3),    # N = (W(A2) x W(A2)) . 2: 6 * 6 * 2
        "B2": (1152 // 64, 4),    # N = W(B2) x W(B2): 8 * 8
        "B3": (1152 // 96, 9),    # N = W(B3) x W(A1): 48 * 2
        "F4": (1152 // 1152, 24),
    }),
}


def _degree(spec, rows):
    """Sum of 2 * l * |E| over the edges of the classes in `rows`."""
    edges = DEGREE_DATA[spec][1]
    total = 0
    for label, _, product, k in rows:
        count, size = edges[label]
        total += 2 * product * size * count * k
    return total


def _published_rows(spec):
    errata = {row[0]: row for row in PUBLISHED_ERRATA[spec]}
    return [errata.get(row[0], row) for row in TABLE_ROWS[spec]]


def _degree_check():
    """Expected rows must meet |W| * |T|; each erratum table must not."""
    failures = []
    for spec in sorted(PUBLISHED_ERRATA):
        (order, refls), _ = DEGREE_DATA[spec]
        want = order * refls
        expected = _degree(spec, TABLE_ROWS[spec])
        published = _degree(spec, _published_rows(spec))
        print(f"  degree note: {spec}: expected rows {expected}, "
              f"published rows {published}, |W|*|T| = {want}")
        if expected != want:
            failures.append(f"{spec}: expected rows give degree "
                            f"{expected}, not |W|*|T| = {want}")
        if published == want:
            failures.append(f"{spec}: published rows also give degree "
                            f"{want}; the erratum is not shown")
    return failures


def _norm_label(label):
    return label.rstrip("'′″")


def test_criterion_2_multiplicity_table():
    failures = []
    notes = []
    for spec, rows in sorted(TABLE_ROWS.items()):
        computed = Arrangement(group(spec)).multiplicity_reports()
        got = Counter((_norm_label(r.label), r.l_formula) for r in computed)
        expect = Counter()
        acceptable = {}
        for label, tuples, product, k in rows:
            expect[(label, product)] += k
            acceptable.setdefault(label, set()).update(tuples)
        if got != expect:
            diff = []
            for key, cnt in (got - expect).items():
                if (spec, key[0]) in ATTRIBUTION_ROWS and key in expect:
                    notes.append(
                        f"{spec}/{key[0]}: {cnt + expect[key]} classes "
                        f"of product {key[1]} vs {expect[key]} tabled")
                    continue
                diff.append(("computed", key, cnt))
            for key, cnt in (expect - got).items():
                if (spec, key[0]) in ATTRIBUTION_ROWS and key in got:
                    continue
                diff.append(("table", key, cnt))
            if diff:
                failures.append(f"{spec}: {diff}")
        for r in computed:
            label = _norm_label(r.label)
            if r.ingredients in acceptable.get(label, set()):
                continue
            if (spec, label) in ATTRIBUTION_ROWS and \
                    (label, r.l_formula) in expect:
                notes.append(f"{spec}/{label}: computed {r.ingredients}")
            elif (label, r.l_formula) not in expect:
                pass  # already reported as a product failure above
            else:
                failures.append(
                    f"{spec}/{label}: ingredients {r.ingredients} "
                    "not an accepted reading")
    for note in notes:
        print(f"  attribution note (product equal, oracle confirmed): "
              f"{note}")
    for spec, rows in sorted(PUBLISHED_ERRATA.items()):
        for label, tuples, product, _ in rows:
            print(f"  erratum note (published value wrong): {spec}/{label}: "
                  f"published {tuples[0]} -> {product}")
    failures += _degree_check()
    _verdict(2, not failures,
             "ingredient table reproduction, degree identity"
             + (f"; failures: {failures}" if failures else ""))


# -- criterion 3: formula vs chamber oracle ----------------------------------

ORACLE_FULL = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(9)",
    "I2(10)", "I2(11)", "I2(12)",
    "A1xA1", "A2xA1", "B2xA1", "A2xA2", "A3xA1", "A1xA1xA1",
]
ORACLE_REPRESENTATIVE = ["H4", "E6"]


def test_criterion_3_formula_vs_oracle():
    failures = []
    checked = 0
    for spec in ORACLE_FULL + ORACLE_REPRESENTATIVE:
        a = Arrangement(group(spec))
        for rep in a.multiplicity_reports(with_oracle=True):
            checked += 1
            if not rep.match:
                failures.append(
                    (spec, rep.label, rep.l_formula, rep.l_oracle))
    _verdict(3, not failures,
             f"{checked} edge classes across "
             f"{len(ORACLE_FULL + ORACLE_REPRESENTATIVE)} groups"
             + (f"; mismatches: {failures}" if failures else ""))


# -- criterion 4: modular determinant identity -------------------------------

VERIFY_SPECS = ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3",
                "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                "F4", "A1xA1", "A2xA1"]


def test_criterion_4_determinant_identity():
    failures = []
    for spec in VERIFY_SPECS:
        g = group(spec)
        report = verify_mod_p(Arrangement(g),
                              WeightAssignment.per_hyperplane(g),
                              trials=5, primes=3, seed=0)
        passed = sum(1 for r in report["records"]
                     if r["verdict"] == "PASS")
        if passed != 15:
            failures.append((spec, f"{passed}/15"))
    _verdict(4, not failures,
             f"15/15 point-prime pairs for {len(VERIFY_SPECS)} groups"
             + (f"; failures: {failures}" if failures else ""))


# -- criterion 5: formal concordance with published formulas -----------------


def test_criterion_5_formal_concordance():
    failures = []
    for n in range(2, 6):
        g = group(f"A{n - 1}")
        ar = Arrangement(g)
        if closed_form_factorization(
                ar, WeightAssignment.single_q(g)) != zagier_formula(n):
            failures.append(f"zagier n={n}")
        dic = a_type_dictionary(g.roots, n)
        if closed_form_factorization(
                ar, WeightAssignment("explicit", dic)) != \
                duchamp_formula_A(n):
            failures.append(f"duchamp n={n}")
    for n in range(2, 5):
        g = group(f"B{n}")
        dic = b_type_dictionary(g.roots, n)
        if closed_form_factorization(
                Arrangement(g), WeightAssignment("explicit", dic)) != \
                randriamaro_formula_B(n):
            failures.append(f"randriamaro n={n}")
    for spec in ("A1xA1", "B2xA1"):
        recs = concordance_checks(Arrangement(group(spec)))
        if not recs or any(r["verdict"] != "PASS" for r in recs):
            failures.append(f"reducible {spec}")
    _verdict(5, not failures,
             "zagier n<=5, duchamp n<=5, randriamaro n<=4, "
             "reducible on 2 product groups"
             + (f"; failures: {failures}" if failures else ""))


# -- criterion 6: fully symbolic anchor --------------------------------------


def test_criterion_6_symbolic_anchor():
    failures = []
    for spec in ("A1", "A1xA1", "I2(3)"):
        g = group(spec)
        wa = WeightAssignment.per_hyperplane(g)
        det = symbolic_determinant(g, wa)
        closed = sympy.expand(to_sympy(
            closed_form_factorization(Arrangement(g), wa)))
        if sympy.expand(det - closed) != 0:
            failures.append(spec)
    _verdict(6, not failures,
             "cofactor determinant equals expanded closed form for "
             "A1, A1xA1, I2(3)"
             + (f"; failures: {failures}" if failures else ""))


# -- criterion 7: property suites and coverage -------------------------------


def _executable_lines(path):
    """Line numbers of statements inside function bodies of a module."""
    with open(path) as fh:
        src = fh.read()
    top = compile(src, path, "exec")
    lines = set()
    CO_OPTIMIZED = 0x01  # set for real functions, not class/module bodies

    def walk(code):
        if code.co_flags & CO_OPTIMIZED:
            for _, _, ln in code.co_lines():
                # the def line itself fires at class/module creation only
                if ln is not None and ln != code.co_firstlineno:
                    lines.add(ln)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    walk(top)
    return lines


def _property_bundle():
    """Exercise of arrangement and varchenko run under the line tracer."""
    import copy
    import itertools

    import numpy as np

    from coxvar.arrangement import Edge
    from coxvar.coxeter_core import build_group, parse_group_spec
    from coxvar.errors import (
        CoxvarError,
        OrderLimitExceeded,
        VariableCollision,
    )
    from coxvar.varchenko import (
        DEFAULT_PRIMES,
        _is_prime,
        build_varchenko_matrix,
        edge_factors,
        primes_list,
        reducible_product,
    )
    from group_reference import (
        conjugator,
        decompose_L,
        edge_lookup,
        longest_element,
        minimal_edge_through_chamber_face,
        separating_set,
    )
    from varchenko_reference import modular_matrix_reference

    for spec in ("A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "A2xA1"):
        g = group(spec)
        a = Arrangement(g)
        separating_set(g, 0, longest_element(g))
        lookup = edge_lookup(a)
        assert lookup
        for rep in a.multiplicity_reports(with_oracle=True):
            assert rep.match
        for x in range(0, g.order, 7):
            for t in range(g.num_reflections):
                e = minimal_edge_through_chamber_face(a, lookup, x, t)
                assert t in e.reflections
        full_J = tuple(range(g.n))
        if full_J in g.diagram.irreducible_subsets():
            full_mask = (1 << g.n) - 1
            tJ = int(np.flatnonzero(a.roots.support == full_mask)[0])
            decompose_L(a, full_J, tJ)
            if int(a.roots.support[0]) != full_mask:
                try:
                    decompose_L(a, full_J, 0)
                    raise AssertionError("support guard did not trigger")
                except ValueError:
                    pass
        try:
            a.multiplicity_formula((0, 2) if g.n > 2 else ())
        except ValueError:
            pass
    # the guard paths that healthy data can never reach
    class _SkewedOracle(Arrangement):
        def _chamber_counts(self, edge):
            return [2 * (1 + i) for i in range(len(edge))]

    g3 = group("A2")
    skew = _SkewedOracle(g3)
    try:
        skew.multiplicity_oracle(skew.relevant_edges()[-1])
        raise AssertionError("invariance guard did not trigger")
    except Exception as exc:
        assert type(exc).__name__ == "InvarianceViolation"

    class _OddOracle(Arrangement):
        def _chamber_counts(self, edge):
            return [3] * len(edge)

    class _WrongOrbit(Arrangement):
        def _coxeter_class(self, J, rows, members):
            return super()._coxeter_class(
                J, np.concatenate([rows, rows[:1]]), members)

    class _ClassDependentFormula(Arrangement):
        def _floor_and_x_J_s(self, t):
            members, floor, _ = super()._floor_and_x_J_s(t)
            return members, floor, next(counter)

    class _RepeatedClass(Arrangement):
        def _coxeter_class(self, J, rows, members):
            first = super()._coxeter_class(J, rows, members)
            return self.__dict__.setdefault("first_class", first)

    counter = itertools.count(1)
    # a W_J-class of the wrong size for |X(J,{s})|
    wrong_class = Arrangement(g3)
    wrong_class.roots = copy.copy(wrong_class.roots)
    wrong_class.roots.parabolic_class = lambda t: np.arange(5)
    # W's root table conjugating by the generators swapped
    g_swapped = build_group(parse_group_spec("A3"))
    g_swapped.roots = copy.copy(g_swapped.roots)
    g_swapped.roots.R = g_swapped.roots.R[:, ::-1]
    # a chain without its letters: t = v^-1 s v with v = e
    no_letters = Arrangement(group("A3"))
    true_chain = no_letters.roots.chain
    no_letters.roots = copy.copy(no_letters.roots)
    no_letters.roots.chain = lambda t: (true_chain(t)[0], [])
    t_a3 = int(np.flatnonzero(no_letters.roots.support == 0b111)[0])
    odd = _OddOracle(g3)

    # root 1 following the chain of root 0: two roots share a variable
    def collided(spec):
        roots = copy.copy(group(spec).roots)
        true = roots.chain
        roots.chain = lambda t: true(0 if t == 1 else t)
        return roots
    guards = [
        (lambda: odd.multiplicity_oracle(odd.relevant_edges()[0]),
         "InvarianceViolation"),
        (lambda: _WrongOrbit(g3).relevant_edges(), "InvariantError"),
        (lambda: _RepeatedClass(g3).relevant_edges(), "InvariantError"),
        (lambda: _ClassDependentFormula(group("B2")).multiplicity_formula(
            (0, 1)), "InvariantError"),
        (lambda: wrong_class.multiplicity_formula((0, 1)), "InvariantError"),
        (lambda: g_swapped.refl_ids, "InvariantError"),
        (lambda: decompose_L(no_letters, (0, 1, 2), t_a3), "InvariantError"),
        (lambda: conjugator(g3, 0, 1, []), "InvariantError"),
        (lambda: zagier_formula(1), "ParameterOutOfRange"),
        (lambda: duchamp_formula_A(1), "ParameterOutOfRange"),
        (lambda: randriamaro_formula_B(0), "ParameterOutOfRange"),
        (lambda: a_type_dictionary(group("A3").roots, 5),
         "ParameterOutOfRange"),
        (lambda: b_type_dictionary(group("B3").roots, 4),
         "ParameterOutOfRange"),
        (lambda: a_type_dictionary(collided("A3"), 4), "InvariantError"),
        (lambda: b_type_dictionary(collided("B3"), 3), "InvariantError"),
    ]
    for trigger, name in guards:
        try:
            trigger()
            raise AssertionError(f"{name} guard did not trigger")
        except CoxvarError as exc:
            assert type(exc).__name__ == name
    # W enumerated on first use, for an arrangement built from its diagram
    assert Arrangement(diagram=parse_group_spec("A2"), limit=6).group.order == 6
    # I2(21)'s one class of 21 reflections is past the limit of 10
    try:
        Arrangement(diagram=parse_group_spec("I2(21)"), limit=10).roots
        raise AssertionError("reflection count guard did not trigger")
    except OrderLimitExceeded:
        pass
    # a reflection set that no face spans skips every support class
    assert Arrangement(g3)._chamber_counts(
        Edge(reflections=(0,), class_J=(0, 1), coset_id=0)).tolist() == [0]

    for spec in ("A2", "B2", "A1xA1"):
        g = group(spec)
        for wa in (WeightAssignment.per_hyperplane(g),
                   WeightAssignment.per_orbit(g),
                   WeightAssignment.single_q(g)):
            f = closed_form_factorization(Arrangement(g), wa)
            assert f.normalize() == f
            point = {v: 1234567 + i for i, v in enumerate(wa.variables())}
            p = DEFAULT_PRIMES[0]
            values = np.array(
                [point[wa.var_of[t]] for t in range(g.num_reflections)],
                dtype=np.int64)
            from coxvar.exact_algebra import det_mod_p
            assert det_mod_p(modular_matrix_reference(g, values, p), p) == \
                f.eval_mod(point, p)
        a = Arrangement(g)
        build_varchenko_matrix(a, WeightAssignment.per_hyperplane(g))
        edge_factors(a, WeightAssignment.per_hyperplane(g))
        concordance_checks(a)
        verify_mod_p(a, WeightAssignment.per_hyperplane(g),
                     trials=1, primes=2, seed=1)
    zagier_formula(5)
    duchamp_formula_A(4)
    randriamaro_formula_B(3)
    primes_list(5)
    # 1 and a composite past trial division, which primes_list never meets
    assert not any(_is_prime(n) for n in (1, 41 * 43))
    # B3's nine reflections fill a second key byte of modular_matrix
    verify_mod_p(Arrangement(group("B3")),
                 WeightAssignment.per_hyperplane(group("B3")),
                 trials=1, primes=1)
    a_type_dictionary(group("A3").roots, 4)
    b_type_dictionary(group("B3").roots, 3)
    symbolic_determinant(group("A1"),
                         WeightAssignment.per_hyperplane(group("A1")))
    try:
        symbolic_determinant(group("A3"),
                             WeightAssignment.single_q(group("A3")))
    except OrderLimitExceeded:
        pass
    try:
        build_varchenko_matrix(Arrangement(group("A5")),
                               WeightAssignment.single_q(group("A5")))
    except OrderLimitExceeded:
        pass
    try:
        verify_mod_p(Arrangement(group("H4")),
                     WeightAssignment.single_q(group("H4")))
    except OrderLimitExceeded:
        pass
    try:
        WeightAssignment.explicit(group("A2"), {0: "x"})
    except VariableCollision:
        pass
    f1 = closed_form_factorization(
        Arrangement(group("A1")), WeightAssignment.per_hyperplane(group("A1")))
    try:
        reducible_product(f1, 2, f1, 2)
    except VariableCollision:
        pass
    f2 = closed_form_factorization(
        Arrangement(group("A1")),
        WeightAssignment.explicit(group("A1"), {0: "w"}))
    reducible_product(f1, 2, f2, 2)


def test_criterion_7_properties_and_coverage():
    import trace as trace_mod

    import coxvar.arrangement as arrangement_mod
    import coxvar.varchenko as varchenko_mod

    tracer = trace_mod.Trace(count=1, trace=0)
    tracer.runfunc(_property_bundle)
    counts = tracer.results().counts
    coverages = {}
    for mod in (arrangement_mod, varchenko_mod):
        path = mod.__file__
        executable = _executable_lines(path)
        hit = {ln for (fn, ln) in counts if fn == path} & executable
        coverages[mod.__name__.rsplit(".", 1)[-1]] = \
            (len(hit), len(executable))
    detail = ", ".join(f"{name} {h}/{n} lines ({100 * h / n:.1f}%)"
                       for name, (h, n) in coverages.items())
    ok = all(h >= 0.95 * n for h, n in coverages.values())
    _verdict(7, ok, f"property bundle passed; coverage: {detail}")
