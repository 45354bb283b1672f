"""Varchenko matrices, the closed-form determinant, and verification.

The closed form is a product of one factor per relevant edge, with the
edge weight monomial and the multiplicity exponent supplied by the
arrangement module.  Verification never expands the symbolic determinant:
it evaluates both sides at random points modulo several word-sized primes.
A fully symbolic Laplace-expansion determinant is kept as an anchor for tiny
groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .arrangement import Arrangement
from .coxeter_core import EnumeratedGroup, ReflectionTable
from .errors import (
    CountOutOfRange,
    InvariantError,
    NonIntegerExponent,
    OrderLimitExceeded,
    ParameterOutOfRange,
    VariableCollision,
)
from .exact_algebra import Factorization, Monomial, det_mod_p

# primes just above 2**31, inside det_mod_p's exact range p < 2**32; more
# are generated on demand
DEFAULT_PRIMES = (2147483659, 2147483693, 2147483713)

MATRIX_DUMP_LIMIT = 200
DET_BUDGET = 1152
HARD_DET_CAP = 14400


def primes_list(count: int):
    """The first ``count`` primes from DEFAULT_PRIMES upward; count >= 1."""
    if count < 1:
        raise CountOutOfRange(f"prime count {count} is below 1")
    ps = list(DEFAULT_PRIMES[:count])
    if count > len(ps):
        import sympy

        p = ps[-1]
        while len(ps) < count:
            p = int(sympy.nextprime(p))
            ps.append(p)
    return ps


@dataclass
class WeightAssignment:
    """Maps each hyperplane (reflection index) to a formal variable name.

    The constructors read ``num_reflections`` and ``reflection_class_of``
    of a group or of its reflection table, which numbers the reflections
    the same way.
    """

    mode: str
    var_of: dict[int, str]
    orbit_of: dict[int, int] = field(default_factory=dict)

    @classmethod
    def per_hyperplane(cls, group: EnumeratedGroup | ReflectionTable):
        var_of = {t: f"a{t + 1}" for t in range(group.num_reflections)}
        orbit = {t: int(group.reflection_class_of[t])
                 for t in range(group.num_reflections)}
        return cls("per_hyperplane", var_of, orbit)

    @classmethod
    def per_orbit(cls, group: EnumeratedGroup | ReflectionTable):
        orbit = {t: int(group.reflection_class_of[t])
                 for t in range(group.num_reflections)}
        var_of = {t: f"b{c + 1}" for t, c in orbit.items()}
        return cls("per_orbit", var_of, orbit)

    @classmethod
    def single_q(cls, group: EnumeratedGroup | ReflectionTable):
        var_of = {t: "q" for t in range(group.num_reflections)}
        return cls("single_q", var_of)

    @classmethod
    def explicit(cls, group: EnumeratedGroup | ReflectionTable,
                 mapping: dict[int, str]):
        if sorted(mapping) != list(range(group.num_reflections)):
            raise VariableCollision(
                "explicit assignment must cover every reflection index")
        return cls("explicit", dict(mapping))

    def variables(self):
        return sorted(set(self.var_of.values()))


@dataclass
class VarchenkoMatrix:
    order: int
    entries: list[list[Monomial]]  # symmetric, unit diagonal


def build_varchenko_matrix(group: EnumeratedGroup, wa: WeightAssignment,
                           cap: int = MATRIX_DUMP_LIMIT) -> VarchenkoMatrix:
    if group.order > cap:
        raise OrderLimitExceeded(
            f"|W| = {group.order} exceeds matrix cap {cap}",
            known_order=group.order)
    N = group.inversion_table
    rows = []
    for x in range(group.order):
        row = []
        for y in range(group.order):
            diff = np.nonzero(N[x] ^ N[y])[0]
            row.append(Monomial.from_vars(wa.var_of[int(t)] for t in diff))
        rows.append(row)
    return VarchenkoMatrix(group.order, rows)


def closed_form_factorization(group: EnumeratedGroup | Arrangement,
                              wa: WeightAssignment) -> Factorization:
    """One factor (1 - a(E)^2)^l(E) per relevant edge, normalized."""
    return Factorization(tuple(
        (mono, mult) for _, mono, mult in edge_factors(group, wa))
    ).normalize()


def edge_factors(group: EnumeratedGroup | Arrangement, wa: WeightAssignment):
    """Unmerged per-edge factor records for reporting.

    ``group`` is a group, or an arrangement, which needs no enumerated W
    for its edges and multiplicities.
    """
    ar = group if isinstance(group, Arrangement) else Arrangement(group)
    l_of_class = {J: ar.multiplicity_formula(J).l_formula
                  for J in ar.class_representatives()}
    out = []
    for edge in ar.relevant_edges():
        mono = Monomial.from_vars(wa.var_of[t] for t in edge.reflections)
        out.append((edge, mono, l_of_class[edge.class_J]))
    return out


# ---------------------------------------------------------------------------
# published special cases


def zagier_formula(n: int) -> Factorization:
    """Single-variable determinant of the braid arrangement on n letters."""
    if n < 2:
        raise ParameterOutOfRange(f"n = {n} letters; need n >= 2")
    factors = []
    for k in range(1, n):
        num = factorial(n) * (n - k)
        den = k * k + k
        if num % den:
            raise NonIntegerExponent(f"exponent {num}/{den} at k={k}")
        # stored weight is a(E) itself: q^(k(k+1)/2), squared at render time
        factors.append((Monomial.from_dict({"q": k * (k + 1) // 2}), num // den))
    return Factorization(tuple(factors)).normalize()


def pair_var(i: int, j: int) -> str:
    i, j = min(i, j), max(i, j)
    return f"a_{i}_{j}"


def duchamp_formula_A(n: int) -> Factorization:
    """Per-hyperplane determinant of the braid arrangement on n letters."""
    if n < 2:
        raise ParameterOutOfRange(f"n = {n} letters; need n >= 2")
    from itertools import combinations

    factors = []
    for size in range(2, n + 1):
        for I in combinations(range(1, n + 1), size):
            mono = Monomial.from_vars(pair_var(i, j)
                                      for i, j in combinations(I, 2))
            exp = factorial(size - 2) * factorial(n - size + 1)
            factors.append((mono, exp))
    return Factorization(tuple(factors)).normalize()


def signed_pair_var(a: int, b: int) -> str:
    """Variable of the hyperplane x_|a| = sign(a)sign(b) x_|b|."""
    i, j = sorted((abs(a), abs(b)))
    if (a > 0) == (b > 0):
        return f"a_{i}_{j}"
    return f"a_m{i}_{j}"


def singleton_var(i: int) -> str:
    return f"a_{i}"


def randriamaro_formula_B(n: int) -> Factorization:
    """Per-hyperplane determinant of the type-B arrangement."""
    if n < 1:
        raise ParameterOutOfRange(f"rank n = {n}; need n >= 1")
    from itertools import combinations, product

    factors = []
    # signed subsets with distinct magnitudes, smallest magnitude positive
    for size in range(2, n + 1):
        for mags in combinations(range(1, n + 1), size):
            for signs in product((1, -1), repeat=size - 1):
                J = (mags[0],) + tuple(m * s for m, s in zip(mags[1:], signs))
                mono = Monomial.from_vars(signed_pair_var(a, b)
                                          for a, b in combinations(J, 2))
                exp = (2 ** (n - size + 1) * factorial(size - 2)
                       * factorial(n - size + 1))
                factors.append((mono, exp))
    for size in range(1, n + 1):
        for I in combinations(range(1, n + 1), size):
            vs = [singleton_var(i) for i in I]
            for i, j in combinations(I, 2):
                vs.append(f"a_{i}_{j}")
                vs.append(f"a_m{i}_{j}")
            mono = Monomial.from_vars(vs)
            exp = 2 ** (n - 1) * factorial(size - 1) * factorial(n - size)
            factors.append((mono, exp))
    return Factorization(tuple(factors)).normalize()


def reducible_product(f1: Factorization, order2: int,
                      f2: Factorization, order1: int) -> Factorization:
    """det of a product group: (det A_1)^|W_2| (det A_2)^|W_1|."""
    if set(f1.variables()) & set(f2.variables()):
        raise VariableCollision("factor variable sets must be disjoint")
    return Factorization(
        f1.scale_exponents(order2).factors
        + f2.scale_exponents(order1).factors
    ).normalize()


# ---------------------------------------------------------------------------
# variable dictionaries between reflection indices and the published labels


def a_type_dictionary(group: EnumeratedGroup, n: int) -> dict[int, str]:
    """Reflection index -> pair variable, via the permutation model on [n]."""
    if group.diagram.rank != n - 1:
        raise ParameterOutOfRange(
            f"rank {group.diagram.rank} group on n = {n} letters")
    gens = []
    for i in range(n - 1):
        P = np.eye(n, dtype=np.int64)
        P[[i, i + 1]] = P[[i + 1, i]]
        gens.append(P)
    out = {}
    for t in range(group.num_reflections):
        M = np.eye(n, dtype=np.int64)
        for g in group.word(int(group.refl_ids[t])):
            M = M @ gens[g]
        moved = [i for i in range(n) if M[i, i] != 1]
        if len(moved) != 2:
            raise InvariantError(f"reflection {t} moves {len(moved)} letters")
        out[t] = pair_var(moved[0] + 1, moved[1] + 1)
    return out


def b_type_dictionary(group: EnumeratedGroup, n: int) -> dict[int, str]:
    """Reflection index -> signed variable, via signed permutations of [n]."""
    if group.diagram.rank != n:
        raise ParameterOutOfRange(f"rank {group.diagram.rank} group, n = {n}")
    gens = []
    F = np.eye(n, dtype=np.int64)
    F[0, 0] = -1
    gens.append(F)
    for i in range(n - 1):
        P = np.eye(n, dtype=np.int64)
        P[[i, i + 1]] = P[[i + 1, i]]
        gens.append(P)
    out = {}
    for t in range(group.num_reflections):
        M = np.eye(n, dtype=np.int64)
        for g in group.word(int(group.refl_ids[t])):
            M = M @ gens[g]
        moved = [i for i in range(n) if M[i, i] != 1]
        if len(moved) == 1:
            out[t] = singleton_var(moved[0] + 1)
        elif len(moved) == 2 and abs(int(M[moved[0], moved[1]])) == 1:
            i, j = moved
            out[t] = signed_pair_var(i + 1, (j + 1) * int(M[i, j]))
        else:
            raise InvariantError(
                f"reflection {t} is no signed transposition of {moved}")
    return out


# ---------------------------------------------------------------------------
# verification


def modular_matrix(group: EnumeratedGroup, values: np.ndarray,
                   p: int) -> np.ndarray:
    """Numeric Varchenko matrix mod p for per-reflection weight values.

    Eight reflections at a time: their inversion bits form a byte key per
    chamber, the XOR of two keys is the byte of the separating set, and a
    256-entry table holds the product of the weights for every byte.
    Entries stay below p < 2**32, so their products fit in uint64.
    """
    N = group.inversion_table
    E = None  # every group has a reflection, so the loop assigns E
    for t0 in range(0, group.num_reflections, 8):
        bits = N[:, t0:t0 + 8]
        key = (bits << np.arange(bits.shape[1], dtype=np.uint8)).sum(
            axis=1, dtype=np.uint8)
        table = np.ones(1, dtype=np.uint64)
        for v in values[t0:t0 + 8]:
            table = np.concatenate([table, table * np.uint64(int(v) % p)
                                    % np.uint64(p)])
        factor = table[key[:, None] ^ key[None, :]]
        if E is None:
            E = factor
        else:
            E *= factor
            E %= np.uint64(p)
    return E.view(np.int64)


def verify_mod_p(group: EnumeratedGroup, wa: WeightAssignment,
                 trials: int = 5, primes=None, seed: int = 0,
                 budget: int = DET_BUDGET) -> dict:
    """Random-evaluation check of the determinant identity.

    For each (prime, trial) samples nonzero weights, compares the modular
    determinant of the chamber matrix with the evaluated closed form.
    Raises CountOutOfRange unless there is at least one prime and one trial.
    """
    if trials < 1:
        raise CountOutOfRange(f"trial count {trials} is below 1")
    if group.order > budget:
        raise OrderLimitExceeded(
            f"|W| = {group.order} exceeds determinant budget {budget}",
            known_order=group.order)
    if primes is None:
        primes = primes_list(3)
    elif isinstance(primes, int):
        primes = primes_list(primes)
    elif not primes:
        raise CountOutOfRange("no primes given")
    fact = closed_form_factorization(group, wa)
    rng = random.Random(seed)
    records = []
    variables = wa.variables()
    for p in primes:
        for trial in range(trials):
            point = {v: rng.randrange(1, p) for v in variables}
            values = np.array([point[wa.var_of[t]]
                               for t in range(group.num_reflections)],
                              dtype=np.int64)
            M = modular_matrix(group, values, p)
            lhs = det_mod_p(M, p)
            rhs = fact.eval_mod(point, p)
            records.append({
                "check": "determinant_identity",
                "group": group.diagram.type_label,
                "mode": wa.mode,
                "prime": p,
                "seed": seed,
                "trial": trial,
                "lhs": lhs,
                "rhs": rhs,
                "verdict": "PASS" if lhs == rhs else "FAIL",
            })
    return {
        "group": group.diagram.type_label,
        "mode": wa.mode,
        "seed": seed,
        "records": records,
        "verdict": "PASS" if all(r["verdict"] == "PASS" for r in records)
        else "FAIL",
    }


def concordance_checks(group: EnumeratedGroup) -> list[dict]:
    """Formal factorization identities applicable to this group's type."""
    out = []
    comps = group.diagram.components

    def record(check, ok):
        out.append({
            "check": check,
            "group": group.diagram.type_label,
            "verdict": "PASS" if ok else "FAIL",
        })

    if len(comps) == 1:
        comp = comps[0]
        if comp.letter == "A":
            n = comp.param + 1
            cf_q = closed_form_factorization(group,
                                             WeightAssignment.single_q(group))
            record("zagier_single_q", cf_q == zagier_formula(n))
            dic = a_type_dictionary(group, n)
            cf = closed_form_factorization(
                group, WeightAssignment("explicit", dic))
            record("duchamp_per_hyperplane", cf == duchamp_formula_A(n))
        elif comp.letter == "B":
            n = comp.param
            dic = b_type_dictionary(group, n)
            cf = closed_form_factorization(
                group, WeightAssignment("explicit", dic))
            record("randriamaro_per_hyperplane",
                   cf == randriamaro_formula_B(n))
    else:
        from .coxeter_core import group as build

        cf = closed_form_factorization(group,
                                       WeightAssignment.per_hyperplane(group))
        prod = None
        offset = 0
        orders = [c.order for c in comps]
        for ci, comp in enumerate(comps):
            sub = build(comp.label)
            # rename the component's variables into the product's reflections
            dic = {}
            for t in range(sub.num_reflections):
                word = [comp.nodes[g] for g in sub.word(int(sub.refl_ids[t]))]
                tid = group.refl_index[group.element_of_word(word)]
                dic[t] = f"a{int(tid) + 1}"
            f = closed_form_factorization(sub, WeightAssignment("explicit", dic))
            rest = 1
            for cj, o in enumerate(orders):
                if cj != ci:
                    rest *= o
            f = f.scale_exponents(rest)
            prod = f if prod is None else Factorization(
                prod.factors + f.factors)
            offset += comp.rank
        record("reducible_product", prod.normalize() == cf)
    return out


# ---------------------------------------------------------------------------
# fully symbolic anchor


def symbolic_determinant(group: EnumeratedGroup, wa: WeightAssignment):
    """Exact multivariate determinant of a tiny chamber matrix.

    Laplace expansion along the rows in order.  The minor left after the
    first k rows depends only on the set of columns not yet used, so each
    of the 2^n minors is computed once, as a bitmask-indexed `sympy.Poly`,
    instead of n! products along the expansion tree.
    """
    import sympy

    vm = build_varchenko_matrix(group, wa, cap=8)
    names = wa.variables()
    pos = {v: i for i, v in enumerate(names)}
    gens = [sympy.Symbol(v) for v in names]

    def poly(m):
        exps = [0] * len(names)
        for v, e in m.exps:
            exps[pos[v]] = e
        return sympy.Poly.from_dict({tuple(exps): 1}, *gens)

    rows = [[poly(m) for m in r] for r in vm.entries]
    n = vm.order
    minors = [None] * (1 << n)
    minors[0] = sympy.Poly(1, *gens)
    for cols in range(1, 1 << n):
        row = rows[n - bin(cols).count("1")]
        total = sympy.Poly(0, *gens)
        sign = 1
        for j in range(n):
            if cols >> j & 1:
                total += sign * row[j] * minors[cols ^ (1 << j)]
                sign = -sign
        minors[cols] = total
    return minors[-1].as_expr()
