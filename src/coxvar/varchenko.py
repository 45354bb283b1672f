"""Varchenko matrices, the closed-form determinant, and verification.

The closed form is a product of one factor per relevant edge, with the
edge weight monomial and the multiplicity exponent supplied by the
arrangement module.  Verification never expands the symbolic determinant:
it evaluates both sides at random points modulo several word-sized primes.
The left side is det B mod p for the |W| x |W| Varchenko matrix B, taken
as two determinants of half the order.  Right multiplication by the
longest element w0 sends each chamber xC to the opposite chamber: N(x w0)
is the complement of N(x) in T, so every hyperplane separates x from
x w0.  The chambers X on the positive side of reflection 0 therefore take
one of each pair {x, x w0}, and with the chambers ordered as X and then
X w0,

    B = [[B1, B2], [B2, B1]],   det B = det(B1 + B2) det(B1 - B2),

where B1(x, y) is the weight of N(x) ^ N(y) and B2(x, y), the entry of x
against y w0, that of its complement in T.  Both identities hold entry by
entry for any weights on the hyperplanes, so the fold is exact for every
weight assignment.  Both halves are symmetric: each is formed on its lower
triangle and mirrored, written once as float64 residues into the array
whose determinant ``det_mod_p_in_place`` then takes in place.  So verify
holds at most 2 bytes per entry of B, one half of order |W|/2 in float64,
and no other copy of it.

Every pipeline function takes an ``Arrangement``.  Its edges and
multiplicities come from the reflection table, and W is enumerated only
when its ``group`` is first read: by ``build_varchenko_matrix`` and
``verify_mod_p`` once the order has passed the cap or the determinant
budget.  The concordance checks against the published type-A and type-B
formulas and the product rule never enumerate W: a root's chain in the
reflection table spells its reflection, both for the dictionaries and for
renaming a factor's roots into a product's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

import numpy as np

from .arrangement import Arrangement
from .coxeter_core import (
    Component,
    EnumeratedGroup,
    ReflectionTable,
    parse_group_spec,
)
from .errors import (
    CountOutOfRange,
    InvariantError,
    NonIntegerExponent,
    NonSquareMatrix,
    OrderLimitExceeded,
    ParameterOutOfRange,
    VariableCollision,
)
from .exact_algebra import (
    Factorization,
    Monomial,
    det_mod_p_in_place,
    mirror_lower,
    reduce_whole,
)

# primes just above 2**31, inside the modular determinant's exact range
# p < 2**32; more are generated on demand
DEFAULT_PRIMES = (2147483659, 2147483693, 2147483713)
# Miller-Rabin bases exact for every n < 3.1e23 (Sorenson, Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MATRIX_DUMP_LIMIT = 200
_MATRIX_CHUNK = 1 << 14  # entries of modular_matrix formed at a time
# Most float64 bytes of one stack of folded halves, the only copy of them
# that verify holds: B4's ten order-192 halves (2.9 MB) and A5's two
# order-360 halves (2.1 MB) fit, F4's two order-576 halves (5.3 MB) do not
DET_STACK_BYTES = 1 << 22
DET_BUDGET = 3840


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2**64."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_list(count: int):
    """The first ``count`` primes from DEFAULT_PRIMES upward; count >= 1."""
    if count < 1:
        raise CountOutOfRange(f"prime count {count} is below 1")
    ps = list(DEFAULT_PRIMES[:count])
    p = ps[-1]
    while len(ps) < count:
        p += 2
        if _is_prime(p):
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

    @classmethod
    def per_hyperplane(cls, group: EnumeratedGroup | ReflectionTable):
        var_of = {t: f"a{t + 1}" for t in range(group.num_reflections)}
        return cls("per_hyperplane", var_of)

    @classmethod
    def per_orbit(cls, group: EnumeratedGroup | ReflectionTable):
        var_of = {t: f"b{int(group.reflection_class_of[t]) + 1}"
                  for t in range(group.num_reflections)}
        return cls("per_orbit", var_of)

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


def build_varchenko_matrix(ar: Arrangement,
                           wa: WeightAssignment) -> list[list[Monomial]]:
    """The rows of the symbolic |W| x |W| matrix, symmetric with unit
    diagonal; W is enumerated past the cap check."""
    check_order(ar, MATRIX_DUMP_LIMIT, "matrix cap")
    order = ar.diagram.order
    N = ar.group.inversion_table
    rows = []
    for x in range(order):
        row = []
        for y in range(order):
            diff = np.nonzero(N[x] ^ N[y])[0]
            row.append(Monomial.from_vars(wa.var_of[int(t)] for t in diff))
        rows.append(row)
    return rows


def closed_form_factorization(ar: Arrangement,
                              wa: WeightAssignment) -> Factorization:
    """One factor (1 - a(E)^2)^l(E) per relevant edge, normalized."""
    return Factorization(tuple(
        (mono, mult) for _, mono, mult in edge_factors(ar, wa))
    ).normalize()


def edge_factors(ar: Arrangement, wa: WeightAssignment):
    """Unmerged per-edge factor records (edge, monomial, l) for reporting,
    l read from the class table: from the reflection table alone."""
    return [(e, Monomial.from_vars(wa.var_of[t] for t in e.reflections),
             ar.classes[e.class_J].l) for e in ar.relevant_edges()]


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


def a_type_dictionary(roots: ReflectionTable, n: int) -> dict[int, str]:
    """Reflection index -> pair variable, via the permutation model on [n].

    Root t is g1..gk(alpha_a) for its chain (a, [g1, ..., gk]), and the
    letter g swaps g and g + 1.  So s_t swaps the images under gk, ..., g1 of
    the letters a and a + 1 of alpha_a = e_a - e_(a+1).
    """
    if len(roots.simple) != n - 1:
        raise ParameterOutOfRange(
            f"rank {len(roots.simple)} group on n = {n} letters")
    out = {}
    for t in range(roots.num_reflections):
        a, chain = roots.chain(t)
        pair = [a, a + 1]
        for g in reversed(chain):
            pair = [g + 1 if i == g else g if i == g + 1 else i for i in pair]
        out[t] = pair_var(pair[0] + 1, pair[1] + 1)
    return _one_to_one(out, n * (n - 1) // 2, "pair")


def b_type_dictionary(roots: ReflectionTable, n: int) -> dict[int, str]:
    """Reflection index -> signed variable, via signed permutations of [n].

    The letter 0 negates coordinate 0 and the letter g > 0 swaps coordinates
    g - 1 and g; root t is g1..gk applied to e_0 or to e_(a-1) - e_a for its
    chain (a, [g1, ..., gk]).  A root c_i e_i + c_j e_j is normal to the
    hyperplane x_i = -c_i c_j x_j, and e_i to x_i = 0.
    """
    if len(roots.simple) != n:
        raise ParameterOutOfRange(f"rank {len(roots.simple)} group, n = {n}")
    out = {}
    for t in range(roots.num_reflections):
        a, chain = roots.chain(t)
        v = [0] * n
        if a == 0:
            v[0] = 1
        else:
            v[a - 1], v[a] = 1, -1
        for g in reversed(chain):
            if g == 0:
                v[0] = -v[0]
            else:
                v[g - 1], v[g] = v[g], v[g - 1]
        i, *j = [k for k in range(n) if v[k]]
        out[t] = (signed_pair_var(i + 1, -v[i] * v[j[0]] * (j[0] + 1)) if j
                  else singleton_var(i + 1))
    return _one_to_one(out, n * n, "signed")


def _one_to_one(dic: dict[int, str], count: int, kind: str):
    """``dic`` itself, unless it misses one of the ``count`` variables."""
    if len(dic) != count or len(set(dic.values())) != count:
        raise InvariantError(
            f"{len(dic)} reflections map to {len(set(dic.values()))} of the "
            f"{count} {kind} variables")
    return dic


# ---------------------------------------------------------------------------
# verification


def modular_matrix(group: EnumeratedGroup, values: np.ndarray, p: int, *,
                   S: np.ndarray | None = None,
                   D: np.ndarray | None = None) -> np.ndarray:
    """The Varchenko matrix mod p, folded by the longest element w0.

    For per-reflection weight values, writes S = B1 + B2 and D = B1 - B2
    mod p, as in the module docstring, into the given arrays of shape
    (|W|/2, |W|/2), float64 for ``det_mod_p_in_place``, as residues in
    range(p).  Either half or both may be given; one pass forms B1 and B2
    once for both.  Returns S, or D when S is not given.  Rows and columns
    are the chambers X with reflection 0 outside their inversion set, in
    element order; neither w0 nor any x w0 is looked up, and no |W| x |W|
    array is formed.

    Eight reflections at a time: their inversion bits form a byte key per
    chamber, the XOR of two keys is the byte of the separating set, and a
    256-entry table holds the product of the weights for every byte.  The
    complement of that byte within the eight reflections, for B2, indexes
    the same table reversed.  Both halves are symmetric, so only the lower
    triangle is formed, one chunk of rows at a time, each chunk up to the
    column of its own last row, and then mirrored onto the upper one.  The
    products are formed in uint64, since entries stay below p < 2**32, and
    take no temporary larger than a chunk; ``reduce_whole`` reduces them
    mod p by floor division, which numpy takes faster than %.
    """
    if S is None and D is None:
        raise ParameterOutOfRange("modular_matrix needs S, D or both")
    N = group.inversion_table
    X = N[~N[:, 0]]
    h, q = len(X), np.uint64(p)
    for half in (S, D):
        if half is not None and half.shape != (h, h):
            raise NonSquareMatrix(
                f"a half of shape {half.shape} is not of order {h}")
    keys, tables = [], []
    for t0 in range(0, group.num_reflections, 8):
        bits = X[:, t0:t0 + 8]
        # intp, so that XORs of keys index the tables with no cast
        keys.append((bits << np.arange(bits.shape[1], dtype=np.uint8)).sum(
            axis=1, dtype=np.uint8).astype(np.intp))
        table = np.ones(1, dtype=np.uint64)
        for v in values[t0:t0 + 8]:
            table = np.concatenate([table, table * np.uint64(int(v) % p) % q])
        tables.append(table)
    step = max(1, _MATRIX_CHUNK // h)
    scratch = np.empty(step * h, dtype=np.uint64)
    for r0 in range(0, h, step):
        r1 = min(r0 + step, h)
        # every group has a reflection, so there is a first key
        byte = keys[0][r0:r1, None] ^ keys[0][:r1]
        b1, b2 = tables[0][byte], tables[0][::-1][byte]
        s = scratch[:b1.size].reshape(b1.shape)
        for key, table in zip(keys[1:], tables[1:]):
            byte = key[r0:r1, None] ^ key[:r1]
            b1 *= table[byte]
            reduce_whole(b1, q, s)
            b2 *= table[::-1][byte]
            reduce_whole(b2, q, s)
        if S is not None:
            total = b1 + b2
            reduce_whole(total, q, s)
            S[r0:r1, :r1] = total
        if D is not None:
            b1 += q
            b1 -= b2
            reduce_whole(b1, q, s)
            D[r0:r1, :r1] = b1
    for half in (S, D):
        if half is not None:
            mirror_lower(half, 0)
    return S if S is not None else D


def check_order(ar: Arrangement, limit: int, what: str) -> None:
    """Raise OrderLimitExceeded when |W| passes ``limit``, the ``what`` of
    the message, from the diagram alone: neither W nor the reflection
    table is built."""
    order = ar.diagram.order
    if order > limit:
        raise OrderLimitExceeded(f"|W| = {order} exceeds {what} {limit}",
                                 known_order=order)


def check_verify_limits(ar: Arrangement, trials: int,
                        budget: int = DET_BUDGET) -> None:
    """The checks ``verify_mod_p`` makes before it reads its weights: at
    least one trial, and |W| within the determinant budget."""
    if trials < 1:
        raise CountOutOfRange(f"trial count {trials} is below 1")
    check_order(ar, budget, "determinant budget")


def verify_mod_p(ar: Arrangement, wa: WeightAssignment, trials: int = 5,
                 primes: int = 3, seed: int = 0,
                 budget: int = DET_BUDGET) -> dict:
    """Random-evaluation check of the determinant identity.

    For each (prime, trial) samples nonzero weights, compares the modular
    determinant of the chamber matrix, the product of the determinants of
    the two folded halves of ``modular_matrix``, with the evaluated closed
    form.  The primes are the first ``primes`` of ``primes_list``, and
    each prime's points are drawn in trial order.  Each half is
    written once, as float64 residues, into the array that
    ``det_mod_p_in_place`` then eliminates, so the halves in memory are
    the elimination's only copy: 2 bytes per entry of the |W| x |W|
    matrix at most.  The halves of as many consecutive trials as fit in
    DET_STACK_BYTES go into one stack: its Gauss-Jordan steps run in
    lockstep, and its trailing updates one member at a time, so the
    elimination adds the buffers of one half, not of the stack.  When one
    trial's two halves do not fit, S and then D take turns in a single
    buffer, so a large group's peak memory is that of one half.  The
    records do not depend on the grouping.  Raises CountOutOfRange unless
    there is at least one prime and one trial, and OrderLimitExceeded past
    the budget, before W is enumerated (``check_verify_limits``).
    """
    check_verify_limits(ar, trials, budget)
    order = ar.diagram.order
    primes = primes_list(primes)
    group = ar.group
    fact = closed_form_factorization(ar, wa)
    rng = random.Random(seed)
    records = []
    variables = wa.variables()
    h = order // 2
    # trials whose halves form one stack, or 0 when one trial's two halves
    # already pass DET_STACK_BYTES and each takes the buffer alone
    per_stack = DET_STACK_BYTES // (2 * 8 * h * h)
    step = per_stack or 1
    buffer = np.empty((2 * min(step, trials) if per_stack else 1, h, h))
    for p in primes:
        points = [{v: rng.randrange(1, p) for v in variables}
                  for _ in range(trials)]
        dets = []
        for t0 in range(0, trials, step):
            batch = points[t0:t0 + step]
            for i, point in enumerate(batch):
                values = np.array([point[wa.var_of[t]]
                                   for t in range(group.num_reflections)],
                                  dtype=np.int64)
                if per_stack:
                    modular_matrix(group, values, p, S=buffer[2 * i],
                                   D=buffer[2 * i + 1])
                else:
                    modular_matrix(group, values, p, S=buffer[0])
                    dets += det_mod_p_in_place(buffer, p)
                    modular_matrix(group, values, p, D=buffer[0])
                    dets += det_mod_p_in_place(buffer, p)
            if per_stack:
                dets += det_mod_p_in_place(buffer[:2 * len(batch)], p)
        for trial, point in enumerate(points):
            lhs = dets[2 * trial] * dets[2 * trial + 1] % p
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


def embedded_roots(roots: ReflectionTable, comp: Component,
                   sub: ReflectionTable) -> list[int]:
    """The product's root for each root of a component's own table ``sub``.

    Root t of the component is g1..gk(alpha_a) for its chain (a, [g1, ...,
    gk]), so it is alpha_a conjugated by gk, ..., g1 in the product's R, on
    the component's nodes.
    """
    out = []
    for t in range(sub.num_reflections):
        a, chain = sub.chain(t)
        u = comp.nodes[a]
        for g in reversed(chain):
            u = int(roots.R[u, comp.nodes[g]])
        out.append(u)
    return out


def concordance_checks(ar: Arrangement) -> list[dict]:
    """Formal factorization identities applicable to this arrangement's type.

    Every closed form and dictionary comes from reflection tables; W is
    never enumerated.
    """
    out = []
    diagram = ar.diagram
    comps = diagram.components

    def record(check, ok):
        out.append({
            "check": check,
            "group": diagram.type_label,
            "verdict": "PASS" if ok else "FAIL",
        })

    def explicit(over, dic):
        return closed_form_factorization(over,
                                         WeightAssignment("explicit", dic))

    if len(comps) == 1:
        comp = comps[0]
        if comp.letter == "A":
            n = comp.param + 1
            cf_q = closed_form_factorization(
                ar, WeightAssignment.single_q(ar.roots))
            record("zagier_single_q", cf_q == zagier_formula(n))
            record("duchamp_per_hyperplane",
                   explicit(ar, a_type_dictionary(ar.roots, n))
                   == duchamp_formula_A(n))
        elif comp.letter == "B":
            n = comp.param
            record("randriamaro_per_hyperplane",
                   explicit(ar, b_type_dictionary(ar.roots, n))
                   == randriamaro_formula_B(n))
    else:
        cf = closed_form_factorization(
            ar, WeightAssignment.per_hyperplane(ar.roots))
        prod, order = Factorization(()), 1
        for comp in comps:
            sub = Arrangement(diagram=parse_group_spec(comp.label))
            dic = {t: f"a{u + 1}" for t, u in enumerate(
                embedded_roots(ar.roots, comp, sub.roots))}
            prod = reducible_product(prod, comp.order, explicit(sub, dic),
                                     order)
            order *= comp.order
        record("reducible_product", prod == cf)
    return out

