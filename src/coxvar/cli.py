"""Command line front end.

Subcommands: det, matrix, tables, verify, multiplicity.  Text output is
meant for eyeballing; json output is stable across runs for fixed inputs.
Diagnostics go to stderr, the requested artifact to stdout.

The command's process starts OpenBLAS with one thread: it sets
OPENBLAS_NUM_THREADS to 1 before numpy is loaded, unless the variable is
already set, in which case that value stands.  ``import coxvar`` loads no
numpy, so this module runs first under ``python -m coxvar.cli`` and the
``coxvar`` console script alike.  ``varchenko`` and ``exact_algebra`` are
imported by the handlers that use them (det, matrix, verify), so tables
and multiplicity load neither.

``main`` builds one ``Arrangement`` per command and hands it to the
handler.  W is enumerated only when its ``group`` is first read: by the
oracle, which tables runs wherever ``enumeration_refusal`` allows, and by
matrix and verify once the order has passed their cap or determinant
budget.  Its reflection table is built only when ``roots`` is first
read, so multiplicity, matrix and verify refuse a group from its
diagram's counts before either is built.
"""

from __future__ import annotations

import os

# exact_algebra._product keeps every product on the calling thread, so a
# BLAS worker pool would only cost start-up time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# numpy loads here; importing the core before argparse and json keeps the
# peak RSS of the older import order
from . import coxeter_core  # noqa: F401

import argparse
import json
import sys

from .arrangement import Arrangement
from .coxeter_core import (
    DEFAULT_ORDER_LIMIT,
    enumeration_refusal,
    parse_group_spec,
)
from .errors import (
    CountOutOfRange,
    CoxvarError,
    InvarianceViolation,
    InvariantError,
    OrderLimitExceeded,
    ParseError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
# 128 + SIGPIPE, what a shell reports for a process that signal killed
EXIT_BROKEN_PIPE = 141

# largest |W| of verify's determinants under --unsafe-large
HARD_DET_CAP = 14400

# errors of a computed result that failed a check, not of bad input
_VERIFICATION_ERRORS = (InvarianceViolation, InvariantError)

def _read_explicit_file(path: str) -> dict[int, str]:
    mapping = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError(
                        f"{path}:{lineno}: expected "
                        "'reflection_index variable_name'")
                try:
                    idx = int(parts[0])
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: bad reflection index {parts[0]!r}")
                if idx in mapping:
                    raise ParseError(
                        f"{path}:{lineno}: duplicate reflection index {idx}")
                mapping[idx] = parts[1]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read weight file {path}: {exc}")
    return mapping


def _weight_assignment(roots, assign: str):
    from .varchenko import WeightAssignment

    if assign == "per-hyperplane":
        return WeightAssignment.per_hyperplane(roots)
    if assign == "per-orbit":
        return WeightAssignment.per_orbit(roots)
    if assign == "q":
        return WeightAssignment.single_q(roots)
    if assign.startswith("explicit:"):
        return WeightAssignment.explicit(
            roots, _read_explicit_file(assign[len("explicit:"):]))
    raise ParseError(f"unknown weight assignment {assign!r}")


def _emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _variables_json(roots, wa):
    return [
        {"id": t, "name": wa.var_of[t],
         "orbit": int(roots.reflection_class_of[t])}
        for t in range(roots.num_reflections)
    ]


# -- subcommands -------------------------------------------------------------


def cmd_det(ar, args):
    from .varchenko import closed_form_factorization, edge_factors

    # from the reflection table alone: W is never enumerated
    diagram = ar.diagram
    wa = _weight_assignment(ar.roots, args.assign)
    if args.format == "json":
        factors = []
        for edge, mono, mult in edge_factors(ar, wa):
            factors.append({
                "monomial": {v: e for v, e in mono.exps},
                "multiplicity": mult,
                "edge": {
                    "class": ar.classes[edge.class_J].label,
                    "size": len(edge.reflections),
                    "coset": edge.coset_id,
                },
            })
        _emit_json({
            "group": diagram.type_label,
            "weight_mode": wa.mode,
            "variables": _variables_json(ar.roots, wa),
            "factors": factors,
        })
    else:
        fact = closed_form_factorization(ar, wa)
        print(fact)
    return EXIT_OK


def cmd_matrix(ar, args):
    from .varchenko import MATRIX_DUMP_LIMIT, build_varchenko_matrix, \
        check_order

    # refused before the weight assignment builds the reflection table
    check_order(ar, MATRIX_DUMP_LIMIT, "matrix cap")
    wa = _weight_assignment(ar.roots, args.assign)
    rows = build_varchenko_matrix(ar, wa)
    g = ar.group
    labels = ["".join(f"s{i + 1}" for i in g.word(x)) or "e"
              for x in range(g.order)]
    if args.format == "json":
        _emit_json({
            "group": g.diagram.type_label,
            "weight_mode": wa.mode,
            "order": g.order,
            "rows": labels,
            "entries": [[str(m) for m in row] for row in rows],
        })
    else:
        width = max(len(lbl) for lbl in labels)
        for lbl, row in zip(labels, rows):
            print(f"{lbl:<{width}}  " + "  ".join(str(m) for m in row))
    return EXIT_OK


def cmd_tables(ar, args):
    # the oracle runs wherever W can be enumerated; no row needs W
    reports = ar.multiplicity_reports(
        with_oracle=enumeration_refusal(ar.diagram, ar.limit) is None)
    ok = all(r.match for r in reports)
    if args.format == "json":
        _emit_json({
            "group": ar.diagram.type_label,
            "floor_ambient": "WJ",
            "rows": [
                {"class": r.label,
                 "floor": r.ingredients[0],
                 "coxeter_class": r.ingredients[1],
                 "x_S_J": r.ingredients[2],
                 "x_J_s": r.ingredients[3],
                 "l_formula": r.l_formula,
                 "l_oracle": r.l_oracle,
                 "match": r.match}
                for r in reports
            ],
        })
    else:
        rows = [(r.label, *r.ingredients, r.l_formula,
                 "-" if r.l_oracle is None else r.l_oracle,
                 "ok" if r.match else "MISMATCH") for r in reports]
        # a column widens to its widest value
        w = [max(width, *(len(str(row[i])) for row in rows))
             for i, width in enumerate((8, 4, 4, 6, 6, 8, 8))]
        for label, a, b, c, d, l_formula, oracle, flag in rows:
            print(f"{label:<{w[0]}} {a:>{w[1]}} {b:>{w[2]}} {c:>{w[3]}} "
                  f"{d:>{w[4]}}  l = {l_formula:<{w[5]}} "
                  f"oracle = {oracle:<{w[6]}} {flag}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(ar, args):
    from .varchenko import DET_BUDGET, check_verify_limits, \
        concordance_checks, verify_mod_p

    budget = HARD_DET_CAP if args.unsafe_large else DET_BUDGET
    # refused before the weight assignment builds the reflection table
    check_verify_limits(ar, args.trials, args.primes, budget)
    wa = _weight_assignment(ar.roots, args.assign)
    # only a run that starts is announced
    if ar.diagram.order > DET_BUDGET:
        print(f"warning: |W| = {ar.diagram.order}, dense modular "
              "determinants will take a while", file=sys.stderr)
    report = verify_mod_p(ar, wa, trials=args.trials, primes=args.primes,
                          seed=args.seed, budget=budget)
    extra = concordance_checks(ar)
    ok = report["verdict"] == "PASS" and all(
        r["verdict"] == "PASS" for r in extra)
    if args.format == "json":
        _emit_json({
            "group": ar.diagram.type_label,
            "weight_mode": wa.mode,
            "seed": args.seed,
            "determinant": report,
            "concordance": extra,
            "verdict": "PASS" if ok else "FAIL",
        })
    else:
        for rec in report["records"]:
            print(f"determinant_identity p={rec['prime']} "
                  f"trial={rec['trial']} {rec['verdict']}")
        for rec in extra:
            print(f"{rec['check']} {rec['verdict']}")
        print("PASS" if ok else "FAIL")
    if not ok:
        for rec in report["records"] + extra:
            if rec["verdict"] == "FAIL":
                print(f"failing record: {rec}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_multiplicity(ar, args):
    ar.group  # refused, if it must be, before the reflection table
    reports = ar.multiplicity_reports(with_oracle=True)
    ok = all(r.match for r in reports)
    if args.format == "json":
        _emit_json({
            "group": ar.diagram.type_label,
            "floor_ambient": "WJ",
            "reports": [
                {"class": r.label,
                 "ingredients": list(r.ingredients),
                 "l_formula": r.l_formula,
                 "l_oracle": r.l_oracle,
                 "match": r.match}
                for r in reports
            ],
            "verdict": "PASS" if ok else "FAIL",
        })
    else:
        for r in reports:
            flag = "ok" if r.match else "MISMATCH"
            print(f"{r.label:<8} {r.ingredients}  "
                  f"formula = {r.l_formula}  oracle = {r.l_oracle}  {flag}")
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing --------------------------------------------------------


# each subcommand takes the flags its handler reads
_FLAGS = {
    "--assign": dict(default="per-hyperplane",
                     help="per-hyperplane | per-orbit | q | explicit:FILE"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--seed": dict(type=int, default=0),
    "--primes": dict(type=int, default=3),
    "--trials": dict(type=int, default=5),
    "--limit": dict(type=int, default=DEFAULT_ORDER_LIMIT),
    "--unsafe-large": dict(action="store_true"),
}
_COMMANDS = {
    "det": (cmd_det, ("--assign", "--format", "--limit")),
    "matrix": (cmd_matrix, ("--assign", "--format", "--limit")),
    "tables": (cmd_tables, ("--format", "--limit")),
    "verify": (cmd_verify, tuple(_FLAGS)),
    "multiplicity": (cmd_multiplicity, ("--format", "--limit")),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="coxvar",
        description="Varchenko determinants of finite Coxeter "
                    "reflection arrangements")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(handler=fn)
        sp.add_argument("group", help="group spec, e.g. A3, I2(7), B2xA1")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        # every subcommand takes --limit
        if args.limit < 1:
            raise CountOutOfRange(f"order limit {args.limit} is below 1")
        ar = Arrangement(diagram=parse_group_spec(args.group),
                         limit=args.limit)
        code = args.handler(ar, args)
        # a closed stdout shows here rather than at the interpreter's exit
        sys.stdout.flush()
        return code
    except CoxvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OrderLimitExceeded):
            return EXIT_LIMIT
        if isinstance(exc, _VERIFICATION_ERRORS):
            return EXIT_FAIL
        return EXIT_PARSE
    except BrokenPipeError:
        # the reader closed stdout; what is left unwritten goes to devnull,
        # so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
