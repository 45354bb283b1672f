"""Output checks for the benchmark's commands.

Each check reads the JSON a command printed and returns a list of
problems; an empty list means the output is correct.  Sizes come from the
workload definition, never from the output under test.
"""

from __future__ import annotations

import json
import math

from workloads import Command

# The default primes lie just above 2**31, so p - 1 >= 2**31 for each.
DEFAULT_PRIME_FLOOR = 2**31


def false_pass_log2(cmd: Command, doc: dict) -> float:
    """log2 of the Schwartz-Zippel bound on a false PASS of a verify run.

    Each record evaluates a polynomial identity of degree |W|·|T| at a
    random point over F_p, so a wrong identity passes it with probability
    at most |W|·|T| / (p - 1).  Records are independent, so the bounds
    multiply and their logarithms add.  Higher is weaker.
    """
    degree = cmd.order * cmd.reflections
    return sum(math.log2(degree / (rec["prime"] - 1))
               for rec in doc["determinant"]["records"])


def false_pass_ceiling(cmd: Command) -> float:
    """The bound the command reaches with its trials at the default primes."""
    return cmd.records * math.log2(cmd.order * cmd.reflections
                                   / DEFAULT_PRIME_FLOOR)


def _check_det(cmd: Command, doc: dict) -> list[str]:
    problems = []
    factors = doc["factors"]
    if not factors:
        problems.append("no factors")
    if len(doc["variables"]) != cmd.reflections:
        problems.append(f"{len(doc['variables'])} variables, "
                        f"expected |T| = {cmd.reflections}")
    # the determinant has total degree |W|·|T|; each factor
    # (1 - m^2)^l contributes 2·deg(m)·l
    degree = sum(2 * sum(f["monomial"].values()) * f["multiplicity"]
                 for f in factors)
    if degree != cmd.order * cmd.reflections:
        problems.append(f"total degree {degree} != |W|·|T| = "
                        f"{cmd.order * cmd.reflections}")
    return problems


def _check_verify(cmd: Command, doc: dict) -> list[str]:
    problems = []
    records = doc["determinant"]["records"]
    if doc["verdict"] != "PASS":
        problems.append(f"verdict {doc['verdict']}")
    if not records:
        problems.append("no determinant records")
    failing = [r for r in records if r["verdict"] != "PASS"]
    if failing:
        problems.append(f"{len(failing)} failing determinant records")
    bound, ceiling = false_pass_log2(cmd, doc), false_pass_ceiling(cmd)
    if bound > ceiling:
        problems.append(f"false-pass bound 2^{bound:.2f} is weaker than "
                        f"2^{ceiling:.2f}")
    return problems


def _check_rows(rows: list) -> list[str]:
    if not rows:
        return ["no rows"]
    return [f"class {r['class']}: formula {r['l_formula']}, "
            f"oracle {r['l_oracle']}"
            for r in rows
            if r["match"] is not True or r["l_oracle"] is None
            or r["l_oracle"] != r["l_formula"]]


def _check_multiplicity(cmd: Command, doc: dict) -> list[str]:
    problems = _check_rows(doc["reports"])
    if doc["verdict"] != "PASS":
        problems.append(f"verdict {doc['verdict']}")
    return problems


def _check_tables(cmd: Command, doc: dict) -> list[str]:
    return _check_rows(doc["rows"])


_CHECKS = {
    "det": _check_det,
    "verify": _check_verify,
    "multiplicity": _check_multiplicity,
    "tables": _check_tables,
}


def check_output(cmd: Command, text: str) -> list[str]:
    """Problems with one command's JSON output; empty when it is correct."""
    try:
        doc = json.loads(text)
        problems = _CHECKS[cmd.kind](cmd, doc)
        if doc["group"] != cmd.args[1]:
            problems.append(f"group {doc['group']!r}, expected {cmd.args[1]!r}")
        return problems
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
