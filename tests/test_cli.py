"""End-to-end tests of the command line interface."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coxvar
from coxvar import coxeter_core
from coxvar.arrangement import Arrangement
from coxvar.cli import main
from coxvar.errors import InvarianceViolation, InvariantError
from test_outputs_pinned import PINNED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_text_A2(capsys):
    code, out, _ = run(capsys, "det", "A2", "--assign", "per-hyperplane")
    assert code == 0
    assert out.strip() == \
        "(1-a1^2)^2 (1-a2^2)^2 (1-a3^2)^2 (1-a1^2a2^2a3^2)^1"


def test_det_text_zagier_examples(capsys):
    code, out, _ = run(capsys, "det", "A3", "--assign", "q")
    assert code == 0 and out.strip() == "(1-q^2)^36 (1-q^6)^8 (1-q^12)^2"
    code, out, _ = run(capsys, "det", "A1", "--assign", "q")
    assert code == 0 and out.strip() == "(1-q^2)^1"


def test_det_json_schema_and_determinism(capsys):
    code, out1, err = run(capsys, "det", "B2", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out1)
    assert set(doc) == {"group", "weight_mode", "variables", "factors"}
    assert doc["group"] == "B2"
    assert doc["weight_mode"] == "per_hyperplane"
    assert len(doc["variables"]) == 4
    for v in doc["variables"]:
        assert set(v) == {"id", "name", "orbit"}
    for f in doc["factors"]:
        assert set(f) == {"monomial", "multiplicity", "edge"}
        assert set(f["edge"]) == {"class", "size", "coset"}
        assert len(f["monomial"]) <= f["edge"]["size"]
    # the factor list covers all 5 edges of B2
    assert len(doc["factors"]) == 5
    code, out2, _ = run(capsys, "det", "B2", "--format", "json")
    assert out2 == out1  # byte identical


def test_det_json_names_each_class_once(capsys, monkeypatch):
    # each edge's class label is read from the class table, which names
    # each class once for both forms: --format json makes no subdiagram
    # call beyond those of the text form, where one per edge would
    classes = len(Arrangement(
        diagram=coxeter_core.parse_group_spec("D6")).class_representatives())
    calls = []
    subdiagram = coxeter_core.CoxeterDiagram.subdiagram

    def counting(self, J):
        calls.append(J)
        return subdiagram(self, J)

    monkeypatch.setattr(coxeter_core.CoxeterDiagram, "subdiagram", counting)
    assert run(capsys, "det", "D6")[0] == 0
    text_calls = len(calls)
    calls.clear()
    code, out, _ = run(capsys, "det", "D6", "--format", "json")
    assert code == 0
    factors = json.loads(out)["factors"]
    assert len(calls) == text_calls
    assert classes < len(factors)


@pytest.mark.parametrize("argv,classes,calls", [
    (["verify", "A5", "--trials", "1", "--primes", "1"], 5, 5),
    (["verify", "B4"], 7, 10),
])
def test_a_command_computes_each_class_once(capsys, monkeypatch, argv,
                                            classes, calls):
    # verify takes the closed form for its determinants and again for its
    # concordance checks; the floor and |X(J,{s})| of each W_J-class of
    # full-support reflections are computed once for the command
    counted = []
    floor_and_x_J_s = Arrangement._floor_and_x_J_s

    def counting(self, t):
        counted.append((self, t))
        return floor_and_x_J_s(self, t)

    monkeypatch.setattr(Arrangement, "_floor_and_x_J_s", counting)
    assert run(capsys, *argv)[0] == 0
    assert len(counted) == calls
    assert len({t for _, t in counted}) == calls
    (ar,) = {a for a, _ in counted}
    assert len(ar.classes) == classes


def test_matrix_text_A1(capsys):
    code, out, _ = run(capsys, "matrix", "A1")
    assert code == 0
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert lines == [["e", "1", "a1"], ["s1", "a1", "1"]]


def test_matrix_cap_exit_code(capsys):
    code, out, err = run(capsys, "matrix", "A5")
    assert code == 3 and out == "" and "exceeds" in err
    # the cap of 200 has no override
    code, out, err = run(capsys, "matrix", "A5", "--unsafe-large")
    assert code == 2 and out == "" and "unrecognized" in err


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "det", "Q7")
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("spec", ["A0", "B0", "D0"])
def test_rank_zero_names_the_reason(capsys, spec):
    code, out, err = run(capsys, "det", spec)
    assert code == 2 and out == ""
    assert err == f"error: {spec}: the rank must be at least 1\n"


def test_limit_exit_code(capsys):
    code, _, err = run(capsys, "multiplicity", "E8")
    assert code == 3 and "order" in err
    # tables needs no W for its rows: past --limit it runs no oracle
    code, out, err = run(capsys, "tables", "F4", "--limit", "1000")
    assert code == 0 and err == "" and len(out.splitlines()) == 8
    assert all(" oracle = -" in ln for ln in out.splitlines())
    # det never enumerates W: the limit bounds each edge orbit, and D7's
    # largest (class A4) has 336 members
    code, out, err = run(capsys, "det", "D7", "--limit", "335")
    assert code == 3 and out == "" and "335" in err
    code, out, _ = run(capsys, "det", "D7", "--limit", "336")
    assert code == 0 and out
    # I2(20)'s two classes of 10 reflections each stay within --limit 10,
    # as do I2(2000)'s two classes of 1000 within --limit 1000
    code, out, _ = run(capsys, "det", "I2(20)", "--limit", "10")
    assert code == 0 and out
    code, out, _ = run(capsys, "det", "I2(2000)", "--limit", "1000")
    assert code == 0 and out


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "A2", "--trials", "2",
                       "--primes", "2", "--seed", "42",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert len(doc["determinant"]["records"]) == 4
    for rec in doc["determinant"]["records"]:
        assert rec["verdict"] == "PASS"
        assert set(rec) >= {"check", "group", "mode", "prime", "seed",
                            "lhs", "rhs", "verdict"}
    names = [c["check"] for c in doc["concordance"]]
    assert "zagier_single_q" in names


@pytest.mark.parametrize("flags", [("--trials", "0"), ("--primes", "0"),
                                   ("--primes", "-1")])
def test_verify_rejects_counts_below_one(capsys, flags):
    # each used to print PASS with zero records, or with two primes for -1
    code, out, err = run(capsys, "verify", "B3", *flags)
    assert code == 2 and out == "" and "below 1" in err


@pytest.mark.parametrize("command", ["det", "matrix", "tables", "verify",
                                     "multiplicity"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_limit_below_one_is_bad_input(capsys, command, limit):
    # each used to exit 3 with "order 6 > limit -5"
    code, out, err = run(capsys, command, "A2", "--limit", limit)
    assert code == 2 and out == "" and "below 1" in err


def test_verify_reducible_cross_check(capsys):
    code, out, _ = run(capsys, "verify", "A1xA1", "--trials", "1",
                       "--primes", "1")
    assert code == 0
    assert "reducible_product PASS" in out
    assert out.strip().endswith("PASS")


def test_multiplicity_text(capsys):
    code, out, _ = run(capsys, "multiplicity", "A2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and all("ok" in ln for ln in lines)


def test_multiplicity_json_round_trip(capsys):
    code, out, _ = run(capsys, "multiplicity", "B3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert json.loads(json.dumps(doc)) == doc
    assert all(r["l_formula"] == r["l_oracle"] for r in doc["reports"])


def test_tables_text_H3(capsys):
    code, out, _ = run(capsys, "tables", "H3")
    assert code == 0
    assert "l = 32" in out and "l = 12" in out


_true_reports = Arrangement.multiplicity_reports


def _mismatching_reports(self, with_oracle=False):
    reports = _true_reports(self, with_oracle)
    reports[-1] = dataclasses.replace(reports[-1],
                                      l_oracle=reports[-1].l_formula + 1)
    return reports


@pytest.mark.parametrize("command", ["tables", "multiplicity"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_mismatch_exits_1(capsys, monkeypatch, command, fmt):
    code, good, _ = run(capsys, command, "A3", "--format", fmt)
    assert code == 0
    monkeypatch.setattr(Arrangement, "multiplicity_reports",
                        _mismatching_reports)
    code, bad, _ = run(capsys, command, "A3", "--format", fmt)
    assert code == 1
    # only the doctored last row changes
    if fmt == "text":
        assert bad.splitlines()[:-1] == good.splitlines()[:-1]
        assert bad.splitlines()[-1].endswith("MISMATCH")
    else:
        key = "rows" if command == "tables" else "reports"
        assert json.loads(bad)[key][:-1] == json.loads(good)[key][:-1]
        assert json.loads(bad)[key][-1]["match"] is False


@pytest.mark.parametrize("error", [InvarianceViolation, InvariantError])
def test_verification_errors_exit_1(capsys, monkeypatch, error):
    def fail(self, with_oracle=False):
        raise error("doctored")

    monkeypatch.setattr(Arrangement, "multiplicity_reports", fail)
    for command in ("tables", "multiplicity"):
        code, out, err = run(capsys, command, "A3")
        assert code == 1 and out == "" and "doctored" in err


# The computed rows of tables E7 and E8, written out by hand: (class,
# |floor|, |[J]|, |X(S,J)|, |X(J,{s})|, l).  They are the published rows
# with two errata corrected.  E7: the A5 class of J = (0, 1, 2, 3, 4) has
# |[J]| = 2, not 1, so l = 192, not 96.  E8: D4 has |X(S,J)| = 1152, not
# 1154, so l = 18432, not 18464.
E7_ROWS = [
    ("A1", 1, 7, 23040, 1, 161280),
    ("A2", 1, 6, 1440, 1, 8640),
    ("A3", 1, 6, 96, 2, 1152),
    ("A4", 1, 5, 12, 6, 360),
    ("D4", 2, 1, 48, 8, 768),
    ("A5", 1, 2, 4, 24, 192),
    ("D5", 3, 2, 4, 48, 1152),
    ("A5", 1, 1, 12, 24, 288),
    ("A6", 1, 1, 2, 120, 240),
    ("E6", 7, 1, 2, 720, 10080),
    ("D6", 4, 1, 2, 384, 3072),
    ("E7", 16, 1, 1, 23040, 368640),
]
E8_ROWS = [
    ("A1", 1, 8, 2903040, 1, 23224320),
    ("A2", 1, 7, 103680, 1, 725760),
    ("A3", 1, 7, 3840, 2, 53760),
    ("A4", 1, 6, 240, 6, 8640),
    ("D4", 2, 1, 1152, 8, 18432),
    ("A5", 1, 4, 24, 24, 2304),
    ("D5", 3, 2, 48, 48, 13824),
    ("A6", 1, 3, 4, 120, 1440),
    ("E6", 7, 1, 12, 720, 60480),
    ("D6", 4, 1, 8, 384, 12288),
    ("A7", 1, 1, 2, 720, 1440),
    ("E7", 16, 1, 2, 23040, 737280),
    ("D7", 5, 1, 2, 3840, 38400),
    ("E8", 44, 1, 1, 2903040, 127733760),
]


def _never_enumerate(*args, **kwargs):
    raise AssertionError("W was enumerated")


def test_tables_literature_display(capsys, monkeypatch):
    # computed from the roots alone: enumerating W would raise
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, _ = run(capsys, "tables", "E7")
    assert code == 0
    got = [ln.split() for ln in out.splitlines()]
    assert got == [[c, str(a), str(b), str(x), str(y), "l", "=", str(l),
                    "oracle", "=", "-", "ok"]
                   for c, a, b, x, y, l in E7_ROWS]
    # E8's values are wider than the columns of smaller groups: they widen
    code, out, _ = run(capsys, "tables", "E8")
    assert code == 0 and len(out.splitlines()) == len(E8_ROWS)
    assert len({(ln.index(" l = "), ln.index(" oracle = "), len(ln))
                for ln in out.splitlines()}) == 1
    code, out, _ = run(capsys, "tables", "E8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "E8" and doc["floor_ambient"] == "WJ"
    assert [(r["class"], r["floor"], r["coxeter_class"], r["x_S_J"],
             r["x_J_s"], r["l_formula"]) for r in doc["rows"]] == E8_ROWS
    assert all(r["l_oracle"] is None and r["match"] for r in doc["rows"])


def test_tables_limit_bounds_each_orbit(capsys):
    # the largest edge orbit of D7 is class A4's, with 336 members; W has
    # 322560 elements, and tables never enumerates it
    code, out, err = run(capsys, "tables", "D7", "--limit", "335")
    assert code == 3 and out == "" and "335" in err
    code, out, _ = run(capsys, "tables", "D7", "--limit", "336")
    assert code == 0 and len(out.splitlines()) == 11
    # the limit still bounds W: past it the oracle does not run
    code, out, err = run(capsys, "tables", "A5", "--limit", "719",
                         "--format", "json")
    assert code == 0 and err == ""
    assert all(r["l_oracle"] is None for r in json.loads(out)["rows"])


def test_explicit_weight_file(tmp_path, capsys):
    wf = tmp_path / "weights.txt"
    wf.write_text("0 x\n1 y\n2 x\n# comment\n")
    code, out, _ = run(capsys, "det", "A2", "--assign", f"explicit:{wf}")
    assert code == 0
    assert "(1-x^2)^" in out and "y" in out


def test_explicit_weight_file_errors(tmp_path, capsys):
    wf = tmp_path / "weights.txt"
    wf.write_text("0 x\n1 y\n")  # misses reflection 2
    code, _, err = run(capsys, "det", "A2", "--assign", f"explicit:{wf}")
    assert code == 2
    wf.write_text("0 x\nnope\n")
    code, _, err = run(capsys, "det", "A2", "--assign", f"explicit:{wf}")
    assert code == 2 and "expected" in err
    code, _, err = run(capsys, "det", "A2",
                       "--assign", f"explicit:{tmp_path}/missing.txt")
    assert code == 2
    # bytes that are not UTF-8
    wf.write_bytes(b"0 x\n1 \xff\xfe\n2 \x80z\n")
    code, out, err = run(capsys, "det", "A2", "--assign", f"explicit:{wf}")
    assert code == 2 and out == "" and err.startswith("error:")


def test_unknown_flag_is_parse_error(capsys):
    assert main(["det", "A2", "--bogus"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [("det", "A3", "--seed", "1"),
                                  ("tables", "A3", "--trials", "2"),
                                  ("multiplicity", "A3", "--assign", "q"),
                                  ("tables", "H4", "--unsafe-large")])
def test_flags_a_subcommand_does_not_read_are_parse_errors(capsys, argv):
    # each subcommand takes only the flags its handler reads
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized" in err


def test_tables_H4_runs_the_oracle_by_default(capsys):
    # |W| = 14400 is under --limit, its table of 864000 bytes under the bound
    code, out, _ = run(capsys, "tables", "H4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(r["l_oracle"] == r["l_formula"] and r["match"]
                        for r in rows)


def test_verify_unsafe_large_warns_and_passes(capsys):
    # A5xA2's chamber matrix has order 4320, past the budget of 3840
    code, out, err = run(capsys, "verify", "A5xA2", "--trials", "1",
                         "--primes", "1", "--unsafe-large")
    assert code == 0 and out.strip().endswith("PASS")
    assert "warning: |W| = 4320" in err
    code, out, err = run(capsys, "verify", "A5xA2", "--trials", "1",
                         "--primes", "1")
    assert code == 3 and out == "" and "3840" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "B7"), "|W| = 645120 exceeds determinant budget 3840"),
    (("verify", "D7"), "|W| = 322560 exceeds determinant budget 3840"),
    (("matrix", "B7"), "|W| = 645120 exceeds matrix cap 200"),
    (("matrix", "D7"), "|W| = 322560 exceeds matrix cap 200"),
], ids=["verify-B7", "verify-D7", "matrix-B7", "matrix-D7"])
def test_verify_and_matrix_refuse_before_enumerating(capsys, monkeypatch,
                                                     argv, message):
    # the budget and the cap are checked on the diagram's order
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("spec, table", [("I2(20000)", 1600000000),
                                         ("I2(30000)", 3600000000)])
def test_multiplicity_refuses_an_oversized_table_before_enumerating(
        capsys, monkeypatch, spec, table):
    # |W| is under --limit, but the oracle's |W| x |T| uint16 table would
    # take gigabytes: the estimate from the diagram refuses it first
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, err = run(capsys, "multiplicity", spec)
    assert code == 3 and out == ""
    assert err == (f"error: the conjugation table of {spec} would take "
                   f"{table} bytes > limit {coxeter_core.TABLE_BYTES_LIMIT}\n")


def _never_build_roots(*args, **kwargs):
    raise AssertionError("the reflection table was built")


@pytest.mark.parametrize("argv, message", [
    (("multiplicity", "I2(200000)"),
     "the conjugation table of I2(200000) would take 320000000000 bytes "
     f"> limit {coxeter_core.TABLE_BYTES_LIMIT}"),
    (("verify", "I2(200000)"),
     "|W| = 400000 exceeds determinant budget 3840"),
    (("matrix", "I2(200000)"), "|W| = 400000 exceeds matrix cap 200"),
    # one class of 2000001 reflections, the edge orbit of a hyperplane,
    # passes the default --limit of 10**6
    (("det", "I2(2000001)"), "an orbit passed 1000000 members (the limit)"),
    (("tables", "I2(2000001)"),
     "an orbit passed 1000000 members (the limit)"),
    # I2(21)'s one class of 21 reflections, past --limit 10
    (("det", "I2(21)", "--limit", "10"),
     "an orbit passed 10 members (the limit)"),
    # one class of 199999 and of 1001 reflections: a component is bounded
    # by its largest class, not by twice the limit
    (("det", "I2(199999)", "--limit", "100000"),
     "an orbit passed 100000 members (the limit)"),
    (("det", "I2(1001)", "--limit", "1000"),
     "an orbit passed 1000 members (the limit)"),
], ids=["multiplicity", "verify", "matrix", "det", "tables", "det-limit",
        "det-odd-class", "det-odd-class-small"])
def test_refusals_come_before_the_reflection_table(capsys, monkeypatch,
                                                   argv, message):
    # |T| = 200000: the reflection table, a Python loop over the roots,
    # would take 1.4 s and 190 MB; the diagram's counts suffice to refuse
    monkeypatch.setattr(coxeter_core.ReflectionTable, "__init__",
                        _never_build_roots)
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err == f"error: {message}\n"


def _oracle_values(capsys, spec):
    code, out, err = run(capsys, "tables", spec, "--format", "json")
    assert code == 0 and err == ""
    return [r["l_oracle"] for r in json.loads(out)["rows"]]


def test_multiplicity_table_limit_is_inclusive(capsys, monkeypatch):
    # A3's table is 24 x 6 bytes: tables runs the oracle exactly where
    # multiplicity can
    monkeypatch.setattr(coxeter_core, "TABLE_BYTES_LIMIT", 144)
    code, out, _ = run(capsys, "multiplicity", "A3")
    assert code == 0 and out
    assert _oracle_values(capsys, "A3") == [6, 2, 2]
    monkeypatch.setattr(coxeter_core, "TABLE_BYTES_LIMIT", 143)
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, err = run(capsys, "multiplicity", "A3")
    assert code == 3 and out == "" and "144 bytes > limit 143" in err
    assert _oracle_values(capsys, "A3") == [None, None, None]


_true_coxeter_class = Arrangement._coxeter_class


def _rank_5_mutant(self, J, rows, members):
    c = _true_coxeter_class(self, J, rows, members)
    return dataclasses.replace(c, l=c.l + 1) if len(J) == 5 else c


@pytest.mark.parametrize("spec", ["D5", "E6"])
def test_tables_catches_a_wrong_rank_5_multiplicity(capsys, monkeypatch,
                                                    spec):
    # the formula off by one on every class of 5 nodes: only the oracle,
    # which tables runs on D5 and E6, tells
    monkeypatch.setattr(Arrangement, "_coxeter_class", _rank_5_mutant)
    code, out, _ = run(capsys, "tables", spec)
    assert code == 1 and "MISMATCH" in out


def test_verify_unsafe_large_past_the_cap_warns_of_nothing(capsys,
                                                           monkeypatch):
    # E6, |W| = 51840, is past the cap of 14400: no run starts, so none is
    # announced
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, err = run(capsys, "verify", "E6", "--unsafe-large")
    assert code == 3 and out == ""
    assert err == "error: |W| = 51840 exceeds determinant budget 14400\n"


def test_verify_D5_within_the_budget(capsys):
    # D5, |W| = 1920, at the three default primes
    code, out, err = run(capsys, "verify", "D5", "--trials", "1",
                         "--primes", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"determinant_identity p={p} trial=0 PASS"
        for p in (2147483659, 2147483693, 2147483713)] + ["PASS"]


def test_verify_B5_within_the_budget(capsys):
    # B5, |W| = 3840, is the largest group under the default budget
    code, out, err = run(capsys, "verify", "B5", "--trials", "1",
                         "--primes", "1", "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    [record] = report["determinant"]["records"]
    assert record["prime"] == 2147483659 and record["lhs"] == record["rhs"]


def _no_conjugation_table(self):
    raise AssertionError("W's conjugation table was built")


@pytest.mark.parametrize("spec", ["H3", "E6"])
def test_oracle_reads_only_the_root_images(capsys, monkeypatch, spec):
    # the oracle counts every hyperplane of an edge from W's root images,
    # row y standing for D at y^-1: neither D nor an inverse is built
    monkeypatch.setattr(coxeter_core.EnumeratedGroup, "conj_tables",
                        property(_no_conjugation_table))
    argv = ("multiplicity", spec, "--format", "json")
    digest = next(d for a, _, d in PINNED if a == argv)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_det_builds_no_group(capsys, monkeypatch):
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, _ = run(capsys, "det", "B6", "--format", "json")
    assert code == 0 and len(json.loads(out)["factors"]) > 0


@pytest.mark.parametrize("spec,degree", [("E7", 182891520),
                                         ("E8", 83607552000)])
def test_det_E7_E8_total_degree(capsys, monkeypatch, spec, degree):
    # the determinant has total degree |W| |T| in the weights: 2903040 * 63
    # for E7 and 696729600 * 120 for E8, with W never enumerated
    monkeypatch.setattr(coxeter_core, "_bfs_enumerate", _never_enumerate)
    code, out, _ = run(capsys, "det", spec, "--assign", "q")
    assert code == 0
    factors = re.findall(r"\(1-q\^(\d+)\)\^(\d+)", out)
    assert " ".join(f"(1-q^{d})^{m}" for d, m in factors) == out.strip()
    assert sum(int(d) * int(m) for d, m in factors) == degree


def test_closed_stdout_exits_141_without_a_traceback():
    # det E7 --format json is about 2.2 MB, past any pipe buffer, so the
    # command is still writing when its reader stops after one line
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(coxvar.__file__).resolve().parents[1]),
        os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "coxvar.cli", "det", "E7", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=300) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
