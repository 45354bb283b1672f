"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest -q bench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from coxvar import cli, coxeter_core, varchenko  # noqa: E402
from coxvar.coxeter_core import (  # noqa: E402
    EnumeratedGroup,
    known_reflection_count,
)

import spans  # noqa: E402
from checks import check_output  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

DET = Command(("det", "A3"), 24, 6)
VERIFY = Command(("verify", "A3", "--trials", "2", "--primes", "1"), 24, 6,
                 records=2)
MULTIPLICITY = Command(("multiplicity", "B3"), 48, 9)
TABLES = Command(("tables", "B3"), 48, 9)


def _output(cmd: Command, seed: int = 0) -> dict:
    coxeter_core.group.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(cmd.argv(seed)) == 0
    return json.loads(out.getvalue())


def _problems(cmd: Command, doc: dict) -> list[str]:
    return check_output(cmd, json.dumps(doc))


@pytest.mark.parametrize("cmd", [DET, VERIFY, MULTIPLICITY, TABLES],
                         ids=lambda c: c.label)
def test_correct_output_passes(cmd):
    assert _problems(cmd, _output(cmd)) == []


def test_det_with_one_multiplicity_changed_is_flagged():
    doc = _output(DET)
    doc["factors"][3]["multiplicity"] += 1
    assert any("total degree" in p for p in _problems(DET, doc))


def test_verify_with_zero_records_is_flagged():
    doc = _output(VERIFY)
    doc["determinant"]["records"] = []
    assert "no determinant records" in _problems(VERIFY, doc)


def test_verify_trials_zero_is_flagged_although_it_prints_pass():
    cmd = Command(("verify", "A3", "--trials", "0"), 24, 6, records=1)
    doc = _output(cmd)
    assert doc["verdict"] == "PASS"
    assert "no determinant records" in _problems(cmd, doc)


def test_verify_with_a_weaker_prime_is_flagged():
    doc = _output(VERIFY)
    doc["determinant"]["records"][0]["prime"] = 65537
    assert any("false-pass bound" in p for p in _problems(VERIFY, doc))


def test_tables_row_with_match_false_is_flagged():
    doc = _output(TABLES)
    doc["rows"][1]["match"] = False
    assert len(_problems(TABLES, doc)) == 1


def test_multiplicity_row_without_oracle_is_flagged():
    doc = _output(MULTIPLICITY)
    doc["reports"][0]["l_oracle"] = None
    assert len(_problems(MULTIPLICITY, doc)) == 1


def test_malformed_output_is_flagged():
    assert check_output(DET, "error: bad input")[0].startswith("malformed")
    assert check_output(DET, "{}")[0].startswith("malformed")


def test_workload_sizes_agree_with_the_library():
    for cmd in (c for w in WORKLOADS.values() for c in w.commands):
        (comp,) = coxeter_core.parse_group_spec(cmd.args[1]).components
        sizes = (comp.order, known_reflection_count(comp.letter, comp.param))
        assert sizes == (cmd.order, cmd.reflections), cmd.label


def test_span_self_times_add_up_and_the_library_is_restored():
    before = (varchenko.verify_mod_p, EnumeratedGroup.__dict__["conj_tables"])
    tracer = spans.Tracer()
    code, out, elapsed = spans.run_cli(VERIFY.argv(0), tracer)
    assert code == 0 and check_output(VERIFY, out) == []
    assert sum(tracer.self_s.values()) == pytest.approx(elapsed, abs=1e-3)
    assert tracer.counts["exact_algebra.dets"] == 2
    assert tracer.counts["varchenko.verify_records"] == 2
    assert tracer.counts["coxeter_core.elements"] == 24
    assert tracer.self_s["exact_algebra.det_mod_p"] > 0
    assert (varchenko.verify_mod_p,
            EnumeratedGroup.__dict__["conj_tables"]) == before
