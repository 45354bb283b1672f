"""Start-up of the package and of the CLI process, each in a fresh child.

The CLI sets OPENBLAS_NUM_THREADS to 1 when it is unset, before numpy
loads, ``import coxvar`` loads no numpy, ``verify`` loads no sympy, and
``tables`` and ``multiplicity`` load neither ``varchenko`` nor
``exact_algebra``.
Once this test process has imported ``coxvar.cli`` its own environment
carries the default, so every child gets an environment built here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxvar

SRC = str(Path(coxvar.__file__).resolve().parents[1])
EXPORTS = ["CoxeterDiagram", "EnumeratedGroup", "build_group", "group",
           "parse_group_spec", "Factorization", "Monomial", "det_mod_p"]

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc")


def run_child(*argv, openblas=None):
    """Run ``python *argv`` with OPENBLAS_NUM_THREADS unset or set."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


_CLI_STATE = """
import json, os
import coxvar.cli
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir("/proc/self/task"))]))
"""


@needs_proc
def test_cli_import_starts_one_blas_thread():
    variable, threads = json.loads(run_child("-c", _CLI_STATE))
    assert variable == "1"
    assert threads == 1


@needs_proc
def test_cli_keeps_a_thread_count_the_user_set():
    variable, _ = json.loads(run_child("-c", _CLI_STATE, openblas="2"))
    assert variable == "2"


def test_package_import_loads_no_numpy():
    out = run_child("-c", "import os, sys, coxvar; print('numpy' in "
                          "sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert out.split() == [b"False", b"False"]


_EXPORTS_STATE = """
import json, coxvar
names = %r
listed = sorted(set(names) & set(dir(coxvar)))
from coxvar import *
missing = [n for n in names if n not in globals()]
try:
    coxvar.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"missing": missing,
                  "dir": listed,
                  "modules": [getattr(coxvar, n).__module__ for n in names],
                  "unknown": unknown}))
""" % (EXPORTS,)


def test_package_re_exports_its_eight_names():
    doc = json.loads(run_child("-c", _EXPORTS_STATE))
    assert doc["missing"] == []
    assert doc["dir"] == sorted(EXPORTS)
    assert doc["modules"] == ["coxvar.coxeter_core"] * 5 + \
        ["coxvar.exact_algebra"] * 3
    assert "no_such_name" in doc["unknown"]


@pytest.mark.parametrize("argv", [
    ("verify", "F4", "--trials", "1", "--primes", "1", "--format", "json"),
    ("verify", "B4", "--format", "json"),
])
def test_output_does_not_depend_on_blas_threads(argv):
    outs = [run_child("-m", "coxvar.cli", *argv, openblas=value)
            for value in (None, "1", "2")]
    assert json.loads(outs[0])["verdict"] == "PASS"
    assert outs[1] == outs[0] and outs[2] == outs[0]


_VERIFY_MODULES = """
import sys
from coxvar.cli import main
code = main(["verify", "A3", "--trials", "1", "--primes", "5"])
print(code, "sympy" in sys.modules)
"""


def test_verify_past_the_default_primes_loads_no_sympy():
    # the fourth and fifth primes come from Miller-Rabin, not sympy
    *records, last = run_child("-c", _VERIFY_MODULES).splitlines()
    assert sum(r.startswith(b"determinant_identity") for r in records) == 5
    assert last.split() == [b"0", b"False"]


_SUBCOMMAND_MODULES = """
import json, os, sys
from coxvar.cli import main
loaded = {}
for command in ("tables", "multiplicity", "verify"):
    argv = [command, "A3"] + (["--trials", "1", "--primes", "1"]
                              if command == "verify" else [])
    code = main(argv)
    loaded[command] = [code, os.environ["OPENBLAS_NUM_THREADS"],
                       sorted(m for m in ("coxvar.varchenko",
                                          "coxvar.exact_algebra")
                              if m in sys.modules)]
print(json.dumps(loaded))
"""


def test_only_det_matrix_and_verify_load_the_determinant_modules():
    *_, last = run_child("-c", _SUBCOMMAND_MODULES).splitlines()
    loaded = json.loads(last)
    assert loaded["tables"] == [0, "1", []]
    assert loaded["multiplicity"] == [0, "1", []]
    assert loaded["verify"] == [0, "1", ["coxvar.exact_algebra",
                                         "coxvar.varchenko"]]
