"""The coxvar benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload oracle-mid --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; it reads the library from ``src/``.

With ``--trace 0`` every command of the workload runs as a fresh child
``python -m coxvar.cli ... --format json`` with PYTHONPATH=src, one child
at a time in a closed loop, and the list is cycled while the time
allows.  Rusage comes per child from ``os.wait4``.  Reported:

    wall_s       wall time of the workload's children: the sum over
                 commands of each command's median
    cpu_s        user plus system time of those children, summed likewise
    peak_rss_mb  the largest per-child peak RSS (per-command medians)
    setup_s      median wall time of a child that only imports
                 coxvar.cli; one such child runs before each command

The summary prints each command's median, minimum, maximum and run count.

With ``--trace 1`` every command runs in-process through
``coxvar.cli.main`` on a cold group cache, once untraced and once with
spans around the library's public functions (see spans.py), and the run
reports per-layer self times and counts as medians over passes.

Every output is checked (checks.py), and every command must print the
same bytes on every run.  A command whose exit code or check fails counts
as failed; the run goes on.  Failures go to stderr.  The summary on
stdout adds failed_frac (failed over attempted, set-up children included)
and false_pass_log2 (the summed Schwartz-Zippel bound of the verify
commands), and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  ``--workload all``
runs every workload in turn, for a single summary of all of them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_output, false_pass_log2
from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170  # per workload; a stuck run ends before 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
IMPORT_ONLY = Command(("import",), 0, 0)


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], env: dict) -> Child:
    """Run one child to completion and take its own rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        reader.join()
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Child(proc.returncode, out.decode(), err[0].decode(), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


@dataclass
class Tally:
    """Attempted and failed operations, and the first output of each."""

    attempted: int = 0
    failed: int = 0
    first_output: dict = field(default_factory=dict)

    def record(self, cmd: Command, code: int, out: str, err: str = "") -> None:
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if cmd is not IMPORT_ONLY:
            problems += check_output(cmd, out)
            if self.first_output.setdefault(cmd.label, out) != out:
                problems.append("output differs from its first run")
        if problems:
            self.failed += 1
            print(f"FAILED {cmd.label}: {'; '.join(problems)}",
                  file=sys.stderr)
            if err.strip():
                print(err.strip()[-2000:], file=sys.stderr)


def _median_line(label: str, values: list[float], unit: str) -> str:
    return (f"{label:36s} {statistics.median(values):14.6g} {unit:6s} "
            f"(min {min(values):.6g}, max {max(values):.6g}, n {len(values)})")


def run_untraced(workload: Workload, seed: int, seconds: int, tally: Tally):
    """The end-to-end metrics, and their units.

    The commands run in a cycle until the next one, with its set-up child,
    would end past the deadline if both took their median time so far;
    the first cycle always completes.  Times sum the per-command medians.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = {cmd: [] for cmd in workload.commands}
    setup = []
    deadline = time.perf_counter() + seconds
    for n, cmd in enumerate(itertools.cycle(workload.commands)):
        if n >= len(runs):
            expected = (statistics.median(setup)
                        + statistics.median(c.wall_s for c in runs[cmd]))
            if time.perf_counter() + expected > deadline:
                break
        # interleaved, so set-up time sees the same machine as the work
        child = run_child([sys.executable, "-c", "import coxvar.cli"], env)
        tally.record(IMPORT_ONLY, child.code, child.out, child.err)
        setup.append(child.wall_s)
        child = run_child(
            [sys.executable, "-m", "coxvar.cli", *cmd.argv(seed)], env)
        tally.record(cmd, child.code, child.out, child.err)
        runs[cmd].append(child)
    for cmd, children in runs.items():
        print(_median_line(cmd.label, [c.wall_s for c in children], "s"))
    print(_median_line("import coxvar.cli", setup, "s"))
    median = statistics.median
    return {
        "wall_s": sum(median(c.wall_s for c in cs) for cs in runs.values()),
        "cpu_s": sum(median(c.cpu_s for c in cs) for cs in runs.values()),
        "peak_rss_mb": max(median(c.rss_mb for c in cs)
                           for cs in runs.values()),
        "setup_s": median(setup),
    }, END_TO_END_UNITS


def run_traced(workload: Workload, seed: int, seconds: int, tally: Tally):
    """The per-layer metrics as medians over passes, and their units."""
    sys.path.insert(0, str(SRC))
    import spans

    samples = {name: [] for name in spans.UNITS}
    started, passes = time.perf_counter(), 0
    while not passes or (
            (time.perf_counter() - started) / passes * (passes + 1) <= seconds):
        tracer = spans.Tracer()
        untraced_s = traced_s = 0.0
        for i, cmd in enumerate(workload.commands):
            # alternate which side goes first, so that neither always pays
            # for the process's lazy imports
            order = (False, True) if (i + passes) % 2 else (True, False)
            for traced in order:
                code, out, elapsed = spans.run_cli(
                    cmd.argv(seed), tracer if traced else None)
                tally.record(cmd, code, out)
                if traced:
                    traced_s += elapsed
                else:
                    untraced_s += elapsed
                print(f"{cmd.label}: {elapsed:.3f} s "
                      f"{'traced' if traced else 'untraced'}", file=sys.stderr)
        spanned = sum(tracer.self_s.values())
        if abs(spanned - traced_s) > 1e-3:
            tally.failed += 1
            print(f"FAILED trace: span self times add up to {spanned:.6f} s, "
                  f"traced total is {traced_s:.6f} s", file=sys.stderr)
        for name, value in spans.layer_metrics(
                tracer, traced_s, untraced_s).items():
            samples[name].append(value)
        passes += 1
    return {name: statistics.median(v) for name, v in samples.items()}, \
        spans.UNITS


def summarize(workload: Workload, values: dict, units: dict,
              tally: Tally) -> dict:
    """Print the metrics and the output checks; return the result metrics."""
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:14.6g} {unit}")
    print(f"{'failed_frac':36s} {tally.failed / tally.attempted:14.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    verify = [c for c in workload.commands if c.kind == "verify"]
    bound = "n/a"
    if verify:
        try:
            outputs = [json.loads(tally.first_output[c.label]) for c in verify]
            bound = "%.6g" % sum(map(false_pass_log2, verify, outputs))
        except (ValueError, KeyError, TypeError):
            bound = "malformed"  # and already counted as failed
    print(f"{'false_pass_log2':36s} {bound:>14s} log2")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def environment() -> dict:
    """Core count, numpy and its BLAS, and the BLAS thread settings."""
    probe = ("import json, numpy; b = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps("
             "{'numpy': numpy.__version__, 'blas': b['name'] + ' ' + "
             "str(b['version'])}))")
    found = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           text=True, check=True).stdout
    env = {"nproc": os.cpu_count(), **json.loads(found)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _on_time_limit(signum, frame):
    raise TimeoutError(f"workload ran past {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coxvar" / "cli.py").is_file():
        print(f"error: no coxvar sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_time_limit)
    print(f"# environment {json.dumps(environment())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload, tally = WORKLOADS[name], Tally()
        print(f"# workload {name}, seed {args.seed}, trace {args.trace}")
        signal.alarm(TIME_LIMIT_S)
        runner = run_traced if args.trace else run_untraced
        values, units = runner(workload, args.seed, args.seconds, tally)
        signal.alarm(0)
        metrics = summarize(workload, values, units, tally)
        prefix = f"{name}." if args.workload == "all" else ""
        result["metrics"].update((prefix + k, v) for k, v in metrics.items())
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
