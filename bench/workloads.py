"""The benchmark's workloads: fixed lists of ``coxvar`` CLI commands.

Each command carries the group order |W| and reflection count |T| of its
group as constants, so the output checks never trust the program for the
sizes they check against.  Performance claims name the workloads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # subcommand and its arguments, without --seed/--format
    order: int  # |W|
    reflections: int  # |T|
    records: int = 0  # verify: determinant records the defaults must produce

    @property
    def kind(self) -> str:
        return self.args[0]

    @property
    def label(self) -> str:
        return " ".join(self.args)

    def argv(self, seed: int) -> list[str]:
        """CLI arguments; every verify command receives the workload seed."""
        seed_args = ["--seed", str(seed)] if self.kind == "verify" else []
        return [*self.args, *seed_args, "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


WORKLOADS = {w.name: w for w in (
    # Enumeration of |W| up to 51840, the conj and inversion tables,
    # parabolic data, Coxeter-class orbits and edge orbits do almost all
    # the work.  No determinant or oracle runs, so a change to those
    # layers should show no effect here.  Not in BENCHMARK.json: this
    # pure-Python work slows by up to 1.75x under other tenants' load on
    # a shared 2-vCPU host, and the interquartile range of ten 40 s runs'
    # wall_s reached 0.2-0.3 of their median there.
    Workload("det-large", (
        Command(("det", "E6"), 51840, 36),
        Command(("det", "B6"), 46080, 36),
        Command(("det", "H4"), 14400, 60),
    )),
    # Dense modular elimination at orders 1152 and 720 is about 80% of
    # the time; enumeration is negligible.
    Workload("verify-dense", (
        Command(("verify", "F4", "--trials", "1", "--primes", "1"),
                1152, 24, records=1),
        Command(("verify", "A5", "--trials", "1", "--primes", "1"),
                720, 15, records=1),
    )),
    # The chamber-counting oracle dominates multiplicity H4.  verify B4
    # runs fifteen small order-384 determinants instead of one large one,
    # so a kernel that wins at order 1152 but loses at 384 shows here.
    # tables F4 covers the tables subcommand.
    Workload("oracle-mid", (
        Command(("multiplicity", "H4"), 14400, 60),
        Command(("verify", "B4"), 384, 16, records=15),
        Command(("tables", "F4"), 1152, 24),
    )),
)}
