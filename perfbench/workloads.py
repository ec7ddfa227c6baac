"""The benchmark's three workloads and the golden checks on their outputs.

Every workload is a closed loop driven by one caller in one process: the
next operation starts only when the previous one has returned.  Input
sizes are fixed; the seed only shuffles the order of the steps inside a
pass, so one seed always gives the same inputs.

An operation's ``run`` is the timed part.  Its ``summarize`` turns the
raw output into plain data after the clock has stopped, and the result
must equal the golden entry recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from genus3 import classify, tablecli

import tracing

TABLES = ("2.3", "3.25", "5.7", "2.8.2", "4.4")
SWEEP_DEGREES = tuple(range(1, 13))
SWEEP_N_RANGE = range(3, 15)
# The genus3 console script, which is not installed in a checkout.
CLI_CODE = "import sys; from genus3.tablecli import main; sys.exit(main())"
CLI_COMMANDS = (
    ("invariants", ("invariants", "--base-genus", "0", "--rank", "4", "--c1", "6", "--b", "-2")),
    (
        "invariants-veronese",
        ("invariants", "--base-genus", "1", "--rank", "3", "--c1", "2", "--b", "-1", "--veronese"),
    ),
    ("enumerate-d11", ("enumerate", "--d", "11")),
    ("enumerate-d9-json", ("enumerate", "--d", "9", "--n-max", "10", "--format", "json")),
    ("enumerate-d6-csv", ("enumerate", "--d", "6", "--format", "csv")),
    *((f"verify-{table}", ("verify", "--table", table)) for table in TABLES),
)
SELFTEST_FIELDS = (
    "grid_points",
    "grid_mismatches",
    "veronese_points",
    "veronese_mismatches",
    "corrected_identity_points",
    "corrected_identity_failures",
    "passed",
)
CHILD_TIMEOUT_S = 60
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


class Checkout:
    """The source tree under test and the fresh interpreters run on it."""

    def __init__(self, root: Path) -> None:
        self.root = root
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Children keep compiled bytecode, as an installed package would.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env

    def python(self, code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            cwd=self.root,
            env=self.env,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )

    def run_cli(self, args, traced: bool = False) -> CliResult:
        if traced:
            code = (
                f"import sys; sys.path.insert(0, {str(Path(tracing.__file__).parent)!r}); "
                "import tracing; sys.exit(tracing.child_main(sys.argv[1:]))"
            )
        else:
            code = CLI_CODE
        done = self.python(code, *args)
        return CliResult(done.returncode, done.stdout, done.stderr)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: str
    in_process: bool
    make_pass: Callable  # (rng, checkout, traced) -> list[Op]
    reference: Callable  # (checkout) -> None, timed around every op


def _mix(acc: int, i: int) -> int:
    return (acc * 31 + i) % 1009


def reference_work(checkout=None) -> int:
    """Fixed pure-Python work that times the machine, not genus3.

    Function calls with small-integer arithmetic, then list-of-terms
    expansions built from tuples, list comprehensions and dict updates:
    the kinds of work the in-process workloads do.  Op times are reported
    as multiples of this, so it must never change.
    """
    acc = 0
    for i in range(40000):
        acc = _mix(acc, i)
    for h, f in ((1, 2), (2, -1), (3, 1)):
        terms = [(0, 0, 1)]
        for _ in range(13):
            terms = [t for (i, j, c) in terms for t in ((i + 1, j, c * h), (i, j + 1, c * f))]
        sums: dict = {}
        for i, j, c in terms:
            sums[(i, j)] = sums.get((i, j), 0) + c
        acc += len(sums)
    return acc


def bare_interpreter(checkout) -> None:
    """Start and stop an interpreter that imports nothing of genus3."""
    checkout.python("pass")


def summarize_reproduce(reports: dict) -> dict:
    summary = {}
    for step, text in reports.items():
        payload = json.loads(text)
        if step == "selftest":
            summary[step] = {name: payload[name] for name in SELFTEST_FIELDS}
            first = payload["variant_identity_counterexamples"][:1]
            summary[step]["first_counterexample"] = [[c["n"], c["d"], c["g_C"]] for c in first]
        else:
            summary[step] = {"counts": payload["counts"], "exit_status": payload["exit_status"]}
    return summary


def summarize_sweep(results: dict) -> dict:
    summary = {}
    for d, candidates in sorted(results.items()):
        summary[str(d)] = {
            "candidates": len(candidates),
            "admitted": [list(c.splitting) for c in candidates if c.status == "admitted"],
            "first_failure": dict(sorted(Counter(c.rule.rule for c in candidates if c.rule).items())),
        }
    return summary


def summarize_cli(result: CliResult) -> dict:
    return {
        "exit": result.returncode,
        "stdout_sha256": hashlib.sha256(result.stdout).hexdigest(),
        "stdout_bytes": len(result.stdout),
    }


def _reproduce_run(steps) -> dict:
    reports = {}
    for step in steps:
        if step == "selftest":
            reports[step] = tablecli.oracle_selftest().to_json()
        else:
            rows = tablecli.load_fixture(tablecli.packaged_fixture_path(step))
            reports[step] = tablecli.verify(step, rows).to_json()
    return reports


def _sweep_run(degrees) -> dict:
    return {d: classify.enumerate_quadric_splittings(d, n_range=SWEEP_N_RANGE) for d in degrees}


def _reproduce_pass(rng: random.Random, checkout: Checkout, traced: bool) -> list[Op]:
    steps = [*TABLES, "selftest"]
    rng.shuffle(steps)
    return [Op("op", partial(_reproduce_run, steps), summarize_reproduce)]


def _sweep_pass(rng: random.Random, checkout: Checkout, traced: bool) -> list[Op]:
    degrees = list(SWEEP_DEGREES)
    rng.shuffle(degrees)
    return [Op("op", partial(_sweep_run, degrees), summarize_sweep)]


def _cli_pass(rng: random.Random, checkout: Checkout, traced: bool) -> list[Op]:
    commands = list(CLI_COMMANDS)
    rng.shuffle(commands)
    return [
        Op(label, partial(checkout.run_cli, args, traced), summarize_cli) for label, args in commands
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reproduce",
            "regenerate all five tables and the ring self-test: the paper's headline task, dominated by Chow-ring products",
            "load + verify + to_json for tables " + ", ".join(TABLES) + "; oracle_selftest + to_json",
            True,
            _reproduce_pass,
            reference_work,
        ),
        Workload(
            "sweep",
            "enumerate splittings for d in 1..12 over n in 3..14: the input whose cost grows fastest, with no ring products",
            "enumerate_quadric_splittings(d, n_range=range(3, 15)) with default rules for d in 1..12",
            True,
            _sweep_pass,
            reference_work,
        ),
        Workload(
            "cli",
            "one-shot CLI subprocesses: interpreter start, import, argparse and text/JSON/CSV output dominate",
            "one subprocess per command, cycling through: "
            + "; ".join(" ".join(args) for _, args in CLI_COMMANDS),
            False,
            _cli_pass,
            bare_interpreter,
        ),
    )
}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def record_golden(checkout: Checkout) -> dict:
    """Summaries of one pass of every workload, in a fixed order."""
    golden = {}
    for workload in WORKLOADS.values():
        ops = workload.make_pass(random.Random(0), checkout, False)
        golden[workload.name] = {op.label: op.summarize(op.run()) for op in ops}
    return golden
