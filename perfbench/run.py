"""genus3 benchmark: one workload per run, measured from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload
    python3 perfbench/run.py --record-golden                      # rewrite golden.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it state every metric with its unit, the error rate and the provenance.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

TAIL_BEYOND = 10
SETUP_REPEATS = 15
WORKLOAD_NAMES = ("reproduce", "sweep", "cli")
RULES = (
    "param-consistency",
    "truncation-positivity",
    "no-double-minus-one",
    "floor-bound",
    "cited-cap",
    "corank1-empty",
    "normal-obstruction",
)
CLI_LABELS = (
    "invariants",
    "invariants-veronese",
    "enumerate-d11",
    "enumerate-d9-json",
    "enumerate-d6-csv",
    "verify-2.3",
    "verify-3.25",
    "verify-5.7",
    "verify-2.8.2",
    "verify-4.4",
)
# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("op_ref_p50", "ref", "lower", 0.2),
    ("op_ref_tail", "ref", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)
# (name, unit, better)
PER_LAYER = (
    ("import.interpreter_s", "s", "lower"),
    ("import.genus3_s", "s", "lower"),
    *(
        (f"chowcurve.{fn}.{field}", unit, "lower")
        for fn in (
            "multiply_classes",
            "top_degree",
            "quadric_invariants",
            "veronese_invariants",
            "truncation_positivity",
            "corank1_emptiness",
            "normal_obstruction",
        )
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("chowcurve.products_per_s", "1/s", "higher"),
    ("classify.enumerate_quadric_splittings.calls", "count", "lower"),
    ("classify.enumerate_quadric_splittings.self_s", "s", "lower"),
    ("classify.candidates", "count", "lower"),
    ("classify.admitted", "count", "higher"),
    ("classify.admit_ratio", "ratio", "higher"),
    *(
        (f"classify.rule.{rule}.{field}", unit, "lower")
        for rule in RULES
        for field, unit in (("calls", "count"), ("hits", "count"), ("self_s", "s"))
    ),
    ("surflat.verify_row_2_3.calls", "count", "lower"),
    ("surflat.verify_row_2_3.self_s", "s", "lower"),
    ("surflat.deg_t_enumeration.self_s", "s", "lower"),
    ("tablecli.load_fixture.calls", "count", "lower"),
    ("tablecli.load_fixture.self_s", "s", "lower"),
    *((f"tablecli.verify.{table}.self_s", "s", "lower") for table in ("2.3", "3.25", "5.7", "2.8.2", "4.4")),
    ("tablecli.naive_top_degree.calls", "count", "lower"),
    ("tablecli.naive_top_degree.self_s", "s", "lower"),
    ("tablecli.oracle_selftest.self_s", "s", "lower"),
    ("tablecli.serialize.self_s", "s", "lower"),
    *((f"cli.{label}.s_p50", "s", "lower") for label in CLI_LABELS),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
SETUP_CODE = (
    "import json, sys, time\n"
    "start = time.perf_counter()\n"
    "from genus3 import tablecli\n"
    "imported = time.perf_counter()\n"
    "for table in sys.argv[1:]:\n"
    "    tablecli.load_fixture(tablecli.packaged_fixture_path(table))\n"
    "print(json.dumps([imported - start, time.perf_counter() - imported]))\n"
)


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values) -> Tail:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With n samples that is the (n - TAIL_BEYOND)-th smallest, at
    percentile 100 * (n - TAIL_BEYOND) / n.  Too few samples for any such
    percentile give the maximum, at percentile 100.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(len(ordered) - TAIL_BEYOND, 0) or len(ordered)
    return Tail(ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered), len(ordered) - rank)


@dataclass
class Tally:
    """Op outcomes of one run, in the order the ops ran."""

    samples: list = field(default_factory=list)  # (label, seconds, reference seconds or None)
    attempted: int = 0
    failed: int = 0

    def record(self, label: str, seconds: float, ok: bool, ref_seconds: float | None = None) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.samples.append((label, seconds, ref_seconds))

    def times(self, label: str | None = None) -> list[float]:
        return [t for name, t, _ in self.samples if label is None or name == label]

    def costs(self) -> list[float]:
        """Each op's seconds over the reference seconds around it."""
        return [t / r for _, t, r in self.samples]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_pass(ops, golden: dict, tally: Tally, reference=None) -> list:
    """Run one pass of ops in order; return each op's raw output (None if it raised).

    ``reference``, when given, is timed before the first op and after every
    op; an op's reference time is the mean of the runs just before and
    just after it, since the machine's speed changes within a second.
    """
    outputs = []
    ref_before = None if reference is None else _timed(reference)
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            elapsed, ok, raw = time.perf_counter() - start, False, None
            print(f"op {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            ok = op.summarize(raw) == golden.get(op.label)
            if not ok:
                print(f"op {op.label}: output differs from golden.json", file=sys.stderr)
        ref_seconds = None
        if reference is not None:
            ref_after = _timed(reference)
            ref_seconds, ref_before = (ref_before + ref_after) / 2, ref_after
        tally.record(op.label, elapsed, ok, ref_seconds)
        outputs.append(raw)
    return outputs


def setup_probe(checkout) -> tuple[float, float]:
    """One fresh interpreter that imports genus3 and loads the fixtures.

    Returns its wall time and the import time the child measured.
    """
    import workloads

    start = time.perf_counter()
    done = checkout.python(SETUP_CODE, *workloads.TABLES)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace')}")
    return wall, json.loads(done.stdout)[0]


def end_to_end_metrics(workload, checkout, golden, rng, seconds) -> tuple[Tally, dict, list[str]]:
    """Closed loop of whole passes for ``seconds``, set-up probes spread over it.

    Each op's cost is its time divided by the reference timed around it,
    so load that slows the whole machine cancels out.
    """
    reference = partial(workload.reference, checkout)
    setup_probe(checkout)  # warms the bytecode and file caches
    run_pass(workload.make_pass(rng, checkout, False), golden, Tally(), reference)  # warm-up
    tally, setup_walls = Tally(), []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(setup_walls) < SETUP_REPEATS:
        due = (len(setup_walls) + 0.5) * seconds / SETUP_REPEATS
        if len(setup_walls) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setup_walls.append(setup_probe(checkout)[0])
        else:
            run_pass(workload.make_pass(rng, checkout, False), golden, tally, reference)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    costs = tally.costs()
    cost_tail, time_tail = tail(costs), tail(tally.times())
    values = {
        "op_ref_p50": statistics.median(costs),
        "op_ref_tail": cost_tail.value,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    notes = [
        f"op_ref_*: op seconds / mean seconds of {workload.reference.__name__}() "
        f"run just before and just after it, over {len(costs)} ops",
        f"op_ref_tail: p{cost_tail.percentile:.1f} of {cost_tail.samples} samples, {cost_tail.beyond} beyond",
        f"setup_s: median of {len(setup_walls)} fresh interpreters spread over the run",
        f"peak_rss_mb: {'this process' if workload.in_process else 'largest child process'}",
        f"op_s_p50 = {statistics.median(tally.times()):.6g} s (raw seconds move with the machine's load)",
        f"op_s_tail = {time_tail.value:.6g} s (p{time_tail.percentile:.1f} of {time_tail.samples} samples, "
        f"{time_tail.beyond} beyond)",
        f"ref_s_p50 = {statistics.median(r for _, _, r in tally.samples):.6g} s",
    ]
    return tally, values, notes


def _cli_child_summary(raw) -> dict:
    import tracing

    for line in reversed(raw.stderr.decode(errors="replace").splitlines()):
        if line.startswith(tracing.CHILD_SUMMARY_TAG):
            return json.loads(line[len(tracing.CHILD_SUMMARY_TAG) :])
    return {}  # the child failed before it could report; the op is already counted failed


def per_layer_metrics(workload, checkout, golden, rng, seconds) -> tuple[Tally, dict, list[str]]:
    """Alternate traced and untraced passes; reduce the spans of each traced pass."""
    import tracing

    setup_probe(checkout)  # warms the bytecode and file caches
    interpreter = [_timed(partial(checkout.python, "pass")) for _ in range(SETUP_REPEATS)]
    import_times = [setup_probe(checkout)[1] for _ in range(SETUP_REPEATS)]
    run_pass(workload.make_pass(rng, checkout, False), golden, Tally())  # warm-up

    tracer = tracing.Tracer()
    traced, untraced = Tally(), Tally()
    passes, stdout_bytes, overheads = [], [], []
    deadline = time.perf_counter() + seconds
    # Traced and untraced passes alternate; the run ends on an untraced one.
    while time.perf_counter() < deadline or len(passes) > len(overheads) or not passes:
        if len(passes) == len(overheads):
            ops = workload.make_pass(rng, checkout, True)
            start = time.perf_counter()
            if workload.in_process:
                with tracer.installed():
                    run_pass(ops, golden, traced)
            else:
                outputs = run_pass(ops, golden, traced)
            traced_seconds = time.perf_counter() - start
            if workload.in_process:
                passes.append(tracer.take_pass())
            else:
                passes.append(tracing.merge_summaries(_cli_child_summary(raw) for raw in outputs if raw))
        else:
            start = time.perf_counter()
            outputs = run_pass(workload.make_pass(rng, checkout, False), golden, untraced)
            # adjacent passes see the same machine load, so compare them pairwise
            overheads.append(traced_seconds / (time.perf_counter() - start))
            stdout_bytes.append(0 if workload.in_process else sum(len(raw.stdout) for raw in outputs if raw))
    if tracer.missing:
        print("not traced (absent): " + ", ".join(sorted(set(tracer.missing))), file=sys.stderr)

    def med(kind, name, default=0):
        # counts repeat exactly, so the lower median keeps them whole numbers
        if kind == "self_s":
            return statistics.median(p[kind].get(name, default) for p in passes)
        return statistics.median_low(p[kind].get(name, default) for p in passes)

    values = {
        "import.interpreter_s": statistics.median(interpreter),
        "import.genus3_s": statistics.median(import_times),
    }
    for name, _unit, _better in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "hits"):
            values[name] = med(kind, layer)
        elif kind == "self_s":
            values[name] = med("self_s", layer, 0.0)
    values["chowcurve.products_per_s"] = statistics.median(
        _ratio(
            p["calls"].get("chowcurve.multiply_classes", 0),
            p["self_s"].get("chowcurve.multiply_classes", 0.0)
            + p["self_s"].get("chowcurve.top_degree", 0.0),
        )
        for p in passes
    )
    values["classify.candidates"] = med("counters", "classify.candidates")
    values["classify.admitted"] = med("counters", "classify.admitted")
    values["classify.admit_ratio"] = statistics.median(
        _ratio(p["counters"].get("classify.admitted", 0), p["counters"].get("classify.candidates", 0))
        for p in passes
    )
    for label in CLI_LABELS:
        samples = untraced.times(label)
        values[f"cli.{label}.s_p50"] = statistics.median(samples) if samples else 0.0
    values["cli.stdout_bytes"] = statistics.median_low(stdout_bytes)
    values["trace.overhead_ratio"] = statistics.median(overheads)
    tally = Tally(attempted=traced.attempted + untraced.attempted, failed=traced.failed + untraced.failed)
    unit = "one op" if workload.in_process else "one op per CLI command"
    notes = [
        f"{len(passes)} traced and {len(overheads)} untraced passes of {unit}; "
        "counts and self times are medians over the traced passes"
    ]
    return tally, values, notes


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(checkout, workload, seed: int, seconds: float, trace: int) -> dict:
    import genus3
    from genus3 import tablecli

    import workloads

    fixtures = {}
    for table in workloads.TABLES:
        with open(tablecli.packaged_fixture_path(table), "rb") as handle:
            fixtures[table] = hashlib.sha256(handle.read()).hexdigest()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(checkout.root),
        "package_version": genus3.__version__,
        "fixtures_sha256": fixtures,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": {"name": workload.name, "why": workload.why, "ops": workload.ops},
    }


def _load_program(root: Path):
    """Import genus3 from the checkout's ``src``; None when there is none."""
    src = root / "src"
    if not (src / "genus3" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import genus3

    if Path(genus3.__file__).resolve().parent != (src / "genus3").resolve():
        raise RuntimeError(f"genus3 was imported from {genus3.__file__}, not from {src}")
    return genus3


def run_one(args, root: Path) -> int:
    import workloads

    checkout = workloads.Checkout(root)
    workload = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden()[workload.name]
    rng = random.Random(args.seed)
    if args.trace:
        tally, values, notes = per_layer_metrics(workload, checkout, golden, rng, args.seconds)
        declared = PER_LAYER
    else:
        tally, values, notes = end_to_end_metrics(workload, checkout, golden, rng, args.seconds)
        declared = END_TO_END
    print(f"workload {workload.name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for name, unit, *_ in declared:
        print(f"  {name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  error_rate = {error_rate:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    print("provenance: " + json.dumps(provenance(checkout, workload, args.seed, args.seconds, args.trace)))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one combined document."""
    combined = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("provenance: ")))
        result = json.loads(lines[-1])
        result["error_rate"] = result["failed"] / result["attempted"]
        result["provenance"] = json.loads(
            next(line for line in lines if line.startswith("provenance: "))[len("provenance: ") :]
        )
        combined[name] = result
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json from this checkout")
    args = parser.parse_args(argv)
    if args.record_golden == (args.workload is not None):
        parser.error("give exactly one of --workload and --record-golden")

    root = Path.cwd()
    if _load_program(root) is None:
        print(f"error: no genus3 sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.record_golden:
        import workloads

        golden = workloads.record_golden(workloads.Checkout(root))
        with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
