"""Span tracing of genus3 from outside the package.

The tracer replaces layer functions with timing wrappers while it is
installed and puts the originals back when it is removed.  A function is
rebound wherever a ``genus3`` module holds it, so names that one module
imported from another (``tablecli.multiply_classes`` is
``chowcurve.multiply_classes``) are traced too.  Rule ``check`` methods
are wrapped on their classes.

Spans are kept in memory for one pass and reduced to per-layer totals
(calls, rule hits, self time) when the pass ends.  Self time is a span's
duration minus the union of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Layer spans named after the module and function they time.
CHOW_LAYERS = (
    "multiply_classes",
    "top_degree",
    "quadric_invariants",
    "veronese_invariants",
    "truncation_positivity",
    "corank1_emptiness",
    "normal_obstruction",
)
SERIALIZERS = (
    "VerificationReport.to_json",
    "VerificationReport.to_text",
    "VerificationReport.to_csv",
    "SelfTestReport.to_json",
    "SelfTestReport.to_text",
    "_candidates_text",
    "_candidates_csv",
    "_candidate_payload",
)
SERIALIZE_SPAN = "tablecli.serialize"
CHILD_SUMMARY_TAG = "PERFBENCH_TRACE "


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def reduce_spans(spans) -> dict:
    """Per-name calls and self time of ``(name, start, end, parent_index)`` spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for index, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered_length(children.get(index, ()), start, end)
    return {"calls": dict(calls), "self_s": dict(self_s)}


def _verify_span_name(table, rows=None, *args, **kwargs) -> str:
    return f"tablecli.verify.{table}"


def _count_candidates(counters: Counter, candidates) -> None:
    counters["classify.candidates"] += len(candidates)
    counters["classify.admitted"] += sum(1 for c in candidates if c.status == "admitted")


class Tracer:
    """Installs span wrappers on genus3 and reduces the spans of each pass."""

    def __init__(self) -> None:
        self._spans: list = []
        self._stack: list[int] = []
        self._hits: Counter = Counter()
        self._counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, options) for every traced callable."""
        from genus3 import chowcurve, classify, surflat, tablecli

        for fn in CHOW_LAYERS:
            yield chowcurve, fn, f"chowcurve.{fn}", {}
        yield classify, "enumerate_quadric_splittings", "classify.enumerate_quadric_splittings", {
            "on_result": _count_candidates
        }
        for rule in classify.default_rules():
            yield type(rule), "check", f"classify.rule.{rule.name}", {"hits": True}
        yield surflat, "verify_row_2_3", "surflat.verify_row_2_3", {}
        yield surflat, "deg_t_enumeration", "surflat.deg_t_enumeration", {}
        yield tablecli, "load_fixture", "tablecli.load_fixture", {}
        yield tablecli, "verify", "tablecli.verify", {"name_of": _verify_span_name}
        yield tablecli, "naive_top_degree", "tablecli.naive_top_degree", {}
        yield tablecli, "oracle_selftest", "tablecli.oracle_selftest", {}
        for path in SERIALIZERS:
            owner, _, attr = path.rpartition(".")
            yield (getattr(tablecli, owner, None) if owner else tablecli), attr, SERIALIZE_SPAN, {}

    def _wrap(self, fn, name, name_of=None, on_result=None, hits=False):
        spans, stack, hit_counts, counters = self._spans, self._stack, self._hits, self._counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if name_of is None else name_of(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if hits and result is not None:
                hit_counts[label] += 1
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        wrappers = {}
        for owner, attr, name, options in self._targets():
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{name} ({attr})")
                continue
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, **options))
            elif original not in wrappers:
                wrappers[original] = self._wrap(original, name, **options)
        # Rebind every module-level name that refers to a traced function.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "genus3" or module_name.startswith("genus3.")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------

    def take_pass(self) -> dict:
        """Reduce and clear the spans and counts recorded since the last call."""
        if self._stack:
            raise RuntimeError("a traced call is still open")
        summary = reduce_spans(self._spans)
        summary["hits"] = dict(self._hits)
        summary["counters"] = dict(self._counters)
        self._spans.clear()
        self._hits.clear()
        self._counters.clear()
        return summary


def merge_summaries(summaries) -> dict:
    """Sum several pass summaries (for example one per CLI child) into one."""
    merged: dict[str, Counter] = {"calls": Counter(), "self_s": Counter(), "hits": Counter(), "counters": Counter()}
    for summary in summaries:
        for key, table in merged.items():
            table.update(summary.get(key, {}))
    return {key: dict(table) for key, table in merged.items()}


def child_main(argv) -> int:
    """Run the genus3 CLI traced; the summary goes to stderr as the last line."""
    from genus3 import tablecli

    tracer = Tracer()
    with tracer.installed():
        status = tablecli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(CHILD_SUMMARY_TAG + json.dumps(tracer.take_pass()) + "\n")
    return status
