"""Tests of the benchmark's own logic.  No test asserts a wall-clock value."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

import run
import tracing
import workloads
from genus3 import chowcurve, classify, surflat, tablecli

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile -------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))
    random.Random(3).shuffle(values)
    result = run.tail(values)
    assert result == run.Tail(value=30, percentile=75.0, samples=40, beyond=10)


def test_tail_with_eleven_samples_is_the_smallest():
    result = run.tail([5.0] + [9.0] * 10)
    assert (result.value, result.samples, result.beyond) == (5.0, 11, 10)
    assert result.percentile == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3, 1, 2]) == run.Tail(value=3, percentile=100.0, samples=3, beyond=0)
    with pytest.raises(ValueError):
        run.tail([])


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("child", 1.0, 3.0, 0),
        ("child", 2.0, 5.0, 0),  # overlaps the first child
        ("grandchild", 1.5, 2.5, 1),
        ("child", 7.0, 8.0, 0),
    ]
    summary = tracing.reduce_spans(spans)
    assert summary["calls"] == {"parent": 1, "child": 3, "grandchild": 1}
    # parent: 10 - |[1, 5] u [7, 8]|; the grandchild only reduces its own parent
    assert summary["self_s"]["parent"] == pytest.approx(5.0)
    assert summary["self_s"]["child"] == pytest.approx((2 - 1) + 3 + 1)
    assert summary["self_s"]["grandchild"] == pytest.approx(1.0)


def test_covered_length_clips_children_to_the_parent():
    assert tracing.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert tracing.covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0
    assert tracing.covered_length([], 0.0, 10.0) == 0.0


# -- golden checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.fixture(scope="module")
def checkout():
    return workloads.Checkout(ROOT)


def _one_pass(name, checkout, golden, traced=False):
    workload = workloads.WORKLOADS[name]
    tally = run.Tally()
    run.run_pass(workload.make_pass(random.Random(7), checkout, traced), golden[name], tally)
    return tally


def test_reproduce_matches_golden_and_perturbed_selftest_fails(checkout, golden, monkeypatch):
    assert _one_pass("reproduce", checkout, golden).failed == 0
    real = tablecli.oracle_selftest
    monkeypatch.setattr(
        tablecli, "oracle_selftest", lambda: dataclasses.replace(real(), grid_mismatches=1)
    )
    tally = _one_pass("reproduce", checkout, golden)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_perturbed_sweep_output_fails(checkout, golden, monkeypatch):
    real = classify.enumerate_quadric_splittings
    monkeypatch.setattr(
        classify, "enumerate_quadric_splittings", lambda d, **kwargs: real(d, **kwargs)[1:]
    )
    tally = _one_pass("sweep", checkout, golden)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_cli_stdout_is_checked_byte_for_byte(checkout, golden):
    args = dict(workloads.CLI_COMMANDS)["invariants"]
    good = checkout.run_cli(args)
    bad = dataclasses.replace(good, stdout=good.stdout.replace(b"10", b"11"))
    assert bad.stdout != good.stdout
    ops = [
        workloads.Op("invariants", lambda: good, workloads.summarize_cli),
        workloads.Op("invariants", lambda: bad, workloads.summarize_cli),
        workloads.Op("invariants", lambda: dataclasses.replace(good, returncode=1), workloads.summarize_cli),
    ]
    tally = run.Tally()
    run.run_pass(ops, golden["cli"], tally)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_op_that_raises_is_a_failed_op(golden):
    def boom():
        raise ValueError("perturbed")

    tally = run.Tally()
    outputs = run.run_pass([workloads.Op("op", boom, workloads.summarize_sweep)], golden["sweep"], tally)
    assert outputs == [None]
    assert (tally.attempted, tally.failed) == (1, 1)


# -- wrappers --------------------------------------------------------------


def _bindings():
    """Every attribute of the genus3 modules and of their classes."""
    owners = [chowcurve, classify, surflat, tablecli]
    owners += [type(rule) for rule in classify.default_rules()]
    owners += [tablecli.VerificationReport, tablecli.SelfTestReport]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_every_wrapper_is_restored_and_untraced_calls_reach_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tablecli.multiply_classes is chowcurve.multiply_classes
        assert chowcurve.multiply_classes.__wrapped__ is before[(id(chowcurve), "multiply_classes")]
        assert classify.CitedCapRule.check is not before[(id(classify.CitedCapRule), "check")]
        candidates = classify.enumerate_quadric_splittings(9)
    traced = tracer.take_pass()
    assert _bindings() == before
    assert tracer.missing == []

    assert traced["calls"]["classify.enumerate_quadric_splittings"] == 1
    assert traced["counters"]["classify.candidates"] == len(candidates)
    assert traced["calls"]["classify.rule.param-consistency"] == len(candidates)
    assert "chowcurve.multiply_classes" not in traced["calls"]

    classify.enumerate_quadric_splittings(9)
    chowcurve.multiply_classes(chowcurve.ProjBundleModel.split([0, 0, 1]), [chowcurve.H])
    assert tracer.take_pass() == {"calls": {}, "self_s": {}, "hits": {}, "counters": {}}


def test_wrappers_are_restored_when_the_traced_code_raises():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            classify.enumerate_quadric_splittings(0)
    assert _bindings() == before
    assert tracer.take_pass()["calls"] == {"classify.enumerate_quadric_splittings": 1}


def test_traced_cli_child_reports_spans_and_same_stdout(checkout, golden):
    args = dict(workloads.CLI_COMMANDS)["verify-3.25"]
    result = checkout.run_cli(args, traced=True)
    assert workloads.summarize_cli(result) == golden["cli"]["verify-3.25"]
    summary = run._cli_child_summary(result)
    assert summary["calls"]["tablecli.load_fixture"] == 1
    assert summary["calls"]["tablecli.verify.3.25"] == 1
    assert summary["calls"]["tablecli.serialize"] == 1


# -- declarations ----------------------------------------------------------


def test_benchmark_json_declares_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert list(run.CLI_LABELS) == [label for label, _ in workloads.CLI_COMMANDS]
    assert set(run.RULES) == {rule.name for rule in classify.default_rules()}


def test_directory_without_sources_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
