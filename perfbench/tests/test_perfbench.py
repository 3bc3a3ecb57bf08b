"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _labels(name, seed, rounds=2):
    wl = workloads.WORKLOADS[name]
    state = wl.setup()
    return [q.label for r in range(rounds) for q in wl.round(state, seed, r)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_query_hash(name):
    a = run.query_hash(_labels(name, 7))
    b = run.query_hash(_labels(name, 7))
    c = run.query_hash(_labels(name, 8))
    assert a == b
    assert a != c


@pytest.mark.parametrize("n, p", [
    (15, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    values = list(range(1, n + 1))
    beyond = sum(1 for v in values if v > run.percentile(values, p))
    assert beyond >= 10 or p == 50.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 90.0) == 90.0
    assert run.percentile(values, 50.0) == 50.0


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent=parent, query=0, ok=True)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("vequation.synthesize", 0.0, 10.0),
        _span("typecheck.infer", 1.0, 3.0, parent=0),
        _span("vequation.validate", 4.0, 9.0, parent=0),
        _span("typecheck.infer", 5.0, 6.0, parent=2),
        _span("typecheck.infer", 7.0, 8.5, parent=2),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 2.5, 1.0, 1.5]
    typecheck = (lambda s: tracing.layer(s.name) == "typecheck")
    assert tracing.busy(spans, typecheck) == 4.5
    # Nested spans of one layer count once in its busy time.
    assert tracing.busy(spans, lambda s: s.name.startswith("vequation")) \
        == 10.0


def test_overlapping_children_are_counted_once():
    spans = [
        _span("metmodel.model_distance", 0.0, 4.0),
        _span("metmodel.interp", 1.0, 3.0, parent=0),
        _span("typecheck.infer", 2.0, 3.5, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 1.5


def test_missing_wrap_target_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([
        ("gvlam.vequation", "no_such_function", "vequation.none", None),
        ("gvlam.no_such_module", "infer", "typecheck.infer", None),
        ("gvlam.quantale", "SymbolicBound.no_method", "quantale.none", None),
    ])
    try:
        assert tracer.absent == ["gvlam.vequation.no_such_function",
                                 "gvlam.no_such_module.infer",
                                 "gvlam.quantale.SymbolicBound.no_method"]
    finally:
        tracer.uninstall()


def test_wrappers_record_spans_and_restore_originals():
    from gvlam import typecheck, vequation
    original = vequation.infer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = workloads.WORKLOADS["bound-beta"]
        state = wl.setup()
        # Depth 10 sets a nest against a perturbed normal form.
        q = next(q for q in wl.round(state, 1, 0)
                 if q.kind == "bound" and q.size == 10)
        q.run()
    finally:
        tracer.uninstall()
    assert vequation.infer is original is typecheck.infer
    names = {s.name for s in tracer.spans}
    assert {"vequation.synthesize", "vequation.validate",
            "typecheck.infer", "rewrite.beta_normalize"} <= names
    assert tracer.absent == []


def test_loglog_slope_recovers_a_power_law():
    points = [(n, 3.0 * n ** 2) for n in (8, 16, 32, 64) for _ in range(3)]
    assert tracing.loglog_slope(points) == pytest.approx(2.0)
    assert tracing.loglog_slope([(8, 1.0), (8, 2.0)]) == 0.0
