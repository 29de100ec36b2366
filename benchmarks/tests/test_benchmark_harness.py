"""Tests of the benchmark itself: span arithmetic, the checker, the generators.

Run with `python3 -m pytest benchmarks/tests -q`; they are outside the
package's tier-1 test paths.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import checks
import inputs
import spans
from accq import epinit, qat, quantizers
from accq.bounds import BitWidths
from accq.intsim import AccumulatorSpec, check_accumulator, exhaustive_check
from accq.quantizers import Variant


def _span(name, start, end, parent, run_id=0):
    return spans.Span(name, start, end, parent, run_id)


def test_self_time_subtracts_children_once():
    trace = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("b", 7.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 1.0, 1.0, 2.0])
    assert spans.layer_totals(trace)["b"] == (2, pytest.approx(3.0))


def test_self_time_counts_overlap_and_overhang_once():
    trace = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 6.0, 0),
        _span("z", 9.0, 12.0, 0),
    ]
    # children cover [1, 6] and [9, 10] of the root
    assert spans.self_times(trace)[0] == pytest.approx(4.0)


def test_covered_union():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)


@pytest.mark.parametrize("signed", [False, True])
def test_closed_form_matches_library_certificates(signed):
    rng = np.random.default_rng(0)
    for K, N in itertools.product(range(1, 6), range(1, 5)):
        for _ in range(3):
            q = rng.integers(-128, 128, size=K)
            f, e = checks.closed_form(q, N, signed)
            for P in (4, 12, checks.required_width(f, e)):
                spec = AccumulatorSpec(P=P)
                for wit in (check_accumulator(q, N, signed, spec), exhaustive_check(q, N, signed, spec)):
                    assert checks.check_witness(q, N, signed, P, wit.true_max, wit.true_min, wit.overflowed) == []
                    assert (wit.true_max, wit.true_min) == (f, e)


def test_closed_form_rejects_int64_overflow():
    with pytest.raises(ValueError):
        checks.closed_form(np.full(4, 1 << 40), 30, False)


def test_required_width_is_tight():
    for f, e in [(0, 0), (1, -1), (127, -128), (128, 0), (0, -129)]:
        P = checks.required_width(f, e)
        assert checks.register_fits(f, e, P) and (P == 2 or not checks.register_fits(f, e, P - 1))


def test_check_quantized_flags_a_bad_channel():
    bits = BitWidths(M=4, N=4, P=10)
    ch = epinit.ep_init(np.linspace(-1.0, 1.0, 16), bits, Variant.A2Q)
    res, tape = quantizers.forward_weights(ch, bits, Variant.A2Q)
    w = tape.u * tape.G
    assert checks.check_quantized(res.q, res.qw, w, res.s, res.bound_ok, "a2q", 10, 4, False) == []
    grown = res.q * 4
    errors = checks.check_quantized(grown, res.s * grown, w, res.s, True, "a2q", 10, 4, False)
    assert any("dominate" in err for err in errors)


def _plain(values):
    return [
        {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(item).items() if k != "path"}
        for item in values
    ]


@pytest.mark.parametrize("name", ["train_sweep", "verify_wide", "verify_exhaustive", "quantize_audit"])
def test_generators_are_deterministic_per_seed(name, tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first, again, other = inputs.generate(name, 7, a), inputs.generate(name, 7, b), inputs.generate(name, 8, c)
    assert _plain(first) == _plain(again)
    assert _plain(first) != _plain(other)
    if name.startswith("verify"):
        for x, y in zip(first, again):
            assert open(x.path).read() == open(y.path).read()
        assert all(f.exit_code == 4 for f in first)


def test_call_counts_do_not_depend_on_the_seed(tmp_path):
    shapes = {
        seed: [(f.N, f.signed, sorted(r["K"] for r in f.expected)) for f in inputs.verify_exhaustive(seed, tmp_path)]
        for seed in (1, 2)
    }
    assert shapes[1] == shapes[2]
    audit = {seed: sorted((c.w.size, c.variant, c.signed) for c in inputs.quantize_audit(seed)) for seed in (1, 2)}
    assert audit[1] == audit[2]


def test_tracer_wraps_importers_and_restores_them():
    original = quantizers.forward_weights
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qat.forward_weights is quantizers.forward_weights is not original
        bits = BitWidths(M=4, N=4, P=12)
        quantizers.forward_weights(epinit.ep_init(np.ones(3), bits), bits, Variant.A2Q)  # outside a run
        assert tracer.spans == []
        with tracer.run(0, "call"):
            ch = epinit.ep_init(np.array([3.0, -1.0, 0.5]), bits, Variant.A2Q)
            quantizers.forward_weights(ch, bits, Variant.A2Q)
    finally:
        tracer.uninstall()
    assert qat.forward_weights is quantizers.forward_weights is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "call" and names.count("quantizers.forward_weights") == 1
    assert {"epinit.ep_init", "epinit.project_l1_ball", "bounds.a2q_limit", "bounds.int_range"} <= set(names)
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["epinit.project_l1_ball"]].parent == by_name["epinit.ep_init"]
    assert tracer.counters["epinit.project_l1_ball.active"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    import run

    assert [run.tail_percentile(n) for n in (5, 20, 39, 40, 100, 199, 200, 999, 1000)] == [
        50, 50, 50, 75, 90, 90, 95, 95, 99,
    ]


def test_gauge_scales_each_call_by_the_speed_around_it():
    import gauge

    g = gauge.Gauge()
    g.times = [0.0, 0.05, 0.1, 10.0, 10.05, 10.1]
    g.durations = [gauge.REFERENCE_S] * 3 + [2 * gauge.REFERENCE_S] * 3
    assert g.scale(0.02, 0.04) == pytest.approx(0.04)
    assert g.scale(10.02, 0.04) == pytest.approx(0.02)  # the machine ran at half speed here
    assert g.scale(5.0, 0.04) == pytest.approx(0.04 / 1.5)  # none close: the nearest samples on each side


def test_end_to_end_reports_scaled_and_raw_figures():
    import gauge
    import run

    tally = run.Tally()
    for i, latency in enumerate((0.010, 0.020, 0.030)):
        tally.add(float(i), latency, 5, [], timed=True)
    tally.add(3.0, 0.5, 5, ["bad output"], timed=False)
    tally.gauge.times = [0.0, 1.0, 2.0, 3.0]
    tally.gauge.durations = [2 * gauge.REFERENCE_S] * 4
    fig = run.end_to_end(tally, (0.2, 0.4))
    assert fig["raw"]["work_per_s"] == pytest.approx(15 / 0.06)
    assert fig["metrics"]["work_per_s"][0] == pytest.approx(2 * 15 / 0.06)
    assert fig["metrics"]["call_p50_ms"][0] == pytest.approx(10.0)
    assert fig["metrics"]["setup_s"] == (0.2, "s")
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (4, 1, 3)
