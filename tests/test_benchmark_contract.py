"""The benchmark under benchmarks/ against the package as it stands.

The benchmark calls and patches accq names of its own choosing (spans.TRACED,
the workload calls and their checks).  This runs its tracer and one seed-1
item of every workload through it, so removing or changing a name the
benchmark needs fails here, and every seed-1 quantize_audit item untraced,
which reads the one-channel view on every shape the benchmark quantizes.
benchmarks/ is only imported, never edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path[:0] = [str(BENCH)]

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# per workload, layers its traced call must pass through
WORKLOADS = {
    "train_sweep": {"qat.forward", "qat.backward", "qat.sgd_step", "qat.certify_accumulators"},
    "verify_wide": {"cli.cmd_verify"},
    "verify_exhaustive": {"cli.cmd_verify"},
    "quantize_audit": {"epinit.ep_init", "quantizers.forward_weights", "intsim.check_accumulator"},
}


def _originals() -> dict:
    out = {}
    for name, (module, path) in spans.TRACED.items():
        owner = importlib.import_module(module)
        *cls, attr = path.split(".")
        out[name] = vars(getattr(owner, cls[0]) if cls else owner)[attr]
    return out


@pytest.fixture
def tracer():
    before = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(now is not before[name] for name, now in _originals().items())
        yield tracer
    finally:
        tracer.uninstall()
    assert _originals() == before


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_checks_clean(name, tracer, tmp_path):
    item = inputs.generate(name, 1, tmp_path)[0]
    workload = workloads.make(name, [item])
    with tracer.run(0, name):
        out = workload.call(item)
    work, errors = workload.check(item, out)
    assert errors == []
    assert work > 0
    assert workload.cycle_errors([out]) == []
    assert WORKLOADS[name] <= {span.name for span in tracer.spans}


def test_quantize_audit_checks_clean_on_every_seed1_item(tmp_path):
    items = inputs.generate("quantize_audit", 1, tmp_path)
    assert len(items) == 48
    # K=1 under A2Q+ is the fallback to the uncentered budget
    assert {(item.w.size, item.variant, item.signed) for item in items} == {
        (K, variant, signed)
        for K in (1, 2, 16, 64, 256, 1024)
        for variant in ("a2q", "a2q+")
        for signed in (False, True)
    }
    workload = workloads.make("quantize_audit", items)
    for item in items:
        work, errors = workload.check(item, workload.call(item))
        assert (work, errors) == (1, [])
