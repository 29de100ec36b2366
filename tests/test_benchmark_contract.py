"""The benchmark under benchmarks/ against the package as it stands.

The benchmark calls and patches accq names of its own choosing (spans.TRACED,
the workload calls and their checks).  This runs its tracer and one seed-1
item of every workload through it, so removing or changing a name the
benchmark needs fails here, and every seed-1 quantize_audit item untraced,
which reads the one-channel view on every shape the benchmark quantizes, and
the whole seed-1 train_sweep grid, whose CSV digest is a standing byte-identity
gate.  benchmarks/ is only imported, never edited.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from accq import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path[:0] = [str(BENCH)]

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# sha256 of the CSV that one pass over train_sweep's seed-1 grid prints
TRAIN_SWEEP_SEED1_SHA256 = "4502cdf80adba2bf26aa1e8ceac84bf2a38a33c23cedbc23f006e5f84ea51a35"

# per workload, layers its traced call must pass through
WORKLOADS = {
    "train_sweep": {"qat.forward", "qat.backward", "qat.sgd_step", "qat.certify_accumulators"},
    "verify_wide": {"cli.cmd_verify"},
    "verify_exhaustive": {"cli.cmd_verify", "intsim.exhaustive_check"},
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
    # an untraced call first, so the traced runs go through the parser the CLI
    # has already built and kept, and must still reach the patched cmd_verify
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["bounds", "--ratio", "--N", "4"])
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
    if name == "verify_exhaustive":
        # every enumerated channel's whole input space reaches the oracle
        inputs_enumerated = sum((1 << item.N) ** rec["K"] for rec in item.expected if rec["exhaustive"])
        assert inputs_enumerated > 0
        assert tracer.counters["intsim.exhaustive_check.inputs"] == inputs_enumerated


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


def test_train_sweep_seed1_grid_csv_is_byte_identical():
    specs = inputs.train_sweep(1)
    assert len(specs) == 4
    workload = workloads.make("train_sweep", specs)
    outs = [workload.call(spec) for spec in specs]
    assert workload.cycle_errors(outs) == []
    assert workload.digest == TRAIN_SWEEP_SEED1_SHA256
