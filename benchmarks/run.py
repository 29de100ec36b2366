"""accq benchmark: four closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 benchmarks/run.py --workload train_sweep --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each call starts after
the previous one returns.  With --trace 0 the named workload runs untraced for
--seconds and the last stdout line carries the end-to-end metrics.  With
--trace 1 every workload runs a fixed amount of work, alternately untraced and
traced, and the last line carries the per-layer metrics of all four (the
workload named is only validated).  The last line is always one JSON object
with the keys correct, attempted, failed and metrics.  See README.md here.

Timed metrics are scaled to reference speed (gauge.py); the raw figures are
printed beside them.
"""

from __future__ import annotations

import os

# one thread: pin the BLAS and OpenMP pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the default 2^24 budget decides which verify channels are enumerated
os.environ.pop("ACCQ_ENUM_BUDGET", None)

import argparse
import gc
import importlib
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

from gauge import REFERENCE_S, Gauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("train_sweep", "verify_wide", "verify_exhaustive", "quantize_audit")
SETUP_REPEATS = 9
REFERENCE_WARM = 20  # reference kernel samples taken before timing starts
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND_TAIL = 10
UNITS = {"setup_s": "s", "work_per_s": "1/s", "call_p50_ms": "ms", "call_tail_ms": "ms"}

# traced run: rounds per workload, each one untraced and one traced pass over the inputs
TRACE_ROUNDS = {"train_sweep": 2, "verify_wide": 6, "verify_exhaustive": 4, "quantize_audit": 20}

# per-layer metrics reported for each workload: the layers whose time it should move
LAYER_METRICS = {
    "train_sweep": (
        "quantizers.forward_weights.calls", "quantizers.forward_weights.self_s",
        "quantizers.WeightTape.backward.calls", "quantizers.WeightTape.backward.self_s",
        "bounds.calls", "bounds.self_s",
        "qat.forward.self_s", "qat.backward.self_s", "qat.sgd_step.self_s", "qat.steps",
        "qat.certify_accumulators.self_s", "qat.make_data.self_s",
        "qat.build_network.self_s", "qat.calibrate.self_s",
        "trace.overhead_ratio",
    ),
    "verify_wide": (
        "intsim.check_accumulator.calls", "intsim.check_accumulator.self_s",
        "cli.cmd_verify.self_s", "trace.overhead_ratio",
    ),
    "verify_exhaustive": (
        "intsim.exhaustive_check.calls", "intsim.exhaustive_check.self_s",
        "intsim.exhaustive_check.inputs", "intsim.exhaustive_ratio",
        "cli.cmd_verify.self_s", "trace.overhead_ratio",
    ),
    "quantize_audit": (
        "quantizers.forward_weights.calls", "quantizers.forward_weights.self_s",
        "bounds.calls", "bounds.self_s",
        "epinit.project_l1_ball.calls", "epinit.project_l1_ball.self_s",
        "epinit.project_l1_ball.active_ratio", "epinit.ep_init.self_s",
        "intsim.check_accumulator.calls", "intsim.check_accumulator.self_s",
        "trace.overhead_ratio",
    ),
}


class Tally:
    """Calls attempted and failed; start, latency and work units of the timed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.units = 0
        # flat float arrays keep the bookkeeping out of the measured peak memory
        self.starts = array("d")
        self.latencies = array("d")
        self.errors: list[str] = []
        self.gauge = Gauge()

    def add(self, start: float, latency: float, units: int, errors: list[str], timed: bool) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 10 - len(self.errors))])
        elif timed:
            self.units += units
        if timed:
            self.starts.append(start)
            self.latencies.append(latency)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 10 - len(self.errors))])


def parse_args(argv):
    parser = argparse.ArgumentParser(description="accq benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0 or not ns.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return ns


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
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


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def measure_setup(names, seed: int, workdir: Path) -> tuple[float, float, dict]:
    """Median over SETUP_REPEATS of a fresh `import accq.cli` plus input generation.

    Returns the median at reference speed, the raw median and the inputs.
    """
    import inputs

    gauge, rounds = Gauge(), []
    gauge.sample(REFERENCE_WARM)
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules if m == "accq" or m.startswith("accq.")]:
            del sys.modules[mod]
        start = time.perf_counter()
        importlib.import_module("accq.cli")
        data = {name: inputs.generate(name, seed, workdir) for name in names}
        rounds.append((start, time.perf_counter() - start))
        gauge.sample()
    scaled = [gauge.scale(start, took) for start, took in rounds]
    return statistics.median(scaled), statistics.median(took for _, took in rounds), data


_run_ids = itertools.count()


def call_once(wl, item, tracer):
    """One call of the workload: (start, latency, output, errors)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = wl.call(item)
        else:
            with tracer.run(next(_run_ids), f"{wl.name}.call"):
                out = wl.call(item)
    except (Exception, SystemExit) as exc:
        return start, time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    return start, time.perf_counter() - start, out, []


def run_pass(wl, items, tally: Tally, timed: bool, tracer=None, cycle: bool = True) -> None:
    """Call every item once and check each output."""
    results, outs = [], []
    for item in items:
        start, latency, out, errors = call_once(wl, item, tracer)
        if timed:
            tally.gauge.after_call(latency)
        units = 0
        if not errors:
            try:
                units, errors = wl.check(item, out)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        results.append((start, latency, units, errors))
        outs.append(out)
    if cycle and not any(errors for *_, errors in results):
        results[-1] = (*results[-1][:3], wl.cycle_errors(outs))
    for start, latency, units, errors in results:
        tally.add(start, latency, units, errors, timed)


def percentile(values, p: int) -> float:
    """Percentile with linear interpolation between the closest ranks."""
    return float(np.percentile(values, p))


def tail_percentile(n: int) -> int:
    """Highest percentile up to p99 with at least MIN_BEYOND_TAIL samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= MIN_BEYOND_TAIL:
            return p
    return 50


def scaled_latencies(tally: Tally) -> np.ndarray:
    return np.array([tally.gauge.scale(start, latency) for start, latency in zip(tally.starts, tally.latencies)])


def end_to_end(tally: Tally, setup: tuple[float, float]) -> dict:
    """End-to-end figures at reference speed, with the raw ones beside them."""
    raw_lat = np.asarray(tally.latencies)
    lat = scaled_latencies(tally)
    tail = tail_percentile(len(lat))

    def figures(lat: np.ndarray, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "work_per_s": tally.units / float(lat.sum()),
            "call_p50_ms": 1e3 * percentile(lat, 50),
            "call_tail_ms": 1e3 * percentile(lat, tail),
        }

    scaled = figures(lat, setup[0])
    metrics = {key: (value, UNITS[key]) for key, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {"metrics": metrics, "raw": figures(raw_lat, setup[1]), "tail": tail, "samples": len(lat),
            "reference_ms": 1e3 * statistics.median(tally.gauge.durations)}


def describe(name: str, tally: Tally, fig: dict) -> list[str]:
    """The workload's end-to-end figures under the names its README uses."""
    metrics, raw, tail = fig["metrics"], fig["raw"], fig["tail"]
    if name == "train_sweep":
        rows = [("steps_per_s", "work_per_s", 1.0, "1/s"), ("fit_p50_s", "call_p50_ms", 1e-3, "s"),
                (f"fit_p{tail}_s", "call_tail_ms", 1e-3, "s")]
    elif name == "quantize_audit":
        rows = [("channels_per_s", "work_per_s", 1.0, "1/s"), ("channel_p50_us", "call_p50_ms", 1e3, "us"),
                (f"channel_p{tail}_us", "call_tail_ms", 1e3, "us")]
    else:
        rows = [("channels_per_s", "work_per_s", 1.0, "1/s"), ("call_p50_ms", "call_p50_ms", 1.0, "ms"),
                (f"call_p{tail}_ms", "call_tail_ms", 1.0, "ms")]
    if tail == 50:
        del rows[2]
    rows.append(("setup_s", "setup_s", 1.0, "s"))
    lines = [
        f"{name} {label} {metrics[key][0] * scale!r} {unit} "
        f"(measured {raw[key] * scale!r}, n={SETUP_REPEATS if key == 'setup_s' else fig['samples']})"
        for label, key, scale, unit in rows
    ]
    return lines + [
        f"{name} error_rate {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted})",
        f"{name} peak_rss_mb {metrics['peak_rss_mb'][0]!r} MB",
        f"{name} reference_kernel_ms {fig['reference_ms']!r} "
        f"(median of {len(tally.gauge.durations)}, nominal {1e3 * REFERENCE_S!r})",
    ]


def layer_metrics(name: str, tracer, overhead: float) -> dict:
    import spans

    totals = spans.layer_totals(tracer.spans)

    def calls(span: str) -> int:
        return totals.get(span, (0, 0.0))[0]

    def own(span: str) -> float:
        return totals.get(span, (0, 0.0))[1]

    values = {
        "trace.overhead_ratio": (overhead, "ratio"),
        "bounds.calls": (sum(calls(b) for b in spans.BOUNDS), "count"),
        "bounds.self_s": (sum(own(b) for b in spans.BOUNDS), "s"),
        "qat.steps": (calls("qat.sgd_step"), "count"),
        "epinit.project_l1_ball.active_ratio": (
            tracer.counters["epinit.project_l1_ball.active"] / max(1, calls("epinit.project_l1_ball")), "ratio"),
        "intsim.exhaustive_check.inputs": (tracer.counters["intsim.exhaustive_check.inputs"], "count"),
        "intsim.exhaustive_ratio": (
            calls("intsim.exhaustive_check") / max(1, calls("intsim.check_accumulator")), "ratio"),
    }
    for span in spans.TRACED:
        values[f"{span}.calls"] = (calls(span), "count")
        values[f"{span}.self_s"] = (own(span), "s")
    return {f"{name}.{key}": values[key] for key in LAYER_METRICS[name]}


def write_spans(path: Path, tracers: dict) -> None:
    with path.open("w") as fh:
        fh.write("workload\trun_id\tspan\tparent\tname\tstart\tend\n")
        for name, tracer in tracers.items():
            for i, s in enumerate(tracer.spans):
                fh.write(f"{name}\t{s.run_id}\t{i}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\n")


def timed_run(ns) -> tuple[Tally, dict, dict]:
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        *setup, data = measure_setup([ns.workload], ns.seed, Path(workdir))
        import workloads

        wl = workloads.make(ns.workload, data[ns.workload])
        tally = Tally()
        run_pass(wl, wl.warm_items, tally, timed=False, cycle=False)
        gc.collect()
        tally.gauge.sample(REFERENCE_WARM)
        deadline = time.perf_counter() + ns.seconds
        while True:
            run_pass(wl, wl.items, tally, timed=True)
            if time.perf_counter() >= deadline:
                break
    fig = end_to_end(tally, setup)
    for line in describe(ns.workload, tally, fig):
        print(line)
    extra = {"raw": fig["raw"], "reference_ms": fig["reference_ms"]}
    if ns.workload == "train_sweep":
        extra["csv_sha256"] = wl.digest
        print(f"train_sweep csv_sha256 {wl.digest}")
    return tally, fig["metrics"], extra


def traced_run(ns) -> tuple[Tally, dict, dict]:
    import spans

    total = Tally()
    metrics, tracers, extra = {}, {}, {}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        *setup, data = measure_setup(WORKLOADS, ns.seed, Path(workdir))
        import workloads

        for name in WORKLOADS:
            wl = workloads.make(name, data[name])
            plain, traced = Tally(), Tally()
            run_pass(wl, wl.warm_items, traced, timed=False, cycle=False)
            gc.collect()
            plain.gauge.sample(REFERENCE_WARM)
            traced.gauge.sample(REFERENCE_WARM)
            tracer = spans.Tracer()
            for r in range(TRACE_ROUNDS[name]):
                # alternate which pass goes first, so drift and warm-up favour neither
                if r % 2 == 0:
                    run_pass(wl, wl.items, plain, timed=True)
                tracer.install()
                try:
                    run_pass(wl, wl.items, traced, timed=True, tracer=tracer)
                finally:
                    tracer.uninstall()
                if r % 2 == 1:
                    run_pass(wl, wl.items, plain, timed=True)
            tracers[name] = tracer
            overhead = scaled_latencies(traced).sum() / scaled_latencies(plain).sum() - 1.0
            metrics.update(layer_metrics(name, tracer, float(overhead)))
            for line in describe(name, plain, end_to_end(plain, setup)):
                print(line)
            if name == "train_sweep":
                extra["csv_sha256"] = wl.digest
                print(f"train_sweep csv_sha256 {wl.digest}")
            total.merge(plain)
            total.merge(traced)
    write_spans(OUT / f"spans-seed{ns.seed}.tsv", tracers)
    return total, metrics, extra


def main(argv=None) -> int:
    ns = parse_args(argv)
    if not (SRC / "accq" / "__init__.py").is_file():
        print(f"error: no accq package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    info = provenance(ns.seed)
    print("provenance " + json.dumps({**info, "workload": ns.workload, "seconds": ns.seconds, "trace": ns.trace}))
    tally, metrics, extra = (traced_run if ns.trace else timed_run)(ns)
    correct = tally.failed == 0
    for err in tally.errors:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    record = {**result, "provenance": info, "workload": ns.workload, "trace": ns.trace, **extra}
    (OUT / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
