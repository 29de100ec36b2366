"""What one closed-loop call of each workload runs, and how its output is checked.

Calls go through module attributes (``qat.fit``, ``epinit.ep_init``, ...) so
that the traced run's wrappers see them.  ``check`` runs outside the timed
call and returns the work units done (SGD steps or certified channels) and a
list of mismatches; a call with any mismatch counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

from accq import cli, epinit, intsim, qat, quantizers
from accq.bounds import BitWidths
from accq.quantizers import Variant

import checks
import inputs


def _pre_round(tape, K: int) -> np.ndarray:
    return np.zeros(K) if tape.degenerate else tape.u * tape.G


class TrainSweep:
    """qat.fit over the grid; every channel of every trained net is re-certified."""

    name = "train_sweep"

    def __init__(self, items: list[inputs.FitSpec]):
        self.items = items
        self.warm_items = items[:1]
        self.digest: str | None = None

    def call(self, spec: inputs.FitSpec):
        config = qat.TrainConfig(
            variant=Variant(spec.variant),
            bits=BitWidths(M=spec.M, N=spec.N, P=spec.P),
            epochs=spec.epochs,
            seed=spec.seed,
        )
        net, record = qat.fit(config)
        return config, net, record

    def check(self, spec, out) -> tuple[int, list[str]]:
        config, net, record = out
        errors, rows = [], []
        for layer in net.layers:
            bits = layer.bits
            for ch in layer.channels:
                res, tape = quantizers.forward_weights(ch, bits, net.variant)
                errors += checks.check_quantized(
                    res.q, res.qw, _pre_round(tape, ch.K), res.s, res.bound_ok,
                    spec.variant, bits.P, bits.N, bits.act_signed,
                )
                rows.append((res.q, checks.l1_limit(spec.variant, ch.K, bits.P, bits.N, bits.act_signed)))
        errors += checks.check_record(record, rows, config)
        ds = config.dataset
        return config.epochs * math.ceil(ds.n_train / config.batch_size), errors

    def cycle_errors(self, outs: list) -> list[str]:
        """Every pass over the grid must give the same CSV, byte for byte."""
        text = "\n".join([qat.CSV_HEADER] + [record.csv_row() for _, _, record in outs]) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            return [f"CSV digest {digest} != {self.digest} from the first pass"]
        return []


class Verify:
    """`accq verify --json` in process, stdout captured in memory."""

    def __init__(self, name: str, items: list[inputs.VerifyFile]):
        self.name = name
        self.items = items
        self.warm_items = items

    def call(self, vf: inputs.VerifyFile):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(vf.argv)
        return code, buf.getvalue()

    def check(self, vf, out) -> tuple[int, list[str]]:
        code, text = out
        errors = []
        if code != vf.exit_code:
            errors.append(f"exit code {code} != {vf.exit_code}")
        lines = text.splitlines()
        if len(lines) != vf.channels:
            errors.append(f"{len(lines)} output lines for {vf.channels} channels")
        for line, want in zip(lines, vf.expected):
            got = json.loads(line)
            if got != want:
                errors.append(f"channel {want['channel']}: {got} != {want}")
        return vf.channels, errors

    def cycle_errors(self, outs: list) -> list[str]:
        return []


class QuantizeAudit:
    """Post-training path for one float channel: ep_init, forward_weights, check_accumulator."""

    name = "quantize_audit"

    def __init__(self, items: list[inputs.AuditChannel]):
        self.items = items
        self.warm_items = items

    def call(self, item: inputs.AuditChannel):
        variant = Variant(item.variant)
        bits = BitWidths(M=item.M, N=item.N, P=item.P, act_signed=item.signed)
        ch = epinit.ep_init(item.w, bits, variant)
        res, tape = quantizers.forward_weights(ch, bits, variant)
        wit = intsim.check_accumulator(res.q, item.N, item.signed, intsim.AccumulatorSpec(P=item.P))
        return res, tape, wit

    def check(self, item, out) -> tuple[int, list[str]]:
        res, tape, wit = out
        errors = checks.check_quantized(
            res.q, res.qw, _pre_round(tape, item.w.size), res.s, res.bound_ok,
            item.variant, item.P, item.N, item.signed,
        )
        errors += checks.check_witness(res.q, item.N, item.signed, item.P, wit.true_max, wit.true_min, wit.overflowed)
        return 1, errors

    def cycle_errors(self, outs: list) -> list[str]:
        return []


def make(name: str, items: list):
    if name == "train_sweep":
        return TrainSweep(items)
    if name in ("verify_wide", "verify_exhaustive"):
        return Verify(name, items)
    return QuantizeAudit(items)
