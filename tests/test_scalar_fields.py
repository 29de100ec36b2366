"""Scalar fields: one rule per kind (integer, real, flag), applied at every call site that takes one."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from accq.bounds import BitWidths, a2q_limit, a2q_plus_limit, bound_ratio, int_range, min_acc_width
from accq.epinit import project_l1_ball
from accq.intsim import AccumulatorSpec, certify, check_accumulator, exhaustive_check, wrap
from accq.qat import QuantLinear, TeacherStudentSpec, TrainConfig
from accq.quantizers import ChannelWeights, Variant

SRC = Path(__file__).resolve().parent.parent / "src" / "accq"
ROW = [3, -2, 7]


def _dataset(f):
    return TeacherStudentSpec(
        input_dim=f["input_dim"], hidden=(f["hidden[0]"], 4), output_dim=f["output_dim"],
        noise_sigma=f["noise_sigma"], n_train=f["n_train"], n_test=f["n_test"],
    )


def _config(f):
    return TrainConfig(
        Variant.A2Q_PLUS, BitWidths(4, 4, 12), lr=f["lr"], weight_decay=f["weight_decay"],
        lambda_reg=f["lambda_reg"], epochs=f["epochs"], batch_size=f["batch_size"], seed=f["seed"],
    )


# call site -> (its call on a dict of field values, {field: (kind, a Python value it takes)});
# every real value is exact in float32, so a numpy float32 of it is the same number
SITES = {
    "BitWidths": (
        lambda f: BitWidths(f["M"], f["N"], f["P"], f["act_signed"]),
        {"M": ("int", 4), "N": ("int", 3), "P": ("int", 12), "act_signed": ("flag", True)},
    ),
    "int_range": (lambda f: int_range(f["bits"], f["signed"]), {"bits": ("int", 8), "signed": ("flag", True)}),
    "a2q_limit": (
        lambda f: a2q_limit(f["P"], f["N"], f["act_signed"]),
        {"P": ("int", 16), "N": ("int", 4), "act_signed": ("flag", True)},
    ),
    "a2q_plus_limit": (lambda f: a2q_plus_limit(f["P"], f["N"]), {"P": ("int", 16), "N": ("int", 4)}),
    "bound_ratio": (lambda f: bound_ratio(f["N"], f["act_signed"]), {"N": ("int", 4), "act_signed": ("flag", False)}),
    "min_acc_width": (
        lambda f: min_acc_width(f["k_star"], f["M"], f["N"], f["act_signed"]),
        {"k_star": ("int", 16), "M": ("int", 4), "N": ("int", 4), "act_signed": ("flag", True)},
    ),
    "AccumulatorSpec": (lambda f: AccumulatorSpec(f["P"]), {"P": ("int", 12)}),
    "wrap": (lambda f: wrap(300, f["P"]), {"P": ("int", 8)}),
    "check_accumulator": (
        lambda f: check_accumulator(ROW, f["N"], f["act_signed"], AccumulatorSpec(6)),
        {"N": ("int", 3), "act_signed": ("flag", False)},
    ),
    "exhaustive_check": (
        lambda f: exhaustive_check(ROW, f["N"], f["act_signed"], AccumulatorSpec(6)),
        {"N": ("int", 3), "act_signed": ("flag", True)},
    ),
    "certify": (
        lambda f: certify([ROW, [1] * 9], f["N"], f["act_signed"], AccumulatorSpec(6), f["exhaustive"]),
        {"N": ("int", 3), "act_signed": ("flag", False), "exhaustive": ("flag", False)},
    ),
    "TeacherStudentSpec": (
        _dataset,
        {
            "input_dim": ("int", 6), "hidden[0]": ("int", 5), "output_dim": ("int", 3),
            "noise_sigma": ("real", 0.5), "n_train": ("int", 96), "n_test": ("int", 48),
        },
    ),
    "TrainConfig": (
        _config,
        {
            "lr": ("real", 0.5), "weight_decay": ("real", 0.25), "lambda_reg": ("real", 0.125),
            "epochs": ("int", 3), "batch_size": ("int", 32), "seed": ("int", 7),
        },
    ),
    "QuantLinear": (
        lambda f: QuantLinear(V=[[1.0, -2.0]], t=[1.0], d=[-3.0], bits=BitWidths(4, 4, 12), act_exp=f["act_exp"]),
        {"act_exp": ("real", -1.5)},
    ),
    "ChannelWeights": (
        lambda f: ChannelWeights(v=[1.0, -2.0], t=f["t"], d=f["d"]),
        {"t": ("real", 1.5), "d": ("real", -2.0)},
    ),
    "project_l1_ball": (lambda f: project_l1_ball([3.0, 1.0], f["radius"]), {"radius": ("real", 2.0)}),
}

NUMPY = {"int": np.int64, "real": np.float32, "flag": np.bool_}
WORDS = {"int": "an integer", "real": "a real number", "flag": "a bool"}


def _inputs(kind, value):
    # the five inputs each field is fed, as (input, the Python value it stands for, or None when
    # it is refused): a bool, a string, None, a numpy scalar and a Fraction; a flag's bool is its own value
    return [
        (value, value) if kind == "flag" else (True, None),
        (str(value), None),
        (None, None),
        (NUMPY[kind](value), value),
        (Fraction(value), value if kind == "real" else None),
    ]


@pytest.mark.parametrize("site", SITES)
def test_every_scalar_field_takes_its_kind_and_refuses_the_rest_by_name(site):
    # at the last commit without the rules: numpy widths were refused, a string act_exp, t or d read
    # as a number, a Fraction rate or noise kept as a Fraction, "False" forced the oracle,
    # and a string radius was a bare TypeError
    call, fields = SITES[site]
    good = {name: value for name, (_, value) in fields.items()}
    wrong = []
    for name, (kind, value) in fields.items():
        for given, meant in _inputs(kind, value):
            args = {**good, name: given}
            if meant is not None:
                got, want = repr(call(args)), repr(call({**good, name: meant}))
                if got != want:
                    wrong.append(f"{name}={given!r}: {got} != {want}")
                continue
            with pytest.raises(ValueError) as err:
                call(args)
            message = f"{name} must be {WORDS[kind]}, got {given!r}"
            if str(err.value) != message:
                wrong.append(f"{name}={given!r}: {type(err.value).__name__}({str(err.value)!r}), not {message!r}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize(
    "call, python",
    [
        (lambda: a2q_limit(np.int64(64), np.int64(1)), lambda: a2q_limit(64, 1)),
        (lambda: int_range(np.int64(64), True), lambda: int_range(64, True)),
        (lambda: wrap(2**63, np.int64(64)), lambda: wrap(2**63, 64)),
    ],
    ids=["a2q_limit", "int_range", "wrap"],
)
def test_a_64_bit_numpy_width_gives_the_python_int_result(call, python):
    # computed with the numpy integer, 1 << np.int64(63) would be -2^63
    assert repr(call()) == repr(python())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TrainConfig(Variant.A2Q, BitWidths(4, 4, 12), seed=-1), "seed must be at least 0, got -1"),
        (lambda: TrainConfig(Variant.A2Q, BitWidths(4, 4, 12), lr=0), "lr must be finite and above 0, got 0.0"),
        (lambda: TrainConfig(Variant.A2Q, BitWidths(4, 4, 12), lr=10**400), "lr must be finite and above 0, got inf"),
        (lambda: BitWidths(4, 4, np.uint8(65)), "P must be in [2, 64], got 65"),
        (lambda: min_acc_width(0, 4, 4), "k_star must be at least 1, got 0"),
        (lambda: project_l1_ball([1.0], Fraction(-1, 2)), "radius must be finite and above 0, got -0.5"),
        (lambda: ChannelWeights(v=[1.0], t=0.0, d=-(10**400)), "d must be finite, got -inf"),
    ],
    ids=["seed", "lr zero", "lr past float range", "P", "k_star", "radius", "d past float range"],
)
def test_a_value_out_of_range_is_named_with_its_converted_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


RULES = ("_int_field", "_real_field", "_flag_field")
SCALAR_TYPES = {"bool", "np.bool_", "np.integer", "numbers.Real", "numbers.Integral"}


def _scalar_type_tests() -> list[tuple[str, str, int]]:
    # every line of src/accq that tests isinstance against a scalar type, as (file, outermost definition, line)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                    continue
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if {ast.unparse(k) for k in kinds} & SCALAR_TYPES:
                    found.add((path.name, getattr(top, "name", ""), node.lineno))
    return sorted(found)


def test_the_three_rules_are_the_only_scalar_type_tests():
    found = _scalar_type_tests()
    allowed = {("bounds.py", rule) for rule in RULES}
    outside = [f"{file}:{line} in {name or 'module scope'}" for file, name, line in found if (file, name) not in allowed]
    assert not outside, "scalar type tests outside the rules in bounds:\n" + "\n".join(outside)
    # and the walk sees the rules' own tests, so it is not vacuous
    assert {name for file, name, _ in found if file == "bounds.py"} == set(RULES)
