"""l1-ball projection, budget-aware channel initialization, quantization error."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accq.bounds import BitWidths, a2q_limit
from accq.epinit import ZERO_EXPONENT, ep_init, ep_init_layer, max_abs_scales, project_l1_ball
from accq.errors import NonFiniteInputError, NonPositiveRadiusError
from accq.quantizers import Variant, forward_weights

from oracles import project_l1_bisect, round_to_zero, weight_quant_error


def test_projection_frozen():
    res = project_l1_ball([3.0, 1.0], radius=2.0)
    assert res.active
    assert res.v_star.tolist() == [2.0, 0.0]
    assert res.theta == 1.0
    res = project_l1_ball([2.0, -2.0], radius=2.0)
    assert res.v_star.tolist() == [1.0, -1.0]
    assert res.theta == 1.0


def test_projection_inactive_inside_ball():
    res = project_l1_ball([0.5, -0.25], radius=1.0)
    assert not res.active
    assert res.theta == 0.0
    assert res.v_star.tolist() == [0.5, -0.25]


def test_projection_validation():
    with pytest.raises(NonPositiveRadiusError):
        project_l1_ball([1.0], radius=0.0)
    with pytest.raises(NonPositiveRadiusError):
        project_l1_ball([1.0], radius=-2.0)
    with pytest.raises(NonPositiveRadiusError):
        project_l1_ball([1.0], radius=float("inf"))
    with pytest.raises(NonFiniteInputError):
        project_l1_ball([float("nan")], radius=1.0)


def test_projection_refuses_a_stack_of_rows():
    # numpy failed to broadcast the first, and the second came back as a 2-D "projection"
    for w in ([[3.0, 1.0], [1.0, 1.0]], [[0.1, 0.1], [0.1, 0.1]]):
        with pytest.raises(ValueError, match=r"^w must be one-dimensional, got shape \(2, 2\)$"):
            project_l1_ball(w, 1.0)
    # a scalar is one entry, and an empty w sits inside every ball
    assert project_l1_ball(3.0, 1.0).v_star.tolist() == [1.0]
    assert project_l1_ball([], 1.0).v_star.tolist() == []


@given(
    w=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
    radius=st.floats(0.01, 50),
)
@settings(max_examples=200)
# one ulp from the boundary the unsorted sum and the sorted cumsum disagree;
# these gave theta <= 0, growing every magnitude
@example(w=[-0.7619, -0.5313, 0.6486], radius=1.9418)
@example(w=[0.557505042499428, 1.035175301935485, 0.79466107521774], radius=2.387341419652653)
def test_projection_properties(w, radius):
    w_arr = np.asarray(w, dtype=float)
    res = project_l1_ball(w_arr, radius)
    l1 = float(np.abs(res.v_star).sum())
    assert l1 <= radius * (1 + 1e-12) + 1e-12
    if res.active:
        # active projections land exactly on the boundary
        assert l1 == pytest.approx(radius, rel=1e-9, abs=1e-12)
        assert res.theta > 0.0
    else:
        assert np.array_equal(res.v_star, w_arr)
    # shrinkage only: no magnitude growth, no sign flips
    assert np.all(np.abs(res.v_star) <= np.abs(w_arr) + 1e-15)
    nz = res.v_star != 0.0
    assert np.all(np.sign(res.v_star[nz]) == np.sign(w_arr[nz]))


@given(
    w=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
    radius=st.floats(0.01, 50),
)
@settings(max_examples=150)
def test_projection_matches_bisection_oracle(w, radius):
    got = project_l1_ball(w, radius).v_star
    ref = project_l1_bisect(w, radius)
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-9)
    # never a worse euclidean fit than the oracle's
    w_arr = np.asarray(w, dtype=float)
    assert np.sum((got - w_arr) ** 2) <= np.sum((ref - w_arr) ** 2) + 1e-9


# one magnitude dwarfs the radius: csum[0] - radius rounds to mu[0], which left
# no positive prefix entry, and the lookup of the last one raised IndexError
@pytest.mark.parametrize("w, radius", [([1e20, 1.0], 1.0), ([1e17, 3.0], 2.0), ([-1e20, 1.0], 1.0)])
def test_projection_survives_a_magnitude_that_dwarfs_the_radius(w, radius):
    w_arr = np.asarray(w)
    res = project_l1_ball(w_arr, radius)
    assert res.active
    assert np.all(np.sign(res.v_star) * np.sign(w_arr) >= 0)
    assert np.all(np.abs(res.v_star) <= np.abs(w_arr))
    assert float(np.abs(res.v_star).sum()) <= radius * (1 + 1e-12)


# the active result keeps the whole budget: csum - radius rounded the radius
# away here, which gave [0, 0] with theta 1e20
@pytest.mark.parametrize(
    "w, radius, v_star",
    [
        ([1e20, 1.0], 1.0, [1.0, 0.0]),
        ([-1e20, 1.0], 1.0, [-1.0, 0.0]),
        ([1e17, 3.0], 2.0, [2.0, 0.0]),
        ([1e20, 1e20], 1.0, [0.5, 0.5]),
    ],
)
def test_projection_keeps_the_budget_when_a_magnitude_dwarfs_it(w, radius, v_star):
    res = project_l1_ball(w, radius)
    assert res.active and res.theta > 0.0
    assert res.v_star.tolist() == v_star


def test_projection_is_idempotent_up_to_roundoff():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal(size=10) * 5
        v1 = project_l1_ball(w, 2.0).v_star
        v2 = project_l1_ball(v1, 2.0).v_star
        assert np.allclose(v1, v2, rtol=0, atol=1e-12)


def test_max_abs_scales_frozen():
    assert max_abs_scales(np.abs([[3.0, -1.0]]), M=4)[0] == 3.0 / 7.0
    assert max_abs_scales(np.abs([[0.0, 0.0]]), M=4)[0] == 2.0**ZERO_EXPONENT
    assert max_abs_scales(np.abs([[-2.0]]), M=8)[0] == 2.0 / 127.0


def test_ep_init_inactive_keeps_weights():
    bits = BitWidths(M=4, N=4, P=8)
    ch = ep_init([1.5, 0.0], bits)
    # radius = (1.5/7) * 127/16 ~ 1.70 exceeds ||w||_1, so no shrinkage
    assert ch.v.tolist() == [1.5, 0.0]
    assert ch.t == math.log2(1.5)
    assert ch.d == math.log2(1.5 / 7.0)


def test_ep_init_floors_the_scale_at_the_budget():
    bits = BitWidths(M=4, N=2, P=4)
    # the max-abs scale 3/7 is floored at mass / limit = 4 / limit, so the
    # budget ball covers ||w||_1 = 4 and w starts unprojected with g = 4
    for variant, limit in [(Variant.A2Q, 7 / 4), (Variant.A2Q_PLUS, 14 / 3)]:
        ch = ep_init([3.0, 1.0], bits, variant)
        assert ch.v.tolist() == [3.0, 1.0]
        assert ch.t == 2.0
        assert ch.d == math.log2(4.0 / limit)
    # one weight cannot be centered: A2Q+ falls back to the A2Q limit 7/4
    ch = ep_init([3.0], bits, Variant.A2Q_PLUS)
    assert ch.v.tolist() == [3.0]
    assert ch.d == math.log2(12.0 / 7.0)


def test_ep_init_zero_channel_uses_sentinels():
    ch = ep_init([0.0, 0.0], BitWidths(M=8, N=4, P=16))
    assert ch.v.tolist() == [0.0, 0.0]
    assert ch.t == ZERO_EXPONENT
    assert ch.d == ZERO_EXPONENT


def _magnitudes(lo_exp: int, hi_exp: int):
    """Signed floats whose magnitudes span 10^lo_exp to 10^hi_exp, and zero."""
    scaled = st.builds(
        lambda m, e, neg: (-m if neg else m) * 10.0**e, st.floats(1.0, 9.99), st.integers(lo_exp, hi_exp), st.booleans()
    )
    return st.one_of(st.just(0.0), scaled)


@st.composite
def _layers(draw):
    C, K = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rows = [
        [0.0] * K if draw(st.booleans()) else draw(st.lists(_magnitudes(-300, 300), min_size=K, max_size=K))
        for _ in range(C)
    ]
    return np.array(rows)


@given(
    W=_layers(),
    M=st.integers(2, 8),
    N=st.integers(1, 8),
    P=st.integers(2, 32),
    variant=st.sampled_from(Variant),
)
@settings(max_examples=300, deadline=None)
# K = 1 under A2Q+ falls back to the A2Q budget
@example(W=np.array([[3.0], [0.0]]), M=4, N=2, P=4, variant=Variant.A2Q_PLUS)
def test_ep_init_is_the_one_row_view_of_ep_init_layer(W, M, N, P, variant):
    bits = BitWidths(M=M, N=N, P=P)
    V, t, d = ep_init_layer(W, bits, variant)
    assert V.tobytes() == W.tobytes() and not np.shares_memory(V, W)
    for i, row in enumerate(W):
        ch = ep_init(row, bits, variant)
        assert ch.v.tobytes() == V[i].tobytes()
        assert np.array([ch.t, ch.d]).tobytes() == np.array([t[i], d[i]]).tobytes()


def test_ep_init_layer_refuses_a_variant_that_is_not_a_member():
    # "a2q+" would have projected onto A2Q's uncentered budget
    with pytest.raises(ValueError, match=r"^variant must be a Variant member, got 'a2q\+'$"):
        ep_init_layer(np.array([[1.0, -2.0, 0.5]]), BitWidths(M=4, N=4, P=12), "a2q+")


@pytest.mark.parametrize(
    "bad, P",
    [([1e308, 1e308], 16), ([float("nan"), 1.0], 16), ([float("inf"), 0.0], 16), ([1e308, 0.0], 2)],
    ids=["mass overflows", "nan", "inf", "scale floor overflows"],
)
def test_ep_init_layer_rejects_a_row_that_is_not_finite(bad, P):
    # at P = 2, N = 8 the A2Q budget is 1/255, so the floor mass / limit leaves float range
    bits = BitWidths(M=4, N=8, P=P)
    W = np.array([[1.0, 2.0], bad])
    with pytest.raises(NonFiniteInputError):
        ep_init_layer(W, bits)
    with pytest.raises(NonFiniteInputError):
        ep_init(W[1], bits)
    ep_init(W[0], bits)


@pytest.mark.parametrize("M", [4, 8])
def test_a_subnormal_row_whose_scale_underflows_is_rejected(M):
    # max|w| / (2^{M-1} - 1) rounds to 0 for the smallest subnormal
    w = [5e-324, 0.0]
    bits = BitWidths(M=M, N=4, P=16)
    with pytest.raises(NonFiniteInputError, match="underflows"):
        max_abs_scales(np.abs([w]), M)
    with pytest.raises(NonFiniteInputError, match="underflows"):
        ep_init(w, bits)
    with pytest.raises(NonFiniteInputError, match="underflows"):
        ep_init_layer(np.array([[1.0, 2.0], w]), bits, Variant.A2Q_PLUS)
    # a subnormal maximum whose scale stays above 0 is still a scale
    assert max_abs_scales(np.abs([[1e-320, 0.0]]), 4)[0] == 1e-320 / 7


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
def test_ep_init_starts_inside_the_budget(variant):
    rng = np.random.default_rng(5)
    for _ in range(100):
        K = int(rng.integers(2, 40))
        w = rng.normal(size=K) * float(rng.uniform(0.1, 10))
        bits = BitWidths(
            M=int(rng.integers(2, 9)),
            N=int(rng.integers(1, 5)),
            P=int(rng.integers(4, 17)),
        )
        ch = ep_init(w, bits, variant)
        res, tape = forward_weights(ch, bits, variant)
        assert res.bound_ok
        if not tape.degenerate:
            # min gate starts on the norm side: the budget is not yet binding
            # (a channel whose scale was floored sits exactly on it, where the
            # exp2/log2 round trip may land an ulp over; same G either way)
            assert tape.gate_on_g or math.isclose(tape.g, tape.T, rel_tol=1e-12)


def test_weight_quant_error_frozen():
    assert weight_quant_error([1.0, 2.0], [1.0, 3.0]) == 0.5
    assert weight_quant_error([1.0, 2.0], [1.0, 3.0], normalized=True) == 0.1
    assert weight_quant_error([0.0], [0.0], normalized=True) == 0.0
    with pytest.raises(ValueError):
        weight_quant_error([1.0], [1.0, 2.0])


def test_projection_beats_naive_scaling_before_rounding():
    # the projection is the euclidean-optimal point of the ball by construction,
    # so it can never fit worse than rescaling the whole channel onto it
    rng = np.random.default_rng(9)
    for _ in range(100):
        w = rng.normal(size=32)
        budget = 0.5 * float(np.abs(w).sum())
        proj = project_l1_ball(w, budget).v_star
        scaled = w * (budget / float(np.abs(w).sum()))
        assert weight_quant_error(proj, w) <= weight_quant_error(scaled, w)


def test_projection_beats_naive_scaling_after_rounding():
    # same comparison, but through the actual code grid (round toward zero at a
    # shared scale, saturate at the 8-bit register); aggregate over channels
    # since rounding can flip an individual draw
    rng = np.random.default_rng(11)
    wins = 0
    ep_total = 0.0
    nv_total = 0.0
    for _ in range(50):
        w = rng.normal(size=32)
        budget = 0.5 * float(np.abs(w).sum())
        s = float(max_abs_scales(np.abs(w)[None], M=8)[0])

        def through_grid(vec):
            codes = np.clip(round_to_zero(vec / s), -128, 127)
            return s * codes

        ep = weight_quant_error(through_grid(project_l1_ball(w, budget).v_star), w)
        nv = weight_quant_error(through_grid(w * (budget / np.abs(w).sum())), w)
        ep_total += ep
        nv_total += nv
        wins += ep <= nv
    assert wins >= 45
    assert ep_total < nv_total


@pytest.mark.parametrize(
    "init, w, shape",
    [(ep_init, [], "(1, 0)"), (ep_init_layer, np.zeros((2, 0)), "(2, 0)"), (ep_init_layer, np.zeros((0, 4)), "(0, 4)")],
    ids=["ep_init", "ep_init_layer-no-column", "ep_init_layer-no-row"],
)
def test_empty_init_is_a_value_error_naming_its_shape(init, w, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        init(w, BitWidths(4, 4, 12))
