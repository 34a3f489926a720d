import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novas import A0_MAX, DataError, InfeasibleWeightsError, NovasVariant, build_weights
from novas.transform import _candidate_table
from novas.weights import lag_profile
from novas.weights import CalibrationGrid, NovasWeights

from oracles import oracle_ga_budget


def weight_mass(w):
    return w.y2_self_coef + w.alpha + float(w.lags.sum())


class TestGeFamily:
    def test_zero_decay_collapses_to_equal_weights(self):
        # c = 0 gives the generalized-simple structure; p = 7 keeps the
        # intercept weight inside its bound: (1 - 0.2) / 8 = 0.1
        w = build_weights(NovasVariant.GE, 0.2, 0.0, 7)
        assert w.a0 == pytest.approx(0.1, abs=1e-15)
        np.testing.assert_allclose(w.lags, np.full(7, 0.1), rtol=1e-14)

    def test_zero_decay_p4_is_equal_but_inadmissible(self):
        # the same collapse at p = 4 yields 0.16 > 1/9 and is rejected
        with pytest.raises(InfeasibleWeightsError) as err:
            build_weights(NovasVariant.GE, 0.2, 0.0, 4)
        assert err.value.reason == "a0_bound"
        # intercept weight first, then the four lags
        weights = (1.0 - 0.2) * lag_profile(NovasVariant.GE, (0.0,), 4)
        np.testing.assert_allclose(weights, np.full(5, 0.16), rtol=1e-14)

    def test_no_a0_variant_has_zero_intercept(self):
        w = build_weights(NovasVariant.GE_NO_A0, 0.3, 1.2, 5)
        assert w.a0 == 0.0
        assert w.trim_bound == float("inf")
        assert w.alpha + w.lags.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lags_strictly_decreasing_for_positive_decay(self):
        w = build_weights(NovasVariant.GE, 0.5, 0.2, 20)
        assert np.all(np.diff(w.lags) < 0)

    def test_negative_decay_rejected(self):
        with pytest.raises(InfeasibleWeightsError):
            build_weights(NovasVariant.GE, 0.5, -0.1, 4)


class TestGaFamily:
    def test_hand_solved_intercept_rejected(self):
        # lags (0.3, 0.15); a0 = (1 - 0.1 - 0.45) * 0.5 = 0.225 > 1/9
        with pytest.raises(InfeasibleWeightsError) as err:
            build_weights(NovasVariant.GA, 0.1, (0.3, 0.5), 2)
        assert err.value.reason == "a0_bound"
        budget, admissible = oracle_ga_budget(0.1, 0.3, 0.5, 2)
        assert budget * (1 - 0.5) == pytest.approx(0.225, abs=1e-15)
        assert not admissible
        lags = lag_profile(NovasVariant.GA, (0.3, 0.5), 2)
        np.testing.assert_allclose(lags, [0.3, 0.15], rtol=1e-14)

    def test_accepted_point_satisfies_constraint(self):
        w = build_weights(NovasVariant.GA, 0.5, (0.02, 0.98), 30)
        assert abs(w.a0 / (1 - 0.98) + w.alpha + w.lags.sum() - 1.0) < 1e-12
        assert w.a0 > 0.0

    def test_negative_solved_a0(self):
        with pytest.raises(InfeasibleWeightsError) as err:
            build_weights(NovasVariant.GA, 0.5, (0.9, 0.9), 10)
        assert err.value.reason == "negative_a0"

    def test_dominance_violation_named(self):
        # budget = 1 - 0.85 - 0.12 = 0.03 is a valid intercept weight but
        # falls below the lag head a1 = 0.1
        with pytest.raises(InfeasibleWeightsError) as err:
            build_weights(NovasVariant.GA, 0.85, (0.1, 0.2), 2)
        assert err.value.reason == "dominance"

    def test_zero_solved_a0_still_checked(self):
        # lag mass 0.4 * 1.25 leaves a solved a0 of exactly 0, below the
        # lag head 0.4
        with pytest.raises(InfeasibleWeightsError) as err:
            build_weights(NovasVariant.GA, 0.5, (0.4, 0.2), 30)
        assert err.value.reason == "dominance"

    def test_effective_weight_bound_is_exact(self):
        # the solved a0/(1-b1) exceeds 1/9 by 1e-13: its trim bound is
        # 2.99999999999880, below the 3 the bound guarantees
        with pytest.raises(InfeasibleWeightsError) as err:
            build_weights(NovasVariant.GA, 0.8, (0.08, 0.1), 12)
        assert err.value.reason == "a0_bound"
        budget, admissible = oracle_ga_budget(0.8, 0.08, 0.1, 12)
        assert not admissible and 0.0 < budget - A0_MAX < 1e-12
        assert 1.0 / math.sqrt(budget) < 3.0

    @pytest.mark.parametrize("order", [12, 30])
    @pytest.mark.parametrize("ga_step", [0.05, 0.02])
    def test_admissibility_matches_oracle_on_grid(self, ga_step, order):
        vals = [float(v) for v in CalibrationGrid(ga_step=ga_step).ga_values()]
        disagree = []
        for alpha in (k / 10 for k in range(1, 10)):
            for a1 in vals:
                for b1 in vals:
                    try:
                        build_weights(NovasVariant.GA, alpha, (a1, b1), order)
                        admitted = True
                    except InfeasibleWeightsError:
                        admitted = False
                    if admitted != oracle_ga_budget(alpha, a1, b1, order)[1]:
                        disagree.append((alpha, a1, b1))
        assert not disagree, disagree[:5]

    def test_no_a0_renormalizes_scale(self):
        w = build_weights(NovasVariant.GA_NO_A0, 0.4, (0.77, 0.9), 25)
        assert w.a0 == 0.0
        assert w.alpha + w.lags.sum() == pytest.approx(1.0, abs=1e-12)
        # profile stays geometric with the grid's b1
        ratios = w.lags[1:] / w.lags[:-1]
        np.testing.assert_allclose(ratios, 0.9, rtol=1e-12)

    def test_trim_bound_uses_effective_weight(self):
        w = build_weights(NovasVariant.GA, 0.5, (0.02, 0.98), 30)
        eff = w.a0 / (1 - 0.98)
        assert w.trim_bound == pytest.approx(1.0 / np.sqrt(eff), rel=1e-12)
        assert w.trim_bound >= 3.0


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=0.9),
    c=st.floats(min_value=0.0, max_value=5.0),
    order=st.integers(min_value=1, max_value=40),
    variant=st.sampled_from([NovasVariant.GE, NovasVariant.GE_NO_A0]),
)
def test_ge_mass_constraint_property(alpha, c, order, variant):
    try:
        w = build_weights(variant, alpha, c, order)
    except InfeasibleWeightsError:
        return
    assert abs(weight_mass(w) - 1.0) < 1e-12
    if w.a0 > 0:
        assert w.a0 <= A0_MAX


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=0.9),
    a1=st.floats(min_value=0.001, max_value=0.98),
    b1=st.floats(min_value=0.02, max_value=0.98),
    order=st.integers(min_value=1, max_value=40),
    variant=st.sampled_from([NovasVariant.GA, NovasVariant.GA_NO_A0]),
)
def test_ga_mass_constraint_property(alpha, a1, b1, order, variant):
    try:
        w = build_weights(variant, alpha, (a1, b1), order)
    except InfeasibleWeightsError:
        return
    assert abs(weight_mass(w) - 1.0) < 1e-12
    if w.a0 > 0:
        assert w.a0 <= A0_MAX
        assert w.y2_self_coef >= w.lags.max() - 1e-12
    if b1 < 1.0 and order > 1:
        assert np.all(np.diff(w.lags) < 0)


class TestCalibrationGrid:
    def test_default_ga_values(self):
        vals = CalibrationGrid().ga_values()
        assert vals[0] == pytest.approx(0.02)
        assert vals[-1] == pytest.approx(0.98)
        assert len(vals) == 49

    def test_coarse_ga_values(self):
        vals = CalibrationGrid(ga_step=0.05).ga_values()
        assert len(vals) == 19
        assert vals[-1] == pytest.approx(0.95)

    def test_ge_c_values_log_spaced(self):
        vals = CalibrationGrid().ge_c_values()
        assert len(vals) == 40
        assert vals[0] == pytest.approx(0.005)
        assert vals[-1] == pytest.approx(5.0)

    def test_order_cap(self):
        grid = CalibrationGrid()
        assert grid.order_cap_for(250) == 30
        assert grid.order_cap_for(100) == 20

    def test_adaptive_order_tail_mass(self):
        grid = CalibrationGrid()
        c = 0.4
        p = grid.adaptive_ge_order(c, 1000)
        # smallest p with dropped tail fraction below 1%
        assert np.exp(-c) ** (p + 1) < 0.01
        if p > 1:
            assert np.exp(-c) ** p >= 0.01

    def test_roundtrip_dict(self):
        grid = CalibrationGrid(ga_step=0.05, order_cap=12)
        assert CalibrationGrid.from_dict(grid.to_dict()) == grid

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CalibrationGrid.from_dict({"nope": 1})

    @pytest.mark.parametrize(
        "field, value",
        [("ga_step", 0.0), ("ga_step", -0.5), ("ga_step", 1.0), ("ga_step", math.nan),
         ("ge_c_min", 0.0), ("ge_c_min", -1.0), ("ge_c_max", 0.001),
         ("ge_c_count", 0), ("order_cap", 0), ("order_cap_divisor", 0),
         ("order_max", 0), ("min_window", 0), ("tail_mass", 0.0), ("tail_mass", 1.0)],
    )
    def test_unusable_value_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            CalibrationGrid(**{field: value})

    # each used to escape as a bare TypeError
    @pytest.mark.parametrize("field, value", [
        ("ga_step", "0.1"), ("ge_c_max", None), ("order_cap", "30"), ("tail_mass", [0.01]),
        ("eps_guard", "tiny"),
    ])
    def test_non_number_rejected(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be a number"):
            CalibrationGrid(**{field: value})
        default = getattr(CalibrationGrid(), field)
        assert getattr(CalibrationGrid(**{field: np.float64(default)}), field) == default


@pytest.mark.parametrize("lags", [[], [[0.25, 0.25]]], ids=["empty", "2d"])
def test_weights_refuse_lags_of_no_order(lags):
    with pytest.raises(InfeasibleWeightsError) as info:
        NovasWeights(NovasVariant.GE_NO_A0, 0.5, 0.0, lags, (1.0,))
    assert info.value.reason == "order"
    w = NovasWeights(NovasVariant.GE_NO_A0, 0.5, 0.0, [0.25, 0.25], (1.0,))
    assert w.order == 2 and w.to_dict()["order"] == 2


@pytest.mark.parametrize("variant", list(NovasVariant), ids=lambda v: v.value)
def test_admitted_profiles_are_geometric(variant):
    # simulate_paths carries each path's lag window as one running sum that
    # it scales by ``ratio`` every step: a profile that is not geometric
    # must fail here rather than be simulated wrongly
    grid = CalibrationGrid()
    for alpha in (k / 10 for k in range(1, 9)):
        for w in _candidate_table(variant, alpha, 250, grid):
            expected = w.lags[0] * w.ratio ** np.arange(w.order)
            np.testing.assert_allclose(w.lags, expected, rtol=1e-12, atol=0)
