import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmdp_forge.penalties import PenaltyScheme, penalty_amount

RN = PenaltyScheme.RISK_NEUTRAL
VAR = PenaltyScheme.VALUE_AT_RISK
CVAR = PenaltyScheme.CONDITIONAL_VALUE_AT_RISK

schemes = st.sampled_from(list(PenaltyScheme))


@given(
    schemes,
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=50),
)
def test_zero_weight_never_changes_the_reward(scheme, r, d, c, t):
    assert r - penalty_amount(scheme, 0.0, c, d, 2.0, t) == r


@pytest.mark.parametrize("lam", [0.1, 0.2, 1.0, 7.5])
def test_crossing_case_subtracts_full_running_total(lam):
    # c=0, d=3 crosses a budget of 2: the charge is lam * (c + d).
    assert penalty_amount(RN, lam, 0.0, 3.0, 2.0, 0) == 3.0 * lam


@pytest.mark.parametrize("lam", [0.1, 1.0, 4.0])
def test_cvar_crossing_charges_only_the_excess(lam):
    assert penalty_amount(CVAR, lam, 0.0, 3.0, 2.0, 0) == lam


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_chance_post_violation_charges_nothing(lam):
    assert penalty_amount(VAR, lam, 5.0, 1.0, 2.0, 4) == 0.0


def test_chance_crossing_charges_the_whole_horizon():
    # Whatever the ledger before it, the crossing pays lam * (T + 1) at once.
    for before in (0.0, 1.0, 2.0):
        assert penalty_amount(VAR, 2.0, before, 3.0, 2.0, 4) == 2.0 * 5
        assert penalty_amount(VAR, 2.0, before, 3.0, 2.0, 50) == 2.0 * 51


def test_boundary_totals_are_safe():
    # A ledger exactly at the budget is under; a step landing exactly on the
    # budget pays nothing.
    for scheme in PenaltyScheme:
        assert penalty_amount(scheme, 1.0, 2.0, 0.0, 2.0, 0) == 0.0
        assert penalty_amount(scheme, 1.0, 1.0, 1.0, 2.0, 0) == 0.0
        assert penalty_amount(scheme, 1.0, 2.0, 0.5, 2.0, 0) > 0.0


def test_all_constraints_safe_leaves_reward_alone():
    assert penalty_amount(RN, 1.0, 0.0, 1.0, 2.0, 0) == 0.0
    assert penalty_amount(CVAR, 2.0, 0.5, 0.5, 2.0, 0) == 0.0


def test_mixed_crossing_and_post_violation_sum():
    # Constraint 1 crossing with running total 3; constraint 2 already violated
    # with step cost 1: charges 3 and 2.
    assert penalty_amount(RN, 1.0, 0.0, 3.0, 2.0, 0) == 3.0
    assert penalty_amount(RN, 2.0, 3.0, 1.0, 2.0, 0) == 2.0


@given(
    schemes,
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=20),
)
def test_amount_is_nonnegative_and_monotone_in_weight(scheme, lam, c, d, t):
    low = penalty_amount(scheme, lam, c, d, 2.0, t)
    high = penalty_amount(scheme, lam * 2, c, d, 2.0, t)
    assert low >= 0.0
    assert high >= low or math.isclose(high, low)
