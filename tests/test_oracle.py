import math
import random

import numpy as np
import pytest

from cmdp_forge.extended import PolicyUndefined, TabularPolicy, augment, build_extended
from cmdp_forge.fixtures import fixture, two_action_chain
from cmdp_forge.oracle import (
    EnumerationCapExceeded,
    IncompleteMass,
    chance_penalty_steps,
    enumerate_trajectories,
    random_policy,
    stats,
    trajectory_penalty_total,
)
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import backward_induction, cost_slack, evaluate_policy

RN = PenaltyScheme.RISK_NEUTRAL
VAR = PenaltyScheme.VALUE_AT_RISK


def chain_policy(action_prob_risky):
    """The one-step chain's policy: its start node is its only decision node."""
    p = action_prob_risky
    return TabularPolicy(augment(two_action_chain(), 1.0).layers, (np.array([[1.0 - p, p]]),))


def test_deterministic_model_and_policy_yield_one_trajectory():
    m = two_action_chain()
    pol = chain_policy(0.0)
    trajs = enumerate_trajectories(m, pol, 1.0)
    assert len(trajs) == 1
    assert trajs[0].probability == 1.0
    assert trajs[0].states == (0, 1)


def test_uniform_policy_splits_mass_evenly():
    m = two_action_chain()
    trajs = enumerate_trajectories(m, chain_policy(0.5), 1.0)
    assert sorted(t.probability for t in trajs) == [0.5, 0.5]


def greedy(f, lambdas, schemes):
    e = build_extended(f.cmdp, lambdas, schemes, f.quantum)
    return backward_induction(e).greedy_policy(f.cmdp.n_actions)


def test_enumeration_cap_is_reported():
    f = fixture("grid3_noisy")
    policy = greedy(f, [1.0], [RN])
    with pytest.raises(EnumerationCapExceeded, match="cap of 5"):
        enumerate_trajectories(f.cmdp, policy, f.quantum, cap=5)


def test_noisy_grid_mass_sums_to_one():
    f = fixture("grid3_noisy")
    policy = greedy(f, [1.0], [RN])
    trajs = enumerate_trajectories(f.cmdp, policy, f.quantum)
    assert abs(math.fsum(t.probability for t in trajs) - 1.0) <= 1e-9


def test_safe_policy_stats_are_all_zero():
    m = two_action_chain()
    st = stats(enumerate_trajectories(m, chain_policy(0.0), 1.0), m)
    assert st.expected_cost == (0.0,)
    assert st.violation_prob == (0.0,)
    assert st.cvar_excess == (0.0,)


def test_risky_policy_stats():
    m = two_action_chain()
    st = stats(
        enumerate_trajectories(m, chain_policy(1.0), 1.0),
        m, [0.5], [RN],
    )
    assert st.expected_return == 2.0
    assert st.trunc_above == (3.0,)
    assert st.penalized_objective == pytest.approx(0.5, abs=1e-12)


def test_uniform_policy_stats():
    m = two_action_chain()
    st = stats(enumerate_trajectories(m, chain_policy(0.5), 1.0), m)
    assert st.expected_cost == (1.5,)
    assert st.violation_prob == (0.5,)
    assert st.cvar_excess == (0.5,)


def test_incomplete_mass_is_rejected():
    m = two_action_chain()
    trajs = enumerate_trajectories(m, chain_policy(0.5), 1.0)
    with pytest.raises(IncompleteMass):
        stats(trajs[:1], m)


def test_truncated_sums_partition_the_expected_cost():
    rng = random.Random(11)
    for name in ("stochastic_chain", "grid3_det"):
        f = fixture(name)
        for _ in range(20):
            pol = random_policy(f.cmdp, f.quantum, rng)
            st = stats(enumerate_trajectories(f.cmdp, pol, f.quantum), f.cmdp)
            for k in range(f.cmdp.n_constraints):
                assert abs(st.trunc_above[k] + st.trunc_below[k] - st.expected_cost[k]) <= 1e-9
                assert st.trunc_above[k] >= f.cmdp.budgets[k] * st.violation_prob[k] - 1e-12
                assert 0.0 <= st.violation_prob[k] <= 1.0


def test_penalized_objective_identity_on_random_policies():
    """Expected penalized return equals E[R] - lam * (cost mass above budget)."""
    rng = random.Random(3)
    lam = 0.7
    for name in ("two_action_chain", "stochastic_chain", "grid3_det"):
        f = fixture(name)
        e = build_extended(f.cmdp, [lam], [RN], f.quantum)
        for _ in range(25):
            pol = random_policy(f.cmdp, f.quantum, rng)
            st = stats(enumerate_trajectories(f.cmdp, pol, f.quantum), f.cmdp, [lam], [RN])
            assert abs(st.penalized_objective - (st.expected_return - lam * st.trunc_above[0])) <= 1e-9
            assert abs(evaluate_policy(e, pol) - st.penalized_objective) <= 1e-9


def test_excess_identity_matches_direct_sum():
    from cmdp_forge.model import trajectory_cost

    f = fixture("stochastic_chain")
    rng = random.Random(5)
    pol = random_policy(f.cmdp, f.quantum, rng)
    trajs = enumerate_trajectories(f.cmdp, pol, f.quantum)
    st = stats(trajs, f.cmdp)
    direct = math.fsum(
        t.probability * (trajectory_cost(t, f.cmdp) - f.cmdp.budgets[0])
        for t in trajs
        if trajectory_cost(t, f.cmdp) > f.cmdp.budgets[0]
    )
    assert st.cvar_excess[0] == pytest.approx(direct, abs=1e-12)


def test_small_violation_mass_implies_budget_feasibility():
    """Whenever the above-budget cost mass is within the slack, E[D] <= budget."""
    rng = random.Random(9)
    for name in ("two_action_chain", "stochastic_chain", "grid3_det"):
        f = fixture(name)
        slack = cost_slack(f.cmdp, 0, f.quantum)
        checked = 0
        for _ in range(60):
            pol = random_policy(f.cmdp, f.quantum, rng)
            st = stats(enumerate_trajectories(f.cmdp, pol, f.quantum), f.cmdp)
            if st.trunc_above[0] <= slack + 1e-12:
                checked += 1
                assert st.expected_cost[0] <= f.cmdp.budgets[0] + 1e-9
        assert checked > 0, name


def test_chance_penalty_total_is_constant_per_trajectory():
    f = fixture("grid3_det")
    m = f.cmdp
    policy = greedy(f, [0.1], [VAR])
    trajs = enumerate_trajectories(m, policy, f.quantum)
    steps = chance_penalty_steps(trajs, m, 0, 0.1)
    assert steps == m.horizon + 1


def test_literal_penalty_walk_matches_trajectory_identities():
    from cmdp_forge.model import trajectory_cost

    rng = random.Random(21)
    f = fixture("grid3_det")
    m = f.cmdp
    pol = random_policy(m, f.quantum, rng)
    trajs = enumerate_trajectories(m, pol, f.quantum)
    lam = 1.3
    budget = m.budgets[0]

    for t in trajs[:200]:
        d = trajectory_cost(t, m)
        rn_total = trajectory_penalty_total(t, m, 0, RN, lam)
        cvar_total = trajectory_penalty_total(
            t, m, 0, PenaltyScheme.CONDITIONAL_VALUE_AT_RISK, lam
        )
        if d > budget:
            assert rn_total == pytest.approx(lam * d, abs=1e-9)
            assert cvar_total == pytest.approx(lam * (d - budget), abs=1e-9)
        else:
            assert rn_total == 0.0 and cvar_total == 0.0


def test_policy_must_cover_reachable_states():
    m = two_action_chain()
    partial = chain_policy(math.nan)  # no row for the start
    with pytest.raises(PolicyUndefined, match=r"\(0, 0, \(0,\)\)"):
        enumerate_trajectories(m, partial, 1.0)
    with pytest.raises(PolicyUndefined, match=r"\(0, 0, \(0,\)\)"):
        evaluate_policy(build_extended(m, [1.0], [RN], 1.0), partial)
