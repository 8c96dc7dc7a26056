import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdp_forge.config import ExperimentConfig, load_config
from cmdp_forge.envs import ChainBranch, ChainSpec, GridWorldEnv, SampledKernelEnv, make_chain
from cmdp_forge.fixtures import two_action_chain
from cmdp_forge.learners import (
    LambdaSchedule,
    ReplayBuffer,
    SoftmaxPolicy,
    constrained_action_select,
    greedy_action,
    obs_key,
    penalize_sample,
    safe_actor_critic,
    safe_q_learning,
)
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import lambda_bounds, solve, unconstrained_value

RN = PenaltyScheme.RISK_NEUTRAL
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_safe_transition_keeps_the_reward():
    assert penalize_sample(3.0, 0.3, 0.5, 2.0, RN, 2.0, t=1) == 3.0


def test_crossing_transition_charges_the_running_total():
    assert penalize_sample(-1.0, 1.5, 1.0, 2.0, RN, 2.0, t=1) == -6.0


def test_post_violation_transition_charges_the_step_cost():
    assert penalize_sample(-1.0, 3.0, 1.5, 2.0, RN, 2.0, t=1) == -4.0


def test_schedule_freezes_while_over_budget():
    sched = LambdaSchedule(2.0, 0.1, window=3)
    for cost in (0.0, 5.0, 0.0):
        sched.record(cost, budget=2.0)
    assert sched.value == 2.0
    assert sched.costs == []


def test_schedule_decays_once_per_safe_window():
    sched = LambdaSchedule(2.0, 0.1, window=2)
    sched.record(0.0, 2.0)
    assert sched.value == 2.0  # window not full yet
    sched.record(1.0, 2.0)
    assert sched.value == 1.9
    assert sched.costs == []


def test_schedule_respects_the_floor():
    sched = LambdaSchedule(0.1, 0.1, window=1)
    sched.record(0.0, 2.0)
    assert sched.value == 0.1  # 0.095 would dip under the floor


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=60))
def test_schedule_trace_is_monotone_and_floored(costs):
    sched = LambdaSchedule(2.0, 0.3, window=4)
    trace = []
    for cost in costs:
        sched.record(cost, budget=2.0)
        trace.append(sched.value)
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert all(v > 0.3 or v == pytest.approx(0.3) for v in trace)


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(2)
    for i in range(5):
        buf.push(i)
    assert sorted(buf.items) == [3, 4]


def test_unconstrained_selection_is_soft_greedy():
    pol = SoftmaxPolicy(2, alpha_ent=0.5)
    q = {((0, (0,)), 0): 1.0, ((0, (0,)), 1): 0.0}
    a = constrained_action_select((0, (0,)), pol, q, {}, 0.0, 0.0, 2.0)
    assert a == 0


def test_infeasible_action_is_excluded():
    key = (0, (0,))
    pol = SoftmaxPolicy(2, alpha_ent=0.5)
    qd = {(key, 0): 3.0, (key, 1): 0.5}
    # Predicted totals: 3 + 1 - 0.5 = 3.5 > 2 but 0.5 + 1 - 0.5 = 1 <= 2.
    a = constrained_action_select(key, pol, {}, qd, 1.0, 0.5, 2.0)
    assert a == 1


def test_empty_feasible_set_falls_back_to_cheapest_future():
    key = (0, (0,))
    pol = SoftmaxPolicy(2, alpha_ent=0.5)
    qd = {(key, 0): 5.0, (key, 1): 4.0}
    a = constrained_action_select(key, pol, {}, qd, 0.0, 0.0, 2.0)
    assert a == 1


def test_q_learner_matches_exact_greedy_across_weights():
    m = two_action_chain()
    report = lambda_bounds(m, 0.25, 1.0)
    for lam in (0.0, report.lambda_expected_cost, 10 * report.lambda_expected_cost):
        _, exact_policy, _ = solve(m, [lam], [RN], 1.0)
        exact_action = exact_policy.table[(0, 0, (0,))].index(1.0)
        env = SampledKernelEnv(m, seed="17:env")
        cfg = ExperimentConfig(episodes=1500, lambda0=lam,
                               lambda_floor=max(lam, 1e-9) if lam else 1e-9)
        q, _log, _ = safe_q_learning(env, cfg, 17)
        key0 = obs_key(m.s0, 0.0, env.budget, cfg.key_quantum)
        assert greedy_action(q, key0, env.n_actions) == exact_action, lam


def test_q_learner_with_zero_weight_goes_unconstrained():
    m = two_action_chain()
    env = SampledKernelEnv(m, seed="5:env")
    cfg = ExperimentConfig(episodes=1200, lambda0=0.0, lambda_floor=1e-9)
    q, _log, _ = safe_q_learning(env, cfg, 5)
    key0 = obs_key(m.s0, 0.0, env.budget, cfg.key_quantum)
    assert greedy_action(q, key0, env.n_actions) == 1  # risky pays more unpenalized


def test_actor_critic_matches_unconstrained_value_without_costs():
    m = make_chain(
        ChainSpec(
            branches=(
                ChainBranch("low", 1.0, ((1.0, (0.0,)),)),
                ChainBranch("high", 2.0, ((1.0, (0.0,)),)),
            ),
            budgets=(2.0,),
        )
    )
    best, _ = unconstrained_value(m)
    env = SampledKernelEnv(m, seed="3:env")
    # With no cost pressure the entropy bonus is the only exploration driver;
    # it needs enough weight to get the second branch tried at all.
    cfg = ExperimentConfig(episodes=3000, alpha_ent=0.2, lr_actor=0.05)
    _tables, log, _ = safe_actor_critic(env, cfg, 3)
    tail_mean = statistics.fmean(r.ret for r in log[-500:])
    assert abs(tail_mean - best) / best <= 0.05


def test_actor_critic_prefers_safe_under_pressure():
    m = two_action_chain()
    env = SampledKernelEnv(m, seed="9:env")
    cfg = ExperimentConfig(episodes=2000, lambda0=1.0, lambda_floor=1.0)
    tables, _log, _ = safe_actor_critic(env, cfg, 9)
    key0 = obs_key(m.s0, 0.0, env.budget, cfg.key_quantum)
    assert tables.policy.probabilities(key0)[0] >= 0.95


def test_desk_grid_q_learner_keeps_cost_under_budget():
    cfg = load_config((CONFIGS / "desk_gridworld_q.cfg").read_text())
    seed = cfg.seeds[0]
    env = GridWorldEnv(cfg.grid, seed=f"{seed}:env")
    _q, log, _ = safe_q_learning(env, cfg, seed)
    tail = log[-1000:]
    assert statistics.fmean(r.final_cost for r in tail) <= 2.0
    assert statistics.fmean(r.ret for r in tail) > 0.0


def test_training_log_shape_and_determinism():
    m = two_action_chain()
    runs = []
    for _ in range(2):
        env = SampledKernelEnv(m, seed="7:env")
        cfg = ExperimentConfig(episodes=50)
        _q, log, _ = safe_q_learning(env, cfg, 7)
        runs.append([(r.episode, r.ret, r.final_cost, r.lam, r.explore) for r in log])
    assert runs[0] == runs[1]
    assert [r[0] for r in runs[0]] == list(range(50))
