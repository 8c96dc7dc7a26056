import csv
import hashlib
import statistics
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdp_forge.cli import main
from cmdp_forge.config import ExperimentConfig
from cmdp_forge.envs import GRID_ACTIONS, ChainBranch, ChainSpec, GridWorldEnv, SampledKernelEnv, desk_grid, make_chain
from cmdp_forge.extended import build_extended
from cmdp_forge.fixtures import two_action_chain
from cmdp_forge.learners import (
    ActorCriticTables,
    LambdaSchedule,
    ReplayBuffer,
    constrained_action_select,
    penalize_sample,
    safe_actor_critic,
    safe_q_learning,
)
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import backward_induction, lambda_bounds, unconstrained_value

RN = PenaltyScheme.RISK_NEUTRAL
VAR = PenaltyScheme.VALUE_AT_RISK
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_safe_transition_keeps_the_reward():
    assert penalize_sample(3.0, 0.3, 0.5, 2.0, RN, 2.0, horizon=5, t=1) == 3.0


def test_crossing_transition_charges_the_running_total():
    assert penalize_sample(-1.0, 1.5, 1.0, 2.0, RN, 2.0, horizon=5, t=1) == -6.0


def test_post_violation_transition_charges_the_step_cost():
    assert penalize_sample(-1.0, 3.0, 1.5, 2.0, RN, 2.0, horizon=5, t=1) == -4.0


def charged_over_episode(env, actions, lam):
    """Sum of rew - penalize_sample(...) under var over one episode, its
    final cost, the steps taken and whether the env ended it."""
    _s, c, _d = env.reset()
    total = 0.0
    for t, a in enumerate(actions, 1):
        (_s, c2, d2), rew, done = env.step(a)
        total += rew - penalize_sample(rew, c, d2, lam, VAR, env.budget, env.horizon, t=t)
        c = c2
        if done:
            break
    return total, c, t, done


def test_a_violating_grid_episode_that_ends_at_the_goal_pays_the_whole_chance_penalty():
    # Four `left` steps along the noise-free desk grid's bottom row cross
    # three pits and reach the goal at step 4 of T = 50.  The exact model
    # charges every violating path lam * (T + 1); so must the samples.
    env = GridWorldEnv(replace(desk_grid(), noise_p=0.0), seed=0)
    total, cost, steps, done = charged_over_episode(env, [GRID_ACTIONS.index("left")] * 4, 1.0)
    assert (steps, done) == (4, True)  # ended before the horizon: at the goal
    assert cost > env.budget
    assert total == 1.0 * (50 + 1)


def test_a_violating_chain_episode_pays_the_whole_chance_penalty():
    # Chain episodes run to the horizon; the crossing comes at step 1 of 3.
    m = make_chain(ChainSpec(branches=(ChainBranch("risky", 2.0, ((1.0, (3.0,)),)),),
                             budgets=(2.0,), horizon=3))
    total, cost, steps, done = charged_over_episode(SampledKernelEnv(m, seed=0), [0] * 3, 2.0)
    assert (cost, steps, done) == (3.0, 3, True)
    assert total == 2.0 * (3 + 1)


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


def test_schedule_counts_a_final_cost_at_the_budget_as_safe():
    sched = LambdaSchedule(2.0, 0.1, window=2)
    sched.record(2.0, 2.0)
    sched.record(2.0, 2.0)
    assert sched.value == 1.9


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


def _select(sections, c, d, budget):
    tables = ActorCriticTables.from_sections(sections, 2, 2.0, 0.1, alpha_ent=0.5)
    return constrained_action_select(tables, tables.row((0, (0,))), c, d, budget)


def test_unconstrained_selection_is_soft_greedy():
    q = {((0, (0,)), 0): 1.0, ((0, (0,)), 1): 0.0}
    a = _select({"q1": q}, 0.0, 0.0, 2.0)
    assert a == 0


def test_infeasible_action_is_excluded():
    key = (0, (0,))
    qd = {(key, 0): 3.0, (key, 1): 0.5}
    # Predicted totals: 3 + 1 - 0.5 = 3.5 > 2 but 0.5 + 1 - 0.5 = 1 <= 2.
    a = _select({"qd1": qd}, 1.0, 0.5, 2.0)
    assert a == 1


def test_empty_feasible_set_falls_back_to_cheapest_future():
    key = (0, (0,))
    qd = {(key, 0): 5.0, (key, 1): 4.0}
    a = _select({"qd1": qd}, 0.0, 0.0, 2.0)
    assert a == 1


def test_q_learner_matches_exact_greedy_across_weights():
    m = two_action_chain()
    report = lambda_bounds(m, 0.25, 1.0)
    for lam in (0.0, report.lambda_expected_cost, 10 * report.lambda_expected_cost):
        e = build_extended(m, [lam], [RN], 1.0)
        exact_policy = backward_induction(e).greedy_policy(m.n_actions)
        exact_action = exact_policy.table()[(0, 0, (0,))].index(1.0)
        env = SampledKernelEnv(m, seed="17:env")
        cfg = ExperimentConfig(episodes=1500, lambda0=lam,
                               lambda_floor=max(lam, 1e-9) if lam else 1e-9)
        q, _log = safe_q_learning(env, cfg, 17)
        key0 = q.key(m.s0, 0.0)
        assert q.greedy(q.row(key0)) == exact_action, lam


def test_q_learner_with_zero_weight_goes_unconstrained():
    m = two_action_chain()
    env = SampledKernelEnv(m, seed="5:env")
    cfg = ExperimentConfig(episodes=1200, lambda0=0.0, lambda_floor=1e-9)
    q, _log = safe_q_learning(env, cfg, 5)
    key0 = q.key(m.s0, 0.0)
    assert q.greedy(q.row(key0)) == 1  # risky pays more unpenalized


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
    _tables, log = safe_actor_critic(env, cfg, 3)
    tail_mean = statistics.fmean(r.ret for r in log[-500:])
    assert abs(tail_mean - best) / best <= 0.05


def test_actor_critic_prefers_safe_under_pressure():
    m = two_action_chain()
    env = SampledKernelEnv(m, seed="9:env")
    cfg = ExperimentConfig(episodes=2000, lambda0=1.0, lambda_floor=1.0)
    tables, _log = safe_actor_critic(env, cfg, 9)
    key0 = tables.key(m.s0, 0.0)
    assert tables.probabilities(tables.row(key0))[0] >= 0.95


def test_desk_grid_q_learner_keeps_cost_under_budget(tmp_path):
    # One training run through the CLI gives both the final-1000 tail and the
    # checkpoint, whose digest was recorded with the dict-table Q-learner.
    cfg_path = str(CONFIGS / "desk_gridworld_q.cfg")
    assert main(["--config", cfg_path, "--out", str(tmp_path), "--seeds", "1", "train"]) == 0
    with open(tmp_path / "train_seed1.csv", newline="") as fh:
        tail = list(csv.DictReader(fh))[-1000:]
    assert statistics.fmean(float(r["final_cost"]) for r in tail) <= 2.0
    assert statistics.fmean(float(r["return"]) for r in tail) > 0.0
    assert hashlib.sha256((tmp_path / "checkpoint_seed1.txt").read_bytes()).hexdigest() == (
        "0784e37ce89599e3a496f634b5fd1d6b945473e15ee6c90d1df0d6e896fe527e"
    )


def test_training_log_shape_and_determinism():
    m = two_action_chain()
    runs = []
    for _ in range(2):
        env = SampledKernelEnv(m, seed="7:env")
        cfg = ExperimentConfig(episodes=50)
        _q, log = safe_q_learning(env, cfg, 7)
        runs.append([(r.episode, r.ret, r.final_cost, r.lam, r.explore) for r in log])
    assert runs[0] == runs[1]
    assert [r[0] for r in runs[0]] == list(range(50))


def test_polyak_blends_then_settles_until_the_next_write():
    tables = ActorCriticTables(2, 2.0, 0.1, alpha_ent=0.1)
    r = tables.row((0, 0))
    rho = 0.5
    tables.learn_critic(r, 1, 0.5, 2.0, 4.0)
    main = tables.critic[:, r, 1].tolist()
    assert main == [1.0, 2.0]
    # Reference: the scalar walk over one dirty entry, gap test on both critics.
    targ, dirty, settled_at = [0.0, 0.0], True, None
    for call in range(60):
        tables.polyak(rho)
        if dirty:
            targ = [rho * t + (1.0 - rho) * m for t, m in zip(targ, main)]
            dirty = max(abs(t - m) for t, m in zip(targ, main)) >= 1e-12
            if not dirty:
                settled_at = call
        assert tables.target[:, r, 1].tolist() == targ
        assert bool(tables.dirty[r, 1]) == dirty
    assert settled_at == 40  # 2**-40 < 1e-12 <= 2**-39
    # A settled entry stops short of its critic and stays put.
    assert targ != main
    assert tables.target[:, r, 0].tolist() == [0.0, 0.0]  # never written
    tables.learn_critic(r, 1, 0.5, 2.0, 4.0)
    assert bool(tables.dirty[r, 1])
    tables.polyak(rho)
    assert tables.target[:, r, 1].tolist() == [
        rho * t + (1.0 - rho) * m for t, m in zip(targ, tables.critic[:, r, 1].tolist())
    ]


def test_store_rows_survive_growth_and_export_read_keys_only():
    tables = ActorCriticTables(3, 2.0, 0.1, alpha_ent=0.1)
    for s in range(200):  # past the initial capacity, several doublings
        r = tables.row((s, 0))
        tables.step_actor(r, s % 3, 0.25, tables.probabilities(r))
    tables.learn_critic(tables.row((7, 0)), 2, 0.5, 1.0, -1.0)
    out = tables.sections()
    assert len(out["logits"]) == 200 * 3
    assert out["logits"][((199, 0), 199 % 3)] == 0.25 * (1.0 - 1.0 / 3.0)
    assert out["q1"] == {((7, 0), 2): 0.5}
    assert out["qd1"] == {((7, 0), 2): -0.5}
    assert all(type(v) is float for table in out.values() for v in table.values())
    again = ActorCriticTables.from_sections(out, 3, 2.0, 0.1, alpha_ent=0.1)
    assert again.sections() == out
