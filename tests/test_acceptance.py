"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line with the measured headline numbers (run
pytest with -s to stream them) and asserts its runtime budget.  The bound
checks run through the verification battery, whose measured side always
comes from the brute-force trajectory oracle, never from the solver under
test.  Criteria 06 and 07 also score every deterministic policy of the
small chains (``brute.py``) against each frontier policy at its level.
"""

import math
import random
import statistics
import time

from cmdp_forge.config import ExperimentConfig
from cmdp_forge.envs import GridWorldEnv, SampledKernelEnv, desk_grid
from cmdp_forge.extended import build_extended
from cmdp_forge.fixtures import fixture_pack, two_action_chain
from cmdp_forge.learners import (
    LambdaSchedule,
    safe_actor_critic,
    safe_q_learning,
)
from cmdp_forge.oracle import enumerate_trajectories, random_policy, stats
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import backward_induction, evaluate_policy, lambda_bounds
from cmdp_forge.verification import (
    _frontier,
    check_chance_penalty_equivalence,
    check_excess_penalty_equivalence,
    check_expected_cost_feasibility,
    check_multi_constraint_feasibility,
    check_violation_cost_bound,
    check_violation_prob_bound,
    check_worst_case_masking,
    check_zero_penalty_equivalence,
)

from brute import count_deterministic_policies, frontier_rivals, rival_stats

RN = PenaltyScheme.RISK_NEUTRAL
PACK = fixture_pack()


def report(n, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"\n[{flag}] criterion {n}: {detail}")
    assert ok, detail


def optimality_checks(scheme):
    """One entry per frontier policy of each one-constraint fixture with at
    most 10,000 deterministic policies (the three chains; both grids have
    over 10**7): the policy at its level that returns more, or None."""
    return [better for f in PACK
            if f.cmdp.n_constraints == 1 and count_deterministic_policies(f.cmdp, f.quantum) <= 10_000
            for better in frontier_rivals(f, scheme, rival_stats(f.cmdp, f.quantum))]


def test_criterion_01_zero_penalty_equivalence():
    started = time.perf_counter()
    assert len(PACK) >= 5
    assert any("grid3" in f.name for f in PACK)
    rep = check_zero_penalty_equivalence(PACK)
    elapsed = time.perf_counter() - started
    worst = max(abs(r.measured - r.bound) for r in rep.rows)
    assert elapsed < 5.0
    report(1, rep.passed and worst <= 1e-9,
           f"zero-weight value equals plain value on {len(rep.rows)} fixtures "
           f"(max gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_worst_case_masking():
    started = time.perf_counter()
    rep = check_worst_case_masking(PACK)
    elapsed = time.perf_counter() - started
    viol_rows = [r for r in rep.rows if r.note == "violation probability"]
    assert all(r.measured == 0.0 for r in viol_rows)
    assert elapsed < 10.0
    report(2, rep.passed,
           f"huge-weight policies reach zero violation probability and the "
           f"masked value on {len(viol_rows)} feasible fixtures ({elapsed:.2f}s)")


def test_criterion_03_expected_cost_feasibility_with_negative_control():
    started = time.perf_counter()
    rep = check_expected_cost_feasibility(PACK)
    assert len({r.fixture for r in rep.rows}) >= 3
    # Each fixture's rows start at its threshold and cover every frontier
    # policy optimal above it: one more row at each breakpoint from there on.
    for f in PACK:
        lams = [r.lam for r in rep.rows if r.fixture == f.name]
        if lams:
            threshold = lambda_bounds(f.cmdp, 0.25, f.quantum).lambda_expected_cost
            breaks = [start for start, _ in _frontier(f, RN)[1][1:]]
            assert lams == [threshold] + [lam for lam in breaks if lam >= threshold], f.name
    # Negative control: a tenth of the threshold weight picks the risky branch
    # and busts the budget, demonstrating the check can fail.
    m = two_action_chain()
    threshold = lambda_bounds(m, 0.25, 1.0).lambda_expected_cost
    e = build_extended(m, [threshold / 10.0], [RN], 1.0)
    policy = backward_induction(e).greedy_policy(m.n_actions)
    st = stats(enumerate_trajectories(m, policy, 1.0), m)
    elapsed = time.perf_counter() - started
    assert st.expected_cost[0] > m.budgets[0]
    assert elapsed < 30.0
    report(3, rep.passed,
           f"expected cost within budget from the threshold on, one row per "
           f"frontier policy, {len(rep.rows)} rows; low-weight control exceeds the budget "
           f"(E[D] = {st.expected_cost[0]:g}) ({elapsed:.2f}s)")


def test_criterion_04_violating_cost_mass_bound():
    started = time.perf_counter()
    rep = check_violation_cost_bound(PACK)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    slack = max(r.measured - r.bound for r in rep.rows)
    report(4, rep.passed and slack <= 1e-9,
           f"above-budget cost mass under gap/weight on {len(rep.rows)} rows "
           f"at every breakpoint (max overshoot {slack:.2e}, {elapsed:.2f}s)")


def test_criterion_05_violation_probability_bound():
    started = time.perf_counter()
    rep = check_violation_prob_bound(PACK)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(5, rep.passed,
           f"violation probability within gap/(weight*budget), alpha at the "
           f"chance threshold for every alpha, at each breakpoint on "
           f"{len(rep.rows)} rows ({elapsed:.2f}s)")


def test_criterion_06_chance_scheme_equivalence():
    started = time.perf_counter()
    rep = check_chance_penalty_equivalence(PACK)
    optimality = optimality_checks(PenaltyScheme.VALUE_AT_RISK)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    zero_rows = [r for r in rep.rows if r.note == "level is zero above the last breakpoint"]
    # One zero row per one-constraint feasible fixture; an optimality check per
    # frontier policy (two each) on the three chains small enough to enumerate.
    assert len(zero_rows) == 4 and len(optimality) == 6
    report(6, rep.passed and optimality == [None] * 6,
           f"chance scheme: level under gap/(weight*steps), weakly decreasing "
           f"to zero, optimal among enumerated policies on "
           f"{len(optimality)} frontier policies ({elapsed:.2f}s)")


def test_criterion_07_excess_scheme_equivalence():
    started = time.perf_counter()
    rep = check_excess_penalty_equivalence(PACK)
    optimality = optimality_checks(PenaltyScheme.CONDITIONAL_VALUE_AT_RISK)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    zero_rows = [r for r in rep.rows if r.note == "level is zero above the last breakpoint"]
    # One zero row per one-constraint feasible fixture; an optimality check per
    # frontier policy (two each) on the three chains small enough to enumerate.
    assert len(zero_rows) == 4 and len(optimality) == 6
    report(7, rep.passed and optimality == [None] * 6,
           f"excess scheme: expected excess under gap/weight, weakly "
           f"decreasing to zero, optimality exhaustively checked on "
           f"{len(optimality)} frontier policies ({elapsed:.2f}s)")


def test_criterion_08_multi_constraint_feasibility():
    started = time.perf_counter()
    rep = check_multi_constraint_feasibility(PACK)
    elapsed = time.perf_counter() - started
    assert len(rep.rows) == 2  # both constraints of the two-cost chain
    assert elapsed < 30.0
    report(8, rep.passed,
           f"per-constraint threshold weights keep both expected costs within "
           f"budget ({elapsed:.2f}s)")


def test_criterion_09_objective_identity_on_random_policies():
    started = time.perf_counter()
    rng = random.Random(2024)
    lam = 0.7
    worst_gap = 0.0
    checked = 0
    for f in PACK:
        if f.name == "grid3_noisy":  # too many trajectories for 100 random policies
            continue
        K = f.cmdp.n_constraints
        e = build_extended(f.cmdp, [lam] * K, [RN] * K, f.quantum)
        for _ in range(100):
            pol = random_policy(f.cmdp, f.quantum, rng)
            st = stats(
                enumerate_trajectories(f.cmdp, pol, f.quantum),
                f.cmdp, [lam] * K, [RN] * K,
            )
            decomposed = st.expected_return - lam * math.fsum(st.trunc_above)
            dp = evaluate_policy(e, pol)
            worst_gap = max(
                worst_gap,
                abs(st.penalized_objective - decomposed),
                abs(dp - st.penalized_objective),
            )
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(9, worst_gap <= 1e-9 and checked >= 500,
           f"penalized objective decomposition exact on {checked} random "
           f"policies (max gap {worst_gap:.2e}, {elapsed:.2f}s)")


def test_criterion_10_learners_converge_on_the_chain():
    started = time.perf_counter()
    m = two_action_chain()
    lam = 2.0 * lambda_bounds(m, 0.25, 1.0).lambda_expected_cost
    cfg = ExperimentConfig(episodes=2000, lambda0=lam, lambda_floor=lam)
    q_ok = ac_ok = 0
    for seed in (1, 2, 3, 4, 5):
        env = SampledKernelEnv(m, seed=f"{seed}:env")
        q, _log = safe_q_learning(env, cfg, seed)
        key0 = q.key(m.s0, 0.0)
        q_ok += q.greedy(q.row(key0)) == 0
        env2 = SampledKernelEnv(m, seed=f"{seed}:env")
        tables, _log2 = safe_actor_critic(env2, cfg, seed)
        ac_ok += tables.probabilities(tables.row(key0))[0] >= 0.95
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(10, q_ok == 5 and ac_ok == 5,
           f"both learners pick the safe branch on 5/5 seeds within 2000 "
           f"episodes at twice the threshold weight ({elapsed:.2f}s)")


def test_criterion_11_desk_gridworld_learning():
    started = time.perf_counter()
    rets, costs = [], []
    for seed in (1, 2, 3, 4, 5):
        env = GridWorldEnv(desk_grid(), seed=f"{seed}:env")
        _tables, log = safe_actor_critic(env, ExperimentConfig(episodes=4000), seed)
        tail = log[-1000:]
        rets.append(statistics.fmean(r.ret for r in tail))
        costs.append(statistics.fmean(r.final_cost for r in tail))
    mean_ret = statistics.fmean(rets)
    mean_cost = statistics.fmean(costs)
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    budget = desk_grid().c_max
    report(11, mean_cost <= budget * 1.1 and mean_ret > 0.0,
           f"actor-critic on the 5x5 grid: final-1000-episode mean cost "
           f"{mean_cost:.3f} <= {budget * 1.1:.1f}, mean return {mean_ret:.1f} > 0, "
           f"5 seeds ({elapsed:.1f}s)")


def test_criterion_12_schedule_trace_is_exact():
    started = time.perf_counter()
    # Zero-cost environment: every window is safe, so the reference trace is
    # a pure decay-to-floor sequence.
    from cmdp_forge.envs import ChainBranch, ChainSpec, make_chain

    m = make_chain(
        ChainSpec(branches=(ChainBranch("only", 1.0, ((1.0, (0.0,)),)),), budgets=(2.0,))
    )
    env = SampledKernelEnv(m, seed="1:env")
    cfg = ExperimentConfig(episodes=200, window=5, lambda0=2.0, lambda_floor=0.1)
    _q, log = safe_q_learning(env, cfg, 1)
    trace = [row.lam for row in log]

    ref_sched = LambdaSchedule(2.0, 0.1, 5)
    expected = []
    for _ in range(200):
        ref_sched.record(0.0, 2.0)
        expected.append(ref_sched.value)
    value = 2.0
    by_hand = []
    for episode in range(1, 201):
        if episode % 5 == 0 and 0.95 * value > 0.1:
            value *= 0.95
        by_hand.append(value)
    elapsed = time.perf_counter() - started
    assert expected == by_hand
    assert elapsed < 60.0
    ok = trace == expected and min(trace) > 0.1 and all(
        b <= a for a, b in zip(trace, trace[1:])
    )
    report(12, ok,
           f"weight trace decays by 0.95 every 5 safe episodes down to "
           f"{min(trace):.4f} and never crosses the floor 0.1 ({elapsed:.2f}s)")
