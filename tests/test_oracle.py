import gc
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from brute import discounted_return, trajectory_cost, trajectory_penalty_total
from cmdp_forge import oracle
from cmdp_forge.envs import make_gridworld, tiny_grid
from cmdp_forge.extended import PolicyUndefined, TabularPolicy, augment, build_extended, ledger_rule
from cmdp_forge.fixtures import fixture, fixture_pack, two_action_chain
from cmdp_forge.model import Trajectory
from cmdp_forge.oracle import (
    EnumerationCapExceeded,
    IncompleteMass,
    OracleStats,
    enumerate_trajectories,
    random_policy,
    stats,
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


def test_enumeration_cap_is_reported(monkeypatch):
    f = fixture("grid3_noisy")
    policy = greedy(f, [1.0], [RN])
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", 5)
    with pytest.raises(EnumerationCapExceeded, match="cap of 5"):
        enumerate_trajectories(f.cmdp, policy, f.quantum)


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """The collector set as the parameter says, and restored afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("p_risky, cap, raised", [
    (0.5, oracle.TRAJECTORY_CAP, None),
    (0.5, 1, EnumerationCapExceeded),
    (math.nan, oracle.TRAJECTORY_CAP, PolicyUndefined),  # no row for the start
])
def test_enumeration_leaves_the_collector_as_it_found_it(collector, p_risky, cap, raised, monkeypatch):
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", cap)
    m, policy = two_action_chain(), chain_policy(p_risky)
    if raised is None:
        assert len(enumerate_trajectories(m, policy, 1.0)) == 2
    else:
        with pytest.raises(raised):
            enumerate_trajectories(m, policy, 1.0)
    assert gc.isenabled() is collector


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


def test_a_nan_probability_is_rejected():
    m = two_action_chain()
    with pytest.raises(ValueError, match=r"trajectory 0 with states \(0, 1\) has probability nan"):
        stats([Trajectory((0, 1), (0,), probability=math.nan)], m)


def test_a_missing_probability_is_rejected():
    m = two_action_chain()
    trajs = [Trajectory((0, 1), (0,), probability=1.0), Trajectory((0, 2), (1,))]
    with pytest.raises(ValueError, match=r"trajectory 1 with states \(0, 2\) has probability None"):
        stats(trajs, m)


def test_a_negative_probability_is_rejected_though_the_mass_is_one():
    m = two_action_chain()
    trajs = [Trajectory((0, 1), (0,), probability=1.5), Trajectory((0, 2), (1,), probability=-0.5)]
    with pytest.raises(ValueError, match=r"trajectory 1 with states \(0, 2\) has probability -0.5"):
        stats(trajs, m)


def test_a_mass_too_large_to_sum_is_incomplete():
    # Each probability is a finite number >= 0, but their sum overflows.
    m = two_action_chain()
    trajs = [Trajectory((0, 1), (0,), probability=1e308), Trajectory((0, 2), (1,), probability=1e308)]
    with pytest.raises(IncompleteMass, match="mass inf"):
        stats(trajs, m)


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
    # A random policy reaches every path of grid3_det, and its violating
    # paths cross the budget at every epoch from 1 to 4; whatever the
    # epoch, the literal walk totals lambda*(T + 1), exactly at lambda 0.75.
    f = fixture("grid3_det")
    m = f.cmdp
    lam = 0.75
    trajs = enumerate_trajectories(m, random_policy(m, f.quantum, random.Random(5)), f.quantum)
    assert (len(trajs), len({t.states for t in trajs})) == (1026, 665)
    crossings = set()
    for t in trajs:
        running = np.cumsum(m.costs[0][list(t.states)])
        total = trajectory_penalty_total(t, m, 0, VAR, lam)
        if running[-1] > m.budgets[0]:
            crossings.add(int(np.argmax(running > m.budgets[0])))
            assert total == lam * (m.horizon + 1), t.states
        else:
            assert total == 0.0, t.states
    assert crossings == {1, 2, 3, 4}


def test_literal_penalty_walk_matches_trajectory_identities():
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


def per_path_stats(trajs, m, lambdas, schemes):
    """The oracle statistics by a separate walk of every path, in path order."""
    K = m.n_constraints
    returns, penalized = [], []
    per_k = [([], [], [], [], []) for _ in range(K)]
    for traj in trajs:
        p = traj.probability
        r = discounted_return(traj, m)
        returns.append(p * r)
        pen = r
        for k in range(K):
            d = trajectory_cost(traj, m, k)
            cost_l, above_l, below_l, viol_l, excess_l = per_k[k]
            cost_l.append(p * d)
            if d > m.budgets[k]:
                above_l.append(p * d)
                viol_l.append(p)
                excess_l.append(p * (d - m.budgets[k]))
            else:
                below_l.append(p * d)
            if lambdas[k] != 0.0:
                pen -= trajectory_penalty_total(traj, m, k, schemes[k], lambdas[k])
        penalized.append(p * pen)
    return OracleStats(
        expected_return=math.fsum(returns),
        expected_cost=tuple(math.fsum(per_k[k][0]) for k in range(K)),
        trunc_above=tuple(math.fsum(per_k[k][1]) for k in range(K)),
        trunc_below=tuple(math.fsum(per_k[k][2]) for k in range(K)),
        violation_prob=tuple(math.fsum(per_k[k][3]) for k in range(K)),
        cvar_excess=tuple(math.fsum(per_k[k][4]) for k in range(K)),
        penalized_objective=math.fsum(penalized),
    )


def discounted_grid():
    return replace(make_gridworld(tiny_grid(noise_p=0.05, horizon=3), "exact"), discount=0.9)


def two_cost_grid():
    """The discounted grid with a second, doubled pit cost: a path through
    the pit twice pays both penalties."""
    m = discounted_grid()
    return replace(m, costs=np.vstack([m.costs, 2.0 * m.costs]), budgets=(2.0, 2.5))


WEIGHTS = {1: [(0.0,), (0.7,), (3.0,)], 2: [(0.0, 0.0), (0.7, 1.3), (0.0, 2.0)]}


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
def test_stats_equal_a_separate_walk_of_every_path(scheme):
    """Every field is the same float as the per-path walk gives: one return
    walk per path and one cost-side walk per state path change no sum."""
    rng = random.Random(17)
    models = [(f.cmdp, f.quantum) for f in fixture_pack() if f.name != "grid3_noisy"]
    models += [(discounted_grid(), 0.25), (two_cost_grid(), 0.25)]
    for m, quantum in models:
        trajs = enumerate_trajectories(m, random_policy(m, quantum, rng), quantum)
        for lambdas in WEIGHTS[m.n_constraints]:
            schemes = [scheme] * m.n_constraints
            assert stats(trajs, m, lambdas, schemes) == per_path_stats(trajs, m, lambdas, schemes)


def test_stats_of_mixed_lengths_and_shared_state_paths():
    """Hand-built paths of three lengths on a discounted model; two pairs
    share a state path under different actions, one of them violating."""
    m = discounted_grid()
    pit = m.costs[0].tolist().index(1.5)
    trajs = [
        Trajectory((0, 1, 2, 5), (1, 1, 2), probability=0.125),
        Trajectory((0, 1, 2, 5), (3, 0, 2), probability=0.125),
        Trajectory((0, pit, pit), (1, 0), probability=0.25),
        Trajectory((0, pit, pit), (2, 3), probability=0.25),
        Trajectory((0, 3), (2,), probability=0.25),
    ]
    for scheme in PenaltyScheme:
        for lam in (0.0, 0.7):
            st = stats(trajs, m, [lam], [scheme])
            assert st == per_path_stats(trajs, m, [lam], [scheme])
    assert st.violation_prob == (0.5,)


def test_each_distinct_state_path_is_one_object():
    rng = random.Random(29)
    det = fixture("grid3_det")
    noisy = fixture("grid3_noisy")
    cases = [(det, random_policy(det.cmdp, det.quantum, rng)), (noisy, greedy(noisy, [1.0], [RN]))]
    counts = []
    for f, policy in cases:
        trajs = enumerate_trajectories(f.cmdp, policy, f.quantum)
        assert len({id(t.states) for t in trajs}) == len({t.states for t in trajs})
        counts.append((len(trajs), len({t.states for t in trajs})))
    # The random policy shares state paths across actions; the greedy one takes one action a node.
    assert counts == [(1026, 665), (15567, 15567)]


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
def test_stats_of_a_shuffled_enumeration_equal_a_separate_walk(scheme):
    """The shared return of a sibling run is exact in any path order."""
    f = fixture("grid3_det")
    trajs = enumerate_trajectories(f.cmdp, random_policy(f.cmdp, f.quantum, random.Random(31)), f.quantum)
    random.Random(37).shuffle(trajs)
    for lam in (0.0, 0.7):
        assert stats(trajs, f.cmdp, [lam], [scheme]) == per_path_stats(trajs, f.cmdp, [lam], [scheme])


def test_one_actions_tuple_under_two_state_prefixes_keeps_two_returns():
    """Negative control of return sharing: consecutive paths with one
    ``actions`` object but different rewarded states each get their own
    return."""
    m = discounted_grid()
    actions = (2, 1)
    trajs = [
        Trajectory((0, 1, 2), actions, probability=0.25),
        Trajectory((0, 3, 4), actions, probability=0.25),
        Trajectory((0, 3, 6), actions, probability=0.25),
        Trajectory((0, 3, 4), (1, 2), probability=0.25),
    ]
    returns = {discounted_return(t, m) for t in trajs}
    assert len(returns) == 3
    for scheme in PenaltyScheme:
        st = stats(trajs, m, [0.7], [scheme])
        assert st == per_path_stats(trajs, m, [0.7], [scheme])
    assert st.expected_return == math.fsum(0.25 * discounted_return(t, m) for t in trajs)


def plain_walk(m, policy, quantum, cap=1_000_000):
    """Every path by the textbook recursion: one call per node, leaves included."""
    advance = ledger_rule(m, quantum)
    table = policy.table()
    out = []

    def walk(states, actions, ledger, prob):
        t = len(actions)
        if t == m.horizon:
            if len(out) >= cap:
                raise EnumerationCapExceeded(cap, t)
            out.append(Trajectory(states, actions, probability=prob))
            return
        row = table[(t, states[-1], ledger)]
        for a in m.actions_at(states[-1]):
            if row[a] != 0.0:
                for s2, p in m.successors(states[-1], a):
                    walk(states + (s2,), actions + (a,), advance(ledger, s2), prob * row[a] * p)

    walk((m.s0,), (), advance((0,) * m.n_constraints, m.s0), 1.0)
    return out


def test_enumeration_is_the_plain_recursive_walk_in_order():
    rng = random.Random(23)
    for f in fixture_pack():
        policies = [greedy(f, [1.0] * f.cmdp.n_constraints, [RN] * f.cmdp.n_constraints)]
        if f.name != "grid3_noisy":
            policies += [random_policy(f.cmdp, f.quantum, rng) for _ in range(3)]
        for policy in policies:
            assert enumerate_trajectories(f.cmdp, policy, f.quantum) == plain_walk(f.cmdp, policy, f.quantum)
    # A horizon-0 model is invalid, and is refused where it is built.
    with pytest.raises(ValueError, match="invalid model: horizon"):
        replace(two_action_chain(), horizon=0)


def test_enumeration_cap_reports_the_same_depth(monkeypatch):
    f = fixture("grid3_noisy")
    policy = greedy(f, [1.0], [RN])
    n = len(enumerate_trajectories(f.cmdp, policy, f.quantum))
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", n)
    assert len(enumerate_trajectories(f.cmdp, policy, f.quantum)) == n
    for cap in (0, 5, n - 1):
        monkeypatch.setattr(oracle, "TRAJECTORY_CAP", cap)
        with pytest.raises(EnumerationCapExceeded) as ours:
            enumerate_trajectories(f.cmdp, policy, f.quantum)
        with pytest.raises(EnumerationCapExceeded) as plain:
            plain_walk(f.cmdp, policy, f.quantum, cap=cap)
        assert (ours.value.cap, ours.value.depth) == (plain.value.cap, plain.value.depth) == (cap, f.cmdp.horizon)
