import hashlib
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdp_forge import solver
from cmdp_forge.envs import ChainBranch, ChainSpec, desk_grid, large_grid, make_chain, make_gridworld, tiny_grid
from cmdp_forge.extended import (
    VIOLATED,
    Layer,
    PolicyUndefined,
    QuantizationError,
    TabularPolicy,
    augment,
    build_extended,
    ledger_rule,
)
from cmdp_forge.fixtures import fixture, fixture_pack, two_action_chain
from cmdp_forge.model import Cmdp
from cmdp_forge.oracle import IncompleteMass, enumerate_trajectories, random_policy, stats
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import (
    WorstCaseInfeasible,
    backward_induction,
    cost_slack,
    evaluate_policy,
    lambda_bounds,
    max_safe_cost,
    unconstrained_value,
    worst_case_value,
)

from brute import enumerate_deterministic_policies, small_cmdps

RN = PenaltyScheme.RISK_NEUTRAL


def best_policy_by_enumeration(m, lambdas, schemes, quantum):
    """Independent optimum: score every deterministic policy with the oracle."""
    best = -math.inf
    for pol in enumerate_deterministic_policies(m, quantum):
        st = stats(enumerate_trajectories(m, pol, quantum), m, lambdas, schemes)
        best = max(best, st.penalized_objective)
    return best


@pytest.mark.parametrize("lam,expected_action", [(0.2, 1), (0.5, 0)])
def test_chain_optimum_matches_policy_enumeration(lam, expected_action):
    m = two_action_chain()
    vt = backward_induction(build_extended(m, [lam], [RN], quantum=1.0))
    value, policy = vt.initial_value, vt.greedy_policy(m.n_actions)
    brute = best_policy_by_enumeration(m, [lam], [RN], 1.0)
    assert value == pytest.approx(brute, abs=1e-12)
    chosen = policy.table()[(0, 0, (0,))].index(1.0)
    assert chosen == expected_action


def test_zero_weight_matches_unconstrained_on_every_fixture():
    for f in fixture_pack():
        plain, _ = unconstrained_value(f.cmdp)
        e = build_extended(f.cmdp, [0.0] * f.cmdp.n_constraints,
                           [RN] * f.cmdp.n_constraints, f.quantum)
        aug = backward_induction(e).initial_value
        assert abs(aug - plain) <= 1e-12, f.name


def test_worst_case_forces_the_safe_branch():
    value, policy = worst_case_value(two_action_chain(), 1.0)
    assert value == 1.0
    assert policy.table()[(0, 0, (0,))].index(1.0) == 0


@pytest.mark.parametrize("horizon", [4, 5])
def test_worst_case_policy_has_a_row_for_every_safe_node_and_none_for_a_violated_one(horizon):
    m = make_gridworld(tiny_grid(noise_p=0.0, horizon=horizon, c_max=0.75), "exact")
    _, policy = worst_case_value(m, 0.25)
    layers = augment(m, 0.25).layers[:-1]
    assert any(VIOLATED in ledger for layer in layers for _s, ledger in layer)
    for layer, rows in zip(layers, policy.rows):
        violated = [VIOLATED in ledger for _s, ledger in layer]
        assert np.isnan(rows).all(axis=1).tolist() == violated
        assert (rows[~np.array(violated)].sum(axis=1) == 1.0).all()
    safe = {(t, s, ledger) for t, layer in enumerate(layers) for s, ledger in layer
            if VIOLATED not in ledger}
    assert set(policy.table()) == safe
    # Kept on the model: a second call shares the policy, which no caller can alter.
    assert worst_case_value(m, 0.25)[1] is policy
    assert not any(rows.flags.writeable for rows in policy.rows)


def test_worst_case_equals_unconstrained_when_costs_vanish():
    m = make_chain(
        ChainSpec(
            branches=(
                ChainBranch("a", 1.0, ((1.0, (0.0,)),)),
                ChainBranch("b", 2.0, ((1.0, (0.0,)),)),
            ),
            budgets=(2.0,),
        )
    )
    assert worst_case_value(m, 1.0)[0] == unconstrained_value(m)[0] == 2.0


def infeasible_chain():
    """Every branch busts the budget; the worst-case problem has no policy."""
    return make_chain(
        ChainSpec(
            branches=(
                ChainBranch("risky_a", 2.0, ((1.0, (3.0,)),)),
                ChainBranch("risky_b", 1.5, ((1.0, (2.5,)),)),
            ),
            budgets=(2.0,),
        )
    )


def test_worst_case_infeasible_names_the_state():
    m = infeasible_chain()
    for _ in range(2):  # the second call reads the dead end kept on the model
        with pytest.raises(WorstCaseInfeasible, match="start"):
            worst_case_value(m, 0.25)


def test_truncated_cost_maximum_on_the_chain():
    m = two_action_chain()
    # Safe lands at 0, risky is truncated away entirely.
    assert max_safe_cost(m, 0, 1.0) == 0.0
    assert cost_slack(m, 0, 1.0) == 2.0


def test_zero_cost_model_has_full_slack():
    m = make_chain(
        ChainSpec(branches=(ChainBranch("a", 1.0, ((1.0, (0.0,)),)),), budgets=(2.0,))
    )
    assert cost_slack(m, 0, 1.0) == 2.0


def test_exact_budget_branch_consumes_all_slack():
    m = fixture("three_branch_chain").cmdp
    assert max_safe_cost(m, 0, 1.0) == 2.0
    assert cost_slack(m, 0, 1.0) == 0.0
    report = lambda_bounds(m, 0.25, 1.0)
    assert report.lambda_expected_cost == math.inf


def test_threshold_report_on_the_chain():
    report = lambda_bounds(two_action_chain(), 0.25, 1.0)
    assert report.best_return == 2.0
    assert report.worst_case_return == 1.0
    assert report.cost_slack == 2.0
    assert report.lambda_expected_cost == 0.5
    assert report.lambda_chance == pytest.approx(1.0 / (0.25 * 2.0))
    assert ("feasible_worst_case", 1.0) in report.rows()


def test_zero_gap_gives_zero_thresholds():
    m = make_chain(
        ChainSpec(branches=(ChainBranch("only", 1.0, ((1.0, (0.0,)),)),), budgets=(2.0,))
    )
    report = lambda_bounds(m, 0.5, 1.0)
    assert report.best_return == report.worst_case_return == 1.0
    assert report.lambda_expected_cost == 0.0
    assert report.lambda_chance == 0.0


def test_degenerate_single_action_chain():
    m = make_chain(
        ChainSpec(branches=(ChainBranch("only", 1.5, ((1.0, (0.0,)),)),), budgets=(1.0,))
    )
    assert unconstrained_value(m)[0] == worst_case_value(m, 1.0)[0] == 1.5


@pytest.mark.parametrize("lam", [0.0, 0.3, 2.0])
def test_solver_matches_oracle_on_every_fixture(lam):
    for f in fixture_pack():
        K = f.cmdp.n_constraints
        vt = backward_induction(build_extended(f.cmdp, [lam] * K, [RN] * K, f.quantum))
        value, policy = vt.initial_value, vt.greedy_policy(f.cmdp.n_actions)
        trajs = enumerate_trajectories(f.cmdp, policy, f.quantum)
        st = stats(trajs, f.cmdp, [lam] * K, [RN] * K)
        assert abs(value - st.penalized_objective) <= 1e-9, f.name


def test_value_ties_break_to_the_lowest_action_index():
    m = make_chain(
        ChainSpec(
            branches=(
                ChainBranch("twin_a", 1.0, ((1.0, (0.0,)),)),
                ChainBranch("twin_b", 1.0, ((1.0, (0.0,)),)),
            ),
            budgets=(2.0,),
        )
    )
    policy = backward_induction(build_extended(m, [1.0], [RN], 1.0)).greedy_policy(m.n_actions)
    assert policy.table()[(0, 0, (0,))].index(1.0) == 0


def test_greedy_layers_cover_the_horizon():
    f = fixture("grid3_det")
    e = build_extended(f.cmdp, [1.0], [RN], f.quantum)
    vt = backward_induction(e)
    assert len(vt.greedy) == f.cmdp.horizon
    for nodes, choice in zip(e.layers, vt.greedy):
        assert len(choice) == len(nodes)
        for a in choice.tolist():
            row = [q for q in range(f.cmdp.n_actions)]
            assert a in row


@pytest.fixture(scope="module")
def desk():
    return make_gridworld(desk_grid(), "exact")


def test_zero_weight_matches_unconstrained_on_the_desk_grid(desk):
    e = build_extended(desk, [0.0], [RN], 0.25)
    plain, _ = unconstrained_value(desk)
    assert abs(backward_induction(e).initial_value - plain) <= 1e-12


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
def test_greedy_policy_evaluates_to_the_optimum_on_the_desk_grid(desk, scheme):
    e = build_extended(desk, [3.0], [scheme], 0.25)
    vt = backward_induction(e)
    value = evaluate_policy(e, vt.greedy_policy(desk.n_actions))
    assert value == pytest.approx(vt.initial_value, abs=1e-9)


def test_worst_case_on_the_desk_grid_names_the_dead_end(desk):
    with pytest.raises(WorstCaseInfeasible, match=r"r4c3@1\.0 with ledger \(4,\) at step 1"):
        worst_case_value(desk, 0.25)


def test_truncated_cost_maximum_on_the_desk_grid(desk):
    assert max_safe_cost(desk, 0, 0.25) == 1.2209444292711176


def test_lambda_bounds_at_another_alpha_runs_no_sweep(monkeypatch):
    calls = []
    for name in ("unconstrained_value", "_sweep", "max_safe_cost"):
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
    m = fixture("grid3_det").cmdp
    first = lambda_bounds(m, 0.25, 0.25)
    assert calls.count("unconstrained_value") == 1 and calls.count("max_safe_cost") == 1
    ran = len(calls)
    second = lambda_bounds(m, 0.05, 0.25)
    assert len(calls) == ran
    assert second.alpha == 0.05 and replace(second, alpha=0.25) == first
    assert (second.gap, second.lambda_expected_cost) == (first.gap, first.lambda_expected_cost)
    # Another quantum is another report.
    lambda_bounds(m, 0.25, 0.125)
    assert calls.count("unconstrained_value") == 2


def test_max_safe_cost_equals_its_one_constraint_copy():
    f = fixture("two_cost_chain")
    models = [(f.cmdp, f.quantum)]
    for grid in (tiny_grid(noise_p=0.0, horizon=4), tiny_grid(noise_p=0.05, horizon=4),
                 tiny_grid(noise_p=0.05, horizon=6), desk_grid()):
        m = make_gridworld(grid, "exact")
        extra = np.where(np.arange(m.n_states) % 3 == 0, 0.25, 0.0)
        models.append((replace(m, costs=np.vstack([m.costs, extra]), budgets=(*m.budgets, 0.75)), 0.25))
    # The reference route: a copy that keeps constraint k alone, swept on its own space.
    for m, quantum in models:
        for k in range(2):
            copy = replace(m, costs=m.costs[k : k + 1], budgets=(m.budgets[k],))
            assert max_safe_cost(m, k, quantum) == max_safe_cost(copy, 0, quantum)
    m = f.cmdp
    for k in range(2):
        assert lambda_bounds(m, 0.5, f.quantum, k).cost_slack == cost_slack(m, k, f.quantum)
    # A second constraint that does not quantise raises from both, on the joint space.
    costs = m.costs.copy()
    costs[1, 0] = 0.3
    odd = Cmdp(transition=m.transition, reward=m.reward, costs=costs, budgets=m.budgets,
               horizon=m.horizon, available=m.available)
    with pytest.raises(QuantizationError, match=r"costs\[1\]\[s=0\]"):
        max_safe_cost(odd, 0, f.quantum)
    with pytest.raises(QuantizationError, match=r"costs\[1\]\[s=0\]"):
        lambda_bounds(odd, 0.5, f.quantum, 0)


# Recorded with a scalar sweep (one Python step per edge): the repr of the
# optimum, a sha256 of the sorted greedy table and the value of a seeded
# random policy, on the desk grid at lambda = 3.
DESK_PINS = {
    PenaltyScheme.RISK_NEUTRAL: (
        "93.26403576726433",
        "f71fd263d2f8e81fb630b0a8e9e3b018c26cd572fca5a7c6f25af0ccba9ee3ba",
        "-13.190135971246082",
    ),
    PenaltyScheme.VALUE_AT_RISK: (
        "91.36898834575555",
        "2e7360905850c9787ab489425c243f07155ecace9b6001e91a99bb509f7501ed",
        "-115.26745782599592",
    ),
    PenaltyScheme.CONDITIONAL_VALUE_AT_RISK: (
        "93.49054485490836",
        "5773eeff4cb5622c6b955a55a0a45eb30bfe80dfcc0dd5c1d7b4c7d1ddd4621f",
        "-8.245980075071085",
    ),
}


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
def test_desk_grid_results_are_bit_identical_to_the_scalar_sweep(desk, scheme):
    value, greedy_sha, random_value = DESK_PINS[scheme]
    e = build_extended(desk, [3.0], [scheme], 0.25)
    vt = backward_induction(e)
    rows = sorted((t, x, a) for t, (nodes, choice) in enumerate(zip(e.layers, vt.greedy))
                  for x, a in zip(nodes, choice.tolist()))
    assert repr(float(vt.initial_value)) == value
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == greedy_sha
    policy = random_policy(desk, 0.25, random.Random(7))
    assert repr(float(evaluate_policy(e, policy))) == random_value


# The same three pins on the noisy large grid at lambda = 3, recorded from
# the padded (node, action, slot) sweep, and its worst-case dead end.
LARGE_PINS = {
    PenaltyScheme.RISK_NEUTRAL: (
        "84.10625346712992",
        "75ce48afd3cecfb90b254554cd4b72eff2d78dc38a26edb4cc2ac2a89e6453e5",
        "-342.51060926900647",
    ),
    PenaltyScheme.VALUE_AT_RISK: (
        "82.12250507534533",
        "aa2c7288053a973499625895831dd08ec94f099f79e175938e02b4e33a4af2a7",
        "-733.0041976409119",
    ),
    PenaltyScheme.CONDITIONAL_VALUE_AT_RISK: (
        "84.48398776972468",
        "104cc63b39eaf8e766ce12589981180986084d6d521f5b4f062bdfe849968069",
        "-336.5240787839927",
    ),
}


@pytest.fixture(scope="module")
def large():
    return make_gridworld(large_grid(), "exact")


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
def test_large_grid_results_are_bit_identical_to_the_padded_sweep(large, scheme):
    value, greedy_sha, random_value = LARGE_PINS[scheme]
    e = build_extended(large, [3.0], [scheme], 0.25)
    vt = backward_induction(e)
    rows = sorted((t, x, a) for t, (nodes, choice) in enumerate(zip(e.layers, vt.greedy))
                  for x, a in zip(nodes, choice.tolist()))
    assert repr(float(vt.initial_value)) == value
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == greedy_sha
    policy = random_policy(large, 0.25, random.Random(7))
    assert repr(float(evaluate_policy(e, policy))) == random_value
    with pytest.raises(WorstCaseInfeasible) as exc:
        worst_case_value(large, 0.25)
    assert str(exc.value) == ("worst-case constrained problem is infeasible: "
                              "no feasible action at r7c6@1.0 with ledger (4,) at step 1")


# The three pins on the noise-free large grid at lambda = 0 (rn), recorded
# from a sweep that ran Layer.backup at every one of the 200 epochs.
LARGE_NOISE_FREE_PINS = (
    "92.99999999999997",
    "2c8a1725d757af450ebc5e23301bfcf84fccfb09b2b6517360fd22c05736b457",
    "-126.44944178021731",
)


def test_noise_free_large_grid_results_are_bit_identical_to_the_full_sweep():
    value, greedy_sha, random_value = LARGE_NOISE_FREE_PINS
    m = make_gridworld(replace(large_grid(), noise_p=0.0), "exact")
    e = build_extended(m, [0.0], [RN], 0.25)
    vt = backward_induction(e)
    rows = sorted((t, x, a) for t, (nodes, choice) in enumerate(zip(e.layers, vt.greedy))
                  for x, a in zip(nodes, choice.tolist()))
    assert repr(float(vt.initial_value)) == value
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == greedy_sha
    policy = random_policy(m, 0.25, random.Random(7))
    assert repr(float(evaluate_policy(e, policy))) == random_value
    # Rows that change below the values' fixed point: uniform over the
    # available actions for t < 100, greedy from there on.
    uniform = [layer.ok.T / layer.ok.sum(axis=0)[:, None] for layer in e.compiled[:100]]
    mixed = TabularPolicy(e.layers, (*uniform, *vt.greedy_policy(m.n_actions).rows[100:]))
    assert repr(evaluate_policy(e, mixed)) == "5.031257389392898"


def test_a_reward_scale_that_changes_below_the_fixed_point_is_charged():
    # gamma^t underflows to 0.0 from t = 2: epochs 5..2 share their inputs,
    # epochs 1 and 0 do not.
    m = Cmdp(transition=[[[1.0]]], reward=[[1.0]], costs=[[0.0]], budgets=(1.0,), horizon=6,
             discount=1e-200)
    assert backward_induction(build_extended(m, [0.0], [RN], 1.0)).initial_value == 1.0
    assert unconstrained_value(m)[0] == 1.0


def test_an_epoch_with_the_last_computed_inputs_is_reused(monkeypatch, large, desk):
    calls = []
    real = Layer.backup
    monkeypatch.setattr(Layer, "backup", lambda layer, w, scale: calls.append(1) or real(layer, w, scale))

    def backups(m, scheme, lam=3.0, policy=None):
        e = build_extended(m, [lam], [scheme], 0.25)
        calls.clear()
        vt = backward_induction(e)
        counts = [len(calls)]
        calls.clear()
        evaluate_policy(e, policy or vt.greedy_policy(m.n_actions))
        return counts + [len(calls)]

    # From about epoch 150 down, V(t+1) of rn and cvar is bitwise V(t+2) on the
    # shared layer; var builds a new penalty table every epoch.
    assert backups(large, RN) == [76, 76]
    assert backups(large, PenaltyScheme.CONDITIONAL_VALUE_AT_RISK) == [76, 76]
    assert backups(large, PenaltyScheme.VALUE_AT_RISK) == [200, 200]
    # A seeded random policy's rows differ between epochs.
    assert backups(large, RN, policy=random_policy(large, 0.25, random.Random(7)))[1] == 200
    # With discount < 1 the reward scale changes every epoch.
    assert backups(replace(desk, discount=0.9), RN) == [50, 50]
    noise_free = make_gridworld(replace(large_grid(), noise_p=0.0), "exact")
    assert backups(noise_free, RN, 0.0) == [30, 30]
    assert backups(replace(noise_free, discount=0.9), RN, 0.0) == [200, 200]


def masked_model():
    """Start -> safe (a0) or trap (a1); a2 at start and a0 at the trap are
    unavailable and carry the largest reward.  Every available action at the
    trap reaches the pit, whose cost breaks the budget."""
    S, A = 4, 3
    transition = np.zeros((S, A, S))
    transition[0, 0, 1] = transition[0, 1, 2] = transition[0, 2, 1] = 1.0
    transition[1, :, 1] = 1.0
    transition[2, 0, 1] = transition[2, 1, 3] = transition[2, 2, 3] = 1.0
    transition[3, :, 3] = 1.0
    reward = np.zeros((S, A))
    reward[0] = (1.0, 2.0, 10.0)
    reward[2, 0] = 10.0
    available = np.ones((S, A), dtype=bool)
    available[0, 2] = available[2, 0] = False
    return Cmdp(transition=transition, reward=reward, costs=[[0.0, 0.0, 0.0, 5.0]],
                budgets=(1.0,), horizon=2, available=available,
                state_names=("start", "safe", "trap", "pit"))


def test_unavailable_actions_are_never_greedy():
    m = masked_model()
    e = build_extended(m, [0.0], [RN], 1.0)
    vt = backward_induction(e)
    assert vt.greedy[0][e.layers[0].index((0, (0,)))] == 1
    assert vt.greedy[1][e.layers[1].index((2, (0,)))] == 1
    assert vt.initial_value == 2.0
    value, policy = worst_case_value(m, 1.0)
    assert value == 1.0
    assert policy.table()[(0, 0, (0,))] == [1.0, 0.0, 0.0]
    # Both available actions at the trap are -inf: the first available wins.
    assert policy.table()[(1, 2, (0,))] == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("model", ["desk", "masked"])
def test_layer_backup_and_push_are_the_per_edge_loops(request, model):
    """On every distinct layer below T: ``backup`` is the scalar recursion
    over ``m.successors`` (bit for bit), and ``push`` the per-edge sum into
    each arrival, found by its (state, ledger) in the next layer."""
    m, quantum = (request.getfixturevalue("desk"), 0.25) if model == "desk" else (masked_model(), 1.0)
    e = augment(m, quantum)
    advance = ledger_rule(m, quantum)
    rng = np.random.default_rng(11)
    seen = set()
    for t in range(m.horizon):
        layer, nodes = e.compiled[t], e.layers[t]
        if id(layer) in seen:
            continue
        seen.add(id(layer))
        after = {x: j for j, x in enumerate(e.layers[t + 1])}
        w = rng.normal(size=(len(layer.cost), m.n_states))
        weight = rng.random((m.n_actions, len(nodes)))
        scale = float(rng.random())
        backup = np.full((m.n_actions, len(nodes)), -math.inf)
        pushed = np.zeros(len(after))
        for i, ((s, ledger), l) in enumerate(zip(nodes, layer.ledger.tolist())):
            for a in m.actions_at(s):
                acc = scale * m.reward[s, a]
                for s2, p in m.successors(s, a):
                    acc += p * w[l, s2]
                    pushed[after[s2, advance(ledger, s2)]] += weight[a, i] * p
                backup[a, i] = acc
        assert np.array_equal(layer.backup(w, scale), backup)
        # push sums slot-major, the loop node by node: float64 rounding alone apart.
        assert np.allclose(layer.push(weight, len(after)), pushed, rtol=1e-13, atol=0.0)


def test_a_policy_over_another_space_is_rejected():
    policy = random_policy(two_action_chain(), 1.0, random.Random(1))
    e = build_extended(fixture("three_branch_chain").cmdp, [1.0], [RN], 1.0)
    with pytest.raises(ValueError, match="another augmented space"):
        evaluate_policy(e, policy)


def test_a_reachable_nan_row_is_named():
    f = fixture("grid3_det")
    e = build_extended(f.cmdp, [1.0], [RN], f.quantum)
    greedy = backward_induction(e).greedy_policy(f.cmdp.n_actions)
    # The node the greedy policy reaches at step 1, and nothing else, loses its row.
    table = greedy.table()
    after = enumerate_trajectories(f.cmdp, greedy, f.quantum)[0].states[1]
    t, s, ledger = next(key for key in table if key[0] == 1 and key[1] == after)
    rows = [r.copy() for r in greedy.rows]
    rows[1][e.layers[1].index((s, ledger))] = np.nan
    holed = TabularPolicy(greedy.layers, tuple(rows))
    named = re.escape(f"no row for augmented state {(t, s, ledger)}")
    with pytest.raises(PolicyUndefined, match=named):
        evaluate_policy(e, holed)
    with pytest.raises(PolicyUndefined, match=named):
        enumerate_trajectories(f.cmdp, holed, f.quantum)


def test_a_reachable_row_with_one_nan_entry_is_named():
    f = fixture("grid3_det")
    e = build_extended(f.cmdp, [1.0], [RN], f.quantum)
    greedy = backward_induction(e).greedy_policy(f.cmdp.n_actions)
    after = enumerate_trajectories(f.cmdp, greedy, f.quantum)[0].states[1]
    i, (s, ledger) = next((i, x) for i, x in enumerate(e.layers[1]) if x[0] == after)
    rows = [r.copy() for r in greedy.rows]
    # The row keeps all its mass on the greedy action; an action it never takes reads NaN.
    rows[1][i, np.flatnonzero(rows[1][i] == 0.0)[0]] = np.nan
    holed = TabularPolicy(greedy.layers, tuple(rows))
    with pytest.raises(PolicyUndefined, match=re.escape(f"no row for augmented state {(1, s, ledger)}")):
        evaluate_policy(e, holed)


def masked_rows(e, at_start, at_trap):
    """``masked_model``'s rows: ``at_start`` and ``at_trap`` at its two decision
    nodes, uniform elsewhere."""
    rows = [np.full((len(nodes), 3), 1 / 3) for nodes in e.layers[:-1]]
    rows[0][0], rows[1][e.layers[1].index((2, (0,)))] = at_start, at_trap
    return tuple(rows)


# Unchecked, each row is scored: on the chain by ``evaluate_policy`` and the
# oracle alike (-2.0, violation probability 1.5), so no cross-check sees it;
# on ``masked_model`` at +inf and at 1.0.
@pytest.mark.parametrize("model, bad", [
    ("chain", [-0.5, 1.5]),
    ("masked", [-0.5, 1.5, 0.0]),
    ("masked", [0.0, 0.5, 0.0]),
])
def test_a_row_that_is_not_a_distribution_is_rejected_where_it_is_built(model, bad):
    if model == "chain":
        layers, rows, node = augment(two_action_chain(), 1.0).layers, (np.array([bad]),), (0, 0, (0,))
    else:
        e = augment(masked_model(), 1.0)
        layers, rows, node = e.layers, masked_rows(e, [1.0, 0.0, 0.0], bad), (1, 2, (0,))
    with pytest.raises(ValueError, match=re.escape(f"policy row at augmented state {node} "
                                                   f"is not a distribution: {bad}")):
        TabularPolicy(layers, rows)


def test_the_first_bad_row_in_layer_order_is_named_and_nan_rows_pass():
    e = augment(masked_model(), 1.0)
    with pytest.raises(ValueError, match=re.escape("at augmented state (0, 0, (0,))")):
        TabularPolicy(e.layers, masked_rows(e, [0.0, 1.5, 0.0], [0.0, 0.5, 0.0]))
    # A row holding NaN is no row, whatever its other entries; a sum within MASS_TOL of 1 passes.
    TabularPolicy(e.layers, masked_rows(e, [0.0, 1.0, 1e-10], [np.nan, 2.0, -1.0]))
    with pytest.raises(ValueError, match=re.escape("at augmented state (0, 0, (0,))")):
        TabularPolicy(e.layers, masked_rows(e, [0.0, 1.0, 1e-8], [1.0, 0.0, 0.0]))


def test_evaluate_policy_scores_the_worst_case_policy():
    """The worst-case policy's rows are NaN at violated nodes, which it never
    reaches; evaluating it gives the worst-case value on every feasible model."""
    models = [(f.name, f.cmdp, f.quantum) for f in fixture_pack()] + [
        ("desk, noise-free", make_gridworld(replace(desk_grid(), noise_p=0.0), "exact"), 0.25),
        ("large, noise-free", make_gridworld(replace(large_grid(), noise_p=0.0), "exact"), 0.25),
    ]
    holed = []
    for name, m, quantum in models:
        try:
            value, policy = worst_case_value(m, quantum)
        except WorstCaseInfeasible:
            continue
        K = m.n_constraints
        e = build_extended(m, [0.0] * K, [RN] * K, quantum)
        assert evaluate_policy(e, policy) == value, name
        if any(np.isnan(rows).any() for rows in policy.rows):
            holed.append(name)
    assert holed == ["grid3_det", "desk, noise-free", "large, noise-free"]


def test_nan_rows_off_the_policy_pass_and_the_first_reached_is_named():
    f = fixture("grid3_det")
    e = build_extended(f.cmdp, [1.0], [RN], f.quantum)
    greedy = backward_induction(e).greedy_policy(f.cmdp.n_actions)
    advance = ledger_rule(f.cmdp, f.quantum)
    reached = set()
    for traj in enumerate_trajectories(f.cmdp, greedy, f.quantum):
        ledger = advance((0,), traj.states[0])
        for t, s in enumerate(traj.states[:-1]):
            reached.add((t, s, ledger))
            ledger = advance(ledger, traj.states[t + 1])

    def holed(where):
        rows = [r.copy() for r in greedy.rows]
        for t, nodes in enumerate(e.layers[:-1]):
            for i, (s, ledger) in enumerate(nodes):
                if where(t, s, ledger):
                    rows[t][i] = np.nan
        return TabularPolicy(greedy.layers, tuple(rows))

    off_path = holed(lambda t, s, ledger: (t, s, ledger) not in reached)
    assert evaluate_policy(e, off_path) == evaluate_policy(e, greedy)
    # Every reached node from step 1 on loses its row: the lowest index of layer 1 is named.
    first = min((e.layers[1].index((s, ledger)), (1, s, ledger)) for t, s, ledger in reached if t == 1)[1]
    with pytest.raises(PolicyUndefined, match=re.escape(f"no row for augmented state {first}")):
        evaluate_policy(e, holed(lambda t, s, ledger: t >= 1 and (t, s, ledger) in reached))


def test_probability_on_an_unavailable_action_is_named_where_reached():
    m = masked_model()
    e = build_extended(m, [0.0], [RN], 1.0)
    start, trap = e.layers[0].index((0, (0,))), e.layers[1].index((2, (0,)))

    def policy(at_start, at_trap):
        rows = [np.full((len(nodes), m.n_actions), 1 / 3) for nodes in e.layers[:-1]]
        rows[0][start], rows[1][trap] = at_start, at_trap
        return TabularPolicy(e.layers, tuple(rows))

    uniform = policy([1 / 3] * 3, [1 / 3] * 3)
    with pytest.raises(ValueError, match=re.escape("unavailable action at augmented state (0, 0, (0,))")):
        evaluate_policy(e, uniform)
    with pytest.raises(IncompleteMass):  # the oracle's route: the mass on a2 at start goes nowhere
        stats(enumerate_trajectories(m, uniform, 1.0), m)
    with pytest.raises(ValueError, match=re.escape("unavailable action at augmented state (1, 2, (0,))")):
        evaluate_policy(e, policy([0.0, 1.0, 0.0], [0.5, 0.5, 0.0]))
    # A row the policy never reaches passes, as a NaN row does.
    assert evaluate_policy(e, policy([1.0, 0.0, 0.0], [1 / 3] * 3)) == 1.0
    assert evaluate_policy(e, policy([0.0, 1.0, 0.0], [0.0, 0.5, 0.5])) == 2.0


def dead_end_by_walk(m, quantum):
    """Independent route: a scalar walk along feasible actions, those with no
    successor in a violated ledger, naming the first node it reaches (layer
    by layer, lowest index first) that has none."""
    e = augment(m, quantum)
    advance = ledger_rule(m, quantum)
    if VIOLATED in e.layers[0][0][1]:
        return f"initial state {m.state_name(m.s0)}"
    frontier = set(e.layers[0])
    for t in range(m.horizon):
        reached = set()
        for s, ledger in e.layers[t]:
            if (s, ledger) not in frontier:
                continue
            feasible = [a for a in m.actions_at(s)
                        if all(VIOLATED not in advance(ledger, s2) for s2, _p in m.successors(s, a))]
            if not feasible:
                return f"{m.state_name(s)} with ledger {ledger} at step {t}"
            reached.update((s2, advance(ledger, s2)) for a in feasible for s2, _p in m.successors(s, a))
        frontier = reached
    raise AssertionError("no dead end along feasible actions")


@settings(max_examples=200)
@given(small_cmdps())
def test_worst_case_is_scored_exactly_or_names_the_walked_dead_end(m):
    try:
        value, policy = worst_case_value(m, 0.5)
    except WorstCaseInfeasible as exc:
        assert str(exc) == ("worst-case constrained problem is infeasible: "
                            f"no feasible action at {dead_end_by_walk(m, 0.5)}")
        return
    K = m.n_constraints
    assert evaluate_policy(build_extended(m, [0.0] * K, [RN] * K, 0.5), policy) == value


@settings(max_examples=150)
@given(small_cmdps(), st.sampled_from([0.9, 1.0]), st.sampled_from([0.0, 0.5, 3.0]))
def test_exact_identities_hold_on_random_discounted_models(m, discount, lam):
    """Per scheme: the zero weight is the plain DP, and the greedy policy's
    sweep and oracle values are the solve's.  A feasible worst case never
    violates, and its oracle return is the masked value."""
    m = replace(m, discount=discount)
    K = m.n_constraints
    for scheme in PenaltyScheme:
        e = build_extended(m, [lam] * K, [scheme] * K, 0.5)
        vt = backward_induction(e)
        greedy = vt.greedy_policy(m.n_actions)
        if lam == 0.0:
            assert abs(vt.initial_value - unconstrained_value(m)[0]) <= 1e-9
        assert abs(evaluate_policy(e, greedy) - vt.initial_value) <= 1e-9
        oracle = stats(enumerate_trajectories(m, greedy, 0.5), m, [lam] * K, [scheme] * K)
        assert abs(oracle.penalized_objective - vt.initial_value) <= 1e-9, scheme
    try:
        value, policy = worst_case_value(m, 0.5)
    except WorstCaseInfeasible:
        return
    oracle = stats(enumerate_trajectories(m, policy, 0.5), m)
    assert oracle.violation_prob == (0.0,) * K
    assert abs(oracle.expected_return - value) <= 1e-9
