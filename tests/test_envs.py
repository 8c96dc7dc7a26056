import numpy as np
import pytest

from cmdp_forge.envs import (
    ChainBranch,
    ChainSpec,
    GridConfig,
    GridWorldEnv,
    PitCost,
    SampledKernelEnv,
    ascii_map,
    desk_grid,
    make_chain,
    make_gridworld,
    large_grid,
    tiny_grid,
    validate_grid_config,
)
from cmdp_forge.extended import TabularPolicy, augment
from cmdp_forge.fixtures import fixture, two_cost_chain
from cmdp_forge.model import validate_cmdp
from cmdp_forge.oracle import enumerate_trajectories, stats
from cmdp_forge.solver import unconstrained_value, worst_case_value


def always(m, quantum, a):
    """The policy that takes action ``a`` at every node of m's space."""
    layers = augment(m, quantum).layers
    return TabularPolicy(layers, tuple(np.eye(m.n_actions)[[a] * len(nodes)] for nodes in layers[:-1]))


def test_large_layout_parameters():
    cfg = large_grid()
    assert (cfg.width, cfg.height) == (8, 8)
    assert cfg.noise_p == 0.05
    assert cfg.goal_reward == 100.0
    assert cfg.step_reward == -1.0
    assert cfg.pit_cost.kind == "uniform" and (cfg.pit_cost.lo, cfg.pit_cost.hi) == (1.0, 1.5)
    assert cfg.horizon == 200
    assert cfg.c_max == 2.0
    assert len(cfg.pits) == 18
    assert validate_grid_config(cfg) == []
    # The direct bottom-row walk hits pits; the long way round stays clean.
    bottom = {(7, c) for c in range(1, 7)}
    assert bottom <= set(cfg.pits)
    safe_route = [(r, 7) for r in range(3, 8)] + [(3, c) for c in range(8)] + [(r, 0) for r in range(3, 8)]
    assert not (set(safe_route) & set(cfg.pits))


def test_exact_kernel_is_a_valid_model():
    m = make_gridworld(tiny_grid(), "exact")
    assert validate_cmdp(m) == []
    # 8 plain cells plus three copies of the single pit.
    assert m.n_states == 11


def test_two_cell_grid_without_pits_is_the_trivial_task():
    cfg = GridConfig(
        width=2, height=1, start=(0, 1), goal=(0, 0), pits=(),
        pit_cost=PitCost.uniform(1.0, 1.5), noise_p=0.0,
        step_reward=0.0, goal_reward=100.0, horizon=1, c_max=1.0,
    )
    m = make_gridworld(cfg, "exact")
    value, greedy = unconstrained_value(m)
    assert value == 100.0


def test_short_path_expected_cost_is_the_support_mean():
    f = fixture("grid3_det")
    m = f.cmdp
    # Left twice from the start crosses the pit and enters the goal.
    policy = always(m, f.quantum, 3)
    st = stats(enumerate_trajectories(m, policy, f.quantum), m)
    assert st.expected_cost[0] == pytest.approx(1.25, abs=1e-12)
    assert f.cmdp.budgets[0] == 0.75  # crossing always violates on this fixture
    assert st.violation_prob[0] == 1.0


def test_exact_support_mean_matches_uniform_mean():
    cost = PitCost.uniform(1.0, 1.5)
    support = cost.exact_support()
    assert sum(v * w for v, w in support) == (cost.lo + cost.hi) / 2.0 == 1.25
    assert [v for v, _ in support] == [1.0, 1.25, 1.5]


def test_sampled_frequencies_match_exact_kernel():
    cfg = tiny_grid(noise_p=0.05, horizon=6)
    m = make_gridworld(cfg, "exact")
    env = GridWorldEnv(cfg, seed=123)

    # Start cell, action left (towards the pit): compare cell-arrival
    # frequencies with the kernel mass summed over pit copies.
    start_state = m.s0
    draws = 100_000
    counts: dict[int, int] = {}
    for _ in range(draws):
        env.reset()
        (s2, _c, _d), _r, _done = env.step(3)
        counts[s2] = counts.get(s2, 0) + 1

    cell_of = {}
    for i, name in enumerate(m.state_names):
        cell = name.split("@")[0]
        cell_of.setdefault(cell, []).append(i)
    for cell, ids in cell_of.items():
        p_exact = sum(m.transition[start_state, 3, j] for j in ids)
        r, c = int(cell[1]), int(cell[3])
        p_sampled = counts.get(r * cfg.width + c, 0) / draws
        assert abs(p_sampled - p_exact) <= 0.01, cell


def test_sampled_pit_cost_stays_in_the_interval():
    env = GridWorldEnv(tiny_grid(), seed=7)
    costs = []
    for _ in range(200):
        env.reset()
        (s, c, d), _r, _done = env.step(3)  # left into the pit (modulo noise)
        if d > 0:
            costs.append(d)
    assert costs and all(1.0 <= d <= 1.5 for d in costs)


def test_goal_absorbs_and_ends_the_episode():
    cfg = tiny_grid(noise_p=0.0, horizon=9)
    env = GridWorldEnv(cfg, seed=1)
    env.reset()
    (s, c, d), r, done = env.step(3)
    (s, c, d), r, done = env.step(3)
    assert done and r == 99.0


def test_ascii_map_marks_everything():
    art = ascii_map(desk_grid())
    assert art.splitlines()[4] == "G###S"
    assert art.splitlines()[3] == "..#.."


def test_invalid_grid_configs_are_listed():
    with pytest.raises(ValueError) as exc:
        GridConfig(
            width=3, height=3, start=(2, 2), goal=(2, 2), pits=((5, 5), (2, 2)),
            pit_cost=PitCost.uniform(1.5, 1.0), noise_p=1.0, horizon=0, c_max=0.0,
        )
    problems = str(exc.value).split("; ")
    for needle in ("coincide", "outside", "noise_p", "horizon", "c_max", "interval"):
        assert any(needle in p for p in problems), needle


def test_chain_spec_validation():
    # The spec refuses the one problem the model cannot name ...
    with pytest.raises(ValueError, match=r"^branch 'a': outcome has 2 costs for 1 budgets$"):
        ChainSpec(branches=(ChainBranch("a", 1.0, ((1.0, (0.0, 1.0)),)),), budgets=(1.0,))
    # ... and the model's own validator names the rest.
    with pytest.raises(ValueError, match=r"^invalid model: transition\[s=0,a=0\]: row sums to 0.5$"):
        make_chain(ChainSpec(branches=(ChainBranch("a", 1.0, ((0.5, (0.0,)),)),), budgets=(1.0,)))
    with pytest.raises(ValueError, match=r"^invalid model: available\[s=0\]: no available action$"):
        make_chain(ChainSpec(branches=(), budgets=(1.0,)))


def test_two_constraint_chain_shape():
    m = two_cost_chain()
    assert m.n_constraints == 2
    assert validate_cmdp(m) == []
    # No branch violates both budgets at once; the safe branch violates none.
    assert worst_case_value(m, 1.0)[0] == 1.0


def test_kernel_env_matches_oracle_distribution():
    f = fixture("stochastic_chain")
    env = SampledKernelEnv(f.cmdp, seed=42)
    risky_costs = []
    for _ in range(40_000):
        env.reset()
        (s, c, d), r, done = env.step(1)
        risky_costs.append(c)
    mean = sum(risky_costs) / len(risky_costs)
    # Oracle says the risky branch costs 3 with probability one half.
    assert abs(mean - 1.5) <= 0.05


def test_longer_horizon_chain_pads_costs_once():
    spec = ChainSpec(
        branches=(ChainBranch("risky", 2.0, ((1.0, (3.0,)),)),),
        budgets=(2.0,),
        horizon=3,
    )
    m = make_chain(spec)
    policy = always(m, 1.0, 0)
    st = stats(enumerate_trajectories(m, policy, 1.0), m)
    assert st.expected_cost[0] == 3.0  # landing cost accrues exactly once
