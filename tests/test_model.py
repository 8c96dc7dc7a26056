import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import discounted_return, small_cmdps, trajectory_cost
from cmdp_forge.envs import ChainBranch, ChainSpec, make_chain
from cmdp_forge.fixtures import two_action_chain
from cmdp_forge.model import PROB_TOL, Cmdp, Trajectory, validate_cmdp


def make_line(costs, rewards, horizon=None, discount=1.0, budget=10.0):
    """Single-action corridor s0 -> s1 -> ... -> sn (absorbing at the end)."""
    n = len(costs)
    transition = np.zeros((n, 1, n))
    for s in range(n - 1):
        transition[s, 0, s + 1] = 1.0
    transition[n - 1, 0, n - 1] = 1.0
    reward = np.zeros((n, 1))
    for s, r in enumerate(rewards):
        reward[s, 0] = r
    return Cmdp(
        transition=transition,
        reward=reward,
        costs=np.array([costs]),
        budgets=(budget,),
        horizon=horizon or (n - 1),
        discount=discount,
    )


def test_wellformed_chain_has_no_violations():
    assert validate_cmdp(two_action_chain()) == []


def refused(build) -> list[str]:
    """The problems the Cmdp that ``build()`` makes is refused with."""
    with pytest.raises(ValueError) as exc:
        build()
    message = str(exc.value)
    assert message.startswith("invalid model: ")
    return message.removeprefix("invalid model: ").split("; ")


def test_negative_cost_is_reported():
    problems = refused(lambda: make_line([0.0, -1.0], [0.0, 0.0]))
    assert len(problems) == 1
    assert "costs[0][s=1]" in problems[0] and "-1.0" in problems[0]


def test_broken_transition_row_is_reported():
    base = two_action_chain()
    t = np.array(base.transition)
    t[0, 0] *= 0.9
    problems = refused(lambda: Cmdp(
        transition=t,
        reward=base.reward,
        costs=base.costs,
        budgets=base.budgets,
        horizon=base.horizon,
        available=base.available,
    ))
    assert len(problems) == 1
    assert "transition[s=0,a=0]" in problems[0] and "0.9" in problems[0]

    # Shape breaches are listed like any other problem, not hit as an
    # IndexError: too few cost columns, and a kernel whose successor axis is
    # longer than the state count.
    line = make_line([0.0, 0.0], [0.0, 0.0])
    assert refused(lambda: Cmdp(transition=line.transition, reward=line.reward,
                                costs=np.zeros((1, 1)), budgets=(1.0,), horizon=1)) == [
        "costs: shape (1, 1) inconsistent with 2 states"]
    wide = np.zeros((2, 1, 3))
    wide[:, 0, 2] = 1.0
    assert refused(lambda: Cmdp(transition=wide, reward=line.reward, costs=line.costs,
                                budgets=(1.0,), horizon=1)) == ["transition: shape (2, 1, 3) != (2, 1, 2)"]


def test_model_without_a_constraint_is_refused():
    spec = ChainSpec(branches=(ChainBranch("a", 1.0, ((1.0, ()),)),), budgets=())
    assert refused(lambda: make_chain(spec)) == ["costs: at least one constraint is required"]


def test_the_model_keeps_copies_and_leaves_the_callers_arrays_writable():
    transition = np.zeros((2, 2, 2))
    transition[:, :, 1] = 1.0
    reward = np.array([[1.0, 2.0], [0.0, 0.0]])
    costs = np.array([[0.0, 1.0]])
    available = np.ones((2, 2), dtype=bool)
    m = Cmdp(transition=transition, reward=reward, costs=costs, budgets=(1.0,), horizon=1,
             available=available)
    moves = m.moves
    transition[0, 0] = (0.5, 0.5)
    reward[0, 0] = 9.0
    costs[0, 1] = 5.0
    available[0, 1] = False
    assert m.transition[0, 0].tolist() == [0.0, 1.0] and m.reward[0, 0] == 1.0
    assert m.costs[0, 1] == 1.0 and m.available.all()
    assert m.moves == moves == (((0, ((1, 1.0),)), (1, ((1, 1.0),))),
                                ((0, ((1, 1.0),)), (1, ((1, 1.0),))))
    assert not m.transition.flags.writeable and not m.available.flags.writeable


def kernel_problems(transition, available) -> list[str]:
    """The kernel problems of (transition, available), entry by entry: the
    mask's shape, then states with no action, negative or NaN entries of
    available rows, and available rows that do not sum to one."""
    S, A = transition.shape[:2]
    if available.shape != (S, A):
        return [f"available: shape {available.shape} != {(S, A)}"]
    idle, entries, sums = [], [], []
    for s in range(S):
        if not available[s].any():
            idle.append(f"available[s={s}]: no available action")
        for a in range(A):
            if not available[s, a]:
                continue
            for j in range(S):
                if not transition[s, a, j] >= 0.0:
                    entries.append(f"transition[s={s},a={a},s'={j}]: must be >= 0, got {transition[s, a, j]}")
            total = float(transition[s, a].sum())
            if abs(total - 1.0) > PROB_TOL:
                sums.append(f"transition[s={s},a={a}]: row sums to {total}")
    return idle + entries + sums


@settings(max_examples=120)
@given(small_cmdps(), st.sampled_from(["negative", "row", "idle", "short"]), st.integers(0, 10**6))
def test_kernel_structure_and_problems_match_a_per_entry_reference(m, corruption, pick):
    """``moves``, ``reach`` and ``successors`` are the dense kernel's rows read
    one by one, and a kernel broken one way is refused with exactly the
    problems an entry-by-entry walk lists."""
    S, A = m.n_states, m.n_actions
    moves, reach = [], []
    for s in range(S):
        acts = [(a, tuple((j, float(m.transition[s, a, j])) for j in range(S) if m.transition[s, a, j] != 0.0))
                for a in range(A) if m.available[s, a]]
        seen = []
        for _a, succ in acts:
            seen += [j for j, _p in succ if j not in seen]
        moves.append(tuple(acts))
        reach.append(tuple(seen))
    assert m.moves == tuple(moves) and m.reach == tuple(reach)
    assert all(m.successors(s, a) == succ for s in range(S) for a, succ in moves[s])
    assert all(m.actions_at(s) == [a for a, _succ in moves[s]] for s in range(S))

    transition, available = np.array(m.transition), np.array(m.available)
    s, a = np.argwhere(available)[pick % available.sum()]
    if corruption == "negative":
        transition[s, a, pick % S] = -0.5
    elif corruption == "row":
        transition[s, a, pick % S] += 0.5
    elif corruption == "idle":
        available[s] = False
    else:
        available = available[:-1]
    expected = kernel_problems(transition, available)
    assert expected
    assert refused(lambda: Cmdp(transition=transition, reward=m.reward, costs=m.costs, budgets=m.budgets,
                                horizon=m.horizon, s0=m.s0, available=available)) == expected


LENGTH_MESSAGE = r"trajectory has 2 states and 2 actions; want \|states\| = \|actions\| \+ 1"


def test_trajectory_length_mismatch_rejected():
    with pytest.raises(ValueError, match=LENGTH_MESSAGE):
        Trajectory(states=(0, 1), actions=(0, 0))


def test_trajectory_is_a_checked_immutable_value():
    tau = Trajectory((0, 1, 2), (0, 1), probability=0.25)
    # Equal, with one hash, to a path built field by field from fresh tuples.
    twin = Trajectory(states=tuple([0, 1, 2]), actions=tuple([0, 1]), probability=0.25)
    assert tau == twin and hash(tau) == hash(twin)
    assert [tau] == [Trajectory((0, 1, 2), (0, 1), 0.25)]
    assert tau != Trajectory((0, 1, 2), (0, 1), 0.5)
    assert Trajectory((0,), ()).probability is None
    for name in ("states", "actions", "probability"):
        with pytest.raises(AttributeError):
            setattr(tau, name, getattr(tau, name))
    with pytest.raises(AttributeError):
        tau.extra = 1
    # A copy with one field replaced is checked as well.
    assert tau._replace(probability=0.5) == Trajectory((0, 1, 2), (0, 1), 0.5)
    with pytest.raises(ValueError, match=LENGTH_MESSAGE):
        tau._replace(states=(0, 1))


def test_zero_cost_path():
    m = make_line([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    tau = Trajectory((0, 1, 2), (0, 0))
    assert trajectory_cost(tau, m) == 0.0


def test_single_pit_cost():
    m = make_line([0.0, 1.2, 0.0], [0.0, 0.0, 0.0])
    tau = Trajectory((0, 1, 2), (0, 0))
    assert trajectory_cost(tau, m) == 1.2


def test_two_pit_cost_matches_stepwise_accumulation():
    m = make_line([0.0, 1.0, 1.5, 0.0], [0.0, 0.0, 0.0, 0.0])
    tau = Trajectory((0, 1, 2, 3), (0, 0, 0))
    acc = 0.0
    for s in tau.states:
        acc += m.costs[0, s]
    assert trajectory_cost(tau, m) == acc == 2.5


def test_constraint_index_out_of_range():
    m = make_line([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(IndexError):
        trajectory_cost(Trajectory((0, 1), (0,)), m, k=1)


def test_undiscounted_return_is_plain_sum():
    m = make_line([0.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert discounted_return(Trajectory((0, 1, 2), (0, 0)), m) == 2.0


def test_halved_discount():
    m = make_line([0.0, 0.0, 0.0], [2.0, 2.0, 0.0], discount=0.5)
    assert discounted_return(Trajectory((0, 1, 2), (0, 0)), m) == 3.0


def test_long_success_path_matches_stepwise_oracle():
    # -1 per step, +100 folded into the step entering the goal, discount 0.9.
    rewards = [-1.0] * 9 + [99.0, 0.0]
    m = make_line([0.0] * 11, rewards, discount=0.9)
    tau = Trajectory(tuple(range(11)), (0,) * 10)
    expected = 0.0
    g = 1.0
    for t, a in enumerate(tau.actions):
        expected += g * m.reward[tau.states[t], a]
        g *= 0.9
    assert discounted_return(tau, m) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(100 * 0.9**9 - sum(0.9**t for t in range(10)), abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=8),
    st.integers(min_value=1, max_value=6),
)
def test_cost_additivity_over_segments(costs, cut):
    """Splitting a path in two double-counts exactly the junction state."""
    m = make_line(costs, [0.0] * len(costs), budget=100.0)
    n = len(costs)
    cut = min(cut, n - 1)
    whole = Trajectory(tuple(range(n)), (0,) * (n - 1))
    first = Trajectory(tuple(range(cut + 1)), (0,) * cut)
    second = Trajectory(tuple(range(cut, n)), (0,) * (n - 1 - cut))
    lhs = trajectory_cost(first, m) + trajectory_cost(second, m) - m.costs[0, cut]
    assert math.isclose(lhs, trajectory_cost(whole, m), abs_tol=1e-9)


@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8))
def test_undiscounted_equals_plain_reward_sum(rewards):
    rewards = rewards + [0.0]
    m = make_line([0.0] * len(rewards), rewards)
    tau = Trajectory(tuple(range(len(rewards))), (0,) * (len(rewards) - 1))
    assert math.isclose(
        discounted_return(tau, m), math.fsum(rewards[:-1]), abs_tol=1e-9
    )
