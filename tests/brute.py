"""Brute-force reference code for the tests: one path's cost, return and
penalty total, each walked on its own; every deterministic policy of a small
model, scored by the trajectory oracle; and a strategy drawing such models.
None of it is part of the package; the package's own argument for
optimality at a level is weak duality (``verification._breakpoint_check``).
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from cmdp_forge.extended import TabularPolicy, augment
from cmdp_forge.model import Cmdp, Trajectory, discount_powers
from cmdp_forge.oracle import enumerate_trajectories, stats
from cmdp_forge.penalties import PenaltyScheme, penalty_amount
from cmdp_forge.verification import LEVEL_FIELD, TOL, _frontier


def trajectory_cost(traj: Trajectory, m: Cmdp, k: int = 0) -> float:
    """Total cost of constraint k over all visited states, terminal included."""
    if not (0 <= k < m.n_constraints):
        raise IndexError(f"constraint index {k} outside 0..{m.n_constraints - 1}")
    row = m.costs[k]
    return math.fsum(row[s] for s in traj.states)


def discounted_return(traj: Trajectory, m: Cmdp) -> float:
    """Discounted task return; the terminal step contributes no reward."""
    pows = discount_powers(m.discount, max(len(traj.actions), 1))
    return math.fsum(
        pows[t] * m.reward[traj.states[t], a] for t, a in enumerate(traj.actions)
    )


def trajectory_penalty_total(
    traj: Trajectory, m: Cmdp, k: int, scheme: PenaltyScheme, lam: float
) -> float:
    """Sum of the literal per-epoch penalty amounts along one path.

    Walks the per-epoch case table directly: the running total before each
    state is a plain float accumulation, one assessment per visited state
    including the terminal one.
    """
    row = m.costs[k].tolist()
    total = 0.0
    before = 0.0
    for epoch, s in enumerate(traj.states):
        d = row[s]
        total += penalty_amount(scheme, lam, before, d, m.budgets[k], epoch)
        before += d
    return total


def count_deterministic_policies(m: Cmdp, quantum: float) -> int:
    """The number of deterministic step-indexed policies over reachable
    nodes, or the first partial product above 10**7."""
    count = 1
    for layer in augment(m, quantum).layers[:-1]:
        for (s, _ledger) in layer:
            count *= len(m.actions_at(s))
            if count > 10**7:
                return count
    return count


def enumerate_deterministic_policies(m: Cmdp, quantum: float):
    """Yield every deterministic step-indexed policy over reachable nodes."""
    layers = augment(m, quantum).layers
    pools = [m.actions_at(s) for nodes in layers[:-1] for (s, _ledger) in nodes]
    ends = np.cumsum([len(nodes) for nodes in layers[:-1]])
    eye = np.eye(m.n_actions)
    for assignment in itertools.product(*pools):
        choice = np.array(assignment)
        yield TabularPolicy(layers, tuple(eye[part] for part in np.split(choice, ends[:-1])))


def rival_stats(m: Cmdp, quantum: float) -> list:
    """The oracle stats of every deterministic policy; none depends on the weight."""
    return [stats(enumerate_trajectories(m, pol, quantum), m)
            for pol in enumerate_deterministic_policies(m, quantum)]


def summed_level(st_, scheme) -> float:
    """The scheme's level field summed over the constraints."""
    return math.fsum(getattr(st_, LEVEL_FIELD[scheme]))


def better_rival(rivals: list, scheme, level: float, ret: float):
    """(summed level, return) of the first of ``rivals`` at a summed level at
    most ``level`` that returns more than ``ret``, or None if none does."""
    return next(((lv, r.expected_return) for r in rivals
                 if (lv := summed_level(r, scheme)) <= level + TOL and r.expected_return > ret + TOL), None)


def frontier_rivals(f, scheme, rivals: list) -> list:
    """``better_rival`` of each policy on the (f, scheme) frontier."""
    return [better_rival(rivals, scheme, summed_level(st_, scheme), st_.expected_return)
            for _, st_ in _frontier(f, scheme)[1]]


@st.composite
def small_cmdps(draw):
    """S <= 5 and A <= 3 with masked actions, T <= 5, K <= 2; costs, budgets
    and rewards on the 0.5 grid."""
    S, A, T, K = (draw(st.integers(1, n)) for n in (5, 3, 5, 2))
    halves = st.integers(0, 2).map(lambda n: n * 0.5)
    masks = draw(st.lists(st.integers(1, 2 ** A - 1), min_size=S, max_size=S))  # each state keeps an action
    available = np.array([[mask >> a & 1 for a in range(A)] for mask in masks], dtype=bool)
    weights = st.lists(st.integers(0, 3), min_size=S, max_size=S).filter(any)
    transition = np.array([[draw(weights) for _a in range(A)] for _s in range(S)], dtype=float)
    transition /= transition.sum(axis=2, keepdims=True)
    return Cmdp(
        transition=transition,
        reward=np.array(draw(st.lists(halves, min_size=S * A, max_size=S * A))).reshape(S, A) - 0.5,
        costs=[draw(st.lists(halves, min_size=S, max_size=S)) for _k in range(K)],
        budgets=tuple(draw(st.lists(st.integers(1, 8).map(lambda n: n * 0.5), min_size=K, max_size=K))),
        horizon=T, s0=draw(st.integers(0, S - 1)), available=available,
    )
