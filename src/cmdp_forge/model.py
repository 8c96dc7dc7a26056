"""Finite constrained MDP: states, kernel, rewards, per-state costs, budgets.

Conventions used by every module in this package:

  * An episode visits states s_0..s_T (T = ``horizon``) and takes actions at
    steps 0..T-1.  There is no action or task reward at the final step.
  * Cost attaches to states: occupying state s at any step t = 0..T adds
    d(s) to the running total, terminal step included.  A trajectory's total
    cost for constraint k is the sum of d_k over all T+1 visited states.
  * "Violation" is strict: a trajectory violates constraint k when its total
    cost exceeds the budget; a total exactly equal to the budget is safe.
  * Instances are valid (checked once, on construction), read their kernel
    once (``moves``, ``reach``), are frozen and are safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

# Transition rows must sum to one within this tolerance.
PROB_TOL = 1e-12


def discount_powers(gamma: float, n: int) -> list[float]:
    """Return [gamma^0, ..., gamma^(n-1)] via a running product.

    Every module computes discount factors through this helper so that the
    solver and the enumeration oracle agree bit-for-bit.
    """
    out = [1.0]
    for _ in range(n - 1):
        out.append(out[-1] * gamma)
    return out


def inverse_cdf(pairs, u: float):
    """The item whose cumulative weight first reaches u, else the last item.

    The one inverse-CDF rule of every sampled draw: ``pairs`` is a non-empty
    iterable of (item, weight) and ``u`` one uniform variate on [0, 1).
    """
    acc = 0.0
    for item, w in pairs:
        acc += w
        if u <= acc:
            return item
    return item


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Cmdp:
    """A finite constrained MDP.

    transition: (S, A, S) array; row (s, a) is a distribution over successors
        for every available action.
    reward: (S, A) array of task rewards.
    costs: (K, S) array of non-negative per-state costs, one row per
        constraint; K >= 1.
    budgets: K positive cumulative-cost budgets.
    horizon: number of action steps T (episodes visit T+1 states).
    discount: per-step discount in (0, 1].
    available: (S, A) boolean mask, stored in full; None means every action
        is available in every state.
    Construction raises ValueError("invalid model: ...") listing every
    problem ``validate_cmdp`` finds.  One ``np.nonzero`` over the available
    rows then fills ``moves[s]`` (each available action of s with its
    (successor, probability) pairs, as ``successors`` serves them) and
    ``reach[s]`` (s's distinct successors, first-seen order).
    """

    transition: np.ndarray
    reward: np.ndarray
    costs: np.ndarray
    budgets: tuple[float, ...]
    horizon: int
    discount: float = 1.0
    s0: int = 0
    available: np.ndarray | None = None
    state_names: tuple[str, ...] | None = None
    action_names: tuple[str, ...] | None = None
    moves: tuple = field(init=False, repr=False, compare=False)
    reach: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _succ: dict = field(init=False, repr=False, compare=False)  # (s, a) -> its pairs in ``moves``
    # (function name, quantum[, k or scheme]) -> that function's lambda-free
    # result, formed once per model and written only by it:
    # ``extended.ledger_rule``'s, ``augment``'s space (its states, layers and
    # compiled layers, not an ``ExtendedMdp``), ``solver.worst_case_value``'s,
    # ``lambda_bounds``' and ``verification._frontier``'s.  No entry refers
    # back to the model, so a dropped model is freed by reference counting.
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Copies, so the model owns what it freezes and the caller's arrays stay writable.
        object.__setattr__(self, "transition", _frozen(np.array(self.transition, dtype=float)))
        object.__setattr__(self, "reward", _frozen(np.array(self.reward, dtype=float)))
        costs = np.array(self.costs, dtype=float)
        if costs.ndim == 1:
            costs = costs[None, :]
        object.__setattr__(self, "costs", _frozen(costs))
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        available = np.ones((self.n_states, self.n_actions)) if self.available is None else self.available
        object.__setattr__(self, "available", _frozen(np.array(available, dtype=bool)))
        problems = validate_cmdp(self)
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))
        s_of, a_of, s2_of = np.nonzero(self.available[:, :, None] & (self.transition != 0.0))
        pairs = list(zip(s2_of.tolist(), self.transition[s_of, a_of, s2_of].tolist()))
        # Each available row sums to one and each state has an action, so every
        # available (s, a) is one run of entries and every state one run of pairs.
        starts = np.flatnonzero(np.diff(s_of * self.n_actions + a_of, prepend=-1)).tolist()
        succ = {(s, a): tuple(pairs[i:j]) for s, a, i, j in zip(
            s_of[starts].tolist(), a_of[starts].tolist(), starts, starts[1:] + [len(pairs)])}
        moves = tuple(tuple((a, row) for (_s, a), row in run)
                      for _s, run in groupby(succ.items(), lambda item: item[0][0]))
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "reach", tuple(tuple(dict.fromkeys(s2 for _a, row in acts for s2, _p in row))
                                                for acts in moves))
        object.__setattr__(self, "_succ", succ)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.costs.shape[0]

    def actions_at(self, s: int) -> list[int]:
        return [a for a, _succ in self.moves[s]]

    def successors(self, s: int, a: int) -> tuple[tuple[int, float], ...]:
        """Positive-probability (state, probability) pairs for (s, a)."""
        return self._succ[(s, a)]

    def state_name(self, s: int) -> str:
        if self.state_names is not None:
            return self.state_names[s]
        return f"s{s}"


def validate_cmdp(m: Cmdp) -> list[str]:
    """Check every model invariant; return a description of each breach.

    Validation never raises: an empty list means the model is well formed,
    otherwise each entry names the offending field, index and measured value.
    Each kind of breach is listed in ascending index order, kind after kind.
    """
    problems: list[str] = []
    S, A = m.n_states, m.n_actions
    if m.horizon < 1:
        problems.append(f"horizon: must be >= 1, got {m.horizon}")
    if not (0.0 < m.discount <= 1.0):
        problems.append(f"discount: must be in (0, 1], got {m.discount}")
    if not (0 <= m.s0 < S):
        problems.append(f"s0: index {m.s0} outside 0..{S - 1}")
    if m.transition.shape != (S, A, S):
        problems.append(f"transition: shape {m.transition.shape} != {(S, A, S)}")
    if m.reward.shape != (S, A):
        problems.append(f"reward: shape {m.reward.shape} != {(S, A)}")
    else:
        for s, a in np.argwhere(~np.isfinite(m.reward)).tolist():
            problems.append(f"reward[s={s},a={a}]: must be finite, got {m.reward[s, a]}")
    costs_fit = m.costs.shape[1] == S
    if not costs_fit:
        problems.append(f"costs: shape {m.costs.shape} inconsistent with {S} states")
    if m.n_constraints == 0:
        problems.append("costs: at least one constraint is required")
    if len(m.budgets) != m.n_constraints:
        problems.append(f"budgets: {len(m.budgets)} entries for {m.n_constraints} cost functions")
    for k, b in enumerate(m.budgets):
        if not 0.0 < b < math.inf:
            problems.append(f"budgets[{k}]: must be finite and > 0, got {b}")
    for k, s in np.argwhere(~((m.costs >= 0.0) & (m.costs < math.inf)) & costs_fit).tolist():
        problems.append(f"costs[{k}][s={s}]: must be finite and >= 0, got {m.costs[k, s]}")
    if m.available.shape != (S, A):
        return problems + [f"available: shape {m.available.shape} != {(S, A)}"]
    for s in np.flatnonzero(~m.available.any(axis=1)).tolist():
        problems.append(f"available[s={s}]: no available action")
    # NaN fails ">= 0", inf fails the sum, and a NaN sum is no breach of its own.
    for s, a, j in np.argwhere(m.available[:, :, None] & ~(m.transition >= 0.0)).tolist():
        problems.append(f"transition[s={s},a={a},s'={j}]: must be >= 0, got {m.transition[s, a, j]}")
    totals = m.transition.sum(axis=2)
    for s, a in np.argwhere(m.available & (abs(totals - 1.0) > PROB_TOL)).tolist():
        problems.append(f"transition[s={s},a={a}]: row sums to {float(totals[s, a])}")
    return problems


def check_lengths(n_states: int, n_actions: int) -> None:
    """Raise ValueError unless a path of ``n_states`` states takes ``n_actions`` actions."""
    if n_states != n_actions + 1:
        raise ValueError(
            f"trajectory has {n_states} states and "
            f"{n_actions} actions; want |states| = |actions| + 1"
        )


class Trajectory(NamedTuple("Trajectory", [("states", tuple[int, ...]),
                                            ("actions", tuple[int, ...]),
                                            ("probability", "float | None")])):
    """One path s_0..s_T with the T actions taken along it.

    ``probability`` is the product of policy and transition probabilities
    along the path, as the oracle's enumeration forms it.  A named tuple:
    immutable, hashable and cheap to build, so paths may share their state
    and action tuples.  Every way of building one checks the lengths: the
    constructor per path, and the enumerator once per leaf node, whose
    leaves all extend one state path and one action path by one entry each.
    """

    __slots__ = ()

    def __new__(cls, states, actions, probability=None):
        check_lengths(len(states), len(actions))
        return tuple.__new__(cls, (states, actions, probability))

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through it
        return cls(*iterable)
