"""Brute-force trajectory enumeration: the ground-truth engine.

Everything here works directly on weighted trajectories: probabilities are
products of policy and transition probabilities along each path, costs and
returns are per-path accumulations, and aggregate statistics are compensated
sums over the full enumeration.  No value recursion is used anywhere, so the
numbers coming out of this module are an independent check on the dynamic
programming solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extended import PolicyUndefined, TabularPolicy, augment, ledger_rule
from .model import Cmdp, Trajectory, discounted_return, trajectory_cost
from .penalties import PenaltyScheme, penalty_amount

MASS_TOL = 1e-9


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap: int, depth: int):
        super().__init__(
            f"trajectory count exceeds the cap of {cap} (reached at depth {depth})"
        )
        self.cap = cap
        self.depth = depth


class IncompleteMass(RuntimeError):
    pass


def enumerate_trajectories(
    m: Cmdp,
    policy: TabularPolicy,
    quantum: float = 0.25,
    cap: int = 1_000_000,
) -> list[Trajectory]:
    """All positive-probability depth-T trajectories of ``policy``.

    The running ledger is tracked only to form policy lookup keys (the
    solver's own ``ledger_rule``) into the policy's (t, s, ledger) table;
    probabilities and costs are pure path products and sums.
    """
    advance = ledger_rule(m, quantum)
    table = policy.table()

    out: list[Trajectory] = []
    states_path = [m.s0]
    actions_path: list[int] = []
    init_ledger = advance((0,) * m.n_constraints, m.s0)

    def walk(s: int, ledger, t: int, prob: float):
        if t == m.horizon:
            if len(out) >= cap:
                raise EnumerationCapExceeded(cap, t)
            out.append(
                Trajectory(tuple(states_path), tuple(actions_path), probability=prob)
            )
            return
        row = table.get((t, s, ledger))
        if row is None:
            raise PolicyUndefined(f"policy has no row for augmented state {(t, s, ledger)}")
        for a in m.actions_at(s):
            pa = row[a]
            if pa == 0.0:
                continue
            actions_path.append(a)
            for s2, p in m.successors(s, a):
                states_path.append(s2)
                walk(s2, advance(ledger, s2), t + 1, prob * pa * p)
                states_path.pop()
            actions_path.pop()

    walk(m.s0, init_ledger, 0, 1.0)
    return out


def trajectory_penalty_total(
    traj: Trajectory, m: Cmdp, k: int, scheme: PenaltyScheme, lam: float
) -> float:
    """Sum of the literal per-epoch penalty amounts along one path.

    Walks the per-epoch case table directly: the running total before each
    state is a plain float accumulation, one assessment per visited state
    including the terminal one.
    """
    row = m.costs[k]
    budget = m.budgets[k]
    total = 0.0
    before = 0.0
    for epoch, s in enumerate(traj.states):
        d = float(row[s])
        total += penalty_amount(scheme, lam, before, d, budget, epoch)
        before += d
    return total


@dataclass(frozen=True)
class OracleStats:
    """Exact weighted statistics of one policy's full trajectory set.

    trunc_above/trunc_below are the unnormalized truncated sums
    sum_{D_k > budget} P * D_k and sum_{D_k <= budget} P * D_k; they add up
    to the expected cost.  cvar_excess is E[(D_k - budget)^+].
    """

    expected_return: float
    expected_cost: tuple[float, ...]
    trunc_above: tuple[float, ...]
    trunc_below: tuple[float, ...]
    violation_prob: tuple[float, ...]
    cvar_excess: tuple[float, ...]
    penalized_objective: float


def stats(
    trajs: list[Trajectory],
    m: Cmdp,
    lambdas=None,
    schemes=None,
) -> OracleStats:
    """Aggregate a complete enumeration into OracleStats.

    Requires total probability mass 1 within ``MASS_TOL``.  When lambdas and
    schemes are given, penalized_objective is the expected penalized return
    under those settings; otherwise it equals the expected return.
    """
    K = m.n_constraints
    mass = math.fsum(t.probability for t in trajs)
    if abs(mass - 1.0) > MASS_TOL:
        raise IncompleteMass(f"trajectory set carries mass {mass}, want 1")
    if lambdas is None:
        lambdas = (0.0,) * K
    if schemes is None:
        schemes = (PenaltyScheme.RISK_NEUTRAL,) * K

    returns = []
    penalized = []
    per_k = [([], [], [], [], []) for _ in range(K)]  # cost, above, below, viol, excess
    for traj in trajs:
        p = traj.probability
        r = discounted_return(traj, m)
        returns.append(p * r)
        pen = r
        for k in range(K):
            d = trajectory_cost(traj, m, k)
            budget = m.budgets[k]
            cost_l, above_l, below_l, viol_l, excess_l = per_k[k]
            cost_l.append(p * d)
            if d > budget:
                above_l.append(p * d)
                viol_l.append(p)
                excess_l.append(p * (d - budget))
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


def random_policy(m: Cmdp, quantum: float, rng) -> TabularPolicy:
    """Random stationary stochastic policy: one row per reachable (s, ledger), every step."""
    e = augment(m, quantum)
    drawn = np.zeros((len(e.states), m.n_actions))
    for row, (s, _ledger) in zip(drawn, e.states):
        acts = m.actions_at(s)
        weights = [rng.random() + 1e-3 for _ in acts]
        total = sum(weights)
        row[acts] = [w / total for w in weights]
    index = {x: i for i, x in enumerate(e.states)}
    return TabularPolicy(e.layers, tuple(drawn[[index[x] for x in nodes]] for nodes in e.layers[:-1]))


def chance_penalty_steps(
    trajs: list[Trajectory], m: Cmdp, k: int, lam: float
) -> float | None:
    """Measured per-trajectory penalty constant of the chance scheme.

    For every violating trajectory the value-at-risk penalties total the
    same multiple of lambda; this returns that multiple (None when no
    trajectory violates).  Raises if the multiples disagree, which would
    falsify the constant-penalty reading of the scheme.
    """
    constants = set()
    for traj in trajs:
        if trajectory_cost(traj, m, k) > m.budgets[k]:
            total = trajectory_penalty_total(
                traj, m, k, PenaltyScheme.VALUE_AT_RISK, lam
            )
            constants.add(round(total / lam, 9))
    if not constants:
        return None
    if len(constants) > 1:
        raise AssertionError(
            f"chance-scheme penalty is not constant across violating "
            f"trajectories: {sorted(constants)}"
        )
    return constants.pop()
