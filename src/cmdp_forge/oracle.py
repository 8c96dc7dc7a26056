"""Brute-force trajectory enumeration: the ground-truth engine.

Everything here works directly on weighted trajectories: probabilities are
products of policy and transition probabilities along each path, costs and
returns are per-path accumulations, and aggregate statistics are compensated
sums over the full enumeration.  No value recursion is used anywhere, so the
numbers coming out of this module are an independent check on the dynamic
programming solver.

A path is a ``Trajectory``, a checked named tuple.  ``enumerate_trajectories``
forms each distinct state path once, as one tuple object that every path
along it shares (665 state paths carry the 170,240 paths of a random policy
on the noisy 3x3 grid at horizon 4), and each node's action path once for
its leaves.  It checks the lengths once per leaf node and builds each leaf
with ``tuple.__new__``, not a Python-level ``Trajectory.__new__`` call.

The enumeration pauses Python's cyclic garbage collector while it walks,
and restores the caller's setting however it ends.  It allocates one
acyclic tuple per path, and with the collector on, the collections that
this many allocations set off re-scan the growing result list again and
again: the walk with per-path constructors took a median 148 ms a draw of
the noisy 3x3 grid's paths, and 105 ms paused (Python 3.11, one Xeon
core).  The walk is handed itself as an argument instead of reading its
own name from the closure, so no cycle holds it and, through it, the
result: a dropped enumeration is freed at once by reference counting.

``stats`` walks one return per run of consecutive paths that share their
actions and every state but the last (the terminal step earns no reward,
so such a run shares its return, in any input order), and computes
everything on the cost side (D_k, and the literal per-epoch penalty walk)
once per distinct state path, over the cost rows read as lists once per
call: those sums read the states alone.  Every float is the one a separate
walk per path gives: the discount powers are one running product, whose
prefix serves every shorter path; each return is one ``math.fsum`` over the
same products as the reference ``discounted_return`` in ``tests/brute.py``;
each cost-side addend is the same product of the path's probability and a
value of its state path.
``math.fsum`` is correctly rounded, so gathering the addends per state path
instead of in path order changes no sum.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from operator import itemgetter, mul

import numpy as np

from .extended import MASS_TOL, PolicyUndefined, TabularPolicy, augment, ledger_rule
from .model import Cmdp, Trajectory, check_lengths, discount_powers
from .penalties import PenaltyScheme, penalty_amount

TRAJECTORY_CAP = 1_000_000  # the most trajectories one enumeration may return


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
) -> list[Trajectory]:
    """All positive-probability depth-T trajectories of ``policy``, in DFS order.

    The running ledger is tracked only to form policy lookup keys (the
    solver's own ``ledger_rule``, kept on the model) into the policy's
    (t, s, ledger) table; probabilities and costs are pure path products
    and sums.  Nodes read the model's ``moves`` and ``reach``.  A node one
    step before the horizon appends its leaves directly, each successor's
    state path formed once for all its actions and interned, so every path
    along one state path holds one tuple.
    Raises EnumerationCapExceeded past TRAJECTORY_CAP paths, and wherever
    ``ledger_rule`` does.
    """
    advance = ledger_rule(m, quantum)
    table = policy.table()
    T = m.horizon
    moves, reach = m.moves, m.reach
    paths: dict[tuple[int, ...], tuple[int, ...]] = {}  # each distinct state path, interned

    out: list[Trajectory] = []
    states_path = [m.s0]
    actions_path: list[int] = []
    new = tuple.__new__  # the leaves' lengths are checked once per node

    def walk(s: int, ledger, t: int, prob: float, walk):
        row = table.get((t, s, ledger))
        if row is None:
            raise PolicyUndefined(f"policy has no row for augmented state {(t, s, ledger)}")
        if t + 1 == T:
            check_lengths(len(states_path) + 1, len(actions_path) + 1)  # each leaf adds one of each
            full = {}  # successor -> its one state path, shared by every action
            for s2 in reach[s]:
                path = (*states_path, s2)
                full[s2] = paths.setdefault(path, path)
        for a, succ in moves[s]:
            if row[a] == 0.0:
                continue
            q = prob * row[a]
            if t + 1 == T:
                if len(out) + len(succ) > TRAJECTORY_CAP:
                    raise EnumerationCapExceeded(TRAJECTORY_CAP, T)
                actions = (*actions_path, a)
                out.extend([new(Trajectory, (full[s2], actions, q * p)) for s2, p in succ])
                continue
            actions_path.append(a)
            for s2, p in succ:
                states_path.append(s2)
                walk(s2, advance(ledger, s2), t + 1, q * p, walk)
                states_path.pop()
            actions_path.pop()

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        walk(m.s0, advance((0,) * m.n_constraints, m.s0), 0, 1.0, walk)
    finally:
        if was_enabled:
            gc.enable()
    return out


def _penalty_walk(states, row: list[float], budget: float, scheme: PenaltyScheme, lam: float) -> float:
    """The literal per-epoch penalty total along ``states``, over a cost row
    read as a list: the running total before each state is a plain float
    accumulation, one assessment per visited state, terminal included."""
    horizon = len(states) - 1
    total = 0.0
    before = 0.0
    for s in states:
        d = row[s]
        total += penalty_amount(scheme, lam, before, d, budget, horizon)
        before += d
    return total


def _cost_side(states, rows: list[list[float]], m: Cmdp, lambdas, schemes
               ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """D_k of every constraint, and the literal penalty total of every k with lambda_k != 0.

    Both read the state path alone, so the callers compute them once per
    distinct state path and reuse them for every path that shares it.
    ``rows`` is ``m.costs`` as lists; each sum is, addend for addend, that
    of the references ``trajectory_cost`` and ``trajectory_penalty_total``
    in ``tests/brute.py``.
    """
    return (
        tuple(math.fsum([row[s] for s in states]) for row in rows),
        tuple(_penalty_walk(states, rows[k], m.budgets[k], schemes[k], lam)
              for k, lam in enumerate(lambdas) if lam != 0.0),
    )


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

    Every probability must be a number >= 0 (else ValueError, naming the
    first path whose probability is not), and the total mass 1 within
    ``MASS_TOL`` (else IncompleteMass).  When lambdas and schemes are given,
    penalized_objective is the expected penalized return under those
    settings; otherwise it equals the expected return.
    """
    K = m.n_constraints
    masses = list(map(itemgetter(2), trajs))
    for i, p in enumerate(masses):
        if p is None or not p >= 0.0:  # NaN fails the comparison
            raise ValueError(f"trajectory {i} with states {trajs[i].states} has probability {p}")
    try:
        mass = math.fsum(masses)
    except OverflowError:  # finite probabilities whose sum is not
        mass = math.inf
    if not abs(mass - 1.0) <= MASS_TOL:
        raise IncompleteMass(f"trajectory set carries mass {mass}, want 1")
    if lambdas is None:
        lambdas = (0.0,) * K
    if schemes is None:
        schemes = (PenaltyScheme.RISK_NEUTRAL,) * K

    # A running product's prefix is the same float, so the powers for the
    # longest path serve every path.
    pows = discount_powers(m.discount, max(1, max(map(len, map(itemgetter(1), trajs)))))
    reward_row = m.reward.tolist().__getitem__
    cost_rows = m.costs.tolist()
    returns = []
    penalized = []
    # Distinct state path -> (its cost side, the probability of every path along it).
    groups: dict[tuple[int, ...], tuple[tuple, list[float]]] = {}
    # A return reads the actions and every state but the last (the terminal
    # step earns no reward), so a run of paths that share both shares it.
    run = None
    for states, actions, p in trajs:
        if run != (head := (states[:-1], actions)):
            run = head
            # pows[t] * reward[s_t][a_t], step by step: the reference discounted_return's addends.
            ret = math.fsum(map(mul, pows, map(list.__getitem__, map(reward_row, states), actions)))
        returns.append(p * ret)
        group = groups.get(states)
        if group is None:
            group = groups[states] = (_cost_side(states, cost_rows, m, lambdas, schemes), [])
        (_ds, pens), probs = group
        r = ret
        for total in pens:
            r -= total
        penalized.append(p * r)
        probs.append(p)

    # fsum is correctly rounded, so the order of its addends does not matter:
    # each constraint's addends are gathered per state path.
    per_k = [([], [], [], [], []) for _ in range(K)]  # cost, above, below, viol, excess
    for (ds, _pens), probs in groups.values():
        for k, d in enumerate(ds):
            cost_l, above_l, below_l, viol_l, excess_l = per_k[k]
            weighted = [p * d for p in probs]
            cost_l += weighted
            if d > m.budgets[k]:
                above_l += weighted
                viol_l += probs
                excess = d - m.budgets[k]
                excess_l += [p * excess for p in probs]
            else:
                below_l += weighted

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

