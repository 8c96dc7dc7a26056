"""Finite-horizon backward induction over the budget-augmented MDP.

Values are kept in absolute-time form: V(t, x) is the optimal expectation of
sum_{u>=t} gamma^u r_u minus all penalty assessments from epoch t+1 on.  The
epoch-0 assessment is a constant added at the end, so the reported objective
equals the expected penalized trajectory return exactly, for any discount,
with no gamma^-t factors anywhere.

Every exact quantity here is one layered backward sweep (``_sweep``) over
the augmented MDP: ``backward_induction``, ``evaluate_policy``,
``worst_case_value`` and ``max_safe_cost`` differ only in the terminal
payoff, the action operator (max with TIE_TOL ties, or a policy's
expectation), whether step rewards count and the value pinned to a node
whose ledger is already VIOLATED.  ``unconstrained_value`` is coded apart on
purpose: it is the independent route the zero-penalty check compares with.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .extended import VIOLATED, AugState, ExtendedMdp, build_extended
from .model import Cmdp, TabularPolicy, deterministic_policy, discount_powers
from .penalties import PenaltyScheme

# Action values within this distance of the row maximum count as ties;
# the lowest action index among them wins, for reproducible reports.
TIE_TOL = 1e-12


class WorstCaseInfeasible(RuntimeError):
    """No policy keeps every positive-probability trajectory within budget."""

    def __init__(self, state_desc: str):
        super().__init__(
            f"worst-case constrained problem is infeasible: no feasible action at {state_desc}"
        )
        self.state_desc = state_desc


@dataclass(frozen=True)
class ValueTable:
    """Greedy action per (step, augmented state) and the optimal objective.

    greedy[t] maps the augmented states of layer t < T to their action.
    """

    greedy: list[dict[AugState, int]]
    initial_value: float

    def greedy_policy(self, n_actions: int) -> TabularPolicy:
        choices = {}
        for t, layer in enumerate(self.greedy):
            for x, a in layer.items():
                choices[(t, x[0], x[1])] = a
        return deterministic_policy(choices, n_actions, time_dependent=True)


def _pick(best_actions: list[tuple[int, float]]) -> tuple[int, float]:
    top = max(v for _, v in best_actions)
    for a, v in best_actions:
        if v >= top - TIE_TOL:
            return a, top
    raise AssertionError("unreachable: empty action list")


def _sweep(
    e: ExtendedMdp,
    terminal: Callable[[tuple[int, ...]], float],
    policy: TabularPolicy | None = None,
    rewards: bool = True,
    violated: float | None = None,
) -> tuple[dict[AugState, float], list[dict[AugState, int]]]:
    """One backward pass over e's layers; returns (V(0, .), greedy).

    terminal(ledger) is the payoff at layer T.  When ``violated`` is given,
    a node whose ledger holds VIOLATED is worth that constant at every layer
    and gets no greedy action.  Without a policy a node takes the max over
    its actions (``_pick``); with one, the policy-weighted expectation.  An
    action's sum stops once it reaches -inf, which is how masking propagates.
    Only the layer being filled and the one after it are held.
    """
    m = e.base
    T = m.horizon
    pows = discount_powers(m.discount, T)
    neg_inf = -math.inf
    # Per state: (action, raw reward, successors), shared by every layer.
    moves = {}
    greedy: list[dict[AugState, int]] = [dict() for _ in range(T)]
    vnext = {
        x: violated if violated is not None and VIOLATED in x[1] else terminal(x[1])
        for x in e.layers[T]
    }
    for t in range(T - 1, -1, -1):
        gt = pows[t]
        layer: dict[AugState, float] = {}
        glayer = greedy[t]
        # V(t+1, x2) - arrival penalty depends only on (prior ledger, s2).
        arrive: dict[tuple[int, ...], dict[int, float]] = {}
        for x in e.layers[t]:
            s, ledger = x
            if violated is not None and VIOLATED in ledger:
                layer[x] = violated
                continue
            row = arrive.get(ledger)
            if row is None:
                row = arrive[ledger] = {}
            acts = moves.get(s)
            if acts is None:
                acts = moves[s] = [(a, m.reward[s, a], m.successors(s, a)) for a in m.actions_at(s)]
            if policy is not None:
                pi = policy.probabilities(t, s, ledger)
            scored = []
            for a, r, succ in acts:
                if policy is not None and pi[a] == 0.0:
                    continue
                acc = gt * r if rewards else 0.0
                for s2, p in succ:
                    v = row.get(s2)
                    if v is None:
                        v = row[s2] = (vnext[(s2, e.advance(ledger, s2))]
                                       - e.arrival_penalty(ledger, s2, t + 1))
                    acc += p * v
                    if acc == neg_inf:
                        break
                scored.append((a, acc))
            if policy is None:
                glayer[x], layer[x] = _pick(scored)
            else:
                total = 0.0
                for a, q in scored:
                    total += pi[a] * q
                layer[x] = total
        vnext = layer
    return vnext, greedy


def _zero(_ledger) -> float:
    return 0.0


def backward_induction(e: ExtendedMdp) -> ValueTable:
    """Greedy actions and the optimal value of the penalized objective."""
    values, greedy = _sweep(e, _zero)
    return ValueTable(greedy=greedy, initial_value=values[e.initial] - e.initial_penalty)


def evaluate_policy(e: ExtendedMdp, policy: TabularPolicy) -> float:
    """Expected penalized return of an arbitrary policy (linear sweep, no max)."""
    values, _ = _sweep(e, _zero, policy=policy)
    return values[e.initial] - e.initial_penalty


def unconstrained_value(m: Cmdp) -> tuple[float, list[dict[int, int]]]:
    """Plain finite-horizon DP on the base model, ignoring costs entirely.

    Kept independent of the augmented machinery so the zero-penalty
    equivalence check compares two separately coded routes.
    """
    T = m.horizon
    pows = discount_powers(m.discount, T)
    vnext = {s: 0.0 for s in range(m.n_states)}
    greedy: list[dict[int, int]] = [dict() for _ in range(T)]
    for t in range(T - 1, -1, -1):
        layer = {}
        for s in range(m.n_states):
            scored = []
            for a in m.actions_at(s):
                acc = pows[t] * m.reward[s, a]
                for s2, p in m.successors(s, a):
                    acc += p * vnext[s2]
                scored.append((a, acc))
            a, v = _pick(scored)
            layer[s] = v
            greedy[t][s] = a
        vnext = layer
    return vnext[m.s0], greedy


def worst_case_value(
    m: Cmdp, quantum: float = 0.25
) -> tuple[float, TabularPolicy]:
    """Best return over policies whose every trajectory stays within budget.

    Realized by masking, at each augmented state, every action that carries
    positive probability into a violated ledger; -inf propagates through
    states with empty feasible sets.  Masking is exact, unlike a huge-lambda
    limit, and is the definition used for the reported value.
    """
    e = build_extended(m, [0.0] * m.n_constraints,
                       [PenaltyScheme.RISK_NEUTRAL] * m.n_constraints, quantum)
    if any(entry == VIOLATED for entry in e.initial[1]):
        raise WorstCaseInfeasible(f"initial state {m.state_name(m.s0)}")
    values, greedy = _sweep(e, _zero, violated=-math.inf)
    value = values[e.initial]
    if value == -math.inf:
        desc = _first_dead_end(m, e)
        raise WorstCaseInfeasible(desc)
    table = ValueTable(greedy=greedy, initial_value=value)
    return value, table.greedy_policy(m.n_actions)


def _first_dead_end(m: Cmdp, e: ExtendedMdp) -> str:
    """Name a reachable augmented state with no feasible action."""
    # Walk forward from the initial state through -inf territory.
    frontier = {e.initial}
    for t in range(m.horizon):
        nxt = set()
        for (s, ledger) in frontier:
            all_masked = True
            for a in m.actions_at(s):
                ok = True
                for s2, _p in m.successors(s, a):
                    if VIOLATED in e.advance(ledger, s2):
                        ok = False
                        break
                if ok:
                    all_masked = False
                    for s2, _p in m.successors(s, a):
                        nxt.add((s2, e.advance(ledger, s2)))
            if all_masked:
                return f"{m.state_name(s)} with ledger {ledger} at step {t}"
        frontier = nxt
    return f"initial state {m.state_name(m.s0)}"


def max_safe_cost(m: Cmdp, k: int = 0, quantum: float = 0.25) -> float:
    """max over policies of E[D_k * 1(D_k <= budget_k)].

    The truncated expectation is linear in trajectory probabilities, so it
    equals the value of a DP over the single-constraint augmented space with
    zero step rewards and terminal reward equal to the ledger total when the
    episode ends within budget (the arrival-inclusive ledger at the terminal
    step is exactly the trajectory's total cost) and zero once violated.
    """
    single = Cmdp(
        transition=m.transition,
        reward=m.reward,
        costs=m.costs[k : k + 1],
        budgets=(m.budgets[k],),
        horizon=m.horizon,
        discount=m.discount,
        s0=m.s0,
        available=m.available,
        state_names=m.state_names,
        action_names=m.action_names,
    )
    e = build_extended(single, [0.0], [PenaltyScheme.RISK_NEUTRAL], quantum)
    values, _ = _sweep(e, lambda ledger: e.ledger_cost(ledger[0]), rewards=False, violated=0.0)
    return values[e.initial]


def cost_slack(m: Cmdp, k: int = 0, quantum: float = 0.25) -> float:
    """Budget headroom: budget_k minus the largest within-budget expected cost."""
    return m.budgets[k] - max_safe_cost(m, k, quantum)


@dataclass(frozen=True)
class BoundsReport:
    """Key quantities behind the penalty-weight feasibility thresholds.

    lambda_expected_cost is the smallest penalty weight guaranteeing the
    expected-cost constraint (infinite when the slack is zero);
    lambda_chance(alpha) guarantees violation probability at most alpha.
    """

    best_return: float
    worst_case_return: float
    cost_slack: float
    lambda_expected_cost: float
    lambda_chance: float
    alpha: float
    feasible_worst_case: bool = True

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("best_return", self.best_return),
            ("worst_case_return", self.worst_case_return),
            ("cost_slack", self.cost_slack),
            ("lambda_expected_cost", self.lambda_expected_cost),
            ("lambda_chance", self.lambda_chance),
            ("alpha", self.alpha),
            ("feasible_worst_case", 1.0 if self.feasible_worst_case else 0.0),
        ]


def lambda_bounds(m: Cmdp, alpha: float, quantum: float = 0.25, k: int = 0) -> BoundsReport:
    """Compute the feasibility thresholds for constraint k.

    Raises WorstCaseInfeasible when no always-safe policy exists (the
    thresholds are undefined there).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    best, _ = unconstrained_value(m)
    worst, _ = worst_case_value(m, quantum)
    slack = cost_slack(m, k, quantum)
    gap = best - worst
    lam_rn = math.inf if slack == 0.0 else gap / slack
    lam_var = gap / (alpha * m.budgets[k])
    return BoundsReport(
        best_return=best,
        worst_case_return=worst,
        cost_slack=slack,
        lambda_expected_cost=lam_rn,
        lambda_chance=lam_var,
        alpha=alpha,
    )


def solve(
    m: Cmdp,
    lambdas,
    schemes,
    quantum: float = 0.25,
) -> tuple[float, TabularPolicy, ExtendedMdp]:
    """Convenience wrapper: build the augmented view, solve, extract greedy."""
    e = build_extended(m, lambdas, schemes, quantum)
    vt = backward_induction(e)
    return vt.initial_value, vt.greedy_policy(m.n_actions), e
