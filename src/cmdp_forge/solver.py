"""Finite-horizon backward induction over the budget-augmented MDP.

Values are kept in absolute-time form: V(t, x) is the optimal expectation of
sum_{u>=t} gamma^u r_u minus all penalty assessments from epoch t+1 on.  The
epoch-0 assessment is a constant ``_sweep`` charges at the end, so the
objective equals the expected penalized trajectory return exactly, for any
discount, with no gamma^-t factors anywhere, and penalties are charged here alone.

Every exact quantity here is one layered backward sweep (``_sweep``) over
the augmented MDP: ``backward_induction``, ``evaluate_policy``,
``worst_case_value`` and ``max_safe_cost`` differ only in the terminal
payoff, the action operator (max with TIE_TOL ties, or a policy's
expectation) and whether step rewards count.  VIOLATED is an absorbing
ledger entry, so the worst case is the terminal payoff -inf on violated
ledgers: every action that can reach one is worth -inf, which masks it.
``unconstrained_value`` is coded apart on purpose: it is the independent
route the zero-penalty check compares with.

The budget-only quantities (``worst_case_value``, ``max_safe_cost`` and
``lambda_bounds``) read the penalty-free space ``extended.augment`` keeps on
the model, the same states and layers every ``build_extended`` view of the
model shares, so no weight walks the space again.  Terminal payoffs and
penalty cases read each ledger's cost and violation from the space's
``Layer.cost``.  The worst case and ``lambda_bounds``' alpha-free
report are kept on the model too, and every threshold is read from that report.

``_sweep`` is a numpy kernel over the space's compiled layers, each of
which is its own transition operator.  Per layer it forms the arrival term
W = V(t+1)[nx] - PEN for every (ledger, successor), the penalty table once
per distinct layer and call, takes each (action, node) value from
``Layer.backup`` and the max or the policy expectation over actions.  The
forward walk (``_first_undefined``) steps with ``Layer.push``; neither
reads the edge layout, which ``extended.Layer`` keeps to itself.

An epoch is a deterministic function of its layer (whose penalty table is
formed from it alone), reward scale, V(t+1) and (under a policy) rows, so
an epoch whose inputs are the last computed epoch's, the same layer and the
same bytes, reuses its values.  That happens below the walk's fixed point,
where every epoch shares one ``Layer``, once the values stop changing: rn,
var and cvar on the large grid run about 75 of their 200 backups.  A
discount below one with rewards on (a new scale per epoch) and a policy
whose rows change never match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .extended import AugState, ExtendedMdp, Layer, PolicyUndefined, TabularPolicy, augment
from .model import Cmdp, discount_powers
from .penalties import penalty_amount

# Action values within this distance of the row maximum count as ties;
# the lowest action index among them wins, for reproducible reports.
TIE_TOL = 1e-12


class WorstCaseInfeasible(RuntimeError):
    """No policy keeps every positive-probability trajectory within budget."""

    def __init__(self, state_desc: str):
        super().__init__(
            f"worst-case constrained problem is infeasible: no feasible action at {state_desc}"
        )


@dataclass(frozen=True)
class ValueTable:
    """Greedy action per (step, augmented state) and the optimal objective.

    greedy[t][i] is the action at node layers[t][i], for t < T.
    """

    layers: tuple[tuple[AugState, ...], ...]
    greedy: list[np.ndarray]
    initial_value: float

    def greedy_policy(self, n_actions: int) -> TabularPolicy:
        eye = np.eye(n_actions)
        return TabularPolicy(self.layers, tuple(eye[choice] for choice in self.greedy))


def argmax_low(values: list[float]) -> int:
    """Index of the first value within TIE_TOL of the maximum."""
    low = max(values) - TIE_TOL
    for i, v in enumerate(values):
        if v >= low:
            return i
    raise ValueError(f"no maximum among {values}")


def _cost_classes(m: Cmdp) -> list[tuple[list[float], np.ndarray]]:
    """Per constraint: its distinct cost values and each state's index into them."""
    out = []
    for row in m.costs.tolist():
        index: dict[float, int] = {}
        cls = [index.setdefault(d, len(index)) for d in row]
        out.append((list(index), np.array(cls, dtype=np.intp)))
    return out


def _arrival_penalties(e: ExtendedMdp, layer: Layer, costs) -> np.ndarray | None:
    """PEN[l, s2]: the penalty for arriving at s2 from ledger l of ``layer``.

    ``costs`` is ``_cost_classes(e.base)``.  ``penalty_amount`` runs once per
    (ledger, distinct cost value, constraint) on the ledger's decoded cost,
    whose inf takes the violated case; the amounts are summed over
    constraints in index order.  No case reads the epoch, so the table is a
    function of the layer alone.  None when every weight is 0.
    """
    m = e.base
    pen = None
    for k, lam in enumerate(e.lambdas):
        if lam == 0.0:
            continue
        values, cls = costs[k]
        amount = np.array([[penalty_amount(e.schemes[k], lam, c, d, m.budgets[k], m.horizon) for d in values]
                           for c in layer.cost[:, k].tolist()]).take(cls, axis=1)  # C order, as W is
        pen = amount if pen is None else pen + amount
    return pen


def _sweep(
    e: ExtendedMdp,
    terminal: np.ndarray | float = 0.0,
    policy: TabularPolicy | None = None,
    rewards: bool = True,
) -> tuple[float, list[np.ndarray]]:
    """One backward pass over e's compiled layers; returns (V(0) - epoch-0 charge, greedy).

    ``terminal`` is the payoff at layer T, one per distinct ledger of
    ``e.compiled[T]`` (a float pays every one); the worst case passes -inf
    for a violated ledger.  Without a policy a node takes the max over its
    available actions with TIE_TOL ties going to the lowest index, as
    ``argmax_low`` does, and greedy[t] holds the choices of layer t; with one,
    the policy-weighted expectation over actions of nonzero probability.
    Raises ValueError for a policy over another space.  A node whose policy
    row holds NaN is worth NaN (a NaN entry is a nonzero weight), and one
    whose row puts probability on an unavailable action is worth its -inf;
    either reaches V(0) only along
    edges of positive weight, so such a row passes where the policy never
    goes, and the first one it reaches is named by ``_first_undefined``
    after the sweep, as PolicyUndefined (NaN first) or ValueError.

    Each layer is one ``Layer.backup`` of the arrival term
    W = V(t+1)[nx] - PEN per (ledger, successor), the rewards scaled by
    gamma^t (by 0 when ``rewards`` is off): per (action, node), the reward
    plus the expected arrival term, every float the one a per-edge scalar
    recursion gives, -inf where unavailable.  A -inf arrival term makes the
    action -inf, which is how masking propagates.

    An epoch whose inputs are those of the last epoch computed (the same
    ``Layer``, and so the same penalty table, an equal scale, and V(t+1)
    and the policy rows equal byte for byte) gives the same output, so it takes
    V(t) = V(t+1) and greedy[t] = greedy[t+1] with no backup.  Bytes, not
    ``==``: a NaN still matches itself and -0.0 against 0.0 counts as a change.
    """
    m = e.base
    T = m.horizon
    if policy is not None and policy.layers != e.layers:
        raise ValueError("policy is over another augmented space")
    pows = discount_powers(m.discount, T)
    costs = _cost_classes(m) if any(e.lambdas) else None
    pens: dict[int, np.ndarray | None] = {}  # id(layer) -> PEN
    last = e.compiled[T]
    vnext = np.full(len(last.cost), terminal, dtype=float)[last.ledger]
    greedy: list[np.ndarray] = [None] * T
    prev = None  # the inputs of the last epoch computed: (layer, scale, V(t+1), rows)
    for t in range(T - 1, -1, -1):
        layer = e.compiled[t]
        if id(layer) not in pens:
            pens[id(layer)] = _arrival_penalties(e, layer, costs)
        table = pens[id(layer)]
        scale = pows[t] if rewards else 0.0
        rows = None if policy is None else policy.rows[t]
        if (prev is not None and layer is prev[0] and scale == prev[1]
                and vnext.tobytes() == prev[2].tobytes()
                and (rows is None or rows.tobytes() == prev[3].tobytes())):
            greedy[t] = greedy[t + 1]  # the same inputs give the same V(t) = V(t+1)
            continue
        prev = layer, scale, vnext, rows
        w = vnext[layer.nx]
        if table is not None:
            w -= table
        acc = layer.backup(w, scale)  # (A, n)
        if policy is None:
            values = acc.max(axis=0)
            greedy[t] = np.argmax(layer.ok & (acc >= values - TIE_TOL), axis=0)
        else:
            pi = rows.T
            # Zeroing zero-probability actions keeps 0 * -inf, and 0 * NaN
            # from an unreached node, out of the sum; mass on an unavailable
            # action meets its -inf, and a NaN entry makes its node NaN.
            acc[pi == 0.0] = 0.0
            values = sum(p * v for p, v in zip(pi, acc))  # 0.0 + a0 + a1 + ..., action order
        vnext = values
    if policy is not None and math.isnan(vnext[0]):
        raise PolicyUndefined(f"policy has no row for augmented state {_first_undefined(e, policy.rows)}")
    if policy is not None and vnext[0] == -math.inf:  # only an unavailable action's -inf gets here
        first = _first_undefined(e, (np.where(((r.T != 0.0) & ~layer.ok).any(axis=0)[:, None], math.nan, r)
                                     for layer, r in zip(e.compiled, policy.rows)))
        raise ValueError(f"policy puts probability on an unavailable action at augmented state {first}")
    initial = 0.0  # the epoch-0 assessment for occupying s0, nonzero only when d(s0) crosses
    for k, lam in enumerate(e.lambdas):
        initial += penalty_amount(e.schemes[k], lam, 0.0, float(m.costs[k, m.s0]), m.budgets[k], T)
    return float(vnext[0]) - initial, greedy


def backward_induction(e: ExtendedMdp) -> ValueTable:
    """Greedy actions and the optimal penalized objective, epoch-0 charge included."""
    value, greedy = _sweep(e)
    return ValueTable(layers=e.layers, greedy=greedy, initial_value=value)


def evaluate_policy(e: ExtendedMdp, policy: TabularPolicy) -> float:
    """Expected penalized return of an arbitrary policy (linear sweep, no max)."""
    return _sweep(e, policy=policy)[0]


def unconstrained_value(m: Cmdp) -> tuple[float, list[dict[int, int]]]:
    """Plain finite-horizon DP on the base model, ignoring costs entirely.

    Kept independent of the augmented machinery so the zero-penalty
    equivalence check compares two separately coded routes.  Runs over
    plain lists: the rewards read once, and the model's ``moves``.
    """
    T = m.horizon
    pows = discount_powers(m.discount, T)
    reward = m.reward.tolist()
    vnext = [0.0] * m.n_states
    greedy: list[dict[int, int]] = [dict() for _ in range(T)]
    for t in range(T - 1, -1, -1):
        layer = []
        for s, (row, acts) in enumerate(zip(reward, m.moves)):
            scored = []
            for a, succ in acts:
                acc = pows[t] * row[a]
                for s2, p in succ:
                    acc += p * vnext[s2]
                scored.append(acc)
            layer.append(max(scored))
            greedy[t][s] = acts[argmax_low(scored)][0]
        vnext = layer
    return vnext[m.s0], greedy


def worst_case_value(
    m: Cmdp, quantum: float = 0.25
) -> tuple[float, TabularPolicy]:
    """Best return over policies whose every trajectory stays within budget.

    One sweep with the terminal payoff -inf on every violated ledger.
    VIOLATED is absorbing and every successor slot has p > 0, so an action
    that carries positive probability into a violated ledger is worth -inf,
    and -inf propagates through states with empty feasible sets.  Masking is
    exact, unlike a huge-lambda limit, and is the definition used for the
    reported value.  The policy's row at a violated ledger is NaN.  The
    result depends on (model, quantum) alone and is kept on the model, its
    rows read-only.
    """
    found = m._derived.get(("worst_case_value", quantum))
    if found is None:
        found = m._derived["worst_case_value", quantum] = _masked_sweep(m, quantum)
    if isinstance(found, str):
        raise WorstCaseInfeasible(found)
    return found


def _masked_sweep(m: Cmdp, quantum: float) -> tuple[float, TabularPolicy] | str:
    """``worst_case_value``'s result, or the dead end that makes it infeasible."""
    e = augment(m, quantum)
    if e.compiled[0].violated.any():
        return f"initial state {m.state_name(m.s0)}"
    value, greedy = _sweep(e, np.where(e.compiled[-1].violated, -math.inf, 0.0))
    if value == -math.inf:
        return _first_dead_end(e)
    policy = ValueTable(e.layers, greedy, value).greedy_policy(m.n_actions)
    for layer, rows in zip(e.compiled, policy.rows):
        rows[layer.violated[layer.ledger]] = math.nan
        rows.setflags(write=False)
    return value, policy


def _first_dead_end(e: ExtendedMdp) -> str:
    """Name the first reachable augmented state with no feasible action.

    A feasible action has no successor in a violated ledger: its one-step
    ``Layer.backup`` of 0 on safe arrivals and -inf on violated ones, with
    rewards off, is above -inf.  A dead end is a node where the policy
    spread evenly over feasible actions has no row; its rows are formed a
    layer at a time, as the walk reaches them.  After a masked sweep ending
    in -inf with s0's ledger safe, that policy reaches one: otherwise its
    every path stays safe and its value finite.
    """
    def spread():
        for layer, after in zip(e.compiled, e.compiled[1:]):
            arrival = np.where(after.violated[after.ledger], -math.inf, 0.0)[layer.nx]
            ok = layer.backup(arrival, 0.0) > -math.inf
            with np.errstate(invalid="ignore"):  # 0 / 0: NaN, no row
                yield (ok / ok.sum(axis=0)).T

    t, s, ledger = _first_undefined(e, spread())
    return f"{e.base.state_name(s)} with ledger {ledger} at step {t}"


def _first_undefined(e: ExtendedMdp, rows) -> tuple[int, int, tuple[int, ...]]:
    """(t, s, ledger) of the first node whose row is NaN that policy ``rows`` reach.

    ``rows`` yields the (n_t, A) rows of layer t = 0, 1, ..., read only up
    to the layer named.  One forward walk from the initial state along the
    actions of nonzero probability, each edge to the node it enters; the
    node named has the lowest index, discovery order, in the first layer
    with one.  Run only where one must exist, as after a policy sweep ends
    in NaN, which a reached NaN row alone causes.
    """
    frontier = np.ones(1, dtype=bool)  # layer 0 is the initial state alone
    for t, (layer, r) in enumerate(zip(e.compiled, rows)):
        hit = np.flatnonzero(frontier & np.isnan(r).any(axis=1))
        if len(hit):
            s, ledger = e.layers[t][hit[0]]
            return t, s, ledger
        frontier = layer.push((r.T != 0.0) & frontier, len(e.layers[t + 1])) > 0
    raise AssertionError("unreachable: the walk reached no NaN row")


def max_safe_cost(m: Cmdp, k: int = 0, quantum: float = 0.25) -> float:
    """max over policies of E[D_k * 1(D_k <= budget_k)].

    The truncated expectation is linear in trajectory probabilities, so it
    equals the value of a DP over the single-constraint augmented space with
    zero step rewards and terminal reward equal to the ledger total when the
    episode ends within budget (the arrival-inclusive ledger at the terminal
    step is exactly the trajectory's total cost) and zero once violated: a
    violated ledger stays violated, so with rewards off its value is
    0.0 + p * 0.0 + ... = 0.0 at every layer.  The sweep runs on m's own
    cached space: the other constraints' entries only split a node into
    copies of equal value, so the float is the one a one-constraint space
    gives, and costs or budgets of theirs that do not quantise raise here
    as they do in ``lambda_bounds``.
    """
    e = augment(m, quantum)
    cost = e.compiled[-1].cost[:, k]
    value, _ = _sweep(e, np.where(np.isinf(cost), 0.0, cost), rewards=False)
    return value


def cost_slack(m: Cmdp, k: int = 0, quantum: float = 0.25) -> float:
    """Budget headroom: budget_k minus the largest within-budget expected cost."""
    return m.budgets[k] - max_safe_cost(m, k, quantum)


@dataclass(frozen=True)
class BoundsReport:
    """The measured quantities behind the penalty-weight feasibility
    thresholds, and each threshold formed from them once.

    lambda_expected_cost is the smallest penalty weight guaranteeing the
    expected-cost constraint (infinite when the slack is zero);
    lambda_chance guarantees violation probability at most alpha.  Only
    lambda_chance reads alpha, so ``replace(report, alpha=...)`` gives the
    report at another alpha with no recursion.
    """

    best_return: float
    worst_case_return: float
    cost_slack: float
    budget: float
    alpha: float

    @property
    def gap(self) -> float:
        """Best return minus the always-safe one."""
        return self.best_return - self.worst_case_return

    @property
    def lambda_expected_cost(self) -> float:
        return math.inf if self.cost_slack == 0.0 else self.gap / self.cost_slack

    @property
    def lambda_chance(self) -> float:
        return self.gap / (self.alpha * self.budget)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("best_return", self.best_return),
            ("worst_case_return", self.worst_case_return),
            ("cost_slack", self.cost_slack),
            ("lambda_expected_cost", self.lambda_expected_cost),
            ("lambda_chance", self.lambda_chance),
            ("alpha", self.alpha),
            ("feasible_worst_case", 1.0),
        ]


def lambda_bounds(m: Cmdp, alpha: float, quantum: float = 0.25, k: int = 0) -> BoundsReport:
    """Compute the feasibility thresholds for constraint k.

    The report's alpha-free part depends on (model, quantum, k) alone and
    is kept on the model, so a call at another alpha runs no recursion.
    Raises WorstCaseInfeasible when no always-safe policy exists (the
    thresholds are undefined there).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    report = m._derived.get(("lambda_bounds", quantum, k))
    if report is None:
        worst, _ = worst_case_value(m, quantum)
        best, _ = unconstrained_value(m)
        report = m._derived["lambda_bounds", quantum, k] = BoundsReport(
            best, worst, cost_slack(m, k, quantum), m.budgets[k], alpha)
    return replace(report, alpha=alpha)
