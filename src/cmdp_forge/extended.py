"""Budget-augmented view of a Cmdp: states carry a per-constraint cost ledger.

The ledger entry for constraint k at state s_t is the cost accumulated over
s_0..s_t inclusive, stored as an integer multiple of a quantum so that equal
totals hash equally.  Every entry strictly above the budget collapses into a
single VIOLATED bucket: once over budget, all three penalty shapes depend
only on the current state's cost (or a constant), never on the exact
exceedance, so the collapse is lossless for values and policies.
``ledger_rule`` is the one place that quantises costs and budgets and
advances a ledger; the builder and the oracle's policy lookup keys both use
the rule it returns.

Penalty assessments are charged on transitions.  Arriving at s' from an
augmented state whose ledger is L pays the assessment for s' computed from
(ledger value of L, d(s')); the epoch-0 assessment for s_0 is a constant
the solver charges itself.  Solvers fold these amounts undiscounted
into trajectory-return space, which is algebraically identical to the
per-step gamma^-t form and immune to discount underflow.

The reachable nodes depend on neither the penalty weights nor the schemes:
``augment`` walks them once per (model, quantum) and keeps the space on the
model, and ``build_extended`` only attaches weights to it.  The walk emits
every layer twice: as the tuple of augmented states in discovery order
(``layers``), and in read-only index form (``compiled``) for the array
solvers: each node's ledger id, the costs of the layer's distinct ledgers
decoded once (``Layer.cost``, inf where over budget, and ``violated``), the
table nx[ledger id, s2] giving the index in the next layer of
(s2, advance(L, s2)), and the layer's real edges.  The layer is its own
transition operator: ``Layer.backup`` takes expectations backward along the
edges and ``Layer.push`` carries weight forward, and they alone read the
edge layout.  Layer t+1 is a
function of layer t's node tuple alone, so the walk stops at the first layer
equal to the next (the fixed point) and shares that tuple and its ``Layer``,
edges included, for every later epoch.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Cmdp, _frozen
from .penalties import PenaltyScheme

# Ledger entry marking "accumulated cost already exceeds the budget".
VIOLATED = -1

QUANTIZE_TOL = 1e-9
MASS_TOL = 1e-9  # a policy row's entries are >= 0 and sum to 1 within this
MAX_STATES = 200_000  # the most augmented states one walk may reach

AugState = tuple[int, tuple[int, ...]]  # (base state, ledger)


class QuantizationError(ValueError):
    """A cost or budget is not an integer multiple of the ledger quantum."""


class LedgerCapExceeded(ValueError):
    """Reachable augmented-state count exceeded the configured cap."""


class PolicyUndefined(KeyError):
    """A policy was queried at an augmented state it has no row for."""


def quantize(value: float, quantum: float, what: str) -> int:
    ratio = value / quantum
    if not math.isfinite(ratio):  # a quantum too small for the value
        raise QuantizationError(f"{what} = {value} over the quantum {quantum} is not finite")
    n = round(ratio)
    if abs(value - n * quantum) > QUANTIZE_TOL * max(1.0, abs(value)):
        raise QuantizationError(f"{what} = {value} is not a multiple of the quantum {quantum}")
    return n


def ledger_rule(m: Cmdp, quantum: float) -> Callable[[tuple[int, ...], int], tuple[int, ...]]:
    """Quantise m's costs and budgets and return the ledger advance rule.

    The rule maps (ledger, s_next) to the ledger after arriving at s_next:
    c <- c + d(s_next) per constraint, collapsing over budget into VIOLATED.
    Kept on the model: ``augment`` and the oracle share it.  Raises, and
    keeps nothing, for a quantum that is not finite and > 0 (ValueError)
    and for a cost or budget that is not a finite multiple of it
    (QuantizationError).
    """
    if ("ledger_rule", quantum) in m._derived:
        return m._derived["ledger_rule", quantum]
    if not (math.isfinite(quantum) and quantum > 0):
        raise ValueError(f"quantum: must be finite and > 0, got {quantum}")
    cost_quanta = tuple(
        tuple(quantize(float(m.costs[k, s]), quantum, f"costs[{k}][s={s}]") for s in range(m.n_states))
        for k in range(m.n_constraints)
    )
    budget_quanta = tuple(
        quantize(b, quantum, f"budgets[{k}]") for k, b in enumerate(m.budgets)
    )

    def advance(ledger: tuple[int, ...], s_next: int) -> tuple[int, ...]:
        out = []
        for k, entry in enumerate(ledger):
            if entry == VIOLATED:
                out.append(VIOLATED)
                continue
            c = entry + cost_quanta[k][s_next]
            out.append(c if c <= budget_quanta[k] else VIOLATED)
        return tuple(out)

    m._derived["ledger_rule", quantum] = advance
    return advance


@dataclass(frozen=True)
class Layer:
    """Epoch t of an ExtendedMdp in index form; node i is ``layers[t][i]``."""

    ledger: np.ndarray  # (n,) each node's ledger id: the epoch's L distinct ledgers, first-seen order
    # (L, K): each ledger entry times the quantum, inf where VIOLATED.
    cost: np.ndarray
    violated: np.ndarray  # (L,) whether any entry of the ledger is VIOLATED
    # (L, S): index in layer t+1 of (s2, advance(L, s2)), -1 where
    # no node of the epoch with ledger L moves to s2 (everywhere at t = T).
    nx: np.ndarray
    # The real edges, read by ``backup`` and ``push`` alone.  ``pairs`` holds
    # each available (node i = (s, L), action a) as a * n + i, by successor
    # count, highest first (a stable sort), so slot j, the j-th of
    # ``base.successors(s, a)``, exists for exactly ``pairs[:ends[j]]``.
    # ``flat`` and ``prob`` run slot-major over them, flat = ledger * S +
    # successor indexing a flattened (L, S) table such as ``nx``.  ``pos``
    # (A, n) is each pair's index in ``pairs``, len(pairs) where ``ok`` is unset.
    pairs: np.ndarray
    reward: np.ndarray  # base.reward[s, a] per pair
    ends: tuple[int, ...]
    flat: np.ndarray  # int32: every index is below nx.size
    prob: np.ndarray
    pos: np.ndarray
    ok: np.ndarray

    def backup(self, w: np.ndarray, scale: float) -> np.ndarray:
        """(A, n): ``scale`` times each pair's reward plus prob * w[ledger, successor]
        per edge, -inf where unavailable.  The terms are added slot by slot in
        ``base.successors`` order, so every float is the one a per-edge
        scalar recursion gives."""
        terms = w.ravel().take(self.flat)
        terms *= self.prob
        acc = np.empty(len(self.pairs) + 1)  # the last entry is the unavailable actions' -inf
        np.multiply(scale, self.reward, out=acc[:-1])
        acc[-1] = -math.inf
        start = 0
        for end in self.ends:
            acc[:end] += terms[start:start + end]
            start += end
        return acc.take(self.pos)

    def push(self, weight: np.ndarray, n_next: int) -> np.ndarray:
        """(n_next,): what each node of the next layer receives when every
        (node i, action a) sends ``weight[a, i]`` along its edges, each
        times the edge's probability."""
        sent = weight.ravel()[self.pairs]
        along = np.concatenate([sent[:end] for end in self.ends]) * self.prob
        return np.bincount(self.nx.ravel()[self.flat], weights=along, minlength=n_next)


@dataclass(frozen=True)
class ExtendedMdp:
    """Derived, immutable view of ``base`` under penalty weights ``lambdas``.

    ``compiled[t]`` indexes ``layers[t]`` for t = 0..T.
    """

    base: Cmdp
    lambdas: tuple[float, ...]
    schemes: tuple[PenaltyScheme, ...]
    states: tuple[AugState, ...]  # distinct reachable pairs, discovery order
    layers: tuple[tuple[AugState, ...], ...]  # states reachable at epoch t, t = 0..T
    compiled: tuple[Layer, ...] = field(repr=False, compare=False)


@dataclass(frozen=True)
class TabularPolicy:
    """Action distributions over an augmented space, one per node and step.

    rows[t] is an (n_t, A) array whose row i belongs to node layers[t][i],
    for t < T.  A row holding NaN means the policy has no row for that node;
    every other row must be a distribution, its entries >= 0 and summing to
    1 within MASS_TOL.  Raises ValueError naming the (t, s, ledger) of the
    first row, in layer order, that is not.
    """

    layers: tuple[tuple[AugState, ...], ...]
    rows: tuple[np.ndarray, ...]

    def __post_init__(self):
        rows = np.concatenate(self.rows)
        with np.errstate(invalid="ignore"):  # a row with inf and -inf sums to NaN, as a NaN row does
            bad = abs(rows.sum(axis=1) - 1.0) > MASS_TOL  # False at a NaN sum
        negative = rows < 0.0
        if negative.any():
            bad |= negative.any(axis=1) & ~np.isnan(rows).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            node = [(t, s, ledger) for t, nodes in enumerate(self.layers[:-1]) for s, ledger in nodes][i]
            raise ValueError(f"policy row at augmented state {node} is not a distribution: {rows[i].tolist()}")

    def table(self) -> dict[tuple[int, int, tuple[int, ...]], list[float]]:
        """The rows keyed by (t, s, ledger), with no key for a NaN row."""
        rows = np.concatenate(self.rows)
        keys = [(t, s, ledger) for t, nodes in enumerate(self.layers[:-1]) for s, ledger in nodes]
        return {key: row for key, row, undefined
                in zip(keys, rows.tolist(), np.isnan(rows).any(axis=1).tolist()) if not undefined}


def _layer(nodes: tuple[AugState, ...], quantum: float, slots, last: bool = False) -> Layer:
    """The ``Layer`` of ``nodes``, its ``nx`` a writable -1 table that the
    walk fills, its edges gathered from the (J, S * A) successor and
    probability ``slots`` (column s * A + a), their (S, A) counts and the
    (S * A,) rewards.  The ``last`` layer, at t = T, takes no action, so it
    has no edges."""
    ids: dict[tuple[int, ...], int] = {}
    ledger = np.array([ids.setdefault(ledger, len(ids)) for (_s, ledger) in nodes], dtype=np.intp)
    state = np.array([s for (s, _ledger) in nodes], dtype=np.intp)
    entries = np.array(tuple(ids), dtype=float).reshape(len(ids), -1)
    cost = np.where(entries == VIOLATED, math.inf, entries * quantum)
    succ, prob, degree, reward = slots
    (S, A), n = degree.shape, len(nodes)
    sa = np.add.outer(np.arange(A), state * A).ravel()  # per pair a * n + i: its (s, a) column
    count = np.zeros(A * n, dtype=np.intp) if last else degree.ravel()[sa]  # 0 where unavailable
    pairs = np.flatnonzero(count)
    key = -count[pairs]
    order = np.argsort(key, kind="stable")
    pairs, key = pairs[order], key[order]
    ends = np.searchsorted(key, -np.arange(len(succ)))
    cols = sa[pairs]
    edge = np.arange(len(succ))[:, None] < -key  # (J, pairs): selects the real slots slot-major
    flat = (ledger[pairs % n] * S + succ.take(cols, axis=1))[edge]
    pos = np.full(A * n, len(pairs), dtype=np.intp)
    pos[pairs] = np.arange(len(pairs))
    return Layer(_frozen(ledger), _frozen(cost), _frozen(np.isinf(cost).any(axis=1)),
                 np.full((len(ids), S), -1, dtype=np.intp), _frozen(pairs), _frozen(reward[cols]),
                 tuple(ends[ends > 0].tolist()),
                 _frozen(flat.astype(np.int32)), _frozen(prob.take(cols, axis=1)[edge]),
                 _frozen(pos.reshape(A, n)), _frozen(count.reshape(A, n) > 0))


def augment(m: Cmdp, quantum: float) -> ExtendedMdp:
    """The augmented space of ``m`` on the ``quantum`` grid, at zero weights.

    Walked once per (model, quantum).  The walk stops at the first t with
    layer t+1 equal to layer t; layers t..T share that tuple, compiled[t..T-1]
    its ``Layer``.  This is exact: layer t+1 reads only layer t's node tuple
    and data that do not depend on t (the model's ``moves``, which are the
    edges, its ``reach``, which orders each node's successors, and
    ``advance``), so one repeat implies every later one.  The model keeps
    the space, not an ``ExtendedMdp``, whose ``base`` would hold the model
    in a cycle; each call returns a new one over it.
    Raises on costs or budgets that do not quantize, and when the walk
    reaches more than MAX_STATES states.
    """
    space = m._derived.get(("augment", quantum))
    if space is None:
        space = m._derived["augment", quantum] = _space(m, quantum)
    K = m.n_constraints
    return ExtendedMdp(m, (0.0,) * K, (PenaltyScheme.RISK_NEUTRAL,) * K, *space)


def _space(m: Cmdp, quantum: float
           ) -> tuple[tuple[AugState, ...], tuple[tuple[AugState, ...], ...], tuple[Layer, ...]]:
    """``augment``'s walk: the states, layers and compiled layers of ``m``."""
    advance = ledger_rule(m, quantum)
    K, S, A = m.n_constraints, m.n_states, m.n_actions
    # The model's moves as ``_layer``'s slots, J the longest successor list.
    succ = np.zeros((max(len(row) for acts in m.moves for _a, row in acts), S * A), dtype=np.intp)
    prob, degree = np.zeros(succ.shape), np.zeros((S, A), dtype=np.intp)
    for s, acts in enumerate(m.moves):
        for a, row in acts:
            degree[s, a] = len(row)
            for j, (s2, p) in enumerate(row):
                succ[j, s * A + a], prob[j, s * A + a] = s2, p
    slots = succ, prob, degree, m.reward.ravel()
    reach = m.reach  # successors in the order a walk over every (action, successor) pair meets them
    initial = (m.s0, advance((0,) * K, m.s0))
    seen: dict[AugState, AugState] = {initial: initial}  # insertion-ordered; layers reuse these
    layers: list[tuple[AugState, ...]] = [(initial,)]
    compiled: list[Layer] = []
    for t in range(m.horizon):
        nodes = layers[t]
        layer = _layer(nodes, quantum, slots)
        nxt: dict[AugState, int] = {}
        rows = [[-1] * S for _ in range(len(layer.nx))]  # nx as lists, -1: (L, s2) not seen yet
        for (s, ledger), l in zip(nodes, layer.ledger.tolist()):
            row = rows[l]
            for s2 in reach[s]:
                if row[s2] >= 0:
                    continue
                x2 = (s2, advance(ledger, s2))
                j = nxt.get(x2)
                if j is None:
                    if x2 not in seen:
                        if len(seen) >= MAX_STATES:
                            raise LedgerCapExceeded(
                                f"reachable augmented states exceed the cap of {MAX_STATES}"
                            )
                        seen[x2] = x2
                    j = nxt[seen[x2]] = len(nxt)
                row[s2] = j
        layer.nx[:] = rows
        layer.nx.setflags(write=False)
        compiled.append(layer)
        if tuple(nxt) == nodes:  # the fixed point: every later layer repeats this one
            layers += [nodes] * (m.horizon - t)
            compiled += compiled[-1:] * (m.horizon - t - 1)
            break
        layers.append(tuple(nxt))
    last = _layer(layers[-1], quantum, slots, last=True)
    last.nx.setflags(write=False)
    compiled.append(last)
    return tuple(seen), tuple(layers), tuple(compiled)


def build_extended(
    m: Cmdp,
    lambdas: list[float] | tuple[float, ...],
    schemes: list[PenaltyScheme] | tuple[PenaltyScheme, ...],
    quantum: float = 0.25,
) -> ExtendedMdp:
    """``augment(m, quantum)`` under penalty weights ``lambdas``.

    Raises on lambda/scheme arity mismatch and on a weight that is not
    finite and >= 0, and wherever ``augment`` does.
    """
    K = m.n_constraints
    if len(lambdas) != K or len(schemes) != K:
        raise ValueError(
            f"model has {K} constraints but got {len(lambdas)} lambdas "
            f"and {len(schemes)} schemes"
        )
    for k, lam in enumerate(lambdas):
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"lambdas[{k}] must be finite and >= 0, got {lam}")
    return replace(augment(m, quantum), lambdas=tuple(float(v) for v in lambdas), schemes=tuple(schemes))
