"""Budget-augmented view of a Cmdp: states carry a per-constraint cost ledger.

The ledger entry for constraint k at state s_t is the cost accumulated over
s_0..s_t inclusive, stored as an integer multiple of a quantum so that equal
totals hash equally.  Every entry strictly above the budget collapses into a
single VIOLATED bucket: once over budget, all three penalty shapes depend
only on the current state's cost (or a constant), never on the exact
exceedance, so the collapse is lossless for values and policies.
``ledger_rule`` is the one place that quantises costs and budgets and
advances a ledger; the builder, ``ExtendedMdp.advance`` and the oracle's
policy lookup keys all use the rule it returns.

Penalty assessments are charged on transitions.  Arriving at s' from an
augmented state whose ledger is L pays the assessment for s' computed from
(ledger value of L, d(s')); the epoch-0 assessment for s_0 is a constant
reported as ``initial_penalty``.  Solvers fold these amounts undiscounted
into trajectory-return space, which is algebraically identical to the
per-step gamma^-t form and immune to discount underflow.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .model import Cmdp, validate_cmdp
from .penalties import PenaltyScheme, penalty_amount

# Ledger entry marking "accumulated cost already exceeds the budget".
VIOLATED = -1

QUANTIZE_TOL = 1e-9

AugState = tuple[int, tuple[int, ...]]  # (base state, ledger)


class QuantizationError(ValueError):
    """A cost or budget is not an integer multiple of the ledger quantum."""


class LedgerCapExceeded(RuntimeError):
    """Reachable augmented-state count exceeded the configured cap."""


def quantize(value: float, quantum: float, what: str) -> int:
    n = round(value / quantum)
    if abs(value - n * quantum) > QUANTIZE_TOL * max(1.0, abs(value)):
        raise QuantizationError(
            f"{what} = {value} is not a multiple of the quantum {quantum}"
        )
    return n


def ledger_rule(m: Cmdp, quantum: float) -> Callable[[tuple[int, ...], int], tuple[int, ...]]:
    """Quantise m's costs and budgets and return the ledger advance rule.

    The rule maps (ledger, s_next) to the ledger after arriving at s_next:
    c <- c + d(s_next) per constraint, collapsing over budget into VIOLATED.
    Raises QuantizationError naming the first cost or budget that is not a
    multiple of ``quantum``.
    """
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

    return advance


@dataclass(frozen=True)
class ExtendedMdp:
    """Derived, immutable view of ``base`` under penalty weights ``lambdas``.

    ``advance`` is the ledger rule from ``ledger_rule(base, quantum)``.
    """

    base: Cmdp
    lambdas: tuple[float, ...]
    schemes: tuple[PenaltyScheme, ...]
    quantum: float
    states: tuple[AugState, ...]  # distinct reachable pairs, discovery order
    layers: tuple[tuple[AugState, ...], ...]  # states reachable at epoch t, t = 0..T
    initial: AugState
    initial_penalty: float
    advance: Callable[[tuple[int, ...], int], tuple[int, ...]] = field(repr=False, compare=False)
    _cost_floats: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "_cost_floats",
            tuple(tuple(float(v) for v in row) for row in self.base.costs),
        )

    def ledger_cost(self, entry: int) -> float:
        """Float cost total for an Under entry (exact for binary-fraction quanta)."""
        return entry * self.quantum

    def arrival_penalty(self, ledger: tuple[int, ...], s_next: int, epoch: int) -> float:
        """Total undiscounted penalty for arriving at s_next with prior ledger."""
        total = 0.0
        for k, entry in enumerate(ledger):
            lam = self.lambdas[k]
            if lam == 0.0:
                continue
            d = self._cost_floats[k][s_next]
            budget = self.base.budgets[k]
            if entry == VIOLATED:
                # Any value strictly above the budget dispatches the same case.
                c = budget + 1.0
            else:
                c = self.ledger_cost(entry)
            total += penalty_amount(self.schemes[k], lam, c, d, budget, epoch)
        return total


def build_extended(
    m: Cmdp,
    lambdas: list[float] | tuple[float, ...],
    schemes: list[PenaltyScheme] | tuple[PenaltyScheme, ...],
    quantum: float = 0.25,
    max_states: int = 200_000,
) -> ExtendedMdp:
    """Enumerate the augmented states reachable from (s0, zero ledger).

    Reachability is restricted to the horizon: a layer-by-layer sweep expands
    states for epochs 0..T.  Raises on lambda/scheme arity mismatch, on costs
    or budgets that do not quantize, and when the reachable set exceeds
    ``max_states`` (the error names the cap).
    """
    K = m.n_constraints
    if len(lambdas) != K or len(schemes) != K:
        raise ValueError(
            f"model has {K} constraints but got {len(lambdas)} lambdas "
            f"and {len(schemes)} schemes"
        )
    for k, lam in enumerate(lambdas):
        if lam < 0.0:
            raise ValueError(f"lambdas[{k}] must be >= 0, got {lam}")
    problems = validate_cmdp(m)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))

    advance = ledger_rule(m, quantum)
    initial = (m.s0, advance((0,) * K, m.s0))
    seen: dict[AugState, None] = {initial: None}  # insertion-ordered
    layers: list[tuple[AugState, ...]] = [(initial,)]
    frontier: dict[AugState, None] = {initial: None}
    for _ in range(m.horizon):
        nxt: dict[AugState, None] = {}
        for (s, ledger) in frontier:
            for a in m.actions_at(s):
                for s2, _p in m.successors(s, a):
                    x2 = (s2, advance(ledger, s2))
                    if x2 not in nxt:
                        nxt[x2] = None
                    if x2 not in seen:
                        if len(seen) >= max_states:
                            raise LedgerCapExceeded(
                                f"reachable augmented states exceed the cap of {max_states}"
                            )
                        seen[x2] = None
        layers.append(tuple(nxt))
        frontier = nxt

    # Epoch-0 assessment for occupying s0 (nonzero only when d(s0) crosses).
    init_pen = 0.0
    for k in range(K):
        init_pen += penalty_amount(
            schemes[k], float(lambdas[k]), 0.0, float(m.costs[k, m.s0]), m.budgets[k], 0
        )

    return ExtendedMdp(
        base=m,
        lambdas=tuple(float(v) for v in lambdas),
        schemes=tuple(schemes),
        quantum=quantum,
        states=tuple(seen),
        layers=tuple(layers),
        initial=initial,
        initial_penalty=init_pen,
        advance=advance,
    )
