"""Machine checks for every bound the penalized reformulation promises.

Each check solves the augmented problem, runs the enumeration oracle on the
greedy policy, and compares the measured quantity against the claimed bound
at a fixed tolerance.  Checks emit rows (kind, fixture, lambda, bound,
measured, pass, note) suitable for CSV so a failing bound is visible, not
just a boolean.  Every gap and threshold weight a check runs at is read from
``lambda_bounds``' report (``_report``), the numbers ``bounds`` prints.
Bounds that hold at every penalty weight are checked at the exact
breakpoints of the penalized value (``_frontier``), covering every weight.
Optimality at a policy's own risk level is not enumerated: it follows by
weak duality from the slope row (``_breakpoint_check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .extended import build_extended
from .fixtures import Fixture
from .oracle import enumerate_trajectories, stats
from .penalties import PenaltyScheme
from .solver import (
    BoundsReport,
    WorstCaseInfeasible,
    backward_induction,
    lambda_bounds,
    unconstrained_value,
)

TOL = 1e-9

HUGE_LAMBDA = 1e9

# Each kind names one suite, check_<kind>; run_all runs them in this order.
ALL_KINDS = (
    "zero_penalty_equivalence",
    "worst_case_masking",
    "violation_cost_bound",
    "expected_cost_feasibility",
    "violation_prob_bound",
    "chance_penalty_equivalence",
    "excess_penalty_equivalence",
    "multi_constraint_feasibility",
)


@dataclass(frozen=True)
class CheckRow:
    kind: str
    fixture: str
    lam: float
    bound: float
    measured: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    kind: str
    rows: list[CheckRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, fixture, lam, bound, measured, passed, note=""):
        self.rows.append(CheckRow(self.kind, fixture, lam, bound, measured, bool(passed), note))


def _greedy_oracle(f: Fixture, lambdas, schemes):
    """The greedy policy's value and its oracle stats.  The stats are taken
    at unit weights, so expected_return - penalized_objective is the slope
    of the policy's value line in lambda."""
    vt = backward_induction(build_extended(f.cmdp, lambdas, schemes, f.quantum))
    trajs = enumerate_trajectories(f.cmdp, vt.greedy_policy(f.cmdp.n_actions), f.quantum)
    return vt.initial_value, stats(trajs, f.cmdp, [1.0] * len(schemes), schemes)


def _report(f: Fixture, k: int = 0) -> BoundsReport | None:
    """``lambda_bounds``' report for constraint k, the one source of every
    gap and threshold weight the suites check; None when no policy is
    always safe (on a noisy grid whose pit can be re-entered, for one)."""
    try:
        return lambda_bounds(f.cmdp, 1.0, f.quantum, k)
    except WorstCaseInfeasible:
        return None


def _rn(f: Fixture):
    return [PenaltyScheme.RISK_NEUTRAL] * f.cmdp.n_constraints


def check_zero_penalty_equivalence(fixtures: list[Fixture]) -> VerificationReport:
    """Zero penalty weight collapses the augmented problem to the plain one."""
    rep = VerificationReport("zero_penalty_equivalence")
    for f in fixtures:
        plain, _ = unconstrained_value(f.cmdp)
        e = build_extended(f.cmdp, [0.0] * f.cmdp.n_constraints, _rn(f), f.quantum)
        aug = backward_induction(e).initial_value
        rep.add(f.name, 0.0, plain, aug, abs(aug - plain) <= TOL)
    return rep


def check_worst_case_masking(fixtures: list[Fixture]) -> VerificationReport:
    """A huge penalty weight reproduces the masked always-safe optimum.

    At the rn frontier's solve at HUGE_LAMBDA, asserts the greedy policy's
    violation probability is exactly zero, its expected (unpenalized) return
    matches the masked value within 1e-9, and the objective within 1e-6.
    """
    rep = VerificationReport("worst_case_masking")
    for f in fixtures:
        if (bounds := _report(f)) is None:
            continue
        masked = bounds.worst_case_return
        (value, st), _ = _frontier(f, PenaltyScheme.RISK_NEUTRAL)
        viol = max(st.violation_prob)
        rep.add(f.name, HUGE_LAMBDA, 0.0, viol, viol == 0.0, "violation probability")
        rep.add(
            f.name, HUGE_LAMBDA, masked, st.expected_return,
            abs(st.expected_return - masked) <= TOL, "greedy expected return",
        )
        rep.add(
            f.name, HUGE_LAMBDA, masked, value,
            abs(value - masked) <= 1e-6, "huge-lambda objective",
        )
    return rep


def check_violation_cost_bound(fixtures: list[Fixture]) -> VerificationReport:
    """Expected cost carried by violating trajectories is at most gap/lambda."""
    return _breakpoint_check(fixtures, PenaltyScheme.RISK_NEUTRAL, "violation_cost_bound")


def check_expected_cost_feasibility(fixtures: list[Fixture]) -> VerificationReport:
    """Every greedy policy at or above ``lambda_bounds``' lambda_expected_cost
    meets E[D] <= budget: each rn frontier policy optimal above that
    threshold, at the least weight where it is."""
    rep = VerificationReport("expected_cost_feasibility")
    for f in fixtures:
        if f.cmdp.n_constraints != 1 or (bounds := _report(f)) is None:
            continue
        if bounds.cost_slack == 0.0:
            rep.notes.append(f"{f.name}: skipped, zero slack makes the threshold infinite")
            continue
        threshold, budget = bounds.lambda_expected_cost, f.cmdp.budgets[0]
        _, pieces = _frontier(f, PenaltyScheme.RISK_NEUTRAL)
        ends = [lam for lam, _ in pieces[1:]] + [math.inf]
        for (start, st), end in zip(pieces, ends):
            if end >= threshold:
                rep.add(f.name, max(start, threshold), budget, st.expected_cost[0],
                        st.expected_cost[0] <= budget + TOL)
    return rep


def check_violation_prob_bound(fixtures: list[Fixture]) -> VerificationReport:
    """Violation probability is at most gap/(lambda*budget), alpha at
    ``lambda_bounds``' lambda_chance: checked for each rn frontier policy at
    the breakpoint ending its piece, where it is tightest, so at every weight
    and alpha in (0, 1]; the last policy must never violate."""
    rep = VerificationReport("violation_prob_bound")
    for f in fixtures:
        if f.cmdp.n_constraints != 1 or (bounds := _report(f)) is None:
            continue
        _, pieces = _frontier(f, PenaltyScheme.RISK_NEUTRAL)
        for (_, st), (end, _) in zip(pieces, pieces[1:]):
            bound = bounds.gap / (end * bounds.budget)
            rep.add(f.name, end, bound, st.violation_prob[0], st.violation_prob[0] <= bound + TOL)
        last = pieces[-1][1].violation_prob[0]
        rep.add(f.name, pieces[-1][0], 0.0, last, last == 0.0, "level is zero above the last breakpoint")
    return rep


def _slope(st) -> float:
    return st.expected_return - st.penalized_objective


def _frontier(f: Fixture, scheme: PenaltyScheme) -> tuple[tuple, list[tuple]]:
    """The greedy solve at HUGE_LAMBDA as (value, stats), and the greedy
    policies for lambda in [0, inf), in order, each as (the lambda from
    which it is optimal, its stats).  Kept on the model, so each (fixture,
    scheme) pair is solved once.

    V(lambda) is convex and piecewise linear, one line R - lambda*slope per
    policy.  Starting from the policies at 0 and HUGE_LAMBDA, solve at the
    crossing of two neighbours' lines: a value on the lines, or a policy the
    search has met already, makes it a breakpoint; a value above them brings
    in a new policy between the two.  Each split meets a new policy, so the
    search ends even where the sweep and the oracle's slopes disagree.
    The neighbours wait on a stack, leftmost on top, so the solves run in
    depth-first order and no function refers to itself: a dropped fixture
    is freed by reference counting.
    """
    if (found := f.cmdp._derived.get(("frontier", f.quantum, scheme))) is not None:
        return found
    K = f.cmdp.n_constraints

    def piece(lam):
        value, st = _greedy_oracle(f, [lam] * K, [scheme] * K)
        return value, (lam, st)

    (_, first), (top, last) = piece(0.0), piece(HUGE_LAMBDA)
    met = {first[1], last[1]}
    pieces = [first]
    todo = [(first, last)]  # neighbours whose pieces are still to find, in reverse order
    while todo:
        lo, hi = todo.pop()
        (_, lo_st), (_, hi_st) = lo, hi
        drop = _slope(lo_st) - _slope(hi_st)
        if drop <= TOL:  # one line: lo's policy stays optimal
            continue
        lam = (lo_st.expected_return - hi_st.expected_return) / drop
        value, mid = piece(lam)
        if value <= lo_st.expected_return - lam * _slope(lo_st) + TOL or mid[1] in met:
            pieces.append((lam, hi_st))
            continue
        met.add(mid[1])
        todo += [(mid, hi), (lo, mid)]
    # A policy optimal at lambda = 0 alone is optimal at no weight > 0.
    found = f.cmdp._derived["frontier", f.quantum, scheme] = (
        (top, last[1]), pieces[1:] if len(pieces) > 1 and pieces[1][0] == 0.0 else pieces)
    return found


# The OracleStats field each scheme's bound is on, one entry per constraint:
# E[D*1{D > b}], P(D > b) or E[(D - b)^+].  A level is its largest entry.
LEVEL_FIELD = {
    PenaltyScheme.RISK_NEUTRAL: "trunc_above",
    PenaltyScheme.VALUE_AT_RISK: "violation_prob",
    PenaltyScheme.CONDITIONAL_VALUE_AT_RISK: "cvar_excess",
}


def _breakpoint_check(fixtures: list[Fixture], scheme: PenaltyScheme, kind: str) -> VerificationReport:
    """Shared body of the violation-cost, chance and excess suites.

    A violating path's penalties total lambda*s times its own D, 1 or D - b
    (penalties.py), with s = T + 1 for the chance scheme and 1 otherwise, so
    each frontier policy's slope must be s times the sum of its level field.
    Each policy's level is checked against gap/(lam*s) at the breakpoint
    that ends its piece, where the bound is tightest.  Levels
    must not increase along the frontier, and the last must be zero.  The
    chance and excess suites take one-constraint fixtures.

    The slope row also proves optimality by weak duality: every policy's
    penalized value at lam is its return less lam*s times its summed level,
    and the greedy policy's is the largest, so no policy whose summed level
    is at most the greedy one's returns more.
    """
    rn, level_field = scheme is PenaltyScheme.RISK_NEUTRAL, LEVEL_FIELD[scheme]
    rep = VerificationReport(kind)
    for f in fixtures:
        if not rn and f.cmdp.n_constraints != 1:
            continue
        if (bounds := _report(f)) is None:
            if rn:
                rep.notes.append(f"{f.name}: skipped, worst case infeasible so the gap is undefined")
            continue
        steps = float(f.cmdp.horizon + 1) if scheme is PenaltyScheme.VALUE_AT_RISK else 1.0
        _, pieces = _frontier(f, scheme)
        levels = [max(getattr(st, level_field)) for _, st in pieces]
        for level, (end, _) in zip(levels, pieces[1:]):
            bound = bounds.gap / (end * steps)
            rep.add(f.name, end, bound, level, level <= bound + TOL)
        for start, st in pieces:
            total = steps * math.fsum(getattr(st, level_field))
            rep.add(f.name, start, total, _slope(st), abs(_slope(st) - total) <= TOL,
                    "penalty total is s x level")
        for a, b in zip(levels, levels[1:]):
            rep.add(f.name, math.nan, a, b, b <= a + TOL, "level non-increasing in lambda")
        rep.add(f.name, pieces[-1][0], 0.0, levels[-1], levels[-1] == 0.0,
                "level is zero above the last breakpoint")
    return rep


def check_chance_penalty_equivalence(fixtures: list[Fixture]) -> VerificationReport:
    return _breakpoint_check(fixtures, PenaltyScheme.VALUE_AT_RISK, "chance_penalty_equivalence")


def check_excess_penalty_equivalence(fixtures: list[Fixture]) -> VerificationReport:
    return _breakpoint_check(fixtures, PenaltyScheme.CONDITIONAL_VALUE_AT_RISK, "excess_penalty_equivalence")


def check_multi_constraint_feasibility(fixtures: list[Fixture]) -> VerificationReport:
    """Per-constraint threshold weights keep every expected cost within budget."""
    rep = VerificationReport("multi_constraint_feasibility")
    for f in fixtures:
        if f.cmdp.n_constraints < 2 or _report(f) is None:
            continue
        m = f.cmdp
        reports = [_report(f, k) for k in range(m.n_constraints)]
        slacks = [bounds.cost_slack for bounds in reports]
        if 0.0 in slacks:
            rep.notes.append(f"{f.name}: constraint {slacks.index(0.0)} has zero slack; skipped")
            continue
        lambdas = [bounds.lambda_expected_cost for bounds in reports]
        _, st = _greedy_oracle(f, lambdas, _rn(f))
        for k in range(m.n_constraints):
            rep.add(f.name, lambdas[k], m.budgets[k], st.expected_cost[k],
                    st.expected_cost[k] <= m.budgets[k] + TOL,
                    f"constraint {k}")
    return rep


def run_all(fixtures: list[Fixture]) -> list[VerificationReport]:
    """Run the whole battery; used by the CLI verify command and acceptance."""
    return [globals()[f"check_{kind}"](fixtures) for kind in ALL_KINDS]
