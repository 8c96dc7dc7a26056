"""Machine checks for every bound the penalized reformulation promises.

Each check solves the augmented problem, runs the enumeration oracle on the
greedy policy, and compares the measured quantity against the claimed bound
at a fixed tolerance.  Checks emit rows (kind, lambda, bound, measured,
pass) suitable for CSV so a failing bound is visible, not just a boolean.
Every gap and threshold weight a check runs at is read from
``lambda_bounds``' report (``_report``), the numbers ``bounds`` prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .extended import TabularPolicy, augment, build_extended
from .fixtures import Fixture
from .model import Cmdp
from .oracle import (
    chance_penalty_steps,
    enumerate_trajectories,
    stats,
)
from .penalties import PenaltyScheme
from .solver import (
    BoundsReport,
    WorstCaseInfeasible,
    backward_induction,
    lambda_bounds,
    unconstrained_value,
)

TOL = 1e-9

DEFAULT_LAMBDA_GRID = (0.1, 0.5, 1.0, 5.0, 25.0)
EQUIVALENCE_LAMBDA_GRID = (0.1, 1.0, 10.0, 100.0)
DEFAULT_ALPHAS = (0.05, 0.25, 0.5)
THRESHOLD_MULTIPLIERS = (1.0, 2.0, 10.0)  # expected-cost feasibility runs at these multiples of the threshold
HUGE_LAMBDA = 1e9
POLICY_CAP = 10_000  # optimality is checked by exhaustion up to this many policies

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
    vt = backward_induction(build_extended(f.cmdp, lambdas, schemes, f.quantum))
    trajs = enumerate_trajectories(f.cmdp, vt.greedy_policy(f.cmdp.n_actions), f.quantum)
    return vt.initial_value, stats(trajs, f.cmdp), trajs


def _report(f: Fixture, k: int = 0) -> BoundsReport | None:
    """``lambda_bounds``' report for constraint k, the one source of every
    gap and threshold weight the suites check; None when no policy is
    always safe (on a noisy grid whose pit can be re-entered, for one).
    Its alpha is 1.0; only lambda_chance reads it."""
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

    Asserts the greedy policy's violation probability is exactly zero, its
    expected (unpenalized) return matches the masked value within 1e-9, and
    the huge-lambda objective matches it within 1e-6.
    """
    rep = VerificationReport("worst_case_masking")
    for f in fixtures:
        if (bounds := _report(f)) is None:
            continue
        masked = bounds.worst_case_return
        K = f.cmdp.n_constraints
        value, st, _ = _greedy_oracle(f, [HUGE_LAMBDA] * K, _rn(f))
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


def check_violation_cost_bound(
    fixtures: list[Fixture], lambda_grid=DEFAULT_LAMBDA_GRID
) -> VerificationReport:
    """Expected cost carried by violating trajectories is at most gap/lambda."""
    rep = VerificationReport("violation_cost_bound")
    for f in fixtures:
        bounds = _report(f)
        if bounds is None:
            rep.notes.append(f"{f.name}: skipped, worst case infeasible so the gap is undefined")
            continue
        K = f.cmdp.n_constraints
        for lam in lambda_grid:
            _, st, _ = _greedy_oracle(f, [lam] * K, _rn(f))
            bound = bounds.gap / lam
            measured = max(st.trunc_above)
            rep.add(f.name, lam, bound, measured, measured <= bound + TOL)
    return rep


def check_expected_cost_feasibility(fixtures: list[Fixture]) -> VerificationReport:
    """At or above the threshold weight, the greedy policy meets E[D] <= budget.

    The threshold is ``lambda_bounds``' lambda_expected_cost, times each of THRESHOLD_MULTIPLIERS.
    """
    rep = VerificationReport("expected_cost_feasibility")
    for f in fixtures:
        if f.cmdp.n_constraints != 1 or (bounds := _report(f)) is None:
            continue
        if bounds.cost_slack == 0.0:
            rep.notes.append(f"{f.name}: skipped, zero slack makes the threshold infinite")
            continue
        threshold = bounds.lambda_expected_cost
        budget = f.cmdp.budgets[0]
        for mult in THRESHOLD_MULTIPLIERS:
            lam = threshold * mult
            if lam == 0.0:
                rep.notes.append(f"{f.name}: zero threshold, bound not applicable")
                continue
            _, st, _ = _greedy_oracle(f, [lam], _rn(f))
            rep.add(f.name, lam, budget, st.expected_cost[0],
                    st.expected_cost[0] <= budget + TOL)
    return rep


def check_violation_prob_bound(
    fixtures: list[Fixture], alphas=DEFAULT_ALPHAS
) -> VerificationReport:
    """At ``lambda_bounds``' lambda_chance, gap/(alpha*budget), violation
    probability is at most alpha.  ``_report``'s report is read at each
    alpha."""
    rep = VerificationReport("violation_prob_bound")
    for f in fixtures:
        if f.cmdp.n_constraints != 1 or (bounds := _report(f)) is None:
            continue
        for alpha in alphas:
            lam = replace(bounds, alpha=alpha).lambda_chance
            if lam == 0.0:
                rep.notes.append(f"{f.name}: zero gap, any policy qualifies")
                continue
            _, st, _ = _greedy_oracle(f, [lam], _rn(f))
            rep.add(f.name, lam, alpha, st.violation_prob[0],
                    st.violation_prob[0] <= alpha + TOL)
    return rep


def count_deterministic_policies(m: Cmdp, quantum: float) -> int:
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


def _equivalence_check(
    fixtures: list[Fixture],
    scheme: PenaltyScheme,
    kind: str,
    lambda_grid,
) -> VerificationReport:
    """Shared body for the chance/excess penalty-equivalence suites.

    Measures the policy's violation level (probability, or expected excess),
    checks it against gap/(lam*steps) resp. gap/lam, asserts the level is
    non-increasing in lambda and hits zero at the top of the grid, and on
    small fixtures verifies the greedy policy is optimal among all
    deterministic policies at least as safe.
    """
    chance = scheme is PenaltyScheme.VALUE_AT_RISK
    rep = VerificationReport(kind)
    for f in fixtures:
        if f.cmdp.n_constraints != 1 or (bounds := _report(f)) is None:
            continue
        gap = bounds.gap
        # Every rival's (level, return) is lambda-free: enumerate them once.
        rivals = None
        n_pol = count_deterministic_policies(f.cmdp, f.quantum)
        if n_pol <= POLICY_CAP:
            rivals = []
            for rival in enumerate_deterministic_policies(f.cmdp, f.quantum):
                rst = stats(enumerate_trajectories(f.cmdp, rival, f.quantum), f.cmdp)
                rival_level = rst.violation_prob[0] if chance else rst.cvar_excess[0]
                rivals.append((rival_level, rst.expected_return))
        levels = []
        for lam in lambda_grid:
            _, st, trajs = _greedy_oracle(f, [lam], [scheme])
            if chance:
                level = st.violation_prob[0]
                steps = chance_penalty_steps(trajs, f.cmdp, 0, lam)
                if steps is None:
                    # No violating trajectory under this policy; the constant
                    # is the horizon-determined count of assessment epochs.
                    steps = float(f.cmdp.horizon + 1)
                bound = gap / (lam * steps)
                note = f"measured penalty steps {steps:g}"
            else:
                level = st.cvar_excess[0]
                bound = gap / lam
                note = ""
            levels.append(level)
            rep.add(f.name, lam, bound, level, level <= bound + TOL, note)
            if rivals is not None:
                better = next(
                    (ret for rival_level, ret in rivals
                     if rival_level <= level + TOL and ret > st.expected_return + TOL),
                    None,
                )
                rep.add(
                    f.name, lam, st.expected_return,
                    st.expected_return if better is None else better, better is None,
                    f"optimal among {n_pol} deterministic policies at level <= {level:g}",
                )
        for a, b in zip(levels, levels[1:]):
            rep.add(f.name, math.nan, a, b, b <= a + TOL, "level non-increasing in lambda")
        rep.add(f.name, lambda_grid[-1], 0.0, levels[-1], levels[-1] == 0.0,
                "level reaches zero at the top of the grid")
    return rep


def check_chance_penalty_equivalence(
    fixtures: list[Fixture], lambda_grid=EQUIVALENCE_LAMBDA_GRID
) -> VerificationReport:
    return _equivalence_check(
        fixtures, PenaltyScheme.VALUE_AT_RISK, "chance_penalty_equivalence", lambda_grid
    )


def check_excess_penalty_equivalence(
    fixtures: list[Fixture], lambda_grid=EQUIVALENCE_LAMBDA_GRID
) -> VerificationReport:
    return _equivalence_check(
        fixtures, PenaltyScheme.CONDITIONAL_VALUE_AT_RISK, "excess_penalty_equivalence", lambda_grid
    )


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
        _, st, _ = _greedy_oracle(f, lambdas, _rn(f))
        for k in range(m.n_constraints):
            rep.add(f.name, lambdas[k], m.budgets[k], st.expected_cost[k],
                    st.expected_cost[k] <= m.budgets[k] + TOL,
                    f"constraint {k}")
    return rep


def run_all(fixtures: list[Fixture], lambda_grid=None, alphas=None) -> list[VerificationReport]:
    """Run the whole battery; used by the CLI verify command and acceptance."""
    grid = tuple(lambda_grid) if lambda_grid else DEFAULT_LAMBDA_GRID
    eq_grid = tuple(lambda_grid) if lambda_grid else EQUIVALENCE_LAMBDA_GRID
    avals = tuple(alphas) if alphas else DEFAULT_ALPHAS
    return [
        check_zero_penalty_equivalence(fixtures),
        check_worst_case_masking(fixtures),
        check_violation_cost_bound(fixtures, grid),
        check_expected_cost_feasibility(fixtures),
        check_violation_prob_bound(fixtures, avals),
        check_chance_penalty_equivalence(fixtures, eq_grid),
        check_excess_penalty_equivalence(fixtures, eq_grid),
        check_multi_constraint_feasibility(fixtures),
    ]
