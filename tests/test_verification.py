import ast
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdp_forge import oracle, solver, verification
from cmdp_forge.envs import ChainBranch, ChainSpec, make_chain
from cmdp_forge.extended import build_extended
from cmdp_forge.fixtures import Fixture, fixture_pack, two_action_chain
from cmdp_forge.oracle import enumerate_trajectories, random_policy, stats
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import backward_induction, evaluate_policy, lambda_bounds
from cmdp_forge.verification import (
    ALL_KINDS,
    _frontier,
    _report,
    check_excess_penalty_equivalence,
    check_expected_cost_feasibility,
    check_multi_constraint_feasibility,
    check_violation_cost_bound,
    check_violation_prob_bound,
    run_all,
)

from brute import (
    better_rival,
    count_deterministic_policies,
    enumerate_deterministic_policies,
    frontier_rivals,
    rival_stats,
    small_cmdps,
)

RN = PenaltyScheme.RISK_NEUTRAL
VAR = PenaltyScheme.VALUE_AT_RISK
CVAR = PenaltyScheme.CONDITIONAL_VALUE_AT_RISK


def test_full_battery_passes_on_the_pack():
    reports = run_all(fixture_pack())
    assert len(reports) == 8
    for rep in reports:
        assert rep.passed, rep.kind


def _fail_rows_under(monkeypatch, check, scale):
    """The FAIL rows of ``check`` on two_action_chain when every report it
    reads is passed through ``scale``."""
    real = verification._report
    monkeypatch.setattr(verification, "_report", lambda f, k=0: scale(real(f, k)))
    rep = check([Fixture("underweighted", two_action_chain(), quantum=1.0)])
    return [r for r in rep.rows if not r.passed]


def test_underweighted_penalty_produces_a_fail_row(monkeypatch):
    # A tenth of the threshold weight puts the risky branch, optimal below
    # the breakpoint 1/3, under check; the suite must report the breach.
    bad = _fail_rows_under(monkeypatch, check_expected_cost_feasibility,
                           lambda r: replace(r, cost_slack=10.0 * r.cost_slack))
    assert bad and bad[0].measured > bad[0].bound


def test_understated_gap_produces_a_violation_prob_fail_row(monkeypatch):
    # A tenth of the gap puts the risky branch's bound below its P(D > b) = 1.
    bad = _fail_rows_under(monkeypatch, check_violation_prob_bound,
                           lambda r: replace(r, best_return=r.worst_case_return + r.gap / 10.0))
    assert bad and bad[0].measured > bad[0].bound


def test_policy_enumeration_counts_the_chain():
    m = two_action_chain()
    assert count_deterministic_policies(m, 1.0) == 2
    policies = list(enumerate_deterministic_policies(m, 1.0))
    assert len(policies) == 2
    returns = set()
    for pol in policies:
        st = stats(enumerate_trajectories(m, pol, 1.0), m)
        returns.add(st.expected_return)
    assert returns == {1.0, 2.0}


def test_brute_force_names_the_rival_that_beats_a_dominated_policy():
    # The safe branch's return claimed at the risky branch's level: the
    # risky branch, at that level, returns more.
    rivals = rival_stats(two_action_chain(), 1.0)
    assert sorted((r.violation_prob, r.expected_return) for r in rivals) == [((0.0,), 1.0), ((1.0,), 2.0)]
    assert better_rival(rivals, VAR, 1.0, 1.0) == (1.0, 2.0)
    assert better_rival(rivals, VAR, 1.0, 2.0) is None
    assert better_rival(rivals, VAR, 0.0, 1.0) is None


MAX_POLICIES = 16  # the property test skips models with more deterministic policies


@settings(max_examples=150)
@given(small_cmdps())
def test_every_frontier_policy_is_optimal_at_its_summed_level(m):
    # Weak duality bounds the return of any policy at a summed level no
    # higher than a frontier policy's; check it against every rival.
    if count_deterministic_policies(m, 0.5) > MAX_POLICIES:
        return
    f, rivals = Fixture("p", m, 0.5), rival_stats(m, 0.5)
    for scheme in PenaltyScheme:
        assert frontier_rivals(f, scheme, rivals) == [None] * len(_frontier(f, scheme)[1]), scheme


def test_objective_is_non_increasing_in_the_weight():
    rng = random.Random(13)
    for name in ("stochastic_chain", "grid3_det"):
        f = next(x for x in fixture_pack() if x.name == name)
        pol = random_policy(f.cmdp, f.quantum, rng)
        for scheme in PenaltyScheme:
            values = []
            for lam in (0.0, 0.5, 1.0, 4.0, 16.0):
                e = build_extended(f.cmdp, [lam], [scheme], f.quantum)
                values.append(evaluate_policy(e, pol))
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), (name, scheme)


branch_rewards = st.lists(
    st.floats(min_value=-2.0, max_value=4.0), min_size=2, max_size=3
)
branch_costs = st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]), min_size=2, max_size=3
)


@settings(max_examples=40)
@given(branch_rewards, branch_costs, st.sampled_from([0.25, 0.5, 1.5, 4.0]))
def test_solver_matches_oracle_on_random_chains(rewards, costs, lam):
    n = min(len(rewards), len(costs))
    spec = ChainSpec(
        branches=tuple(
            ChainBranch(f"b{i}", rewards[i], ((1.0, (costs[i],)),)) for i in range(n)
        ),
        budgets=(2.0,),
    )
    m = make_chain(spec)
    for scheme in PenaltyScheme:
        vt = backward_induction(build_extended(m, [lam], [scheme], 1.0))
        value, policy = vt.initial_value, vt.greedy_policy(m.n_actions)
        st_ = stats(enumerate_trajectories(m, policy, 1.0), m, [lam], [scheme])
        assert abs(value - st_.penalized_objective) <= 1e-9
        brute = max(
            stats(enumerate_trajectories(m, pol, 1.0), m, [lam], [scheme]).penalized_objective
            for pol in enumerate_deterministic_policies(m, 1.0)
        )
        assert value >= brute - 1e-9


def test_fixture_facts_are_measured_on_the_models():
    pack = fixture_pack()
    assert [_report(f) is not None for f in pack] == [True] * 5 + [False]
    counts = [count_deterministic_policies(f.cmdp, f.quantum) for f in pack]
    assert counts[:4] == [2, 3, 2, 3]
    assert min(counts[4:]) > 10**7


def test_gap_suites_run_at_the_numbers_lambda_bounds_reports():
    pack = fixture_pack()
    reports = {f.name: lambda_bounds(f.cmdp, 0.25, f.quantum) for f in pack[:5]}
    rows = [r for r in check_violation_cost_bound(pack).rows if r.note == ""]
    assert {r.fixture for r in rows} == set(reports)
    assert all(r.bound == reports[r.fixture].gap / r.lam for r in rows)
    rows = [r for r in check_excess_penalty_equivalence(pack).rows if r.note == ""]
    assert {r.fixture for r in rows} == set(reports) - {"two_cost_chain"}
    assert all(r.bound == reports[r.fixture].gap / r.lam for r in rows)
    f = next(f for f in pack if f.name == "two_cost_chain")
    rows = check_multi_constraint_feasibility(pack).rows
    assert [r.note for r in rows] == ["constraint 0", "constraint 1"]
    assert [r.lam for r in rows] == [lambda_bounds(f.cmdp, 0.25, f.quantum, k).lambda_expected_cost
                                     for k in range(2)]


def test_verify_forms_each_report_once(monkeypatch):
    calls = []
    for module, name in ((solver, "unconstrained_value"), (verification, "unconstrained_value"),
                         (solver, "max_safe_cost")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
    run_all(fixture_pack())
    # Six plain solves for the zero-penalty suite, and per feasible fixture
    # one report per constraint: five for constraint 0, one for constraint 1.
    assert calls.count("unconstrained_value") == 6 + 6
    assert calls.count("max_safe_cost") == 6


# The breakpoints of every (fixture, scheme) frontier the suites check.
BREAKPOINTS = {
    ("two_action_chain", RN): [1 / 3], ("two_action_chain", VAR): [0.5], ("two_action_chain", CVAR): [1.0],
    ("three_branch_chain", RN): [1 / 6], ("three_branch_chain", VAR): [0.25],
    ("three_branch_chain", CVAR): [0.5],
    ("stochastic_chain", RN): [2 / 3], ("stochastic_chain", VAR): [1.0], ("stochastic_chain", CVAR): [2.0],
    ("two_cost_chain", RN): [1 / 3],
    ("grid3_det", RN): [1.6], ("grid3_det", VAR): [0.4], ("grid3_det", CVAR): [4.0],
}


def _frontiers():
    """(fixture, scheme, frontier) for every pair a breakpoint suite checks."""
    for f in fixture_pack():
        if _report(f) is not None:
            for scheme in PenaltyScheme:
                if scheme is RN or f.cmdp.n_constraints == 1:
                    yield f, scheme, _frontier(f, scheme)[1]


def test_frontier_breakpoints_are_pinned():
    found = {(f.name, scheme): [lam for lam, _ in pieces[1:]] for f, scheme, pieces in _frontiers()}
    assert found.keys() == BREAKPOINTS.keys()
    for key, lams in BREAKPOINTS.items():
        assert found[key] == pytest.approx(lams, rel=1e-12), key


def test_frontier_lines_are_the_value_at_every_weight():
    # Off the search's own path: at random weights, the sweep's value is the
    # line R - lam*slope of the frontier policy whose piece holds lam.
    rng = random.Random(21)
    for f, scheme, pieces in _frontiers():
        K = f.cmdp.n_constraints
        starts = [lam for lam, _ in pieces]
        draws = 0
        while draws < 20:
            lam = rng.uniform(0.0, 2.0 * max(starts[-1], 1.0))
            if lam == 0.0 or min(abs(lam - s) for s in starts) < 1e-6:
                continue
            draws += 1
            _, st = pieces[sum(s < lam for s in starts) - 1]
            line = st.expected_return - lam * (st.expected_return - st.penalized_objective)
            value = backward_induction(build_extended(f.cmdp, [lam] * K, [scheme] * K, f.quantum)).initial_value
            assert abs(value - line) <= 1e-9, (f.name, scheme, lam)


def test_frontier_pieces_match_direct_solves_at_threshold_weights():
    # The weights the expected-cost and violation-probability suites once
    # solved at: the piece holding each has the stats of a direct solve.
    for f in fixture_pack():
        if f.cmdp.n_constraints != 1 or (bounds := _report(f)) is None:
            continue
        lams = [replace(bounds, alpha=alpha).lambda_chance for alpha in (0.05, 0.25, 0.5)]
        if math.isfinite(bounds.lambda_expected_cost):
            lams += [bounds.lambda_expected_cost * mult for mult in (1.0, 2.0, 10.0)]
        _, pieces = _frontier(f, RN)
        for lam in lams:
            _, st = pieces[sum(start <= lam for start, _ in pieces) - 1]
            assert st == verification._greedy_oracle(f, [lam], [RN])[1], (f.name, lam)


def test_a_policy_optimal_at_zero_weight_alone_leaves_the_frontier():
    # Equal rewards: the greedy policy at lambda 0 takes the risky branch
    # (the lower index), which no weight > 0 keeps; its bound would sit at
    # lambda 0, where gap/lambda is undefined.
    m = make_chain(ChainSpec(
        branches=(ChainBranch("risky", 1.0, ((1.0, (3.0,)),)), ChainBranch("safe", 1.0, ((1.0, (0.0,)),))),
        budgets=(2.0,),
    ))
    f = Fixture("tie", m, 1.0)
    _, st = verification._greedy_oracle(f, [0.0], [RN])
    assert st.violation_prob == (1.0,)
    for scheme in PenaltyScheme:
        assert [(lam, st.violation_prob) for lam, st in _frontier(f, scheme)[1]] == [(0.0, (0.0,))]
    reports = run_all([f])
    assert all(rep.passed for rep in reports)
    assert [r.note for r in reports[2].rows] == [
        "penalty total is s x level", "level is zero above the last breakpoint"]


def test_a_sweep_the_oracle_disagrees_with_ends_in_fail_rows(monkeypatch):
    # An oracle that charges a chance-scheme crossing lambda*(t + 2), one
    # epoch more than the sweep: the crossing's greedy policy is an end's
    # again, which must end the search, and every violating policy's
    # penalty total is then off its level.
    real = oracle.penalty_amount

    def one_epoch_more(scheme, lam, before, step_cost, budget, epoch):
        if scheme is VAR and before <= budget < before + step_cost:
            return lam * (epoch + 2)
        return real(scheme, lam, before, step_cost, budget, epoch)

    monkeypatch.setattr(oracle, "penalty_amount", one_epoch_more)
    chance = run_all(fixture_pack())[ALL_KINDS.index("chance_penalty_equivalence")]
    failed = [r.fixture for r in chance.rows if not r.passed and r.note == "penalty total is s x level"]
    assert failed == ["two_action_chain", "three_branch_chain", "stochastic_chain", "grid3_det"]


def test_verification_reads_the_oracle_through_enumeration_and_stats():
    """verify's measured side is the oracle's enumeration and its stats
    alone; every other number is derived from those."""
    tree = ast.parse(Path(verification.__file__).read_text())
    imported = sorted(
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if "oracle" in f"{getattr(node, 'module', None)} {alias.name}"
    )
    assert imported == [("oracle", "enumerate_trajectories"), ("oracle", "stats")]
