import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cmdp_forge import solver, verification
from cmdp_forge.envs import ChainBranch, ChainSpec, make_chain
from cmdp_forge.extended import build_extended
from cmdp_forge.fixtures import Fixture, fixture_pack, two_action_chain
from cmdp_forge.oracle import enumerate_trajectories, random_policy, stats
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import backward_induction, evaluate_policy, lambda_bounds
from cmdp_forge.verification import (
    POLICY_CAP,
    _report,
    check_excess_penalty_equivalence,
    check_expected_cost_feasibility,
    check_multi_constraint_feasibility,
    check_violation_cost_bound,
    count_deterministic_policies,
    enumerate_deterministic_policies,
    run_all,
)

RN = PenaltyScheme.RISK_NEUTRAL


def test_full_battery_passes_on_the_pack():
    reports = run_all(fixture_pack())
    assert len(reports) == 8
    for rep in reports:
        assert rep.passed, rep.kind


def test_underweighted_penalty_produces_a_fail_row(monkeypatch):
    # A tenth of the required weight leaves the risky branch optimal; the
    # feasibility check must report the measured breach, not hide it.
    f = Fixture("underweighted", two_action_chain(), quantum=1.0)
    monkeypatch.setattr(verification, "THRESHOLD_MULTIPLIERS", (0.1,))
    rep = check_expected_cost_feasibility([f])
    assert not rep.passed
    bad = [r for r in rep.rows if not r.passed]
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


@settings(max_examples=40, deadline=None)
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
    assert min(counts[4:]) > 10**7 > POLICY_CAP


def test_gap_suites_run_at_the_numbers_lambda_bounds_reports():
    pack = fixture_pack()
    reports = {f.name: lambda_bounds(f.cmdp, 0.25, f.quantum) for f in pack[:5]}
    rows = check_violation_cost_bound(pack).rows
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
