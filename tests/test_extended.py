import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cmdp_forge import extended
from cmdp_forge.envs import desk_grid, large_grid, make_gridworld
from cmdp_forge.extended import (
    VIOLATED,
    LedgerCapExceeded,
    QuantizationError,
    augment,
    build_extended,
    ledger_rule,
    quantize,
)
from cmdp_forge.fixtures import fixture, fixture_pack, two_action_chain
from cmdp_forge.learners import ledger_bucket
from cmdp_forge.model import Cmdp
from cmdp_forge.penalties import PenaltyScheme, penalty_amount
from cmdp_forge.solver import backward_induction, max_safe_cost
from cmdp_forge.verification import run_all

RN = PenaltyScheme.RISK_NEUTRAL


def reachable_by_float_walk(m, budget_index=0):
    """Independent reachability oracle: walk exact float cost totals.

    Tracks (state, total including current state) pairs breadth-first for
    horizon steps, then collapses totals above the budget, mirroring what the
    builder is supposed to produce.
    """
    K = m.n_constraints
    start = (m.s0, tuple(float(m.costs[k, m.s0]) for k in range(K)))
    seen = {start}
    frontier = {start}
    for _ in range(m.horizon):
        nxt = set()
        for s, totals in frontier:
            for a in m.actions_at(s):
                for s2, _p in m.successors(s, a):
                    nxt.add(
                        (s2, tuple(t + float(m.costs[k, s2]) for k, t in enumerate(totals)))
                    )
        seen |= nxt
        frontier = nxt
    collapsed = set()
    for s, totals in seen:
        collapsed.add(
            (s, tuple("V" if t > m.budgets[k] else t for k, t in enumerate(totals)))
        )
    return collapsed


def reference_layers(m, quantum):
    """Independent builder: advance the ledger on every (node, action, successor).

    A plain breadth-first walk with no memoising; it returns (states,
    layers) in discovery order.
    """
    advance = ledger_rule(m, quantum)
    initial = (m.s0, advance((0,) * m.n_constraints, m.s0))
    seen = {initial: None}
    layers = [(initial,)]
    frontier = {initial: None}
    for _ in range(m.horizon):
        nxt = {}
        for (s, ledger) in frontier:
            for a in m.actions_at(s):
                for s2, _p in m.successors(s, a):
                    x2 = (s2, advance(ledger, s2))
                    nxt.setdefault(x2, None)
                    seen.setdefault(x2, None)
        layers.append(tuple(nxt))
        frontier = nxt
    return tuple(seen), tuple(layers)


def test_compiled_build_keeps_the_reference_discovery_order():
    models = [(f.name, f.cmdp, f.quantum) for f in fixture_pack()]
    models.append(("desk", make_gridworld(desk_grid(), "exact"), 0.25))
    models.append(("desk noise-free", make_gridworld(replace(desk_grid(), noise_p=0.0), "exact"), 0.25))
    for name, m, quantum in models:
        K = m.n_constraints
        e = build_extended(m, [0.5] * K, [RN] * K, quantum)
        states, layers = reference_layers(m, quantum)
        advance = ledger_rule(m, quantum)
        assert e.states == states, name
        assert e.layers == layers, name
        for t, layer in enumerate(e.compiled):
            state = [s for s, _ledger in layers[t]]
            # Ledger ids number the layer's distinct ledgers in first-seen order.
            distinct = list(dict.fromkeys(ledger for _s, ledger in layers[t]))
            assert [distinct[l] for l in layer.ledger.tolist()] == [ledger for _s, ledger in layers[t]]
            assert len(layer.cost) == len(distinct)
            if t < m.horizon:
                # Every available (node i, action a) is one pair a * n + i, by successor
                # count, highest first.
                n = len(layers[t])
                available = sorted(a * n + i for i, (s, _ledger) in enumerate(layers[t]) for a in m.actions_at(s))
                assert sorted(layer.pairs.tolist()) == available
                counts = [len(m.successors(state[q % n], q // n)) for q in layer.pairs.tolist()]
                assert all(x >= y for x, y in zip(counts, counts[1:]))
                keyed = list(zip([-c for c in counts], layer.pairs.tolist()))
                assert keyed == sorted(keyed)  # a stable sort: ties keep (action, node) order
                assert layer.ends == tuple(sum(c > j for c in counts) for j in range(max(counts)))
                for q, pair in enumerate(layer.pairs.tolist()):
                    assert layer.pos[divmod(pair, n)] == q and layer.ok[divmod(pair, n)]
                    assert layer.reward[q] == m.reward[state[pair % n], pair // n]
                assert (layer.pos[~layer.ok] == len(layer.pairs)).all() and layer.ok.sum() == len(available)
                # Only real edges, slot-major: nx sends (ledger, successor) to that arrival's
                # index in layer t+1, and slot j of pair q is the j-th successor with its probability.
                assert layer.flat.dtype == np.int32
                assert layer.flat.size == layer.prob.size == sum(counts)
                entered = layer.nx.ravel()[layer.flat]
                start = 0
                for j, end in enumerate(layer.ends):
                    for q, pair in enumerate(layer.pairs[:end].tolist()):
                        a, i = divmod(pair, n)
                        (s, ledger), l = layers[t][i], layer.ledger[i]
                        s2, p = m.successors(s, a)[j]
                        arrival = (s2, advance(ledger, s2))
                        assert layers[t + 1][layer.nx[l, s2]] == arrival
                        assert layers[t + 1][entered[start + q]] == arrival
                        assert layer.prob[start + q] == p
                    start += end
            else:  # no action is taken at layer T
                assert layer.pairs.size == layer.flat.size == 0 and not layer.ok.any()


@pytest.mark.parametrize("grid, fixed", [(desk_grid, 17), (large_grid, 23)])
def test_the_walk_stops_at_the_layer_fixed_point(grid, fixed):
    m = make_gridworld(grid(), "exact")
    e = augment(m, 0.25)
    T = m.horizon
    t = next(t for t in range(T) if e.layers[t + 1] == e.layers[t])
    assert t == fixed
    # Every later layer is the same tuple, and every later epoch below T the same Layer.
    assert all(e.layers[u] is e.layers[t] for u in range(t, T + 1))
    assert all(e.compiled[u] is e.compiled[t] for u in range(t, T))
    last, before = e.compiled[T], e.compiled[T - 1]
    assert (last.nx == -1).all()
    # The nodes' states are e.layers[T], the same tuple as e.layers[T - 1]; the
    # last layer's columns match the one before it, and it takes no action.
    for name in ("ledger", "cost"):
        assert np.array_equal(getattr(last, name), getattr(before, name))
    assert last.ok.shape == before.ok.shape and not last.ok.any() and last.pairs.size == 0


@pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0])
def test_a_weight_that_is_not_finite_and_non_negative_is_rejected(lam):
    f = fixture("grid3_noisy")
    with pytest.raises(ValueError, match=rf"^lambdas\[0\] must be finite and >= 0, got {lam}$"):
        build_extended(f.cmdp, [lam], [RN], f.quantum)


def test_quantize_accepts_multiples_and_rejects_others():
    assert quantize(1.25, 0.25, "x") == 5
    with pytest.raises(QuantizationError):
        quantize(1.3, 0.25, "x")


@pytest.mark.parametrize("quantum", [0.0, -1.0, math.inf, math.nan])
def test_ledger_rule_rejects_a_quantum_that_is_not_finite_and_positive(quantum):
    with pytest.raises(ValueError, match=r"^quantum: must be finite and > 0, got "):
        ledger_rule(two_action_chain(), quantum)


def test_chain_reachable_states_match_float_walk_oracle():
    m = two_action_chain()
    quantum = 1.0
    e = build_extended(m, [0.5], [RN], quantum)
    got = {
        (s, tuple("V" if v == VIOLATED else v * quantum for v in ledger))
        for (s, ledger) in e.states
    }
    assert got == reachable_by_float_walk(m)
    assert len(e.states) == 3
    name = {m.state_name(s): ledger for (s, ledger) in e.states}
    assert name["start"] == (0,)
    assert name["safe"] == (0,)
    assert name["risky"] == (VIOLATED,)


def test_gridworld_under_budget_ledgers_stay_in_the_cost_lattice():
    f = fixture("grid3_noisy")
    e = build_extended(f.cmdp, [0.5], [RN], quantum=f.quantum)
    under = {
        ledger[0] * f.quantum
        for (_s, ledger) in e.states
        if ledger[0] != VIOLATED
    }
    assert under <= {0.0, 1.0, 1.25, 1.5, 2.0}
    assert any(ledger[0] == VIOLATED for (_s, ledger) in e.states)
    got = {
        (s, tuple("V" if v == VIOLATED else v * f.quantum for v in ledger))
        for (s, ledger) in e.states
    }
    assert got == reachable_by_float_walk(f.cmdp)


def test_augmented_transitions_preserve_probability_mass():
    for name in ("two_action_chain", "stochastic_chain", "grid3_noisy", "two_cost_chain"):
        f = fixture(name)
        e = build_extended(
            f.cmdp,
            [0.3] * f.cmdp.n_constraints,
            [RN] * f.cmdp.n_constraints,
            f.quantum,
        )
        advance = ledger_rule(f.cmdp, f.quantum)
        for (s, ledger) in e.states:
            for a in f.cmdp.actions_at(s):
                mass = 0.0
                for s2, p in f.cmdp.successors(s, a):
                    advance(ledger, s2)
                    mass += p
                assert abs(mass - 1.0) <= 1e-12


def test_arity_mismatch_rejected():
    m = two_action_chain()
    with pytest.raises(ValueError):
        build_extended(m, [0.5, 0.5], [RN], quantum=1.0)
    with pytest.raises(ValueError):
        build_extended(m, [-1.0], [RN], quantum=1.0)


def test_state_cap_is_enforced_by_name(monkeypatch):
    f = fixture("grid3_noisy")
    monkeypatch.setattr(extended, "MAX_STATES", 10)
    with pytest.raises(LedgerCapExceeded, match="cap of 10"):
        build_extended(f.cmdp, [0.5], [RN], f.quantum)


def test_state_cap_is_exact_on_a_fresh_walk(monkeypatch):
    # The desk grid has 151 augmented states; the cap counts them as they are found.
    monkeypatch.setattr(extended, "MAX_STATES", 151)
    assert len(augment(make_gridworld(desk_grid(), "exact"), 0.25).states) == 151
    monkeypatch.setattr(extended, "MAX_STATES", 150)
    with pytest.raises(LedgerCapExceeded, match="cap of 150"):
        augment(make_gridworld(desk_grid(), "exact"), 0.25)


def test_weights_and_schemes_share_one_interned_space():
    f = fixture("grid3_noisy")
    a = build_extended(f.cmdp, [0.5], [RN], f.quantum)
    b = build_extended(f.cmdp, [3.0], [PenaltyScheme.VALUE_AT_RISK], f.quantum)
    space = augment(f.cmdp, f.quantum)
    for e in (a, b):
        assert e.states is space.states and e.layers is space.layers and e.compiled is space.compiled
    assert (a.lambdas, b.schemes, space.lambdas) == ((0.5,), (PenaltyScheme.VALUE_AT_RISK,), (0.0,))
    # Every layer holds the one canonical tuple of each node.
    canonical = {x: x for x in space.states}
    assert all(canonical[x] is x for layer in space.layers for x in layer)
    layer = space.compiled[0]
    assert not any(x.flags.writeable for x in
                   (layer.ledger, layer.cost, layer.violated, layer.nx, layer.pairs, layer.reward,
                    layer.flat, layer.prob, layer.pos, layer.ok))


def test_verify_walks_each_model_once_per_quantum(monkeypatch):
    walks = []
    rule = ledger_rule
    monkeypatch.setattr(extended, "ledger_rule", lambda m, quantum: walks.append(m) or rule(m, quantum))
    run_all(fixture_pack())
    # One walk per fixture, the two-constraint one included.
    assert len(walks) == len(fixture_pack()) == 6


def test_max_safe_cost_on_a_one_constraint_model_walks_it_once(monkeypatch):
    walks = []
    rule = ledger_rule
    monkeypatch.setattr(extended, "ledger_rule", lambda m, quantum: walks.append(m) or rule(m, quantum))
    m = fixture("grid3_det").cmdp
    first = max_safe_cost(m, 0, 0.25)
    assert walks == [m]
    assert max_safe_cost(m, 0, 0.25) == first
    assert walks == [m]


def test_only_extended_reads_the_edge_form():
    """The slot-major edge layout is ``extended.Layer``'s own: no other
    module of the package reads its fields."""
    fields = {"pairs", "ends", "flat", "prob", "pos"}
    readers = sorted(
        (path.name, node.lineno, node.attr)
        for path in Path(extended.__file__).parent.glob("*.py") if path.name != "extended.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in fields
    )
    assert readers == []


def test_layer_cost_decodes_every_ledger():
    spaces = [(make_gridworld(desk_grid(), "exact"), 0.25)] + [(f.cmdp, f.quantum) for f in fixture_pack()]
    for m, quantum in spaces:
        e = augment(m, quantum)
        for nodes, layer in zip(e.layers, e.compiled):
            ledgers = [ledger for _s, ledger in nodes]
            assert layer.cost.shape == (len(set(ledgers)), m.n_constraints)
            assert not layer.cost.flags.writeable
            assert layer.cost[layer.ledger].tolist() == [
                [math.inf if entry == VIOLATED else entry * quantum for entry in ledger]
                for ledger in ledgers
            ]
            assert layer.violated[layer.ledger].tolist() == [VIOLATED in ledger for ledger in ledgers]


def corridor(costs, budget, horizon):
    """Single-action corridor with costs on consecutive states."""
    n = len(costs)
    transition = np.zeros((n, 1, n))
    for s in range(n - 1):
        transition[s, 0, s + 1] = 1.0
    transition[n - 1, 0, n - 1] = 1.0
    reward = np.zeros((n, 1))
    return Cmdp(
        transition=transition,
        reward=reward,
        costs=np.array([costs]),
        budgets=(budget,),
        horizon=horizon,
    )


def full_resolution_value(m, lam, scheme):
    """Backward induction tracking the exact running total, no collapsing.

    Independent of the production solver: states are (base state, float total
    including the current state), and each arrival charges the literal
    penalty from the exact totals.
    """
    T = m.horizon
    start = (m.s0, float(m.costs[0, m.s0]))
    layers = [{start}]
    for _ in range(T):
        nxt = set()
        for s, tot in layers[-1]:
            for a in m.actions_at(s):
                for s2, _p in m.successors(s, a):
                    nxt.add((s2, tot + float(m.costs[0, s2])))
        layers.append(nxt)
    values = {x: 0.0 for x in layers[T]}
    for t in range(T - 1, -1, -1):
        layer = {}
        for (s, tot) in layers[t]:
            best = -math.inf
            for a in m.actions_at(s):
                acc = float(m.reward[s, a])
                for s2, p in m.successors(s, a):
                    d2 = float(m.costs[0, s2])
                    delta = penalty_amount(scheme, lam, tot, d2, m.budgets[0], t + 1)
                    acc += p * (values[(s2, tot + d2)] - delta)
                best = max(best, acc)
            layer[(s, tot)] = best
        values = layer
    init_charge = penalty_amount(scheme, lam, 0.0, float(m.costs[0, m.s0]), m.budgets[0], 0)
    return values[start] - init_charge


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
@pytest.mark.parametrize("lam", [0.3, 1.0, 5.0])
def test_collapsed_values_match_full_resolution(scheme, lam):
    # Costs keep accruing after the budget is crossed, so the collapsed bucket
    # is exercised for several steps.
    m = corridor([0.0, 1.5, 1.5, 1.5, 0.5], budget=2.0, horizon=4)
    collapsed = backward_induction(build_extended(m, [lam], [scheme], 0.25)).initial_value
    full = full_resolution_value(m, lam, scheme)
    assert abs(collapsed - full) <= 1e-9


@pytest.mark.parametrize("scheme", list(PenaltyScheme))
def test_collapsed_values_match_full_resolution_with_branching(scheme):
    f = fixture("grid3_det")
    collapsed = backward_induction(
        build_extended(f.cmdp, [2.0], [scheme], f.quantum)
    ).initial_value
    full = full_resolution_value(f.cmdp, 2.0, scheme)
    assert abs(collapsed - full) <= 1e-9


def test_sampled_mode_keys_saturate_over_budget():
    assert ledger_bucket(1.73, 2.0, 0.1) == 17
    assert ledger_bucket(2.0, 2.0, 0.1) == 20
    assert ledger_bucket(2.05, 2.0, 0.1) == VIOLATED
    assert (ledger_bucket(0.31, 2.0, 0.1), ledger_bucket(9.0, 2.0, 0.1)) == (3, VIOLATED)
