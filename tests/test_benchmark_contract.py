"""The names the benchmark harness binds still run and pass its own checks.

Imports ``perfbench/workloads.py`` as the harness does and runs a reduced
pass of each workload: the three exact solves of a round on its model (the
large grid for exact_grid, the desk grid for desk_learn), then one oracle
identity on the noiseless 5-step grid or the ``max_safe_cost`` check, and
exact_grid's ``bounds`` and ``verify`` commands.
"""

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_exact_grid_solve_and_oracle_steps_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    inp = workloads.build_inputs("exact_grid", 1, ROOT, tmp_path)
    run = workloads.Run()
    plain = workloads.unconstrained_value(inp.models[inp.plan.model])[0]
    for lam, scheme in ((0.0, workloads.RN), (inp.lam, workloads.RN), (inp.lam, workloads.VAR)):
        run.counters.clear()  # counters hold one solve's exact outputs
        workloads.solve_step(inp, run, lam, scheme, plain)
    workloads.oracle_step(inp, run, "det5", random.Random(f"{inp.oracle_seed}:0"))
    assert run.failures == []


def test_exact_grid_bounds_and_verify_steps_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    inp = workloads.build_inputs("exact_grid", 1, ROOT, tmp_path)
    run = workloads.Run()
    workloads.bounds_step(inp, run, workloads.unconstrained_value(inp.models[inp.plan.model])[0])
    # The noisy large grid is worst-case infeasible: the one report the harness
    # accepts for it is this exact row.
    rows = workloads.read_csv(tmp_path / "bounds" / "bounds.csv")
    assert {r["quantity"]: float(r["value"]) for r in rows} == {"feasible_worst_case": 0.0}
    workloads.verify_step(inp, run)  # every verify row passes
    assert run.failures == []


def test_desk_learn_solve_and_max_safe_cost_steps_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    inp = workloads.build_inputs("desk_learn", 1, ROOT, tmp_path)
    run = workloads.Run()
    plain = workloads.unconstrained_value(inp.models[inp.plan.model])[0]
    for lam, scheme in ((0.0, workloads.RN), (inp.lam, workloads.RN), (inp.lam, workloads.VAR)):
        run.counters.clear()  # counters hold one solve's exact outputs
        workloads.solve_step(inp, run, lam, scheme, plain)
    workloads.max_safe_cost_step(inp, run)
    assert run.failures == []
