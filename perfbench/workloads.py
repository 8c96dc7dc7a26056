"""Inputs and the repeated rounds of each benchmark workload.

Every workload runs the same stages -- exact solve, ``bounds``, ``verify``,
the oracle identity, learner training and evaluation -- so every end-to-end
and per-layer metric is measured on every workload.  Each workload makes some
stages large and keeps the others small:

  exact_grid   the exact machinery: the 8x8 grid (364 augmented states, 70,285
               layer nodes) through build_extended, the backward sweep,
               max_safe_cost and `bounds`; `verify` three times a round; the
               criterion-9 identity on a noisy 3x3 grid (about 170,000
               trajectories held in memory) every round, and on a noiseless
               one.  The learners run only on the one-step chain.
  desk_learn   the learners: the shipped desk-grid configs trained and
               evaluated at full length (4000 actor-critic, 10000 Q-learning
               episodes).  The solver sees the 5x5 desk grid, and the oracle
               and `verify` only models of at most 170 layer nodes, so per-call
               overhead in those layers shows here.

Importing this module imports the package; the caller times that as set-up.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from cmdp_forge import cli, extended, learners, oracle, solver, textio, verification
from cmdp_forge.config import load_config
from cmdp_forge.envs import desk_grid, large_grid, make_gridworld, tiny_grid
from cmdp_forge.extended import build_extended
from cmdp_forge.oracle import enumerate_trajectories, random_policy, stats
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import (
    backward_induction,
    evaluate_policy,
    max_safe_cost,
    unconstrained_value,
)
from cmdp_forge.verification import ALL_KINDS

from reference import kernel_s
from tracing import TracedEnv, Tracer

now = time.perf_counter
TOL = 1e-9  # the acceptance tolerance of criteria 01 and 09
RN = PenaltyScheme.RISK_NEUTRAL
VAR = PenaltyScheme.VALUE_AT_RISK
QUANTUM = 0.25  # ledger quantum of every exact grid here; pit costs are multiples

MODELS = {
    "large": lambda: make_gridworld(large_grid(), "exact"),
    "desk": lambda: make_gridworld(desk_grid(), "exact"),
    "det5": lambda: make_gridworld(tiny_grid(noise_p=0.0, horizon=5), "exact"),
    "noisy4": lambda: make_gridworld(tiny_grid(noise_p=0.05, horizon=4), "exact"),
}

# The one-step chain gives episodes of fixed length, so the small learner
# stage costs the same whatever training seed the benchmark seed picks.
CHAIN_CONFIG = """\
env.kind = chain
env.chain = two_action_chain
learner = {learner}
scheme.1 = rn
lambda.1 = 2.0
Lambda_floor = 1.0
episodes = {episodes}
eval_episodes = 5000
key_quantum = 1
"""


@dataclass(frozen=True)
class Plan:
    """A pass is three rounds.  Round r runs solve r -- lambda = 0, then the
    seeded lambda under rn, then under var -- and a share of every other
    stage, so that each metric's samples spread over the whole run."""

    model: str  # solved exactly, and dumped to a file for `bounds`
    verify_runs: int  # per round
    oracle: tuple[tuple[str, ...], ...]  # per round, the model of each random policy
    learn: str  # "chain" or "desk"
    train: tuple[tuple[int, ...], ...]  # per round, the learners trained
    evaluate: tuple[tuple[int, ...], ...]  # per round, the learners evaluated


ROUNDS = 3
PLANS = {
    "exact_grid": Plan("large", 3, (("noisy4", "det5"), ("noisy4",), ("noisy4",)),
                       "chain", train=((0, 1),) * ROUNDS, evaluate=((0, 1),) * ROUNDS),
    "desk_learn": Plan("desk", 1, (("det5",),) * ROUNDS,
                       "desk", train=((0,), (1,), ()), evaluate=((), (), (0, 1))),
}


@dataclass
class Learner:
    name: str  # "ac" or "q"
    config: Path
    episodes: int
    eval_episodes: int
    train_seed: int
    budget: float | None  # set where criterion 11 (final-1000 episodes) applies


@dataclass
class Inputs:
    plan: Plan
    out: Path
    models: dict
    model_file: Path
    lam: float  # penalty weight of the seeded solves
    oracle_lam: float
    oracle_seed: int
    eval_seed: int
    learners: list[Learner]


def build_inputs(workload: str, seed: int, root: Path, out: Path) -> Inputs:
    """Generate every input of one workload from its seed."""
    plan = PLANS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    names = {plan.model, *(name for names in plan.oracle for name in names)}
    models = {name: MODELS[name]() for name in sorted(names)}
    model_file = out / f"model_{plan.model}.cmdp"
    model_file.write_text(textio.dump_cmdp(models[plan.model]))

    lam = rng.uniform(0.5, 5.0)
    oracle_lam = rng.uniform(0.1, 2.0)
    oracle_seed = rng.randrange(2**32)
    eval_seed = rng.randrange(1, 10**6)
    found = []
    if plan.learn == "desk":
        # Training seeds stay the configs' first seed: the desk learners'
        # episode rate moves by up to a quarter with the training seed, more
        # than the bound, so the benchmark seed picks the evaluation seed only.
        for name, file in (("ac", "desk_gridworld.cfg"), ("q", "desk_gridworld_q.cfg")):
            cfg_path = root / "configs" / file
            cfg = load_config(cfg_path.read_text())
            found.append(Learner(name, cfg_path, cfg.episodes, cfg.eval_episodes,
                                 cfg.seeds[0], cfg.grid.c_max if name == "ac" else None))
    else:
        for name, learner, episodes in (("ac", "safe_ac", 3000), ("q", "safe_q", 6000)):
            cfg_path = out / f"chain_{name}.cfg"
            text = CHAIN_CONFIG.format(learner=learner, episodes=episodes)
            cfg = load_config(text)
            cfg_path.write_text(text)
            found.append(Learner(name, cfg_path, cfg.episodes, cfg.eval_episodes,
                                 rng.randrange(1, 10**6), None))
    return Inputs(plan, out, models, model_file, lam, oracle_lam, oracle_seed, eval_seed, found)


def ref_name(metric: str) -> str:
    """solve_s -> solve_ref, ac_train_episodes_per_s -> ac_train_episodes_per_ref."""
    return metric[:-1] + "ref"


@dataclass
class Run:
    """Samples, exact per-round counters and failures of one benchmark run."""

    tracer: Tracer | None = None
    samples: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # current round only
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    kernels: list = field(default_factory=list)  # kernel times since the last sample

    def sample(self, metric: str, seconds: float, work: float | None = None) -> None:
        """One sample of ``metric`` -- seconds, or ``work`` per second -- and of
        its ``*_ref`` twin: the seconds in units of the mean reference-kernel
        time around the sample's operations (one kernel before each call, one
        after the sample).  The twin cancels the machine's speed, which drifts
        by a fifth and more over minutes on shared hosts."""
        if self.tracer is not None:
            return  # a traced run reports per-layer metrics only
        self.kernels.append(kernel_s())
        ref = seconds / statistics.fmean(self.kernels)
        self.kernels.clear()
        for name, value in ((metric, seconds), (ref_name(metric), ref)):
            self.samples.setdefault(name, []).append(value if work is None else work / value)

    def call(self, fn, *args):
        """One timed operation; returns (result, seconds)."""
        self.attempted += 1
        if self.tracer is None:
            self.kernels.append(kernel_s())
        t0 = now()
        out = fn(*args)
        return out, now() - t0

    def check(self, ok: bool, message: str) -> None:
        """A miss fails the most recent operation."""
        if not ok:
            self.failed_ops.add(self.attempted)
            self.failures.append(message)

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def record(self, name: str, value) -> None:
        """An exact output; repeats within a round must give the same value."""
        self.check(self.counters.setdefault(name, value) == value,
                   f"{name} changed within a round: {self.counters[name]!r} then {value!r}")

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def cli(self, span: str, argv: list[str]) -> float:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf), self.span(span):
            rc, seconds = self.call(cli.main, [str(a) for a in argv])
        self.check(rc == 0, f"cmdp-forge {' '.join(map(str, argv))} exited {rc}: {buf.getvalue()[-500:]}")
        return seconds


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def edge_count(e) -> int:
    """Edges one backward sweep visits: every (node, action, successor)."""
    m = e.base
    degree = [sum(len(m.successors(s, a)) for a in m.actions_at(s)) for s in range(m.n_states)]
    return sum(degree[s] for layer in e.layers[:-1] for (s, _ledger) in layer)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def checkpoint_rows(text: str) -> int:
    """Distinct observation keys over every table of a checkpoint.v1 file."""
    keys = set()
    for line in text.splitlines():
        parts = line.split()  # table lines read "state bucket action = value"
        if len(parts) == 5 and parts[3] == "=":
            keys.add((parts[0], parts[1]))
    return len(keys)


def solve_step(inp: Inputs, run: Run, lam: float, scheme, plain: float) -> None:
    """One exact solve and the evaluation of its greedy policy."""
    m = inp.models[inp.plan.model]
    e, t_build = run.call(build_extended, m, [lam], [scheme], QUANTUM)
    vt, t_sweep = run.call(backward_induction, e)
    run.sample("solve_s", t_build + t_sweep)
    run.record("solve.aug_states", len(e.states))
    run.record("solve.layer_nodes", sum(len(layer) for layer in e.layers))
    if lam == 0.0:
        run.check(abs(vt.initial_value - plain) <= TOL,
                  f"criterion 01: lambda=0 value {vt.initial_value!r} != unconstrained {plain!r}")
        run.record("solve.edges", edge_count(e))
    policy = vt.greedy_policy(m.n_actions)
    value, seconds = run.call(evaluate_policy, e, policy)
    run.sample("policy_eval_s", seconds)
    run.check(abs(value - vt.initial_value) <= TOL,
              f"evaluate_policy(greedy) {value!r} != initial_value {vt.initial_value!r}")
    run.record("solve.initial_value", vt.initial_value)


def bounds_step(inp: Inputs, run: Run, plain: float) -> None:
    out = inp.out / "bounds"
    run.sample("bounds_s", run.cli("cli.bounds", [
        "--out", out, "bounds", inp.model_file, "--alpha", 0.25, "--quantum", QUANTUM]))
    rows = {r["quantity"]: float(r["value"]) for r in read_csv(out / "bounds.csv")}
    if "best_return" in rows:
        run.check(abs(rows["best_return"] - plain) <= TOL,
                  f"bounds best_return {rows['best_return']!r} != unconstrained {plain!r}")
    else:
        run.check(rows == {"feasible_worst_case": 0.0}, f"unexpected bounds report {rows}")
    run.record("bounds.report", digest((out / "bounds.csv").read_bytes()))


def max_safe_cost_step(inp: Inputs, run: Run) -> None:
    m = inp.models[inp.plan.model]
    run.attempted += 1  # checked, not timed: no sample, so no reference kernel
    safe = max_safe_cost(m, 0, QUANTUM)
    run.check(0.0 <= safe <= m.budgets[0] + TOL, f"max_safe_cost {safe!r} outside [0, budget]")
    run.record("solve.max_safe_cost", safe)


def verify_step(inp: Inputs, run: Run) -> None:
    out = inp.out / "verify"
    run.sample("verify_s", run.cli("cli.verify", ["--out", out, "verify"]))
    rows = read_csv(out / "verify_report.csv")
    bad = [f"{r['kind']}/{r['fixture']}" for r in rows if r["status"] != "pass"]
    run.check(rows and not bad, f"verify rows failed: {bad[:5]} of {len(rows)}")
    run.record("verify.rows", len(rows))
    run.record("verify.report", digest((out / "verify_report.csv").read_bytes()))


def oracle_step(inp: Inputs, run: Run, name: str, rng: random.Random) -> tuple[float, int]:
    """Criterion 09 on one random policy: the oracle's penalized objective
    equals evaluate_policy and the oracle's own decomposition.  Returns the
    enumerate + stats seconds and the trajectory count."""
    m = inp.models[name]
    lam = inp.oracle_lam
    e = build_extended(m, [lam], [RN], QUANTUM)
    policy = random_policy(m, QUANTUM, rng)
    trajs, t_enum = run.call(enumerate_trajectories, m, policy, QUANTUM)
    st, t_stats = run.call(stats, trajs, m, [lam], [RN])
    n = len(trajs)
    run.count("oracle.trajectories", n)
    del trajs
    dp = evaluate_policy(e, policy)
    decomposed = st.expected_return - lam * math.fsum(st.trunc_above)
    run.check(abs(dp - st.penalized_objective) <= TOL
              and abs(decomposed - st.penalized_objective) <= TOL,
              f"criterion 09 on {name}: oracle {st.penalized_objective!r}, "
              f"evaluate_policy {dp!r}, decomposition {decomposed!r}")
    run.count("oracle.objective", st.penalized_objective)
    return t_enum + t_stats, n


def train_step(inp: Inputs, run: Run, ln: Learner) -> None:
    out = inp.out / f"learn_{ln.name}"
    seconds = run.cli("cli.train", ["--config", ln.config, "--out", out,
                                    "--seeds", ln.train_seed, "train"])
    run.sample(f"{ln.name}_train_episodes_per_s", seconds, ln.episodes)
    log = read_csv(out / f"train_seed{ln.train_seed}.csv")
    run.check(len(log) == ln.episodes, f"{ln.name}: {len(log)} log rows, want {ln.episodes}")
    if ln.budget is not None:
        tail = log[-1000:]
        ret = statistics.fmean(float(r["return"]) for r in tail)
        cost = statistics.fmean(float(r["final_cost"]) for r in tail)
        run.check(cost <= 1.1 * ln.budget and ret > 0.0,
                  f"criterion 11: final-1000 cost {cost:.4f} (limit {1.1 * ln.budget:g}), return {ret:.3f}")
    data = (out / f"checkpoint_seed{ln.train_seed}.txt").read_bytes()
    run.record(f"learn.{ln.name}.episodes", len(log))
    run.record(f"learn.{ln.name}.checkpoint", digest(data))
    run.record(f"learn.{ln.name}.checkpoint_bytes", len(data))
    run.record(f"learn.{ln.name}.table_rows", checkpoint_rows(data.decode()))


def evaluate_step(inp: Inputs, run: Run, ln: Learner) -> float:
    """`evaluate` the learner's checkpoint; returns the seconds it took."""
    out = inp.out / f"learn_{ln.name}"
    seconds = run.cli("cli.evaluate", ["--config", ln.config, "--out", out,
                                       "--seeds", inp.eval_seed, "evaluate", "--checkpoint",
                                       out / f"checkpoint_seed{ln.train_seed}.txt"])
    agg = read_csv(out / "eval_report.csv")[-1]
    ok = agg["seed"] == "aggregate" and 0.0 <= float(agg["violation_prob"]) <= 1.0
    run.check(ok and math.isfinite(float(agg["mean_return"])), f"{ln.name}: bad eval report {agg}")
    run.record(f"learn.{ln.name}.eval_report", digest((out / "eval_report.csv").read_bytes()))
    return seconds


def run_round(inp: Inputs, run: Run, r: int) -> None:
    """Round r (0, 1 or 2) of a pass; the same round repeats exactly."""
    plan = inp.plan
    plain = unconstrained_value(inp.models[plan.model])[0]
    lam, scheme = ((0.0, RN), (inp.lam, RN), (inp.lam, VAR))[r]
    solve_step(inp, run, lam, scheme, plain)
    if r == 1:
        max_safe_cost_step(inp, run)
    else:
        bounds_step(inp, run, plain)
    for _ in range(plan.verify_runs):
        verify_step(inp, run)
    rng = random.Random(f"{inp.oracle_seed}:{r}")
    # One oracle sample a round, all its draws together, so that each draw
    # weighs by its trajectory count.
    done = [oracle_step(inp, run, name, rng) for name in plan.oracle[r]]
    run.sample("oracle_traj_per_s", sum(s for s, _ in done), sum(n for _, n in done))
    for i in plan.train[r]:
        train_step(inp, run, inp.learners[i])
    if plan.evaluate[r]:
        seconds = sum(evaluate_step(inp, run, inp.learners[i]) for i in plan.evaluate[r])
        episodes = sum(inp.learners[i].eval_episodes for i in plan.evaluate[r])
        run.sample("eval_episodes_per_s", seconds, episodes)


def install_tracing(tracer: Tracer) -> None:
    """Rebind the package's layer functions to traced wrappers (traced run only)."""
    # This module too: its own calls into the layers are spans as well.
    modules = (cli, extended, learners, oracle, solver, textio, verification,
               sys.modules[__name__])

    def on_build(e, _args):
        tracer.count("extended.aug_states", len(e.states))
        tracer.count("extended.layer_nodes", sum(len(layer) for layer in e.layers))
        tracer.count("extended.edges", edge_count(e))

    def on_sweep(_vt, args):
        tracer.count("solver.sweep_edges", edge_count(args[0]))

    def on_check(report, _args):
        tracer.count("verification.rows", len(report.rows))
        tracer.count("verification.rows_failed", sum(not r.passed for r in report.rows))

    def on_dump(text, _args):
        tracer.count("textio.checkpoint_bytes", len(text.encode()))

    def on_enumerate(trajs, _args):
        tracer.count("oracle.trajectories", len(trajs))

    for fn, name, hook in (
        (extended.build_extended, "extended.build", on_build),
        (solver.backward_induction, "solver.sweep", on_sweep),
        (solver.evaluate_policy, "solver.evaluate_policy", None),
        (solver.unconstrained_value, "solver.unconstrained", None),
        (solver.worst_case_value, "solver.worst_case", None),
        (solver.max_safe_cost, "solver.max_safe_cost", None),
        (oracle.enumerate_trajectories, "oracle.enumerate", on_enumerate),
        (oracle.stats, "oracle.stats", None),
        (oracle.random_policy, "oracle.random_policy", None),
        (learners.safe_actor_critic, "learners.ac", None),
        (learners.safe_q_learning, "learners.q", None),
        (learners.constrained_action_select, "learners.select", None),
        (textio.load_cmdp, "textio.load_cmdp", None),
        (textio.dump_checkpoint, "textio.dump_checkpoint", on_dump),
        (textio.load_checkpoint, "textio.load_checkpoint", None),
    ):
        tracer.patch_function(modules, fn, name, hook)
    for kind in ALL_KINDS:
        fn = getattr(verification, f"check_{kind}")
        tracer.patch_function(modules, fn, f"verification.{kind}", on_check)
    tracer.patch_attr(solver.ValueTable, "greedy_policy", "solver.greedy_policy")
    tracer.patch_attr(learners.ActorCriticTables, "polyak", "learners.polyak")
    build_env = cli.build_env
    tracer.replace(cli, "build_env", lambda cfg, seed: TracedEnv(build_env(cfg, seed), tracer))
