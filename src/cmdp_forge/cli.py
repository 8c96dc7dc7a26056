"""Command-line entry point.

Subcommands:
  train     seeded learner runs; per-seed CSV logs, checkpoints, aggregate CSV
  evaluate  Monte-Carlo rollouts of a checkpoint with exploration off
  verify    the full battery of bound checks on the fixture pack
  bounds    threshold report for a model file

Common flags: --config PATH, --out DIR (default $CMDP_FORGE_OUT or ./out),
--seeds a,b,c (overrides the config), --jobs N.  Exit codes: 0 success,
1 check or run failure, 2 configuration or input-file error.

Outputs are deterministic for a fixed config and seed list; the only
exception is the wall_ms column of training logs, which records real time.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config, override
from .envs import GridWorldEnv, SampledKernelEnv
from .fixtures import fixture, fixture_pack
from .learners import (
    ActorCriticTables,
    constrained_action_select,
    greedy_action,
    obs_key,
    safe_actor_critic,
    safe_q_learning,
)
from .solver import WorstCaseInfeasible, lambda_bounds
from .textio import FormatError, dump_checkpoint, format_number, load_checkpoint, load_cmdp
from .verification import run_all

TRAIN_COLUMNS = ("episode", "return", "final_cost", "lambda", "epsilon_or_entropy", "wall_ms")


def _default_out() -> str:
    return os.environ.get("CMDP_FORGE_OUT", "out")


def _num(x) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return format_number(float(x))


def _spread(values: list[float]) -> float:
    """Population std; exactly 0.0 for equal values (one seed) without pstdev's Fraction sums."""
    return statistics.pstdev(values) if any(v != values[0] for v in values) else 0.0


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def build_env(cfg: ExperimentConfig, seed):
    if cfg.env_kind == "gridworld":
        return GridWorldEnv(cfg.grid, seed=seed)
    return SampledKernelEnv(fixture(cfg.chain_name).cmdp, seed=seed)


def _train_one(args):
    """One (seed, lambda) training job; returns (rows, checkpoint text)."""
    cfg, seed, lam = args
    cfg = replace(cfg, lambda0=lam)
    env = build_env(cfg, seed=f"{seed}:env")
    if cfg.learner == "safe_q":
        q, log, _sched = safe_q_learning(env, cfg, seed)
        checkpoint = dump_checkpoint(
            "safe_q", {"q": q},
            {"quantum": cfg.key_quantum, "budget": env.budget, "n_actions": env.n_actions},
        )
    else:
        tables, log, _sched = safe_actor_critic(env, cfg, seed)
        checkpoint = dump_checkpoint(
            "safe_ac",
            tables.sections(),
            {
                "quantum": cfg.key_quantum,
                "budget": env.budget,
                "n_actions": env.n_actions,
                "alpha_ent": cfg.alpha_ent,
            },
        )
    rows = [
        (r.episode, _num(r.ret), _num(r.final_cost), _num(r.lam), _num(r.explore), _num(round(r.wall_ms, 3)))
        for r in log
    ]
    return rows, checkpoint


def cmd_train(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    lams = list(cfg.lambda_grid) if cfg.lambda_grid else [cfg.lambda0]
    runs = [(seed, lam) for lam in lams for seed in cfg.seeds]

    def tag(seed, lam):
        base = f"seed{seed}"
        if cfg.lambda_grid:
            base += f"_lambda{_num(lam)}"
        return base

    results: dict[tuple, list] = {}
    failures: list[tuple] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                (seed, lam): pool.submit(_train_one, (cfg, seed, lam))
                for seed, lam in runs
            }
            for (seed, lam), fut in futures.items():
                try:
                    results[(seed, lam)] = fut.result()
                except Exception as exc:  # recorded, remaining seeds proceed
                    failures.append((seed, lam, f"{type(exc).__name__}: {exc}"))
    else:
        for seed, lam in runs:
            try:
                results[(seed, lam)] = _train_one((cfg, seed, lam))
            except Exception as exc:
                failures.append((seed, lam, f"{type(exc).__name__}: {exc}"))

    for (seed, lam), (rows, checkpoint) in results.items():
        write_csv(out / f"train_{tag(seed, lam)}.csv", TRAIN_COLUMNS, rows)
        path = out / f"checkpoint_{tag(seed, lam)}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(checkpoint)

    # Aggregate across seeds (per lambda): mean and std of return/cost/lambda.
    agg_rows = []
    for lam in lams:
        logs = [results[(seed, lam)][0] for seed in cfg.seeds if (seed, lam) in results]
        if not logs:
            continue
        for i in range(len(logs[0])):
            rets = [float(rows[i][1]) for rows in logs]
            costs = [float(rows[i][2]) for rows in logs]
            lams_now = [float(rows[i][3]) for rows in logs]
            agg_rows.append(
                (
                    _num(lam),
                    logs[0][i][0],
                    _num(statistics.fmean(rets)),
                    _num(_spread(rets)),
                    _num(statistics.fmean(costs)),
                    _num(_spread(costs)),
                    _num(statistics.fmean(lams_now)),
                    _num(_spread(lams_now)),
                )
            )
    write_csv(
        out / "train_aggregate.csv",
        ("lambda0", "episode", "return_mean", "return_std",
         "final_cost_mean", "final_cost_std", "lambda_mean", "lambda_std"),
        agg_rows,
    )
    if failures:
        write_csv(out / "failures.csv", ("seed", "lambda0", "error"),
                  [(s, _num(l), e) for s, l, e in failures])
        for s, l, e in failures:
            print(f"FAIL seed {s} lambda {l}: {e}", file=sys.stderr)
        return 1
    print(f"wrote {len(results)} training logs and checkpoints to {out}")
    return 0


def _rollout_policy(learner: str, tables: dict, meta: dict):
    """Action-selection closure with exploration off."""
    n_actions = int(meta["n_actions"])
    quantum = meta["quantum"]
    budget = meta["budget"]
    if learner == "safe_q":
        q = tables.get("q", {})

        def select(key, c, d):
            return greedy_action(q, key, n_actions)

    else:
        store = ActorCriticTables.from_sections(tables, n_actions, meta.get("alpha_ent", 0.1))

        def select(key, c, d):
            return constrained_action_select(store, store.row(key), c, d, budget)

    return select, quantum, budget


def evaluate_checkpoint(checkpoint_text: str, cfg: ExperimentConfig):
    """Monte-Carlo rollouts per seed; returns (per-seed rows, aggregate dict)."""
    learner, tables, meta = load_checkpoint(checkpoint_text)
    envs = [build_env(cfg, seed=f"{seed}:eval") for seed in cfg.seeds]
    # Every seed's env has the same shape; check it before sizing any table.
    for key, want in (("n_actions", envs[0].n_actions), ("budget", envs[0].budget)):
        if meta[key] != want:
            raise FormatError(
                f"checkpoint {key} = {_num(meta[key])} does not match "
                f"the configured environment's {_num(want)}"
            )
    select, quantum, budget = _rollout_policy(learner, tables, meta)
    per_seed = []
    for seed, env in zip(cfg.seeds, envs):
        returns, costs = [], []
        for _ in range(cfg.eval_episodes):
            (s, c, d) = env.reset()
            done = False
            t = 0
            ep_ret = 0.0
            while not done and t < env.horizon:
                key = obs_key(s, c, budget, quantum)
                a = select(key, c, d)
                (s, c, d), r, done = env.step(a)
                ep_ret += r
                t += 1
            returns.append(ep_ret)
            costs.append(c)
        n = len(costs)
        violations = sum(1 for c in costs if c > budget)
        excess = sum(max(0.0, c - budget) for c in costs) / n
        # Smallest index from which the running mean cost stays within budget.
        run_mean = 0.0
        satisfied_from = None
        means = []
        for i, c in enumerate(costs, start=1):
            run_mean += (c - run_mean) / i
            means.append(run_mean)
        for i in range(n - 1, -1, -1):
            if means[i] > budget:
                break
            satisfied_from = i
        per_seed.append(
            {
                "seed": seed,
                "mean_return": statistics.fmean(returns),
                "mean_cost": statistics.fmean(costs),
                "violation_prob": violations / n,
                "mean_excess": excess,
                "episodes_to_satisfaction": satisfied_from,
            }
        )
    agg = {
        "mean_return": statistics.fmean(r["mean_return"] for r in per_seed),
        "std_return": _spread([r["mean_return"] for r in per_seed]),
        "mean_cost": statistics.fmean(r["mean_cost"] for r in per_seed),
        "std_cost": _spread([r["mean_cost"] for r in per_seed]),
        "violation_prob": statistics.fmean(r["violation_prob"] for r in per_seed),
        "mean_excess": statistics.fmean(r["mean_excess"] for r in per_seed),
    }
    return per_seed, agg


def cmd_evaluate(cfg: ExperimentConfig, checkpoint_path: Path, out: Path) -> int:
    try:
        text = checkpoint_path.read_text()
    except OSError as exc:
        print(f"cannot read checkpoint: {exc}", file=sys.stderr)
        return 2
    try:
        per_seed, agg = evaluate_checkpoint(text, cfg)
    except FormatError as exc:
        print(f"{checkpoint_path}: {exc}", file=sys.stderr)
        return 2
    rows = [
        (
            r["seed"], _num(r["mean_return"]), _num(r["mean_cost"]),
            _num(r["violation_prob"]), _num(r["mean_excess"]),
            "" if r["episodes_to_satisfaction"] is None else r["episodes_to_satisfaction"],
        )
        for r in per_seed
    ]
    rows.append(
        ("aggregate", _num(agg["mean_return"]), _num(agg["mean_cost"]),
         _num(agg["violation_prob"]), _num(agg["mean_excess"]), "")
    )
    write_csv(
        out / "eval_report.csv",
        ("seed", "mean_return", "mean_cost", "violation_prob", "mean_excess",
         "episodes_to_satisfaction"),
        rows,
    )
    print(
        f"return {agg['mean_return']:.3f} +- {agg['std_return']:.3f}  "
        f"cost {agg['mean_cost']:.3f} +- {agg['std_cost']:.3f}  "
        f"P(violation) {agg['violation_prob']:.4f}  "
        f"excess {agg['mean_excess']:.4f}"
    )
    return 0


def cmd_verify(cfg: ExperimentConfig | None, out: Path) -> int:
    grid = cfg.lambda_grid if cfg and cfg.lambda_grid else None
    alphas = (cfg.alpha,) if cfg else None
    reports = run_all(fixture_pack(), lambda_grid=grid, alphas=alphas)
    rows = []
    failed = 0
    for rep in reports:
        bad = sum(1 for r in rep.rows if not r.passed)
        failed += bad
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{rep.kind}: {len(rep.rows)} checks, {status}")
        for r in rep.rows:
            rows.append(
                (r.kind, r.fixture, _num(r.lam), _num(r.bound), _num(r.measured),
                 "pass" if r.passed else "FAIL", r.note)
            )
        for note in rep.notes:
            print(f"  note: {note}")
    write_csv(
        out / "verify_report.csv",
        ("kind", "fixture", "lambda", "bound", "measured", "status", "note"),
        rows,
    )
    print(f"wrote {len(rows)} check rows to {out / 'verify_report.csv'}")
    return 1 if failed else 0


def cmd_bounds(model_path: Path, alpha: float, quantum: float, out: Path) -> int:
    try:
        text = model_path.read_text()
    except OSError as exc:
        print(f"cannot read model file: {exc}", file=sys.stderr)
        return 2
    try:
        rows = lambda_bounds(load_cmdp(text), alpha, quantum).rows()
    except ValueError as exc:  # FormatError and QuantizationError included
        print(f"{model_path}: {exc}", file=sys.stderr)
        return 2
    except WorstCaseInfeasible as exc:
        print(f"worst case infeasible: {exc}")
        rows = [("feasible_worst_case", 0.0)]
    for name, value in rows:
        print(f"{name} = {_num(value)}")
    write_csv(out / "bounds.csv", ("quantity", "value"), [(n, _num(v)) for n, v in rows])
    return 0


def _load(path: str | None) -> ExperimentConfig:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        return load_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmdp-forge",
        description="Train, evaluate and verify budget-augmented constrained-MDP agents.",
    )
    parser.add_argument("--config", help="experiment config file (key = value lines)")
    parser.add_argument("--out", default=None, help="output directory (default $CMDP_FORGE_OUT or ./out)")
    parser.add_argument("--seeds", default=None, help="comma-separated seed list overriding the config")
    parser.add_argument("--jobs", type=int, default=1, help="parallel jobs for seeded runs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="run the configured learner per seed")
    p_eval = sub.add_parser("evaluate", help="Monte-Carlo evaluation of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    sub.add_parser("verify", help="run every bound check on the fixture pack")
    p_bounds = sub.add_parser("bounds", help="print the threshold report for a model file")
    p_bounds.add_argument("model", help="model file in the plain-text format")
    p_bounds.add_argument("--alpha", type=float, default=0.25)
    p_bounds.add_argument("--quantum", type=float, default=0.25)

    args = parser.parse_args(argv)
    out = Path(args.out if args.out is not None else _default_out())
    try:
        if args.command == "bounds":
            return cmd_bounds(Path(args.model), args.alpha, args.quantum, out)
        if args.command == "verify":
            cfg = _load(args.config) if args.config else None
            return cmd_verify(cfg, out)
        cfg = _load(args.config)
        if args.seeds is not None:
            cfg = override(cfg, "seeds", args.seeds)
        if args.command == "train":
            return cmd_train(cfg, out, max(1, args.jobs))
        return cmd_evaluate(cfg, Path(args.checkpoint), out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
