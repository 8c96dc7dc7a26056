"""Command-line entry point.

Subcommands:
  train     seeded learner runs; per-seed CSV logs, checkpoints, aggregate CSV;
            --jobs N runs them in at most one worker process per run
  evaluate  Monte-Carlo rollouts of a checkpoint with exploration off (the
            action of its table store's ``act``)
  verify    the full battery of bound checks on the fixture pack, each
            bound that holds at every penalty weight checked at the exact
            breakpoints of the penalized value; reads no config
  bounds    threshold report for a model file

Common flags: --out DIR (every command; default $CMDP_FORGE_OUT or ./out),
--config PATH and --seeds a,b,c (train and evaluate; the seeds override the
config's), --jobs N >= 1 (train).  A flag given to a command that does not
read it exits 2.
Exit codes: 0 success, 1 check or run failure, 2 configuration, flag or
input-file error.

Each input file (config, model, checkpoint) is read and parsed by ``_read``,
which turns an unreadable file or a parse error into a ConfigError whose
message starts with the file's path; ``main`` prints that message and exits
2.  For ``bounds`` the parse includes ``lambda_bounds``, so a quantum that is
not finite and > 0, that a cost does not divide, or whose augmented space
passes the state cap is a model-file error; for ``evaluate`` the
checkpoint must also fit the configured environment and hold exactly the
keys, and only sections, that its learner's table store writes.  An --out
that cannot be made a directory exits 2 the same way (``--out: ...``),
after the inputs are read and before any result is printed or ``train``
run starts.

Outputs are deterministic for a fixed config and seed list; the only
exception is the wall_ms column of training logs, which records real time.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config, override
from .envs import GridWorldEnv, SampledKernelEnv
from .fixtures import fixture, fixture_pack
from .learners import STORES, TrainRow, safe_actor_critic, safe_q_learning
from .solver import WorstCaseInfeasible, lambda_bounds
from .textio import dump_checkpoint, format_number, load_checkpoint, load_cmdp
from .verification import run_all

TRAIN_COLUMNS = ("episode", "return", "final_cost", "lambda", "epsilon_or_entropy", "wall_ms")


def _spread(values: list[float]) -> float:
    """Population std; exactly 0.0 for equal values (one seed) without pstdev's Fraction sums."""
    return statistics.pstdev(values) if any(v != values[0] for v in values) else 0.0


def _make_out(out: Path) -> None:
    """Create the --out directory; a path that cannot be one is a ConfigError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {out}: {exc.strerror}") from None


def write_csv(path: Path, header, rows) -> None:
    _make_out(path.parent)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read(path, parse):
    """``parse`` of the text of the file at ``path``.

    An unreadable file, or a ValueError from ``parse`` (FormatError and
    ConfigError included), becomes a ConfigError that starts with the path.
    """
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # UnicodeDecodeError from read_text included
        raise ConfigError(f"{path}: {exc}") from None


def build_env(cfg: ExperimentConfig, seed):
    if cfg.env_kind == "gridworld":
        return GridWorldEnv(cfg.grid, seed=seed)
    return SampledKernelEnv(fixture(cfg.chain_name).cmdp, seed=seed)


def _train_one(cfg: ExperimentConfig, seed, lam: float) -> tuple[list[TrainRow], str]:
    """One (seed, lambda) training run: the learner's log and its checkpoint text."""
    cfg = replace(cfg, lambda0=lam)
    env = build_env(cfg, seed=f"{seed}:env")
    learn = safe_q_learning if cfg.learner == "safe_q" else safe_actor_critic
    tables, log = learn(env, cfg, seed)
    meta = {key: getattr(tables, key) for key in tables.META}
    return log, dump_checkpoint(cfg.learner, tables.sections(), meta)


def _log_row(r: TrainRow) -> tuple:
    return (r.episode, *map(format_number, (r.ret, r.final_cost, r.lam, r.explore, round(r.wall_ms, 3))))


def _pool(workers: int):
    """A pool of ``workers`` processes, imported here: only a parallel ``train`` starts one."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def cmd_train(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    """One run per (seed, lambda), in min(jobs, runs) worker processes when that is > 1.

    Each run's log and checkpoint are written as its result comes in; a run
    that raises is recorded in failures.csv and the others proceed.  The
    output directory is made before any run starts.
    """
    _make_out(out)
    lams = list(cfg.lambda_grid) if cfg.lambda_grid else [cfg.lambda0]
    runs = [(seed, lam) for lam in lams for seed in cfg.seeds]
    logs: dict[tuple, list[TrainRow]] = {}
    failures: list[tuple] = []
    workers = min(jobs, len(runs))
    with _pool(workers) if workers > 1 else nullcontext() as pool:
        results = [partial(_train_one, cfg, seed, lam) for seed, lam in runs]
        if pool is not None:
            results = [pool.submit(run).result for run in results]
        for (seed, lam), result in zip(runs, results):
            try:
                log, checkpoint = result()
            except Exception as exc:  # recorded, remaining runs proceed
                failures.append((seed, lam, f"{type(exc).__name__}: {exc}"))
                continue
            name = f"seed{seed}_lambda{format_number(lam)}" if cfg.lambda_grid else f"seed{seed}"
            write_csv(out / f"train_{name}.csv", TRAIN_COLUMNS, map(_log_row, log))
            (out / f"checkpoint_{name}.txt").write_text(checkpoint)
            logs[seed, lam] = log

    # Per lambda and episode, over the seeds that finished: mean and std of return/cost/lambda.
    agg_rows = []
    for lam in lams:
        seed_logs = [logs[seed, lam] for seed in cfg.seeds if (seed, lam) in logs]
        for rows in zip(*seed_logs):
            columns = ([r.ret for r in rows], [r.final_cost for r in rows], [r.lam for r in rows])
            stats = (format_number(f(values)) for values in columns for f in (statistics.fmean, _spread))
            agg_rows.append((format_number(lam), rows[0].episode, *stats))
    write_csv(
        out / "train_aggregate.csv",
        ("lambda0", "episode", "return_mean", "return_std",
         "final_cost_mean", "final_cost_std", "lambda_mean", "lambda_std"),
        agg_rows,
    )
    if failures:
        write_csv(out / "failures.csv", ("seed", "lambda0", "error"),
                  [(s, format_number(l), e) for s, l, e in failures])
        for s, l, e in failures:
            print(f"FAIL seed {s} lambda {l}: {e}", file=sys.stderr)
        return 1
    print(f"wrote {len(logs)} training logs and checkpoints to {out}")
    return 0


def evaluate_checkpoint(store, envs: list, episodes: int) -> list[tuple]:
    """Monte-Carlo rollouts of a checkpoint's table store, ``episodes`` per env.

    Exploration is off: each step takes the store's ``act``.  One row per env:
    mean return, mean cost, violation probability, mean excess over the
    budget, and the smallest episode index from which the running mean cost
    stays within budget (None if the last one is over).
    """
    budget = store.budget
    rows = []
    for env in envs:
        returns, costs = [], []
        for _ in range(episodes):
            (s, c, d) = env.reset()
            done = False
            t = 0
            ep_ret = 0.0
            while not done and t < env.horizon:
                a = store.act(store.row(store.key(s, c)), c, d)
                (s, c, d), r, done = env.step(a)
                ep_ret += r
                t += 1
            returns.append(ep_ret)
            costs.append(c)
        n = len(costs)
        run_mean = 0.0
        last_over = -1  # the last episode whose running mean cost is over budget
        for i, c in enumerate(costs):
            run_mean += (c - run_mean) / (i + 1)
            if run_mean > budget:
                last_over = i
        satisfied_from = last_over + 1 if last_over + 1 < n else None
        rows.append((
            statistics.fmean(returns),
            statistics.fmean(costs),
            sum(1 for c in costs if c > budget) / n,
            sum(max(0.0, c - budget) for c in costs) / n,
            satisfied_from,
        ))
    return rows


def _checkpoint(text: str, env):
    """The table store of a checkpoint text, of its learner's class in ``STORES``.

    The checkpoint keys must be exactly that class's ``META``; n_actions and
    budget, checked before any table is sized, must be ``env``'s.
    """
    learner, tables, meta = load_checkpoint(text)
    if learner not in STORES:
        raise ConfigError(f"unknown learner {learner!r}; want one of {', '.join(STORES)}")
    store = STORES[learner]
    for key in meta:
        if key not in store.META:
            raise ConfigError(f"checkpoint key {key} is not one that {learner} writes; "
                              f"want {', '.join(store.META)}")
    for key in store.META:
        if key not in meta:
            raise ConfigError(f"checkpoint missing a {key} key")
    for key, want in (("n_actions", env.n_actions), ("budget", env.budget)):
        if meta[key] != want:
            raise ConfigError(f"checkpoint {key} = {format_number(meta[key])} does not match "
                              f"the configured environment's {format_number(want)}")
    return store.from_sections(tables, **{**meta, "n_actions": env.n_actions})  # an int, not meta's float


def cmd_evaluate(cfg: ExperimentConfig, checkpoint_path: Path, out: Path) -> int:
    envs = [build_env(cfg, seed=f"{seed}:eval") for seed in cfg.seeds]  # of one shape
    store = _read(checkpoint_path, lambda text: _checkpoint(text, envs[0]))
    per_seed = evaluate_checkpoint(store, envs, cfg.eval_episodes)
    ret, cost, violation, excess, _ = zip(*per_seed)
    agg = [statistics.fmean(column) for column in (ret, cost, violation, excess)]
    rows = [(seed, *map(format_number, row[:4]), "" if row[4] is None else row[4])
            for seed, row in zip(cfg.seeds, per_seed)]
    write_csv(
        out / "eval_report.csv",
        ("seed", "mean_return", "mean_cost", "violation_prob", "mean_excess",
         "episodes_to_satisfaction"),
        [*rows, ("aggregate", *map(format_number, agg), "")],
    )
    print(
        f"return {agg[0]:.3f} +- {_spread(ret):.3f}  "
        f"cost {agg[1]:.3f} +- {_spread(cost):.3f}  "
        f"P(violation) {agg[2]:.4f}  "
        f"excess {agg[3]:.4f}"
    )
    return 0


def cmd_verify(out: Path) -> int:
    _make_out(out)
    reports = run_all(fixture_pack())
    rows = []
    failed = 0
    for rep in reports:
        bad = sum(1 for r in rep.rows if not r.passed)
        failed += bad
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{rep.kind}: {len(rep.rows)} checks, {status}")
        for r in rep.rows:
            rows.append(
                (r.kind, r.fixture, *map(format_number, (r.lam, r.bound, r.measured)),
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
        rows = _read(model_path, lambda text: lambda_bounds(load_cmdp(text), alpha, quantum).rows())
    except WorstCaseInfeasible as exc:
        print(f"worst case infeasible: {exc}")
        rows = [("feasible_worst_case", 0.0)]
    write_csv(out / "bounds.csv", ("quantity", "value"), [(n, format_number(v)) for n, v in rows])
    for name, value in rows:
        print(f"{name} = {format_number(value)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmdp-forge",
        description="Train, evaluate and verify budget-augmented constrained-MDP agents.",
    )
    parser.add_argument("--config", help="experiment config file (key = value lines)")
    parser.add_argument("--out", type=Path, default=Path(os.environ.get("CMDP_FORGE_OUT", "out")),
                        help="output directory (default $CMDP_FORGE_OUT or ./out)")
    parser.add_argument("--seeds", default=None, help="comma-separated seed list overriding the config")
    parser.add_argument("--jobs", type=int, default=None, help="parallel jobs for seeded runs (default 1)")
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
    # The global flags each command reads, besides --out, which all four read.
    reads = {"train": ("--config", "--seeds", "--jobs"), "evaluate": ("--config", "--seeds")}
    try:
        for flag in ("--config", "--seeds", "--jobs"):
            given = getattr(args, flag[2:])
            if flag not in reads.get(args.command, ()) and given is not None:
                raise ConfigError(f"{flag}: {args.command} reads no {flag[2:]}, got {given}")
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
        if args.command == "bounds":
            if not 0.0 < args.alpha <= 1.0:
                raise ConfigError(f"--alpha: must be in (0, 1], got {args.alpha}")
            return cmd_bounds(Path(args.model), args.alpha, args.quantum, args.out)
        if args.command == "verify":
            return cmd_verify(args.out)
        if args.config is None:
            raise ConfigError(f"--config: {args.command} needs a config file")
        cfg = _read(args.config, load_config)
        if args.seeds is not None:
            cfg = override(cfg, "seeds", args.seeds)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.jobs or 1)
        return cmd_evaluate(cfg, Path(args.checkpoint), args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
