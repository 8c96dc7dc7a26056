#!/usr/bin/env python3
"""Benchmark of cmdp-forge: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload exact_grid --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.  A run sets up its inputs and repeats its
workload's three rounds until the next round would overrun ``--seconds``; one
whole pass of the three rounds always runs.  After every round fresh processes
set up again; those set-ups give ``setup_s``.  Every round is checked; a miss counts in
``failed`` and makes the exit code 1.  With ``--trace 1`` the layer functions
are wrapped and the result holds the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is the result; the line
before it holds sample counts, percentiles, counters and the machine.
Outputs, spans and counter records go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact_grid", "desk_learn")
DEFAULT_SEED = 1
# Confirm a claimed gain on this seed too; do not use it while writing a change.
HOLDOUT_SEED = 90210

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solve_ref": "ref",
    "policy_eval_ref": "ref",
    "bounds_ref": "ref",
    "verify_ref": "ref",
    "oracle_traj_per_ref": "1/ref",
    "ac_train_episodes_per_ref": "1/ref",
    "q_train_episodes_per_ref": "1/ref",
    "eval_episodes_per_ref": "1/ref",
}

# About ten set-up samples in a 60 s run on either workload.
PROBE_EVERY_S = 5.0

now = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import the package and build the workload's inputs; returns (module, inputs, seconds)."""
    t0 = now()
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed, ROOT, OUT / args.workload)
    return workloads, inputs, now() - t0


def setup_in_fresh_process(args) -> tuple[float, float]:
    """Seconds of one set-up in a fresh process, then of the reference set-up in another."""
    def probe(*argv) -> str:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return done.stdout.splitlines()[-1]

    setup_s = json.loads(probe(HERE / "run.py", "--workload", args.workload,
                               "--seed", str(args.seed), "--setup-probe"))["setup_s"]
    return setup_s, float(probe(HERE / "reference.py"))


def source_digest() -> str:
    h = hashlib.sha256()
    # The package, its configs and this benchmark together fix every counter.
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "configs").glob("*.cfg"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    import numpy

    rev = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = done.stdout.strip() or rev
    return {
        "git_rev": rev,
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def summarize(values) -> dict:
    """Median, the highest of p90/p99/p99.9 with at least ten samples beyond it, and n."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            out[f"p{pct:g}"] = ordered[min(len(values) - 1, int(len(values) * pct / 100.0))]
            break
    return out


def changed(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def layer_metrics(tracer, pass_s, counters, span_cost) -> dict:
    """Per-layer metrics of each whole pass, then their median over passes."""
    incl, own, calls = tracer.per_group()
    col = {name: i for i, name in enumerate(tracer.names)}
    per_pass = []
    for g, wall in enumerate(pass_s):
        def t(name):
            return float(incl[g, col[name]])

        n = tracer.counts[g]
        steps = calls[g, col["envs.step"]]
        v = {
            "extended.build_s": t("extended.build"),
            "extended.aug_states": n["extended.aug_states"],
            "extended.layer_nodes": n["extended.layer_nodes"],
            "extended.edges": n["extended.edges"],
            "solver.sweep_s": t("solver.sweep"),
            "solver.sweep_edges_per_s": n["solver.sweep_edges"] / t("solver.sweep"),
            "solver.greedy_policy_s": t("solver.greedy_policy"),
            "solver.unconstrained_s": t("solver.unconstrained"),
            "solver.worst_case_s": t("solver.worst_case"),
            "solver.max_safe_cost_s": t("solver.max_safe_cost"),
            "solver.evaluate_policy_s": t("solver.evaluate_policy"),
            "oracle.enumerate_s": t("oracle.enumerate"),
            "oracle.stats_s": t("oracle.stats"),
            "oracle.random_policy_s": t("oracle.random_policy"),
            "oracle.trajectories": n["oracle.trajectories"],
        }
        for name in tracer.names:
            if name.startswith("verification."):
                v[f"{name}_s"] = t(name)
        v.update({
            "verification.rows": n["verification.rows"],
            "verification.rows_failed": n["verification.rows_failed"],
            "learners.ac_self_s": float(own[g, col["learners.ac"]]),
            "learners.polyak_s": t("learners.polyak"),
            "learners.polyak_calls": float(calls[g, col["learners.polyak"]]),
            "learners.polyak_share": t("learners.polyak") / t("learners.ac"),
            "learners.select_s": t("learners.select"),
            "learners.select_calls": float(calls[g, col["learners.select"]]),
            "learners.table_rows": next(c["learn.ac.table_rows"] for c in counters.values()
                                        if "learn.ac.table_rows" in c),
            "learners.q_self_s": float(own[g, col["learners.q"]]),
            "envs.step_s": t("envs.step"),
            "envs.steps": float(steps),
            "envs.step_us": t("envs.step") / steps * 1e6,
            "envs.reset_s": t("envs.reset"),
            "textio.load_cmdp_s": t("textio.load_cmdp"),
            "textio.dump_checkpoint_s": t("textio.dump_checkpoint"),
            "textio.load_checkpoint_s": t("textio.load_checkpoint"),
            "textio.checkpoint_bytes": n["textio.checkpoint_bytes"],
            "cli.train_s": t("cli.train"),
            "cli.evaluate_s": t("cli.evaluate"),
            "cli.verify_s": t("cli.verify"),
            "cli.bounds_s": t("cli.bounds"),
            # Recording cost estimated from a calibrated per-span cost plus the
            # measured counting callbacks, as a share of the traced pass.
            "trace.overhead_frac": (calls[g].sum() * span_cost + tracer.hook_s[g]) / wall,
        })
        per_pass.append(v)
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_share")):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmdp_forge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args)[2]}))
        return 0

    workloads, inputs, own_setup = setup(args)
    probes: list[tuple[float, float]] = []  # (set-up, reference set-up) seconds
    import cmdp_forge

    if not Path(cmdp_forge.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cmdp_forge.__file__}, not the checkout's", file=sys.stderr)
        return 2

    import reference
    from tracing import Tracer, span_cost_s

    tracer = Tracer() if args.trace else None
    run = workloads.Run(tracer)
    if tracer:
        workloads.install_tracing(tracer)
    rounds = workloads.ROUNDS
    round_s: list[float] = []
    first: dict[str, dict] = {}  # counters of the first run of each round
    started = now()
    try:
        while True:
            r = len(round_s) % rounds
            if tracer:
                tracer.current_group = len(round_s) // rounds
            run.counters = {}
            t0 = now()
            workloads.run_round(inputs, run, r)
            round_s.append(now() - t0)
            # Fresh-process set-ups after every round, one per started
            # PROBE_EVERY_S of it: an import repeats only in a new interpreter.
            if not tracer:
                probes += [setup_in_fresh_process(args)
                           for _ in range(math.ceil(round_s[-1] / PROBE_EVERY_S))]
            if str(r) in first:
                diff = changed(first[str(r)], run.counters)
                run.check(not diff, f"round {len(round_s)} counters differ from its first run: {diff}")
            else:
                first[str(r)] = run.counters
            # One whole pass always; then stop before a round that would overrun.
            like_next = round_s[len(round_s) % rounds::rounds]
            if len(round_s) >= rounds and now() - started + statistics.fmean(like_next) > args.seconds:
                break
    except Exception:  # reported as a failed operation; the run still prints its result
        run.failed_ops.add(run.attempted)
        run.failures.append(traceback.format_exc(limit=-3))
    finally:
        if tracer:
            tracer.restore()

    env = machine()
    if first:
        record = OUT / "counters" / f"{args.workload}-seed{args.seed}-{env['source_digest']}.json"
        if record.exists():
            earlier = json.loads(record.read_text())
            diff = [f"round {r}: {changed(earlier.get(r, {}), c)}" for r, c in sorted(first.items())
                    if changed(earlier.get(r, {}), c)]
            run.check(not diff, f"counters differ from an earlier run with this seed: {diff}")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(first, sort_keys=True, indent=1))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = {}
    if tracer and not run.failures:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "traces" / f"{tag}.npz", args.workload)
        pass_s = [sum(round_s[i:i + rounds]) for i in range(0, len(round_s) - rounds + 1, rounds)]
        layers = layer_metrics(tracer, pass_s, first, span_cost_s())
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
    elif not tracer:
        values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if probes:
            # Set-up in units of the reference set-up run right after it, at the
            # reference's nominal seconds: host drift cancels, a slower set-up shows.
            ratio = statistics.median(s / r for s, r in probes)
            values["setup_s"] = reference.NOMINAL_SETUP_S * ratio
        values.update({name: statistics.median(v) for name, v in run.samples.items()})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": len(round_s), "round_s": round_s,
        "own_setup_s": own_setup, "setup_probes": probes, "machine": env,
        "samples": {name: summarize(v) for name, v in sorted(run.samples.items())},
        "counters": first, "failures": run.failures[:20],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({**detail, "raw": run.samples}, indent=1))
    for failure in run.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    attempted = max(1, run.attempted)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": min(attempted, max(len(run.failed_ops), 1 if run.failures else 0)),
        "metrics": metrics,
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
