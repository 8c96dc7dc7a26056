#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads exact_grid,desk_learn --seeds 1-10 \
        [--seconds 60] [--trace 0] [--json summary.json]

Runs are sequential, one process at a time.  For every workload and metric it
prints the median over the runs, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median: first the metrics of the result line, then, as
``raw:<name>``, each run's median of the raw samples from the line before it
(for ``setup_s``, of its fresh-process set-up seconds).
Any run that is not correct stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="exact_grid,desk_learn")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="60")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--json", type=Path, help="also write the summary here")
    args = p.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, cwd=RUN.parent.parent, timeout=600)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            detail = json.loads(lines[-2])
            raw = {name: sample["median"] for name, sample in detail["samples"].items()
                   if name not in result["metrics"]}
            if detail["setup_probes"]:
                raw["setup_s"] = statistics.median(s for s, _ in detail["setup_probes"])
            for name, value in raw.items():
                values.setdefault(f"raw:{name}", []).append(value)
                units[f"raw:{name}"] = "1/s" if name.endswith("_per_s") else "s"
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                          "spread": (q3 - q1) / med if med else 0.0, "runs": len(vals)}
            print(f"{workload:11s} {name:44s} {med:14.6g} {units[name]:9s} "
                  f"spread {rows[name]['spread']:.3f}")
        summary[workload] = rows
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
