#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread against its bound.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--seconds 20] [--workload pulse2 ...] [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (third minus first quartile, as a share of the
median), and whether the spread is below a third of the metric's bound
in BENCHMARK.json. ``--out`` writes the same numbers as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import quartiles, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    result: dict = {"seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, *manifest["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            line = proc.stdout.strip().splitlines()[-1] if proc.returncode == 0 else "{}"
            run = json.loads(line)
            if not run.get("correct"):
                steady = False
                print(f"{name} seed {seed}: exit {proc.returncode}, result {line}\n{proc.stderr}")
                continue
            runs.append(run)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in run["metrics"].items()), flush=True)
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            spread = relative_spread(values)
            ok = spread < bound / 3
            steady = steady and ok
            rows[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "values": values}
            print(f"  {name:<10} {metric:<12} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {'ok' if ok else 'WIDE'}")
        result["workloads"][name] = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                                     "metrics": rows}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
