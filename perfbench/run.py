#!/usr/bin/env python3
"""Benchmark for qoct: time to results on four workloads, checked, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload pulse2 --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; pass time is
given in units of a reference kernel sampled during the pass
(``harness.SpeedProbe``), because the machine's speed swings. ``--trace 1``
alternates untraced and traced passes over the seed's own inputs, prints the
per-layer metrics, and writes the spans to .perfbench/traces/. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Everything runs in this one process on one thread; BLAS thread counts default
to 1. The program is imported from src/ of the same checkout.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("pulse2", "verify8", "gradcheck", "pulse8")
SETUP_REPEATS = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


IMPORT = "import numpy, qoct.cli"


def import_program() -> None:
    """Import numpy and qoct from this checkout, with one BLAS thread unless set otherwise."""
    from harness import BLAS_THREAD_VARS

    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "qoct" / "__init__.py").is_file():
        raise SystemExit(f"error: no qoct sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    import qoct.cli  # noqa: F401


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program."""
    from harness import median

    code = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       check=True, timeout=60).stdout
        for _ in range(SETUP_REPEATS)
    ]
    return median([float(out) for out in runs])


def run_workload(args) -> int:
    import_program()
    import_s = import_seconds()
    from harness import (SpeedProbe, Tracer, UnitLog, median, paired_overhead, provenance,
                         quartiles)
    from metrics import END_TO_END, OUTCOMES, PER_LAYER, TARGETS, Ctx, per_layer_values
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        builds, setups = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            t1 = time.perf_counter()
            workload.warm_up()
            builds.append(t1 - t0)
            setups.append(time.perf_counter() - t0)

        log = UnitLog()
        obs: dict = {}
        untraced: list[float] = []
        traced: list[float] = []
        refs: list[float] = []
        relative: list[float] = []
        tracer = Tracer("qoct")
        probe = SpeedProbe()
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline:
            gc.collect()
            with probe.sampling():
                t0 = time.perf_counter()
                workload.run_pass(log, obs)
                elapsed = time.perf_counter() - t0
            # the pass's own time, without the reference kernel's, in seconds and in kernel units
            untraced.append(elapsed - probe.spent)
            refs.append(probe.reference_s())
            relative.append(untraced[-1] / refs[-1])
            if args.trace:
                gc.collect()
                with tracer.installed(TARGETS):
                    t0 = time.perf_counter()
                    with tracer.span("bench.pass"):
                        workload.run_pass(log, obs, tracer)
                    traced.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = provenance(ROOT, {args.workload: workload.param_hash})
    print("provenance " + json.dumps(info, sort_keys=True))
    q1, q2, q3 = quartiles(untraced)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced passes, time "
          f"median {q2:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}), reference kernel median "
          f"{1e3 * median(refs):.2f} ms; units {log.attempted}, failed {log.failed}")

    ctx = Ctx(
        stats=tracer.summary(exclude="bench.check"),
        passes=max(1, len(traced)),
        obs=obs,
        build_s=builds,
        error_rate=log.error_rate,
        overhead_s=paired_overhead(traced, untraced),
        wall_s=q2,
        ref_s=median(refs),
    )
    values, absent = per_layer_values(ctx, tracer.missing)
    end_to_end = {
        "setup_s": import_s + median(setups),
        "wall_ref": median(relative),
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": 1.0 - log.error_rate,
    }
    for m in END_TO_END:
        print(f"  {m.name:<22} {end_to_end[m.name]!r} {m.unit}")
    print(f"  {'error_rate':<22} {log.error_rate!r} 1")
    units = {m.name: m.unit for m in PER_LAYER}
    for name, (source, names) in OUTCOMES.items():
        if args.workload in names:
            print(f"  {name:<22} {values[source]!r} {units[source]}  (per-layer {source})")

    if args.trace:
        tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        print(f"traced passes {len(traced)}, spans {len(tracer.spans)}; trace overhead "
              f"{ctx.overhead_s:.4f} s against an untraced q1-q3 range of {q3 - q1:.4f} s")
        for m in PER_LAYER:
            print(f"  {m.name:<36} {values[m.name]!r} {m.unit}  (moves {m.moves})")
        for name, why in absent.items():
            print(f"  missing {name}: {why}")
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": end_to_end[m.name], "unit": m.unit} for m in END_TO_END}
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process, and print one table.

    The table shows the end-to-end metrics of the untraced run, its
    error_rate (failed over attempted units), and the outcome metrics that
    the traced run reports per layer (see ``metrics.OUTCOMES``).
    """
    from metrics import END_TO_END, OUTCOMES, PER_LAYER

    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    rows, ok = [], True
    for name in NAMES:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                break
            print("\n".join(lines[:-1]))
            results.append(json.loads(lines[-1]))
        if len(results) < 2:
            ok = False
            continue
        plain, traced = results
        ok = ok and plain["correct"] and traced["correct"]
        row = {k: v["value"] for k, v in plain["metrics"].items()}
        row["error_rate"] = plain["failed"] / plain["attempted"]
        for outcome, (source, names) in OUTCOMES.items():
            if name in names:
                row[outcome] = traced["metrics"][source]["value"]
                units[outcome] = units[source]
        rows.append((name, row))
    units["error_rate"] = "1"
    print("\nworkload   metric                 value")
    for name, row in rows:
        for metric, value in row.items():
            print(f"{name:<10} {metric:<22} {value!r} {units[metric]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
