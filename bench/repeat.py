"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/repeat.py --workload trace-paper --seeds 1-10
    python3 bench/repeat.py --workload analytic-scan --seeds 1-10 --baseline bench/baseline.json

Run from the root of a source checkout.  The command and run length come
from ``BENCHMARK.json``.  For each metric it prints the median of the runs,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound.  ``--baseline FILE`` stores
the runs and their summary under the workload's name in FILE, together with
the machine description and the per-layer metrics of one traced run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--baseline", type=Path, help="JSON file to store the runs in")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in args.seeds:
        results.append(run(spec, args.workload, seed, 0))
        values = {k: round(v["value"], 5) for k, v in results[-1]["metrics"].items()}
        print(f"seed {seed}: correct={results[-1]['correct']} attempted={results[-1]['attempted']} "
              f"failed={results[-1]['failed']} {values}", flush=True)

    summary = {}
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  spread<bound/3")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        s = summarize(values)
        summary[name] = dict(s, unit=results[0]["metrics"][name]["unit"], values=values)
        ok = name == "setup_s" or s["spread"] < bound / 3
        print(f"{name:<14} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.4f} {bound:>6}  {'yes' if ok else 'NO'}")

    if args.baseline:
        traced = run(spec, args.workload, args.seeds[0], 1)
        record = json.loads(
            (Path(".bench_out") / f"{args.workload}-seed{args.seeds[0]}-trace1.json").read_text())
        data = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        data["machine"] = record["machine"]
        data["run_seconds"] = spec["run_seconds"]
        data.setdefault("workloads", {})[args.workload] = {
            "why": record["why"],
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": args.seeds[0],
            "known_defects": record.get("known_defects", {}),
        }
        args.baseline.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
