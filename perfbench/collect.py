"""Repeat the benchmark over seeds and summarise each metric's median and quartiles.

    python3 perfbench/collect.py --runs 10 --seconds 20 --out perfbench/results/run.json
    python3 perfbench/collect.py --workloads enc-tcp --runs 5 --first-seed 100

Each untraced run uses its own seed (first-seed, first-seed + 1, ...). With
--traced, one traced run per workload adds the per-layer table. The spread
of a metric is the distance between its first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of its median;
each is compared with the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    detail = next(json.loads(x[7:]) for x in lines if x.startswith("DETAIL "))
    return {"seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            run = invoke(workload, args.first_seed + i, args.seconds, 0)
            runs.append(run)
            detail = run["detail"]
            print(f"{workload} seed {run['seed']}: "
                  + " ".join(f"{k}={v['value']:.5g}{v['unit']}"
                             for k, v in run["result"]["metrics"].items())
                  + f" deadline_miss_pct={detail['deadline_miss_pct']:.4g}%"
                  + f" samples={detail['step_samples']} in {detail['rounds']} rounds",
                  flush=True)
        names = runs[0]["result"]["metrics"].keys()
        summary = {n: summarise([r["result"]["metrics"][n]["value"] for r in runs]) for n in names}
        entry = {"runs": runs, "summary": summary}
        for n, s in summary.items():
            share = s["spread"] / bounds[n] if s["spread"] is not None else 0.0
            if n != "setup_s":
                worst = max(worst, share)
            print(f"  {workload:<12} {n:<14} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[n]}, {share:.2f} of it)", flush=True)
        if args.traced:
            entry["traced"] = invoke(workload, args.first_seed, args.seconds, 1)
        out["workloads"][workload] = entry
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
