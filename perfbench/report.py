"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/report.py                 # one untraced and one traced run each
    python3 perfbench/report.py --runs 10       # ten seeds each: medians and spreads

Run from the root of a checkout.  Each run is a separate ``run.py`` process
lasting ``run_seconds`` from BENCHMARK.json, so set-up and peak memory are
measured per workload.  With ``--runs N`` the
untraced runs use seeds ``--seed`` .. ``--seed + N - 1`` and the spread of
each end-to-end metric is printed as (Q3 - Q1) / median, next to a third of
the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1]), proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = []
        for seed in range(args.seed, args.seed + args.runs):
            lines, result, stderr = run(workload, seed, seconds, 0)
            results.append(result)
            ok = ok and result["correct"]
            if args.runs == 1:
                print("\n".join(line for line in lines if not line.startswith("metric")))
            sys.stderr.write(stderr)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            line = f"{workload} {name} = {median:.6g} {unit}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                line += (f" (median of {len(values)}; Q1 {q1:.6g}, Q3 {q3:.6g}, "
                         f"spread {spread:.4f}, bound/3 {bounds[name] / 3:.4f}; "
                         f"values {', '.join(f'{v:.6g}' for v in values)})")
            print(line)
        if args.runs == 1:
            lines, result, stderr = run(workload, args.seed, seconds, 1)
            sys.stderr.write(stderr)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
