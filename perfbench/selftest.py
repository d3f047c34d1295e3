"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

* every metric name and unit in BENCHMARK.json is well formed, and each
  run reports exactly the metrics BENCHMARK.json lists, with those units;
* per workload, two traced runs with one seed are correct (which includes
  traced and untraced outputs being byte-identical, case by case) and report
  identical counts (every ``.calls``, count, byte and size metric);
* per workload, an untraced run with a second seed is correct;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  ``run.py`` exits with a nonzero code and prints no result.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_UNITS = ("count", "bytes", "dim")


def check_names():
    return [f"malformed metric {metric}"
            for group in ("end_to_end", "per_layer") for metric in SPEC[group]
            if not NAME.fullmatch(metric["name"]) or not UNIT.fullmatch(metric["unit"])]


def bench(cwd, workload, seed, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc, label, problems):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: incorrect result: {proc.stderr[-2000:]}")
    return result


def check_workload(workload, seed=1):
    problems = []
    declared = {group: [(m["name"], m["unit"]) for m in SPEC[group]]
                for group in ("end_to_end", "per_layer")}
    traced = [result_of(bench(ROOT, workload, seed, 1), f"{workload} traced run {i}", problems)
              for i in (1, 2)]
    plain = result_of(bench(ROOT, workload, seed + 1, 0), f"{workload} seed {seed + 1}", problems)
    if None in traced or plain is None:
        return problems
    for result, group in ((traced[0], "per_layer"), (plain, "end_to_end")):
        reported = [(name, metric["unit"]) for name, metric in result["metrics"].items()]
        if reported != declared[group]:
            problems.append(f"{workload}: reported metrics or units differ from {group}")
    exact = [name for name, metric in traced[0]["metrics"].items()
             if metric["unit"] in EXACT_UNITS]
    for name in exact:
        a, b = (r["metrics"][name]["value"] for r in traced)
        if a != b:
            problems.append(f"{workload}: {name} differs between traced runs: {a} != {b}")
    return problems


def check_without_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "census", 1, 0)
    finally:
        shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without the program: exit code {proc.returncode}, output {lines[-1:]}"]
    return []


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    checks = [("metric names", check_names), ("run without the program", check_without_program)]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        checks.append((f"workload {workload}", lambda w=workload: check_workload(w)))
    problems = []
    for label, check in checks:
        found = check()
        print(f"{label}: {'FAIL' if found else 'ok'}", flush=True)
        for problem in found:
            print(f"  {problem}")
        problems += found
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
