"""Benchmark of the symplat library and CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` there
and from nowhere else.  The workload's inputs are made from ``--seed``; the
program sees only those inputs.  Set-up (import, input generation, fixture
writing) is repeated and timed on its own.  Then whole passes over the
workload's cases run, untraced, until ``--seconds`` would be exceeded (at
least one pass), with probe rounds of the short first-result and largest
cases spread between the cases.  Every case run, probe runs included, calls a
library imported afresh just before it, outside the timed region, as a
separate CLI invocation would.  The time metrics, set-up time included, are
scaled to a nominal host speed, measured by a reference loop timed every
INTERVAL_S while each timed region runs (see Speedometer); the per-case lines
print the measured times too.  With ``--trace 1`` one more pass runs with the layer wrappers of ``tracing``
installed around each case, and the per-layer metrics are reported instead of
the end-to-end ones.  Every case's output is checked; the last line of stdout
is the JSON result.  Exit code 2 means the program could not be imported.
"""

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
MODULES = ("matrix", "lattice", "finquot", "pollat", "comppair", "covers", "jsonio", "cli")
SETUP_REPEATS = 21
# About this many extra runs per pass of each probed case, so that
# first_result_s and largest_case_s are medians of enough runs.
PROBE_ROUNDS = 16
# The host's speed drifts, by up to 2x between runs of identical work and
# also within a single case; medians do not remove that.  So while a region
# is timed, one reference_work call is timed every INTERVAL_S, and
# PRE_SAMPLES more just before it, and the region's time is scaled by
# REF_NOMINAL_S over the mean of those samples: seconds at the speed of a
# host on which reference_work takes REF_NOMINAL_S.  That is about its time
# on the 2-core VM with Python 3.11 that the benchmark was written on.
INTERVAL_S = 0.02
PRE_SAMPLES = 3
REF_NOMINAL_S = 0.003


def load_library():
    """Import symplat afresh from the checkout's src/ and return its modules."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "symplat" or k.startswith("symplat.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    package = importlib.import_module("symplat")
    if Path(package.__file__).resolve().parent != (src / "symplat").resolve():
        raise ImportError(f"symplat was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"symplat.{name}") for name in MODULES}
    )


class Run(NamedTuple):
    seconds: float  # at the nominal host speed
    measured: float  # as measured, less the time the reference samples took
    digest: Optional[str]  # sha256 of the output text, None if there is none
    problems: list


def total(runs, field="seconds"):
    return sum(getattr(run, field) for run in runs)


def median_time(runs, field="seconds"):
    return statistics.median(getattr(run, field) for run in runs)


def reference_work():
    """A fixed exact elimination on Fractions: the host-speed reference.

    It shares the program's instruction mix (Fraction arithmetic, small
    lists) but none of its code, so a change to the program leaves it alone.
    """
    n = 8
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (i == j) * 9
             for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return rows


class Speedometer:
    """Times calls and scales them to the nominal host speed.

    While a call runs, a SIGALRM handler times one ``reference_work`` every
    INTERVAL_S; PRE_SAMPLES more are timed just before the call, so that a
    short call has samples too.  The samples are evenly spaced in time, so
    their mean follows the host's average slowdown over the call, and the
    call's time, less the time the handler took, is scaled by REF_NOMINAL_S
    over that mean.  The handler runs between bytecodes of the one thread and
    touches nothing of the program.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self):
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)
        return t0

    def _tick(self, signum, frame):
        t0 = self._sample()
        self.spent += time.perf_counter() - t0

    def time(self, call):
        """Return (call's result or exception, nominal seconds, measured seconds)."""
        self.samples, self.spent = [], 0.0
        for _ in range(PRE_SAMPLES):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing call is counted, not fatal
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            measured = time.perf_counter() - t0 - self.spent
        return result, measured * REF_NOMINAL_S / statistics.fmean(self.samples), measured


def time_plain(call):
    """Return (call's result or exception, measured seconds twice), unscaled.

    The traced pass is timed so, because reference samples taken inside a
    span would count as the program's time there.
    """
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing call is counted, not fatal
        result = exc
    seconds = time.perf_counter() - t0
    return result, seconds, seconds


def run_pass(cases, golden, meter=None, tracer=None):
    """Run every case once, each on a freshly imported library, and return its Runs.

    With ``meter``, each case is timed by it and scaled; without, its time is
    as measured.  With ``tracer``, its wrappers are installed around each
    case's call only.
    """
    runs = []
    for index, case in enumerate(cases):
        call = case.bind(load_library())
        gc.collect()
        if tracer is not None:
            tracer.case = index
            tracer.install()
        try:
            result, seconds, measured = meter.time(call) if meter else time_plain(call)
        finally:
            if tracer is not None:
                tracer.remove()
                tracer.case = -1
        untraceable = tracer.take_problems() if tracer is not None else []
        if isinstance(result, Exception):
            problems = [f"{type(result).__name__}: {result}", *untraceable]
            runs.append(Run(seconds, measured, None, problems))
            continue
        try:
            text, problems = case.check(result)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {type(exc).__name__}: {exc}", *untraceable]
            runs.append(Run(seconds, measured, None, problems))
            continue
        problems += untraceable
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if case.golden and golden.get(case.name) != digest:
            problems.append("stdout differs from the golden digest")
        runs.append(Run(seconds, measured, digest, problems))
    return runs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(cases, golden, seconds, probed_names, meter):
    """Untraced passes, with probe rounds spread through them.

    A probe round runs each probed case once more.  About PROBE_ROUNDS
    rounds per pass are spread evenly between the cases, so that a probed
    case's runs sample the whole run and not one stretch of it.  Passes
    repeat while another one fits in ``seconds`` (at least one runs).
    Returns (passes, probe rounds, indices of the probed cases); probe runs
    are not part of any pass.
    """
    names = [case.name for case in cases]
    probed = [names.index(name) for name in probed_names]
    probe_cases = [cases[i] for i in probed]
    stride = max(1, round(len(cases) / PROBE_ROUNDS))
    slots = range(0, len(cases), stride)
    rounds_per_slot = max(1, round(PROBE_ROUNDS / len(slots)))
    passes, probe_runs = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        runs = []
        for i in slots:
            runs += run_pass(cases[i:i + stride], golden, meter)
            probe_runs += [run_pass(probe_cases, golden, meter)
                           for _ in range(rounds_per_slot)]
        passes.append(runs)
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return passes, probe_runs, probed


def main(argv=None):
    args = parse_args(argv)
    setup, first_case, largest_case, probed_names = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    golden = json.loads(GOLDEN.read_text())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    meter = Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cases, seconds, _ = meter.time(lambda: setup(load_library(), args.seed, WORKDIR))
        if isinstance(cases, ImportError):
            print(f"cannot import the program: {cases}", file=sys.stderr)
            return 2
        if isinstance(cases, Exception):
            raise cases
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)
    names = [case.name for case in cases]

    passes, probe_runs, probed = measure(cases, golden, args.seconds, probed_names, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [[runs[i] for runs in passes] for i in range(len(cases))]
    for runs in probe_runs:
        for i, run in zip(probed, runs):
            samples[i].append(run)
    labelled = [(name, run) for name, runs in zip(names, samples) for run in runs]
    wall_s = statistics.median(total(runs) for runs in passes)

    if args.trace:
        tracer = tracing.Tracer()
        traced = run_pass(cases, golden, tracer=tracer)
        for run, plain in zip(traced, passes[0]):
            if None not in (run.digest, plain.digest) and run.digest != plain.digest:
                run.problems.append("traced output differs from untraced output")
        labelled += list(zip(names, traced))
        out = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(out, names)
        print(f"spans: {len(tracer.span_name)} written to {out.relative_to(ROOT)}")
        metrics = tracer.metrics()
        untraced = statistics.median(total(runs, "measured") for runs in passes)
        metrics["trace.overhead_frac"] = (total(traced, "measured") / untraced - 1, "frac")

    attempted = len(labelled)
    failed = sum(1 for _, run in labelled if run.problems)
    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "largest_case_s": (median_time(samples[names.index(largest_case)]), "s"),
            "first_result_s": (median_time(samples[names.index(first_case)]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": (1 - failed / attempted, "frac"),
        }

    print(f"setup: median {setup_s:.4f} s over {SETUP_REPEATS} repeats")
    print("times are nominal (measured); passes: " + ", ".join(
        f"{total(runs):.3f} ({total(runs, 'measured'):.3f})" for runs in passes))
    for name, runs in zip(names, samples):
        print(f"case {name}: median {median_time(runs):.4f} ({median_time(runs, 'measured'):.4f}) "
              f"s over {len(runs)} run(s)")
    for name, run in labelled:
        for problem in run.problems:
            print(f"problem in {name}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
