"""Seeded benchmark for fdes: one workload per process.

    python3 bench/run.py --seed 1 --seconds 8
    python3 bench/run.py --workload cyclic-plant --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --write-manifest

Run from the repository root.  Without ``--workload`` it runs every
workload, each in its own process, one after another, and prints each
metric by name with its unit.  With ``--workload`` it makes one run, and
the last line of stdout is a JSON object: with ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics from a traced
run, and the spans of one traced pass are written to ``bench/out/``.
``--write-manifest`` writes ``BENCHMARK.json`` from the tables below.
Needs only the standard library, the ``src/fdes`` package of the
checkout it runs in, and the baseline copy under ``bench/baseline``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The program and the baseline: a frozen copy of src/fdes, kept unchanged
# as the yardstick for the host's speed (see _measure).
PACKAGE, BASELINE = "fdes", "fdes_baseline"
SIDES = {PACKAGE: SRC, BASELINE: BENCH / "baseline"}

import tracing  # noqa: E402  (the benchmark's own modules sit next to this file)
from workloads import WORKLOADS, Problems  # noqa: E402

RUN_SECONDS = 8
# Set-up runs in fresh interpreters, once per round and at least this
# often, so that its median is over set-ups spread across the run.
SETUP_REPEATS = 5
# The baseline's figures on the 2-vCPU host of README.md in a quiet
# stretch.  A run reports the program's timing times this over the
# baseline's timing in the same run: seconds on that host at that speed.
BASELINE_S = {
    "cyclic-plant": {"setup_s": 0.31, "solve_s": 4.35, "cli_s": 1.18},
    "blind-tree": {"setup_s": 0.15, "solve_s": 2.98, "cli_s": 0.28},
    "two-site": {"setup_s": 0.16, "solve_s": 0.357, "cli_s": 0.255},
    "small-batch": {"setup_s": 0.12, "solve_s": 1.09, "cli_s": 0.087},
}
IMPORT_SAMPLES = 5
CHILD_TIMEOUT = 120

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cli_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
PER_LAYER = (
    [{"name": name, "unit": "s", "better": "lower"} for name in tracing.LAYERS]
    + [{"name": "cli.import_s", "unit": "s", "better": "lower"},
       {"name": "trace.overhead_s", "unit": "s", "better": "lower"}]
    + [{"name": name, "unit": "count", "better": "lower"} for name in tracing.COUNT_NAMES]
)

CLI_CODE = "from {package}.cli import main; main()"
IMPORT_CODE = "import time; t = time.perf_counter(); import fdes; print(time.perf_counter() - t)"
# One set-up from process start: the package first, so that every module it
# needs is imported in the time, then the workload's instances and FDL files.
SETUP_CODE = ("import sys, {package} as fdes, {package}.cli; from pathlib import Path; "
              "sys.path.insert(0, sys.argv[1]); from workloads import WORKLOADS; "
              "WORKLOADS[sys.argv[2]].setup(fdes, int(sys.argv[3]), Path(sys.argv[4]))")


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def import_package(package: str = PACKAGE):
    if str(SIDES[package]) not in sys.path:
        sys.path.insert(0, str(SIDES[package]))
    # cli is loaded so that the tracer wraps its bindings too.
    importlib.import_module(f"{package}.cli")
    return importlib.import_module(package)


def child(code: str, args: list[str], package: str = PACKAGE) -> tuple[int, str, float]:
    """Run one fresh interpreter on the package's sources; wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SIDES[package]))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)
    elapsed = perf_counter() - start
    sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout, elapsed


def run_pass(F, steps) -> tuple[dict, list, list]:
    """One pass; returns the results, each step's wall time and the failures."""
    env: dict = {}
    times, failed = [], []
    for name, fn in steps:
        start = perf_counter()
        try:
            env[name] = fn(F, env)
        except Exception as err:  # an operation that fails is counted, not fatal
            failed.append(f"{name}: {type(err).__name__}: {err}")
        times.append(perf_counter() - start)
    return env, times, failed


def run_pair(F, steps, B, base_steps, baseline_first: bool) -> tuple[dict, list, list, list, list]:
    """One pass of the program and one of the baseline, call by call: each
    call and the baseline's same call run back to back, in the given order.
    Returns the program's results, both sides' step times and failures."""
    env, base_env = {}, {}
    times, base_times, failed, base_failed = [], [], [], []
    for (name, fn), (_, base_fn) in zip(steps, base_steps):
        sides = [(F, fn, env, times, failed), (B, base_fn, base_env, base_times, base_failed)]
        for package, call, results, elapsed, errors in (sides[::-1] if baseline_first else sides):
            start = perf_counter()
            try:
                results[name] = call(package, results)
            except Exception as err:  # an operation that fails is counted, not fatal
                errors.append(f"{name}: {type(err).__name__}: {err}")
            elapsed.append(perf_counter() - start)
    return env, times, failed, base_times, base_failed


def same_results(first: dict, env: dict, problems: Problems) -> None:
    for name, value in first.items():
        problems.check(env.get(name) == value, f"pass results differ at {name}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    workdir = BENCH / "out" / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    """One run.  Untraced, every timed round runs the program and the
    baseline side by side: each pass call by call, each set-up and
    fresh-process command in turn, the order swapped every round.  The host
    slows both alike, also for stretches longer than a run, so the ratio of
    the two sides' figures holds where raw times do not."""
    problems = Problems()
    setup_times: dict = {package: [] for package in SIDES}

    def fresh_setups(order):
        for package in order:
            args = [str(BENCH), wl.name, str(seed), str(workdir / f"setup-{package}")]
            code, out, elapsed = child(SETUP_CODE.format(package=package), args, package)
            problems.check(code == 0, f"{package} set-up in a fresh interpreter: exit {code}")
            setup_times[package].append(elapsed)

    for package in SIDES:
        (workdir / f"setup-{package}").mkdir()
    if not trace:
        fresh_setups(SIDES)
    F = import_package()
    state = wl.setup(F, seed, workdir)
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    steps = wl.steps(state)
    failed: list[str] = []
    attempted = len(steps)
    # The first pass is not timed.  Its results are compared with every
    # later pass's, and peak RSS is read right after it, before the kept
    # results and the baseline's state count too.
    first, _, bad = run_pass(F, steps)
    failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        B = import_package(BASELINE)
        (workdir / "baseline").mkdir()
        base_state = wl.setup(B, seed, workdir / "baseline")
        base_steps = wl.steps(base_state)
    # What is kept is never freed: leave it out of later collections, which
    # would otherwise walk it in every later pass.
    gc.collect()
    gc.freeze()

    step_times, base_step_times, traced_times = [], [], []
    cli_times: dict = {package: [] for package in SIDES}
    cli_first: dict = {}
    layer_samples: dict = {name: [] for name in tracing.LAYERS}
    command_times, pass_counts, first_spans = [], [], None

    start = perf_counter()
    deadline = start + seconds
    rounds = 0
    # A round starts only if one more round of the length seen so far ends
    # by the deadline, so that a run with long rounds does not overrun it.
    while rounds < wl.min_rounds or perf_counter() + (perf_counter() - start) / rounds <= deadline:
        if trace:
            env, times, bad = run_pass(F, steps)
            attempted += len(steps)
            failed += bad
            step_times.append(times)
            same_results(first, env, problems)
            del env
            tracer.active = True
            env, times, bad = run_pass(F, steps)
            tracer.active = False
            attempted += len(steps)
            failed += bad
            traced_times.append(sum(times))
            same_results(first, env, problems)
            del env
            spans, calls = tracer.take()
            first_spans = first_spans or spans
            for name, value in tracing.self_times(spans).items():
                layer_samples[name].append(value)
            command_times += tracing.run_command_times(spans)
            pass_counts.append(tracing.counts(calls))
        else:
            order = list(SIDES)[::-1] if rounds % 2 else list(SIDES)
            if rounds:
                fresh_setups(order)
            env, times, bad, base_times, base_bad = run_pair(F, steps, B, base_steps, rounds % 2 == 1)
            attempted += len(steps)
            failed += bad
            problems.check(not base_bad, f"baseline failed: {base_bad[:1]}")
            step_times.append(times)
            base_step_times.append(base_times)
            same_results(first, env, problems)
            del env
            for _ in range(wl.cli_runs):
                for package in order:
                    args = wl.cli_args(state if package == PACKAGE else base_state)
                    code, out, elapsed = child(CLI_CODE.format(package=package), args, package)
                    cli_times[package].append(elapsed)
                    if package == PACKAGE:
                        attempted += 1
                        if code not in (0, 1):
                            failed.append(f"fdes {' '.join(args)}: exit {code}")
                    problems.check(cli_first.setdefault(package, (code, out)) == (code, out),
                                   f"{package}: fresh-process outputs differ between rounds")
        rounds += 1
    while not trace and len(setup_times[PACKAGE]) < SETUP_REPEATS:
        fresh_setups(SIDES)

    try:
        wl.check(F, state, first, problems)
        if PACKAGE in cli_first:
            wl.check_cli(F, state, first, *cli_first[PACKAGE], problems)
            problems.check(cli_first[BASELINE][0] == cli_first[PACKAGE][0], "baseline command exit code")
    except Exception as err:  # a check that cannot even run is a wrong output
        problems.check(False, f"check raised {type(err).__name__}: {err}")

    if trace:
        import_times = []
        for _ in range(IMPORT_SAMPLES):
            code, out, _ = child(IMPORT_CODE, [])
            attempted += 1
            if code != 0:
                failed.append(f"import fdes: exit {code}")
            else:
                import_times.append(float(out))
        problems.check(all(c == pass_counts[0] for c in pass_counts), "per-layer counts differ between passes")
        spans_path = BENCH / "out" / f"spans-{wl.name}-{seed}.jsonl"
        tracing.write_spans(spans_path, first_spans)
        values = {name: tracing.median(samples) for name, samples in layer_samples.items()}
        values["cli.command_s"] = tracing.median(command_times)
        values["cli.import_s"] = tracing.median(import_times)
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median([sum(t) for t in step_times])
        values.update(pass_counts[0])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in PER_LAYER}
    else:
        # Per side: the median set-up, the mean pass and the mean command.
        # Means, not minima: the host's load comes and goes within one call,
        # and the two sides' means share its average where minima of a few
        # calls each do not.
        own, base = ({
            "setup_s": statistics.median(setup_times[package]),
            "solve_s": statistics.fmean(map(sum, times)),
            "cli_s": statistics.fmean(cli_times[package]),
        } for package, times in ((PACKAGE, step_times), (BASELINE, base_step_times)))
        for side, figures in (("unscaled", own), ("baseline", base)):
            print(f"{wl.name} seed {seed}: {side} " + " ".join(f"{k}={v:.4f}" for k, v in figures.items()),
                  file=sys.stderr)
        values = {name: BASELINE_S[wl.name][name] * own[name] / base[name] for name in own}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in END_TO_END}

    for line in failed[:20] + problems.found[:20]:
        print(f"{wl.name} seed {seed}: {line}", file=sys.stderr)
    print(f"{wl.name} seed {seed}: {rounds} rounds of {len(steps)} steps, {len(setup_times[PACKAGE])} set-ups",
          file=sys.stderr)
    return {"correct": not problems.found, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="make one run of this workload (default: run every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "fdes" / "__init__.py").is_file():
        print(f"no fdes sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                print(f"{name:13s} {metric:34s} {m['value']:12.6g} {m['unit']}")
            print(f"{name:13s} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
