"""Print a SHA-256 of each workload's canonical FDL results for one seed.

    python3 bench/hashes.py --seed 1

Runs one untimed pass per workload and hashes what it emits: the FDL text
of the pass's results for the model workloads, and the concatenated
standard output of every command for ``small-batch``.  A change that
claims to alter no output can show equal hashes before and after.  This is
for reference, not a gate: the benchmark's checks decide correctness.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def digest(wl, seed: int) -> str:
    workdir = run.BENCH / "out" / f"hash-{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        F = run.import_package()
        state = wl.setup(F, seed, workdir)
        env, _, failed = run.run_pass(F, wl.steps(state))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        raise SystemExit(f"{wl.name}: {failed[0]}")
    return hashlib.sha256(wl.canonical(env).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (run.SRC / "fdes" / "__init__.py").is_file():
        print(f"no fdes sources under {run.SRC}", file=sys.stderr)
        return 2
    for wl in WORKLOADS.values():
        print(f"{digest(wl, args.seed)}  {wl.name} seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
