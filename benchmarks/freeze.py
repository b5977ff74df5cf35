"""Freeze the expected answers of every input a workload can run.

    python3 benchmarks/freeze.py [workload ...]

Run once, at the commit whose answers become the reference.  For every
pool item (every argv of the cli menu) it runs the job, stores the
answers and the time taken in ``expected/<workload>.json`` (job lists
rank a stratum's items by that time), and
cross-checks against the naive implementations in ``chainmat.oracle``
wherever they finish within ORACLE_BUDGET_S: circuits against
``circuits_by_subset_scan`` and duals against ``dual_by_enumeration``.
A disagreement aborts the freeze.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import run as bench

sys.path[:0] = [bench.SRC]

import workloads  # noqa: E402
from chainmat import oracle  # noqa: E402

ORACLE_BUDGET_S = 5
COST_REPEATS = 3  # an item's frozen cost is the median of this many runs


class _OutOfTime(Exception):
    pass


def _alarm(signum, frame):
    raise _OutOfTime


def _with_budget(fn, *args):
    """fn(*args), or None when it does not finish within the oracle budget."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ORACLE_BUDGET_S)
    try:
        return fn(*args)
    except _OutOfTime:
        return None
    finally:
        signal.alarm(0)


def _oracle_matroid(job, result) -> str:
    system, _, circuits, _, _ = result
    want = _with_budget(oracle.circuits_by_subset_scan, workloads._matrix(job))
    if want is None:
        return "skipped"
    if want.members != circuits.members:
        raise SystemExit(f"{job.key}: circuits disagree with circuits_by_subset_scan")
    return "circuits"


def _oracle_code(job, result) -> str:
    code, dual = result[0], result[1]
    want = _with_budget(oracle.dual_by_enumeration, code)
    if want is None:
        return "skipped"
    if want.codewords != dual.codewords:
        raise SystemExit(f"{job.key}: dual disagrees with dual_by_enumeration")
    return "dual"


def freeze_pool(workload: str) -> dict:
    if workload == "codes-chain":
        run_job, answers, check = workloads.run_code, workloads.code_answers, _oracle_code
    else:
        run_job, answers, check = workloads.run_matroid, workloads.matroid_answers, _oracle_matroid
    out = {"answers": {}, "seconds": {}, "oracle": {}}
    for stratum, items in sorted(workloads.pool(workload).items()):
        for job in items:
            times = []
            for _ in range(COST_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                result = run_job(job)
                times.append(time.perf_counter() - t0)
            out["seconds"][job.key] = round(statistics.median(times), 4)
            out["answers"][job.key] = answers(result)
            out["oracle"][job.key] = check(job, result)
            print(f"{job.key}: {out['seconds'][job.key]}s oracle={out['oracle'][job.key]}", flush=True)
    return out


def freeze_cli() -> dict:
    out = {"answers": {}, "seconds": {}}
    env = dict(os.environ, PYTHONPATH=bench.SRC)
    for argv in workloads.cli_menu():
        key = " ".join(argv)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "chainmat.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=bench.COMMAND_TIMEOUT_S, preexec_fn=bench.limit_memory)
        out["seconds"][key] = round(time.perf_counter() - t0, 4)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{key}: exit {proc.returncode}: {proc.stderr.strip()}")
        out["answers"][key] = workloads.cli_answers(argv, proc.returncode, proc.stdout)
        print(f"{key}: {out['seconds'][key]}s {out['answers'][key]}", flush=True)
    return out


def main(names):
    bench.limit_memory()
    for workload in names or sorted(workloads.WORKLOADS):
        out = freeze_cli() if workload == "cli" else freeze_pool(workload)
        out = {"code": bench.code_version(), "pool_seed": workloads.POOL_SEED, **out}
        path = os.path.join(bench.BENCH_DIR, "expected", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
