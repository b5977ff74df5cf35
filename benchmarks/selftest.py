"""Smoke-size self-test of the benchmark.

    python3 benchmarks/selftest.py

Runs every workload on two jobs, untraced and traced, and checks that each
run reports exactly the metrics BENCHMARK.json declares, with no failed job,
and that the traced self times add up to the traced time to solution.  Then
it corrupts one frozen expected answer and checks that the run reports the
job as failed.  Exits 1 on the first broken check.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run as bench

SMOKE_JOBS = 2


def check(cond: bool, message: str):
    if not cond:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    if not bench.use_checkout_sources():
        return 2
    import workloads

    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workload names")

    for workload in workloads.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result, info, failures = bench.run(workload, 1, 0.0, trace, job_limit=SMOKE_JOBS)
            label = f"{workload} trace={int(trace)}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(set(result["metrics"]) == names, f"{label}: metric names {sorted(result['metrics'])}")
            check(result["correct"] and result["failed"] == 0 and not failures, f"{label}: {failures}")
            check(result["attempted"] == 2 * SMOKE_JOBS if trace else result["attempted"] == SMOKE_JOBS,
                  f"{label}: attempted {result['attempted']}")
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                own = sum(v for k, v in m.items() if k.endswith((".self_s", ".s")))
                check(abs(own - m["trace.wall_s"]) <= 0.02 * m["trace.wall_s"],
                      f"{label}: self times {own} vs traced wall {m['trace.wall_s']}")
            else:
                check(all(v > 0 for v in m.values()), f"{label}: zero metric in {m}")
            print(f"selftest ok: {label}", flush=True)

    expected = workloads.frozen("codes-chain")["answers"]
    job = workloads.job_list("codes-chain", 1)[0]
    corrupted = copy.deepcopy(expected)
    corrupted[job.key]["dual_size"] += 1
    result, _, failures = bench.run("codes-chain", 1, 0.0, False, job_limit=SMOKE_JOBS, expected=corrupted)
    check(result["failed"] == 1 and not result["correct"] and job.key in failures[0],
          f"corrupted answer not caught: {result}")
    print("selftest ok: a corrupted expected answer fails its job", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
