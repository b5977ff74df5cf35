"""chainmat benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload matroid-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; chainmat is imported from ``src/``.
The workload's fixed job list runs in passes, in a closed loop (the next job
starts when the previous one ends), until ``--seconds`` have gone by; at
least one pass always completes.  Job latencies are reported in units of a
reference loop timed in the same pass (see ``reference_loop``).  Every job's output is checked against
the frozen answers in ``expected/``.  The last line of standard output is
the result, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, prefixed ``run-info:``, records the code
version, interpreter, CPU count, seed, job counts and tail percentile.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` spends half the time on untraced passes and half on traced
ones, and reports per-layer self times and counters per traced pass, plus
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60
MEMORY_LIMIT = 3 << 30  # address-space cap, so a runaway job fails instead of exhausting the host
TAIL_MIN_BEYOND = 10

PER_LAYER_TIMES = {
    "bench.self_s": "bench",
    "cli.self_s": "cli",
    "rings.make_ring.s": "rings.make_ring",
    "linalg.snf.s": "linalg.snf",
    "linalg.systematic.s": "linalg.systematic",
    "modindep.indep_tests.s": "modindep.indep_tests",
    "modindep.span.s": "modindep.span",
    "modindep.ideal_multiple.s": "modindep.ideal_multiple",
    "indepsys.build.s": "indepsys.build",
    "indepsys.check_matroid.s": "indepsys.check_matroid",
    "indepsys.rank.s": "indepsys.rank",
    "indepsys.circuits.s": "indepsys.circuits",
    "indepsys.dual.s": "indepsys.dual",
    "indepsys.is_isomorphic.s": "indepsys.is_isomorphic",
    "codes.from_matrix.s": "codes.from_matrix",
    "codes.from_codeword_set.s": "codes.from_codeword_set",
    "codes.dual_code.s": "codes.dual_code",
    "codes.minors.s": "codes.minors",
    "enumgeo.s": "enumgeo",
    "gallery.verify_entry.s": "gallery.verify_entry",
}
PER_LAYER_CALLS = {
    "rings.make_ring.calls": "rings.make_ring",
    "linalg.snf.calls": "linalg.snf",
    "linalg.systematic.calls": "linalg.systematic",
    "modindep.indep_tests": "modindep.indep_tests",
    "modindep.span.calls": "modindep.span",
    "indepsys.check_matroid.calls": "indepsys.check_matroid",
    "codes.dual_code.calls": "codes.dual_code",
}
PER_LAYER_COUNTERS = (
    "modindep.span.vectors",
    "indepsys.family_size",
    "codes.kernel_scan.candidates",
    "codes.kernel_scan.dual_words",
)


def reference_loop() -> int:
    """A fixed pure-Python workload of sets, tuples and dicts, about 5 ms.

    It runs right before every job.  The shared hosts this benchmark runs on
    change speed by tens of percent within a minute, for every process
    alike, so job latencies are reported in units of this loop's time
    measured in the same pass ("ref"), which cancels the drift."""
    acc = set()
    for i in range(8000):
        acc.add((i % 97, (i * 7) % 13, i & 15))
        acc.discard((i - 50) % 97)
    counts = {}
    for a, b, _ in acc:
        counts[a] = counts.get(a, 0) + b
    return len(counts)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it,
    and that percentile (the maximum when there are ten jobs or fewer)."""
    ordered = sorted(latencies)
    idx = len(ordered) - TAIL_MIN_BEYOND - 1 if len(ordered) > TAIL_MIN_BEYOND else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _fresh_python(code: str, *args) -> float:
    """Wall time of a fresh interpreter running code with src/ and the
    benchmark on its path."""
    prelude = f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]\n"
    t0 = time.perf_counter()
    # captured output: with pipes the wait ends at EOF; without them
    # subprocess polls for the exit in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", prelude + code, *args], check=True, capture_output=True,
                   timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of start-up, import, ring
    construction and input generation."""
    code = "import workloads; workloads.setup(sys.argv[1], int(sys.argv[2]))"
    return statistics.median(_fresh_python(code, workload, str(seed)) for _ in range(SETUP_REPEATS))


def cli_startup_ms() -> float:
    """Median wall time of a fresh interpreter that imports chainmat.cli."""
    return 1000 * statistics.median(_fresh_python("import chainmat.cli") for _ in range(STARTUP_REPEATS))


def pin_to_one_cpu():
    """Keep the run, and the commands it starts, on one CPU, so the
    reference loop and the jobs it normalises see the same CPU's load."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def limit_memory():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def code_version() -> dict:
    """The git commit when the checkout is a git repository, and always a
    digest of the chainmat sources."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "chainmat", "**", "*.*"), recursive=True)):
        if path.endswith((".py", ".json", ".mat")):
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


class Runner:
    """Runs a job list in passes and checks every output."""

    def __init__(self, workload: str, jobs: list, expected: dict):
        import workloads
        from chainmat.rings import make_ring

        self.workloads = workloads
        self._clear_rings = make_ring.cache_clear  # bound before tracing wraps make_ring
        self.name = workload
        self.jobs = jobs
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def _check(self, job, answers):
        want = self.expected.get(job.key)
        if answers != want:
            self.failures.append(f"{job.key}: got {answers}, expected {want}")

    def _fail(self, job, exc):
        self.failures.append(f"{job.key}: {type(exc).__name__}: {exc}")

    # -- one job -------------------------------------------------------------------

    def in_process(self, job, tracer=None):
        """Run a job in this process; returns its latency in seconds."""
        w = self.workloads
        run, answers = (w.run_code, w.code_answers) if self.name == "codes-chain" else (w.run_matroid, w.matroid_answers)
        gc.collect()  # each job starts from the same collector state
        t0 = time.perf_counter()
        try:
            result = tracer.job(run, job) if tracer else run(job)
        except Exception as exc:  # a raising job is a failed job; the run goes on
            self._fail(job, exc)
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        try:
            self._check(job, answers(result))
        except Exception as exc:
            self._fail(job, exc)
        return dt

    def subprocess_command(self, job):
        """Run one chainmat command in a fresh interpreter."""
        argv = [sys.executable, "-m", "chainmat.cli", *job.args]
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                                  timeout=COMMAND_TIMEOUT_S, preexec_fn=limit_memory)
        except subprocess.TimeoutExpired as exc:
            self._fail(job, exc)
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self._check_command(job, proc.returncode, proc.stdout)
        return dt

    def replay_command(self, job, tracer=None):
        """Run one chainmat command in this process through chainmat.cli.main,
        with the ring cache cleared as in a fresh interpreter."""
        from chainmat import cli

        self._clear_rings()
        gc.collect()
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = tracer.job(cli.main, list(job.args)) if tracer else cli.main(list(job.args))
            except Exception as exc:
                code = exc
        dt = time.perf_counter() - t0
        if isinstance(code, Exception):
            self._fail(job, code)
        else:
            self._check_command(job, code, out.getvalue())
        return dt

    def _check_command(self, job, code, stdout):
        try:
            self._check(job, self.workloads.cli_answers(job.args, code, stdout))
        except Exception as exc:
            self._fail(job, exc)

    # -- passes --------------------------------------------------------------------

    def passes(self, run_job, budget_s: float):
        """Closed-loop passes over the job list until the next pass would
        overrun the budget, with the reference loop timed before every job.
        Returns each pass's time to solution (the sum of its job latencies,
        so output checks are not counted), the latencies per job, and each
        pass's mean reference-loop time."""
        walls, refs, latencies = [], [], {job.key: [] for job in self.jobs}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wall = ref = 0.0
            for job in self.jobs:
                r0 = time.perf_counter()
                reference_loop()
                ref += time.perf_counter() - r0
                dt = run_job(job)
                latencies[job.key].append(dt)
                wall += dt
                self.attempted += 1
            walls.append(wall)
            refs.append(ref / len(self.jobs))
            if time.perf_counter() - start + (time.perf_counter() - t0) > budget_s:
                return walls, latencies, refs


def run(workload: str, seed: int, seconds: float, trace: bool, job_limit=None, expected=None):
    """One benchmark run; returns the result, the run-info record and the
    failure messages.  job_limit and expected serve the self-test."""
    import workloads

    jobs = workloads.setup(workload, seed)
    if job_limit is not None:
        jobs = jobs[:job_limit]
    runner = Runner(workload, jobs, workloads.frozen(workload)["answers"] if expected is None else expected)
    info = {"workload": workload, "seed": seed, "recheck_seed": workloads.RECHECK_SEED, "jobs": len(jobs),
            **workloads.WORKLOADS[workload]}

    if workload == "cli":
        untraced = runner.replay_command if trace else runner.subprocess_command
    else:
        untraced = runner.in_process
    walls, latencies, refs = runner.passes(untraced, seconds / 2 if trace else seconds)
    info["passes"] = len(walls)

    if not trace:
        if workload == "cli":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # a job's cost: its latency over its pass's reference-loop time,
        # median over passes
        cost = [_median([dt / ref for dt, ref in zip(v, refs)]) for v in latencies.values()]
        raw = [_median(v) for v in latencies.values()]
        tail_ref, tail_pct = tail(cost)
        info.update(tail_percentile=round(tail_pct, 2), pass_walls_s=[round(w, 4) for w in walls],
                    reference_loop_ms=round(1000 * _median(refs), 4), wall_s=round(sum(raw), 4),
                    job_p50_ms=round(1000 * _median(raw), 3), job_tail_ms=round(1000 * tail(raw)[0], 3))
        metrics = {
            "wall_ref": _metric(sum(cost), "ref"),
            "job_p50_ref": _metric(_median(cost), "ref"),
            "job_tail_ref": _metric(tail_ref, "ref"),
            "setup_s": _metric(setup_seconds(workload, seed), "s"),
            "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
        }
    else:
        metrics = traced_metrics(runner, walls, seconds)
        info["traced_passes"] = metrics.pop("_traced_passes")

    info.update(code_version(), python=platform.python_version(), nproc=os.cpu_count(),
                attempted=runner.attempted, failed=len(runner.failures),
                fail_ratio=len(runner.failures) / runner.attempted)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, info, runner.failures


def traced_metrics(runner: Runner, untraced_walls, seconds: float) -> dict:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        if runner.name == "cli":
            job_fn = lambda job: runner.replay_command(job, tracer)  # noqa: E731
        else:
            job_fn = lambda job: runner.in_process(job, tracer)  # noqa: E731
        walls, _, _ = runner.passes(job_fn, seconds / 2)
    finally:
        tracer.uninstall()
    n = len(walls)
    own = tracer.self_times()
    calls = {name: tracer.call_count(layer) / n for name, layer in PER_LAYER_CALLS.items()}
    counters = {name: tracer.counters[name] / n for name in PER_LAYER_COUNTERS}
    metrics = {name: _metric(own[layer] / n, "s") for name, layer in PER_LAYER_TIMES.items()}
    metrics.update({name: _metric(v, "count") for name, v in {**calls, **counters}.items()})
    indep = calls["modindep.indep_tests"]
    builds = tracer.call_count("indepsys.build") / n
    candidates = counters["codes.kernel_scan.candidates"]
    metrics["indepsys.build.yield"] = _metric(
        (counters["indepsys.family_size"] - builds) / indep if indep else 0.0, "ratio")
    metrics["codes.kernel_scan.yield"] = _metric(
        counters["codes.kernel_scan.dual_words"] / candidates if candidates else 0.0, "ratio")
    metrics["cli.startup_ms"] = _metric(cli_startup_ms() if runner.name == "cli" else 0.0, "ms")
    metrics["trace.wall_s"] = _metric(_median(walls), "s")
    metrics["trace.overhead_ratio"] = _metric(_median(walls) / _median(untraced_walls), "ratio")
    metrics["_traced_passes"] = n
    return metrics


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_checkout_sources() -> bool:
    """Put src/ and the benchmark first on the import path; False when the
    checkout has no chainmat sources."""
    if not os.path.isfile(os.path.join(SRC, "chainmat", "__init__.py")):
        print(f"error: no chainmat sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return False
    sys.path[:0] = [SRC, BENCH_DIR]
    return True


def main(argv=None) -> int:
    if not use_checkout_sources():
        return 2
    args = parse_args(argv)
    limit_memory()
    pin_to_one_cpu()
    result, info, failures = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("run-info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
