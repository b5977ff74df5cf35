"""Seeded workloads for the chainmat benchmark.

Each workload is a fixed list of jobs drawn from a frozen input pool.  The
pool is generated from POOL_SEED, one stratum at a time (a stratum fixes
the ring and the matrix shape), and its expected answers are frozen in
``expected/<workload>.json``.  The run seed picks which pool items of each
stratum form the job list and the order in which they run, so the same
seed always gives the same inputs and every input has a frozen answer.

A job is a pair of functions: ``run`` does the timed library calls and
``answers`` reduces their results, untimed, to mathematical content
(digests of families and circuit sets, sizes, verdicts) that representation
changes cannot alter.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass

# Library calls go through the package's attributes, where a traced run
# (spans.py) installs its wrappers.
import chainmat as cm
from chainmat.errors import NotContractibleError

POOL_SEED = 20260317
# Claims of a speed-up are re-checked on this seed, which was not run
# while the benchmark was built and tuned.
RECHECK_SEED = 7919

# Why each workload exists and which layer it loads, one sentence each.
WORKLOADS = {
    "matroid-chain": {
        "why": "SNF build plus O(|F|^2) exchange certification over chain rings and fields, "
               "so both matroid verdicts occur.",
        "loads": "indepsys.check_matroid (most self time), then linalg.snf via indepsys.build_from_matrix.",
    },
    "matroid-nonchain": {
        "why": "The same public build_from_matrix call taking the submodule-enumeration path "
               "instead of SNF, so a gain for one path that costs the other shows.",
        "loads": "modindep.span and modindep.ideal_multiple under indepsys.build_from_matrix; "
                 "certification is under 1%.",
    },
    "codes-chain": {
        "why": "Codeword materialisation and the exhaustive kernel scan for non-free codes, "
               "next to the systematic route for free ones.",
        "loads": "codes.dual_code (kernel scan) and the codeword-set constructors in codes.",
    },
    "cli": {
        "why": "The only workload that runs ring construction, enumgeo, gallery and the command "
               "layer, with the interpreter start-up a user pays on every command.",
        "loads": "rings.make_ring on the ring-heavy commands, then the cli layer and import start-up.",
    },
}

MATROID_CHAIN_RINGS = ("z:4", "z:8", "z:9", "fpu:2,2", "z:25", "z:5", "z:7")
MATROID_CHAIN_SHAPES = ((3, 10), (3, 13), (4, 11), (4, 12), (5, 11))
MATROID_NONCHAIN_STRATA = (
    ("table:f2xy_xx_xy_yy", ((2, 8), (2, 9), (3, 8), (3, 9))),
    ("table:f2xy_xx_yy", ((2, 6), (2, 7), (2, 8))),
)
# z:9 stops at length 5: its length-6 kernel scans (9^6 candidates) alone
# would take longer than all the other strata together.
CODES_LENGTHS = {"z:4": (5, 6), "z:8": (5, 6), "z:9": (5,), "fpu:2,2": (5, 6)}
CODES_ROWS = (1, 2, 3)

# Pool items per stratum, and how many of them one job list takes.  The
# items of a stratum are ranked by their frozen cost and cut into PICK
# groups of equal size; a job list takes one item of each group, so every
# seed's list has about the same cost while its inputs differ.  The
# non-chain costs spread too widely within a stratum for that (0.2 s to
# 0.8 s for one shape), so matroid-nonchain runs its whole pool and the
# seed only orders it.
POOL_PER_STRATUM = {"matroid-chain": 4, "matroid-nonchain": 8, "codes-chain": 4}
PICK_PER_STRATUM = {"matroid-chain": 2, "matroid-nonchain": 8, "codes-chain": 1}


@dataclass(frozen=True)
class Job:
    key: str
    spec: str  # ring spec ("" for cli jobs)
    rows: tuple  # matrix rows as ring element indices
    args: tuple = ()  # code jobs: puncture, shorten and contract labels; cli jobs: argv


def digest(items) -> str:
    """Order-independent digest of a collection of sortable items."""
    body = repr(sorted(items)).encode()
    return hashlib.sha256(body).hexdigest()[:20]


def _item_rng(workload: str, stratum: str, index: int) -> random.Random:
    return random.Random(f"{POOL_SEED}/{workload}/{stratum}/{index}")


def _random_rows(rng: random.Random, size: int, k: int, n: int) -> tuple:
    return tuple(tuple(rng.randrange(size) for _ in range(n)) for _ in range(k))


# -- pools -------------------------------------------------------------------


def _matroid_strata(workload: str):
    if workload == "matroid-chain":
        return [(spec, shape) for spec in MATROID_CHAIN_RINGS for shape in MATROID_CHAIN_SHAPES]
    return [(spec, shape) for spec, shapes in MATROID_NONCHAIN_STRATA for shape in shapes]


def _matroid_pool(workload: str) -> dict:
    pool = {}
    for spec, (k, n) in _matroid_strata(workload):
        size = cm.make_ring(spec).size
        stratum = f"{spec}|{k}x{n}"
        pool[stratum] = [
            Job(f"{stratum}|{i}", spec, _random_rows(_item_rng(workload, stratum, i), size, k, n))
            for i in range(POOL_PER_STRATUM[workload])
        ]
    return pool


def _codes_pool() -> dict:
    pool = {}
    for spec, lengths in CODES_LENGTHS.items():
        ring = cm.make_ring(spec)
        for n in lengths:
            for k in CODES_ROWS:
                for scaled in (False, True):
                    stratum = f"{spec}|{k}x{n}|{'scaled' if scaled else 'plain'}"
                    items = []
                    for i in range(POOL_PER_STRATUM["codes-chain"]):
                        rng = _item_rng("codes-chain", stratum, i)
                        # [I_k | A] with random A and random column order: a
                        # free code of rank k, so the stratum alone decides
                        # freeness and |C|
                        a = _random_rows(rng, ring.size, k, n - k)
                        rows = [[int(r == j) for j in range(k)] + list(a[r]) for r in range(k)]
                        if scaled:
                            # half of the rows (at least one) times the
                            # uniformizer: invariant factor theta, not free
                            for r in rng.sample(range(k), max(1, k // 2)):
                                rows[r] = [ring.mul(ring.uniformizer, x) for x in rows[r]]
                        order = rng.sample(range(n), n)
                        rows = [[row[j] for j in order] for row in rows]
                        cols = rng.sample(range(1, n + 1), 3)
                        items.append(Job(f"{stratum}|{i}", spec, tuple(map(tuple, rows)), tuple(map(str, cols))))
                    pool[stratum] = items
    return pool


def pool(workload: str) -> dict:
    """Every input of a workload, by stratum; independent of the run seed."""
    if workload == "codes-chain":
        return _codes_pool()
    return _matroid_pool(workload)


def job_list(workload: str, seed: int) -> list:
    """The run's fixed job list: a seeded pick from each stratum, shuffled."""
    rng = random.Random(seed)
    picks = PICK_PER_STRATUM[workload]
    cost = frozen(workload)["seconds"]
    jobs = []
    for stratum, items in sorted(pool(workload).items()):
        ranked = sorted(items, key=lambda job: cost[job.key])
        group = len(ranked) // picks
        jobs.extend(rng.choice(ranked[g * group:(g + 1) * group]) for g in range(picks))
    rng.shuffle(jobs)
    return jobs


def frozen(workload: str) -> dict:
    """The frozen answers, costs and oracle verdicts of a workload's inputs."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected", f"{workload}.json")
    with open(path) as f:
        return json.load(f)


def _labels(n: int) -> list:
    return [str(i) for i in range(1, n + 1)]


def _matrix(job: Job) -> cm.Mat:
    return cm.Mat(cm.make_ring(job.spec), _labels(len(job.rows[0])), [list(r) for r in job.rows])


# -- matroid jobs --------------------------------------------------------------


def run_matroid(job: Job):
    system = cm.build_from_matrix(_matrix(job))
    report = cm.check_matroid(system)
    circuits = system.circuits()
    dual = system.dual()
    return system, report, circuits, dual, system.rank()


def matroid_answers(result) -> dict:
    system, report, circuits, dual, rank = result
    bit = {label: 1 << i for i, label in enumerate(system.labels)}

    def mask(labels):
        return sum(bit[l] for l in labels)

    return {
        "family": digest(system.family),
        "family_size": len(system.family),
        "is_matroid": report.is_matroid,
        "violations": digest((mask(a), mask(b)) for a, b in report.violations),
        "violation_count": len(report.violations),
        "rank": rank,
        "circuits": digest(mask(c) for c in circuits.members),
        "circuit_count": len(circuits.members),
        "dual_family": digest(dual.family),
    }


# -- code jobs -------------------------------------------------------------------


def run_code(job: Job):
    p_label, s_label, c_label = job.args
    code = cm.Code.from_matrix(_matrix(job))
    dual = cm.dual_code(code)
    double = cm.dual_code(dual)
    punctured = cm.puncture(code, [p_label])
    shortened = cm.shorten(code, [s_label])
    try:
        contracted, _ = cm.contract_code(code, [c_label])
    except NotContractibleError:
        contracted = None
    return code, dual, double, punctured, shortened, contracted


def _orthogonal(ring, rows_a, rows_b) -> bool:
    for a in rows_a:
        for b in rows_b:
            s = 0
            for x, y in zip(a, b):
                s = ring.add(s, ring.mul(x, y))
            if s:
                return False
    return True


def code_answers(result) -> dict:
    code, dual, double, punctured, shortened, contracted = result
    return {
        "size": len(code.codewords),
        "free": code.is_free,
        "dual_size": len(dual.codewords),
        "dual_of_dual_equal": double == code,
        "dual_orthogonal": _orthogonal(code.ring, dual.generator.rows, code.generator.rows),
        "punctured_size": len(punctured.codewords),
        "shortened_size": len(shortened.codewords),
        "contracted_size": None if contracted is None else len(contracted.codewords),
    }


# -- cli jobs ----------------------------------------------------------------------
#
# The command list is fixed; the seed orders it and picks two of the four
# counting shapes (all four cost the same z:1024 ring), so every argv the
# workload can run has a frozen answer.

CLI_UNIFORM_RINGS = ("z:343", "z:512", "z:625", "z:729", "z:1024", "fpu:2,8", "fpu:5,3")
CLI_COUNTING = (("2,0,0", 3), ("1,1,1", 5), ("0,2,1", 4), ("3,0,0", 2))
CLI_BOUND = (("z:4", 2), ("z:8", 2), ("z:9", 2), ("z:4", 3))
CLI_FIXED = [
    ["verify-gallery", "--all"],
    *[["--json", "check-matroid", f"data:{m}"] for m in
      ("vamos_z8", "non_matroid", "p8_z4", "f8_z4", "ag32prime_z4", "p6_z4", "f7minus_z4", "p8eq_f5")],
    *[["--json", "circuits", f"data:{m}"] for m in ("vamos_z8", "ag32prime_z4", "p8eq_z4", "f7minus_f3")],
    ["iso", "data:p8eq_f5", "data:p8eq_z4"],
    ["iso", "data:p8_f3", "data:p8_z4"],
    ["iso", "data:f7minus_f3", "data:f7minus_z4"],
    *[["dual-code", f"data:{m}"] for m in ("duality_may_fail_G", "vamos_z8", "u26_z4", "p6_z4")],
    ["contract", "data:vamos_z8", "-X", "a,b"],
    ["contract", "data:p8_z4", "-X", "a"],
    *[["uniform", "--ring", r, "-n", "12"] for r in CLI_UNIFORM_RINGS],
    *[["bound", "--ring", r, "-k", str(k), "--antichain"] for r, k in CLI_BOUND],
]


def _counting(shape: str, s: int) -> list:
    return ["counting", "--ring", "z:1024", "--shape", shape, "-s", str(s)]


def cli_menu() -> list:
    """Every argv the cli workload can run, for freezing answers."""
    return [list(a) for a in CLI_FIXED] + [_counting(sh, s) for sh, s in CLI_COUNTING]


def cli_jobs(seed: int) -> list:
    rng = random.Random(seed)
    argvs = [list(a) for a in CLI_FIXED] + [_counting(sh, s) for sh, s in rng.sample(CLI_COUNTING, 2)]
    rng.shuffle(argvs)
    return [Job(" ".join(a), "", (), tuple(a)) for a in argvs]


def _matrix_size(text: str) -> int:
    return len(cm.Code.from_matrix(cm.parse_matrix(text)).codewords)


def cli_answers(argv, code: int, out: str) -> dict:
    """Mathematical content of one command's exit code and output."""
    ans = {"exit": code}
    cmd = next(a for a in argv if not a.startswith("--"))
    if code not in (0, 1):
        return ans
    lines = out.splitlines()
    if cmd == "verify-gallery":
        ans["passed"] = sum(": pass" in l for l in lines)
    elif cmd == "check-matroid":
        blob = json.loads(out)
        ans["family"] = digest(tuple(sorted(s)) for s in blob["independent"])
        ans["rank"] = blob["rank"]
        ans["is_matroid"] = blob["is_matroid"]
        ans["violations"] = digest((tuple(sorted(a)), tuple(sorted(b))) for a, b in blob["violations"])
    elif cmd == "circuits":
        ans["circuits"] = digest(tuple(sorted(c)) for c in json.loads(out)["circuits"])
    elif cmd == "dual-code":
        ans["code_size"] = _matrix_size(out)
    elif cmd == "uniform" and code == 0:
        # the command verifies U(2, n) itself before printing; check the shape
        ans["columns"] = len(lines[1].split()) - 1
        ans["rows"] = len(lines) - 2
    elif cmd == "contract" and code == 0:
        ans["code_size"] = _matrix_size("\n".join(l for l in lines if not l.startswith("#")))
    elif cmd in ("counting", "bound"):
        ans["numbers"] = [int(x) for x in re.findall(r"-?\d+", out)]
    return ans


def setup(workload: str, seed: int) -> list:
    """What a user pays before the first job: rings, then the inputs."""
    if workload == "cli":
        import chainmat.cli  # noqa: F401  (each command's import is timed separately)

        return cli_jobs(seed)
    jobs = job_list(workload, seed)
    for job in jobs:
        cm.make_ring(job.spec)
    return jobs
