"""Catalog of named matroids with explicit ring representations.

Each entry pairs a matrix file with a target: a uniform matroid, a frozen
circuit fixture, an isomorphism against a second matrix, or one of the
two hand-checked circuit descriptions (the rank-4 Vamos circuits and the
affine-cube plane list).  ``verify_entry`` rebuilds the independence
system from the matrix and checks everything the entry claims.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .codes import Code, dual_code
from .errors import NotFreeError, UnknownEntryError, VerificationFailedError
from .indepsys import (
    IndependenceSystem,
    build_from_matrix,
    check_matroid,
    is_isomorphic,
    uniform_system,
)
from .linalg import DATA_DIR, Mat, parse_matrix, read_data

# 4-circuits of the rank-4 Vamos matroid under the standard labelling;
# its 5-circuits are exactly the 5-subsets containing none of these.
VAMOS_4CIRCUITS = [
    frozenset("abcd"),
    frozenset("abef"),
    frozenset("cdef"),
    frozenset("abgh"),
    frozenset("cdgh"),
]

# Named planes of the relaxed affine cube: the six diagonal planes and
# the twisted plane.  The six remaining planes live in the frozen fixture.
AG_DIAGONAL_PLANES = [
    frozenset("abgh"),
    frozenset("cdef"),
    frozenset("adfg"),
    frozenset("bceh"),
    frozenset("aceg"),
    frozenset("bdfh"),
]
AG_TWISTED_PLANE = frozenset("bdeg")


def data_path(name: str):
    """Filesystem path of a packaged data file (matrices, fixtures)."""
    from pathlib import Path

    return Path(DATA_DIR, name)


def load_matrix(name: str) -> Mat:
    return parse_matrix(read_data(name))


def _manifest() -> list:
    return json.loads(read_data("manifest.json"))


def _fixtures() -> dict:
    return json.loads(read_data("circuit_fixtures.json"))


def entry_names() -> list:
    return [e["name"] for e in _manifest()]


def get_entry(name: str) -> dict:
    for e in _manifest():
        if e["name"] == name:
            return e
    raise UnknownEntryError(f"no gallery entry named {name!r}")


class GalleryReport(NamedTuple):
    name: str
    passed: bool
    checks: list
    system: IndependenceSystem | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({'; '.join(self.checks)})"


def _require(cond: bool, entry: str, message: str, witness=None):
    if not cond:
        raise VerificationFailedError(f"{entry}: {message}", witness=witness)


def verify_entry(name: str) -> GalleryReport:
    """Rebuild the entry's matroid and compare it against its target."""
    entry = get_entry(name)
    mat = load_matrix(entry["matrix"])
    system = build_from_matrix(mat)
    report = check_matroid(system)
    checks = []

    _require(report.is_matroid, name, "independence system is not a matroid",
             witness=report.violations[:1])
    checks.append("matroid")
    _require(report.rank == entry["rank"], name,
             f"rank {report.rank} != claimed {entry['rank']}")
    checks.append(f"rank {report.rank}")
    _require(report.is_simple == entry["simple"], name,
             f"simplicity {report.is_simple} != claimed {entry['simple']}")
    if entry["simple"]:
        checks.append("simple")
    code = Code.from_matrix(mat)
    _require(code.is_free == entry["free"], name,
             f"freeness {code.is_free} != claimed {entry['free']}")
    if entry["free"]:
        checks.append("free")

    target = entry["target"]
    kind = target["kind"]
    if kind == "uniform":
        want = uniform_system(target["k"], target["n"])
        bij = is_isomorphic(system, want)
        _require(bij is not None, name,
                 f"not isomorphic to the uniform matroid U({target['k']},{target['n']})")
        checks.append(f"iso U({target['k']},{target['n']})")
    elif kind == "circuit-fixture":
        fixture = {frozenset(c) for c in _fixtures()[target["fixture"]]}
        got = system.circuits().members
        diff = got.symmetric_difference(fixture)
        _require(not diff, name, "circuit set deviates from the frozen fixture",
                 witness=sorted(sorted(s) for s in diff)[:3])
        checks.append(f"{len(fixture)} circuits match fixture")
    elif kind == "iso-matrix":
        other = build_from_matrix(load_matrix(target["matrix"]))
        bij = is_isomorphic(system, other)
        _require(bij is not None, name, f"not isomorphic to {target['matrix']}")
        checks.append(f"iso to {target['matrix']}")
    elif kind == "vamos":
        circuits = system.circuits().members
        four = {c for c in circuits if len(c) == 4}
        _require(four == set(VAMOS_4CIRCUITS), name,
                 "4-circuits are not the five listed sets",
                 witness=sorted(sorted(s) for s in four ^ set(VAMOS_4CIRCUITS)))
        five = {c for c in circuits if len(c) == 5}
        want5 = {
            frozenset(s)
            for s in combinations(system.labels, 5)
            if not any(f <= frozenset(s) for f in VAMOS_4CIRCUITS)
        }
        _require(five == want5, name, "5-circuits do not follow the containment rule")
        _require(four | five == circuits, name, "unexpected circuit sizes")
        checks.append("5 four-circuits + complementary five-circuits")
    elif kind == "ag-planes":
        circuits = system.circuits().members
        four = {c for c in circuits if len(c) == 4}
        named = set(AG_DIAGONAL_PLANES) | {AG_TWISTED_PLANE}
        missing = named - four
        _require(not missing, name, "a named plane is not a circuit",
                 witness=sorted(sorted(s) for s in missing))
        _require(len(four) == 13, name, f"{len(four)} planes instead of 13")
        fixture = {frozenset(c) for c in _fixtures()[target["fixture"]] if len(c) == 4}
        _require(four == fixture, name, "plane set deviates from the frozen fixture")
        checks.append("named planes present, 13 planes total")
    else:
        raise VerificationFailedError(f"{name}: unknown target kind {kind!r}")

    crossref = entry.get("crossref")
    if crossref:
        other = build_from_matrix(load_matrix(crossref["matrix"]))
        bij = is_isomorphic(system, other)
        _require(bij is not None, name, f"cross-reference {crossref['matrix']} not isomorphic")
        checks.append(f"crossref {crossref['matrix']}")

    return GalleryReport(name=name, passed=True, checks=checks, system=system)


def dual_entry(name: str) -> GalleryReport:
    """Verify that the dual code represents the dual matroid."""
    entry = get_entry(name)
    if not entry.get("free"):
        raise NotFreeError(f"{name}: representation is not free; no dual construction")
    mat = load_matrix(entry["matrix"])
    code = Code.from_matrix(mat)
    if not code.is_free:
        raise NotFreeError(f"{name}: representation is not free; no dual construction")
    dual = dual_code(code)
    dual_system_of_dual_code = dual.matroid()
    checks = []
    target = entry.get("dual_target")
    if target is None:
        raise VerificationFailedError(f"{name}: entry declares no dual target")
    if target["kind"] == "uniform":
        want = uniform_system(target["k"], target["n"])
        bij = is_isomorphic(dual_system_of_dual_code, want)
        _require(bij is not None, name,
                 f"dual code does not represent U({target['k']},{target['n']})")
        checks.append(f"dual iso U({target['k']},{target['n']})")
    elif target["kind"] == "dual-of-entry":
        primal = build_from_matrix(mat)
        want = primal.dual()
        _require(dual_system_of_dual_code == want, name,
                 "dual code does not represent the dual of the entry's matroid")
        checks.append("dual code == dual matroid")
    else:
        raise VerificationFailedError(f"{name}: unknown dual target {target['kind']!r}")
    rep = check_matroid(dual_system_of_dual_code)
    _require(rep.is_matroid, name, "dual system is not a matroid")
    checks.append("dual is a matroid")
    return GalleryReport(name=name + " (dual)", passed=True, checks=checks,
                         system=dual_system_of_dual_code)
