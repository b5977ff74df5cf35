from chainmat.codes import Code, dual_code
from chainmat.errors import NonIntegralDimensionError
from chainmat.indepsys import build_from_matrix
from chainmat.linalg import Mat
from chainmat.modindep import minimal_generator_count
from chainmat.oracle import (
    circuits_by_subset_scan,
    cyclic_submodule_census,
    cyclic_submodule_census_by_sets,
    dual_by_enumeration,
    mu_by_enumeration,
)
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, TABLE_SPECS, random_free_code, random_matrix, rng_for

Z4 = make_ring("z:4")


def test_mu_by_enumeration_examples():
    assert mu_by_enumeration(Z4, [(1, 0), (1, 2)]) == 2
    assert mu_by_enumeration(Z4, [(2, 0), (1, 2)]) == 1
    t8 = make_ring("table:f2xy_xx_xy_yy")
    x, one_x = t8.parse_element("x"), t8.parse_element("1+x")
    assert mu_by_enumeration(t8, [(x,), (one_x,)]) == 1


def test_dual_by_enumeration_examples():
    c = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[1, 2, 0], [0, 2, 2]]))
    dual = dual_by_enumeration(c)
    assert dual == Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    zero = Code.from_matrix(Mat(Z4, "ab", [[0, 0]]))
    assert len(dual_by_enumeration(zero).codewords) == 16


def test_circuits_by_subset_scan_examples():
    scan = circuits_by_subset_scan(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    assert scan.members == {frozenset({"1", "2"}), frozenset({"1", "3"})}
    eye = circuits_by_subset_scan(Mat(Z4, "ab", [[1, 0], [0, 1]]))
    assert eye.members == frozenset()


def test_subset_scan_matches_fast_path():
    rng = rng_for("scan-vs-fast")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(8):
            mat = random_matrix(rng, ring, rng.randint(1, 2), rng.randint(1, 4))
            assert circuits_by_subset_scan(mat).members == build_from_matrix(mat).circuits().members


def test_differential_mu():
    rng = rng_for("diff-mu-small")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(40):
            k, count = rng.randint(1, 3), rng.randint(0, 3)
            vecs = [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(count)]
            assert minimal_generator_count(ring, vecs, "snf") == mu_by_enumeration(ring, vecs)
    for spec in TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(20):
            vecs = [(rng.randrange(ring.size),) for _ in range(rng.randint(0, 3))]
            assert minimal_generator_count(ring, vecs, "enum") == mu_by_enumeration(ring, vecs)


def test_differential_duals():
    rng = rng_for("diff-dual-small")
    for spec in CHAIN_SPECS + ("z:5",):
        ring = make_ring(spec)
        n_max = 5 if spec == "z:4" else 4
        codes = [Code.from_matrix(Mat(ring, "abc", [[0, 0, 0]]))]  # the zero code
        for _ in range(15):
            k, n = rng.randint(1, 3), rng.randint(2, n_max)
            mat = random_matrix(rng, ring, k, n)
            codes.append(Code.from_matrix(mat))
            # non-free: one row times the uniformizer
            rows = [list(r) for r in mat.rows]
            i = rng.randrange(k)
            rows[i] = [ring.mul(ring.uniformizer, a) for a in rows[i]]
            codes.append(Code.from_matrix(Mat(ring, mat.labels, rows)))
        codes.append(random_free_code(rng, ring, 2, n_max))
        for c in codes:
            want, got = dual_by_enumeration(c), dual_code(c)
            assert got == want, (spec, c.generator)
            assert got.generator == want.generator, (spec, c.generator)


def test_census_fast_vs_sets():
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for vals in ([0], [0, 1], [1, 1], [0, 0]):
            vals = [min(v, ring.nilpotency_index - 1) for v in vals]
            assert cyclic_submodule_census(ring, vals) == cyclic_submodule_census_by_sets(ring, vals)


def test_non_integral_dimension_guard():
    # a broken "ring" whose non-units don't form a q-power quotient cannot
    # arise from make_ring; simulate by checking the error type exists and
    # the happy path never raises for valid rings
    rng = rng_for("dim-guard")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(5):
            vecs = [(rng.randrange(ring.size),) for _ in range(2)]
            mu_by_enumeration(ring, vecs)
    assert issubclass(NonIntegralDimensionError, Exception)
