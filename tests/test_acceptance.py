"""Acceptance suite: one test per criterion, exact checks, one status line
each.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines."""

import time
from itertools import combinations

from chainmat.codes import Code, dual_code, is_contractible, puncture, shorten
from chainmat.enumgeo import (
    ModuleShape,
    count_cyclic_submodules,
    cyc_antichain_bound,
    cyclic_submodules,
    simple_size_bound,
    uniform_rank2_representation,
)
from chainmat.errors import ZeroProjectionError
from chainmat.gallery import (
    AG_DIAGONAL_PLANES,
    AG_TWISTED_PLANE,
    load_matrix,
    verify_entry,
)
from chainmat.indepsys import build_from_matrix, check_matroid, is_isomorphic, uniform_system
from chainmat.modindep import minimal_generator_count, span, submodularity_gap
from chainmat.oracle import (
    circuits_by_subset_scan,
    cyclic_submodule_census,
    dual_by_enumeration,
    mu_by_enumeration,
)
from chainmat.rings import make_ring

from helpers import random_code, random_free_code, rng_for, submodule_mu

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")
Z9 = make_ring("z:9")
F2U = make_ring("fpu:2,2")


def _report(number, description, started):
    print(f"\nACCEPTANCE {number:2d}: PASS  [{time.time() - started:6.2f}s]  {description}")


def test_criterion_01_non_matroid_example():
    t0 = time.time()
    system = build_from_matrix(load_matrix("non_matroid.mat"))
    family = {frozenset(s) for s in system.independent_sets()}
    assert family == {
        frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"3"}),
        frozenset({"2", "3"}),
    }
    report = check_matroid(system)
    assert not report.is_matroid
    assert (frozenset({"1"}), frozenset({"2", "3"})) in report.violations
    assert time.time() - t0 < 1.0
    _report(1, "independence family and exchange violation reproduced", t0)


def test_criterion_02_rank2_uniform_sharpness():
    t0 = time.time()
    for ring, max_n in ((Z4, 6), (Z8, 12)):
        for n in range(1, max_n + 1):
            mat = uniform_rank2_representation(ring, n)
            assert mat is not None
            assert is_isomorphic(build_from_matrix(mat), uniform_system(2, n)) is not None
    assert uniform_rank2_representation(Z4, 7) is None
    # exhaustive non-existence certificate for U_{2,7} over Z4: a simple
    # representation embeds the 7 columns into pairwise-incomparable cyclic
    # submodules of Z4^2, and no 7 such submodules exist
    assert cyc_antichain_bound(Z4, 2) == 6
    mods = [m for m in cyclic_submodules(Z4, 2) if len(m) > 1]
    assert len(mods) == 9
    candidates = 0
    for combo in combinations(mods, 7):
        if all(not (a <= b or b <= a) for a, b in combinations(combo, 2)):
            candidates += 1
    assert candidates == 0
    assert time.time() - t0 < 30.0
    _report(2, "U(2,n) representable iff n <= |R|+|m|; Z4 n=7 search empty", t0)


def test_criterion_03_vamos():
    t0 = time.time()
    system = build_from_matrix(load_matrix("vamos_z8.mat"))
    report = check_matroid(system)
    assert report.is_matroid and report.rank == 4
    circuits = system.circuits().members
    four = {c for c in circuits if len(c) == 4}
    want4 = {
        frozenset("abcd"), frozenset("abef"), frozenset("cdef"),
        frozenset("abgh"), frozenset("cdgh"),
    }
    assert four == want4
    five = {c for c in circuits if len(c) == 5}
    want5 = {
        frozenset(s) for s in combinations("abcdefgh", 5)
        if not any(f <= frozenset(s) for f in want4)
    }
    assert five == want5
    assert circuits == four | five
    assert time.time() - t0 < 10.0
    _report(3, "Vamos matroid: rank 4, exact 4- and 5-circuit families", t0)


def test_criterion_04_p8eq_cross_representation():
    t0 = time.time()
    m_f5 = build_from_matrix(load_matrix("p8eq_f5.mat"))
    m_z4 = build_from_matrix(load_matrix("p8eq_z4.mat"))
    bijection = is_isomorphic(m_f5, m_z4)
    assert bijection is not None
    f1 = {frozenset(s) for s in m_f5.independent_sets()}
    f2 = {frozenset(s) for s in m_z4.independent_sets()}
    assert {frozenset(bijection[l] for l in s) for s in f1} == f2
    assert time.time() - t0 < 5.0
    _report(4, "P8= field and ring representations isomorphic", t0)


def test_criterion_05_catalog_entries():
    t0 = time.time()
    expectations = {
        "p6-z4": 3, "f7minus-z4": 3, "p8-z4": 4, "p8eq-z4": 4,
        "f8-z4": 4, "ag32prime-z4": 4,
    }
    for name, rank in expectations.items():
        rep = verify_entry(name)
        info = check_matroid(rep.system)
        assert info.is_matroid and info.is_simple and info.rank == rank
    ag = verify_entry("ag32prime-z4").system
    four = {c for c in ag.circuits().members if len(c) == 4}
    assert AG_TWISTED_PLANE in four
    assert set(AG_DIAGONAL_PLANES) <= four
    assert len(four) == 13
    assert time.time() - t0 < 30.0
    _report(5, "catalog entries simple, stated ranks; AG named planes present", t0)


def test_criterion_06_free_duality():
    t0 = time.time()
    rng = rng_for("acceptance-free-duality")
    checked = 0
    while checked < 200:
        ring = rng.choice((Z4, Z8))
        n = rng.randint(2, 7)
        lo = max(1, n - 4) if ring is Z8 else 1
        if lo > min(4, n):
            continue
        k = rng.randint(lo, min(4, n))
        code = random_free_code(rng, ring, k, n)
        assert code.is_free
        primal_dual = code.matroid().dual()
        dual_system = dual_code(code).matroid()
        assert primal_dual.family == dual_system.family
        assert primal_dual.labels == dual_system.labels
        checked += 1
    # counterexample: duality fails for the non-free code of the running example
    code = Code.from_matrix(load_matrix("duality_may_fail_G.mat"))
    m = code.matroid()
    assert is_isomorphic(m, uniform_system(2, 3)) is not None
    dual_sys = dual_code(code).matroid()
    assert not check_matroid(dual_sys).is_matroid
    star = dual_sys.dual()
    assert {frozenset(s) for s in star.independent_sets()} == {frozenset(), frozenset({"1"})}
    double = star.dual()
    assert double.family != dual_sys.family
    assert time.time() - t0 < 120.0
    _report(6, "dual system == dual-code system on 200 free codes; counterexample reproduced", t0)


def test_criterion_07_puncturing_and_shortening_duality():
    t0 = time.time()
    rng = rng_for("acceptance-puncture")
    checked = 0
    while checked < 500:
        spec = rng.choice(("z:4", "z:4", "z:8", "z:9"))
        ring = make_ring(spec)
        n = rng.randint(2, 5 if spec == "z:4" else 4)
        k = rng.randint(1, 2)
        code = random_code(rng, ring, k, n)
        dual = dual_by_enumeration(code)
        circuits = code.matroid().circuits()
        for mask in range(1 << n):
            x = [code.labels[i] for i in range(n) if mask >> i & 1]
            punctured = puncture(code, x)
            assert punctured.matroid().family == circuits.delete(x).to_system().family
            assert dual_by_enumeration(shorten(code, x)) == puncture(dual, x)
            assert dual_by_enumeration(punctured) == shorten(dual, x)
        checked += 1
    assert time.time() - t0 < 120.0
    _report(7, "puncturing==deletion and shortening/puncturing duality on 500 codes, all X", t0)


def test_criterion_08_contraction_equals_shortening():
    t0 = time.time()
    rng = rng_for("acceptance-contract")
    contractible_hits = 0
    checked = 0
    while checked < 500:
        ring = rng.choice((Z4, Z8))
        n = rng.randint(2, 5)
        code = random_code(rng, ring, rng.randint(1, 3), n)
        label = rng.choice(code.labels)
        checked += 1
        try:
            witness = is_contractible(code, label)
        except ZeroProjectionError:
            continue
        if witness is None:
            continue
        contractible_hits += 1
        shortened = shorten(code, [label]).matroid()
        contracted = code.matroid().circuits().contract([label]).to_system()
        assert shortened.family == contracted.family
    assert contractible_hits >= 100
    # counterexample: shortening does not represent contraction in general
    code = Code.from_matrix(load_matrix("shortening_not_representing_contraction.mat"))
    shortened = shorten(code, ["1"]).matroid()
    contracted = code.matroid().circuits().contract(["1"]).to_system()
    assert shortened.family != contracted.family
    assert shortened.circuits().members == frozenset()
    assert contracted.circuits().members == {frozenset({"2"})}
    assert time.time() - t0 < 120.0
    _report(8, f"contraction==shortening on {contractible_hits} contractible cases; counterexample holds", t0)


def test_criterion_09_counting_formula():
    t0 = time.time()
    total_shapes = 0
    for ring in (Z4, Z8, Z9, F2U):
        nu, q = ring.nilpotency_index, ring.residue_field_size
        shapes = [()]
        for t in range(nu):
            grown = []
            for base in shapes:
                k = 0
                while True:
                    cand = base + (k,)
                    size = 1
                    for tt, kk in enumerate(cand):
                        size *= q ** ((nu - tt) * kk)
                    if size > 1 << 16:
                        break
                    grown.append(cand)
                    k += 1
            shapes = grown
        for mult in shapes:
            shape = ModuleShape(mult)
            census = cyclic_submodule_census(ring, shape.component_valuations())
            for s in range(1, nu + 1):
                assert census.get(s, 0) == count_cyclic_submodules(shape, ring, s), (
                    ring.spec, mult, s,
                )
            total_shapes += 1
    # primitive-cyclic specialisations
    assert count_cyclic_submodules(ModuleShape((2, 0)), Z4, 2) == 6 == simple_size_bound(Z4, 2)
    assert count_cyclic_submodules(ModuleShape((2, 0, 0)), Z8, 3) == 12 == simple_size_bound(Z8, 2)
    assert time.time() - t0 < 60.0
    _report(9, f"counting formula == census on {total_shapes} shapes (ambient <= 2^16)", t0)


def test_criterion_10_monotonicity_dichotomy():
    t0 = time.time()
    rng = rng_for("acceptance-monotone")
    for ring in (Z4, Z8, Z9, F2U):
        for _ in range(1000):
            k = rng.randint(1, 3)
            gens = [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(rng.randint(1, 3))]
            big = span(ring, gens, k)
            picks = rng.sample(sorted(big.vectors), min(len(big), rng.randint(1, 3)))
            small = span(ring, picks, k)
            assert submodule_mu(small) <= submodule_mu(big)
    # non-chain witness: V_{X n Y} = m needs 2 generators while V_X = V_Y = R
    t8 = make_ring("table:f2xy_xx_xy_yy")
    mat = load_matrix("not_monotonic.mat")
    cols = mat.columns()
    x_idx, y_idx = [0, 1, 2], [0, 1, 3]
    vx = span(t8, [cols[i] for i in x_idx], 1)
    vy = span(t8, [cols[i] for i in y_idx], 1)
    vxy = span(t8, [cols[0], cols[1]], 1)
    assert submodule_mu(vx) == 1
    assert submodule_mu(vy) == 1
    assert submodule_mu(vxy) == 2
    vxuy = span(t8, cols, 1)
    assert (
        submodule_mu(vx) + submodule_mu(vy)
        < submodule_mu(vxuy) + submodule_mu(vxy)
    )
    lhs, rhs = submodularity_gap(t8, cols, x_idx, y_idx)
    assert lhs > rhs  # the submodularity criterion fails on this pair
    assert time.time() - t0 < 60.0
    _report(10, "generator count monotone on 4x1000 chain pairs; non-chain witness exact", t0)


def test_criterion_11_nonchain_free_code_violation():
    t0 = time.time()
    t16 = make_ring("table:f2xy_xx_yy")
    p = t16.parse_element
    g = load_matrix("nonchain_free_G.mat")
    h = load_matrix("nonchain_free_H.mat")
    code = Code.from_matrix(g)
    assert code.generator_count == 2 and len(code.codewords) == 16**2  # free rank 2
    assert dual_code(code) == Code.from_matrix(h)
    system = build_from_matrix(h)
    report = check_matroid(system)
    assert not report.is_matroid
    assert (frozenset({"2", "4"}), frozenset({"1", "2", "3"})) in report.violations
    # displayed dependence relations hold with the displayed unit coefficients
    cols = {label: h.column(label) for label in h.labels}
    y, xy_sum, x_y_xy = p("y"), p("x+y"), p("x+y+xy")

    def combine(pairs):
        acc = (0, 0)
        for coeff, col in pairs:
            acc = tuple(t16.add(a, t16.mul(coeff, b)) for a, b in zip(acc, col))
        return acc

    assert combine([(1, cols["1"]), (0, cols["2"]), (y, cols["4"])]) == (0, 0)
    assert combine([(1, cols["2"]), (x_y_xy, cols["3"]), (xy_sum, cols["4"])]) == (0, 0)
    assert not system.is_independent(["1", "2", "4"])
    assert not system.is_independent(["2", "3", "4"])
    assert system.is_independent(["1", "2", "3"])
    assert system.is_independent(["2", "4"])
    assert time.time() - t0 < 5.0
    _report(11, "free non-chain code: exchange violation and witness relations verified", t0)


def test_criterion_12_differential_suite():
    t0 = time.time()
    rng = rng_for("acceptance-differential")
    # generator counts: fast path vs naive enumeration, 1000 per ring
    # (invariant-factor path on chain rings, Howell sizes elsewhere)
    table_rings = (make_ring("table:f2xy_xx_xy_yy"), make_ring("table:f2xy_xx_yy"))
    for ring in (Z4, Z8, Z9, F2U):
        for _ in range(1000):
            k = rng.randint(1, 4 if ring is Z4 else 3)
            count = rng.randint(0, 4)
            vecs = [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(count)]
            assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs)
    for ring in table_rings:
        for _ in range(1000):
            k = rng.randint(1, 2)
            count = rng.randint(0, 3)
            vecs = [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(count)]
            assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs)
    mu_done = time.time()
    # free-path dual vs enumerated dual
    for i in range(1000):
        spec = ("z:4", "z:4", "z:8", "z:9")[i % 4]
        ring = make_ring(spec)
        n = rng.randint(2, 5 if spec == "z:4" else 4)
        k = rng.randint(1, min(3, n))
        code = random_free_code(rng, ring, k, n)
        assert dual_code(code) == dual_by_enumeration(code)
    dual_done = time.time()
    # circuits through the dual vs direct subset scan
    from chainmat.codes import circuits_from_dual

    for i in range(1000):
        spec = ("z:4", "z:4", "z:8", "z:9")[i % 4]
        ring = make_ring(spec)
        n = rng.randint(2, 4 if spec == "z:4" else 3)
        code = random_code(rng, ring, rng.randint(1, 2), n)
        scan = circuits_by_subset_scan(code.generator)
        assert circuits_from_dual(code).members == scan.members
        assert code.matroid().circuits().members == scan.members
    # the dual-support route needs no chain hypothesis: spot-check table rings
    for ring in table_rings:
        for _ in range(50):
            code = random_code(rng, ring, 1, rng.randint(2, 3))
            scan = circuits_by_subset_scan(code.generator)
            assert circuits_from_dual(code).members == scan.members
            assert code.matroid().circuits().members == scan.members
    assert time.time() - t0 < 300.0
    _report(
        12,
        "6000 generator-count + 1000 dual + 1100 circuit differentials, zero mismatches "
        f"(mu {mu_done - t0:.1f}s, duals {dual_done - mu_done:.1f}s)",
        t0,
    )
