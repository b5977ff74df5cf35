import sys
import time

import pytest

import chainmat.indepsys as indepsys
from chainmat.errors import (
    BadValueError,
    ContractDependentSetError,
    GroundSetTooLargeError,
    UnknownLabelError,
)
from chainmat.indepsys import (
    Clutter,
    IndependenceSystem,
    build_from_matrix,
    check_matroid,
    is_isomorphic,
    is_rank_submodular,
    system_from_json,
    system_to_json,
    uniform_system,
)
from chainmat.linalg import Mat, snf_exponents
from chainmat.modindep import submodularity_gap
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, random_matrix, rng_for

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")

NON_MATROID = Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]])


def fam(system):
    return {frozenset(s) for s in system.independent_sets()}


def test_non_matroid_example():
    m = build_from_matrix(NON_MATROID)
    assert fam(m) == {
        frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"3"}), frozenset({"2", "3"}),
    }
    report = check_matroid(m)
    assert not report.is_matroid
    assert (frozenset({"1"}), frozenset({"2", "3"})) in report.violations
    assert not report.is_simple  # 1 and 2 are parallel
    assert report.rank == 2


def test_zero_matrix_system():
    m = build_from_matrix(Mat(Z4, "ab", [[0, 0], [0, 0]]))
    assert fam(m) == {frozenset()}
    assert m.rank() == 0
    assert check_matroid(m).is_matroid
    assert m.is_pure()


def test_rank_examples():
    m = build_from_matrix(NON_MATROID)
    assert m.rank(["1", "2"]) == 1
    assert m.rank([]) == 0
    assert m.rank() == 2


def test_rank_matches_generator_count_on_chain_rings():
    from chainmat.modindep import minimal_generator_count

    rng = rng_for("rank-mu")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(20):
            mat = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 5))
            system = build_from_matrix(mat)
            cols = mat.columns()
            for mask in range(1 << mat.ncols):
                subset = [mat.labels[i] for i in range(mat.ncols) if mask >> i & 1]
                mu = minimal_generator_count(ring, [cols[i] for i in range(mat.ncols) if mask >> i & 1])
                assert system.rank(subset) == mu


def test_rank_unit_axioms():
    # (R2+) and (H) for systems built from matrices
    rng = rng_for("rank-axioms")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(15):
            mat = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 4))
            system = build_from_matrix(mat)
            n = len(system.labels)
            ranks = system._ranks()
            for mask in range(1 << n):
                r = ranks[mask]
                for i in range(n):
                    if not mask >> i & 1:
                        assert ranks[mask | 1 << i] <= r + 1
                if mask in system.family:
                    for i in range(n):
                        if mask >> i & 1:
                            assert ranks[mask ^ 1 << i] == r - 1


def test_circuits_examples():
    m = build_from_matrix(NON_MATROID)
    assert m.circuits().members == {frozenset({"1", "2"}), frozenset({"1", "3"})}
    u23 = build_from_matrix(Mat(Z4, ["1", "2", "3"], [[1, 2, 0], [0, 2, 2]]))
    assert u23.circuits().members == {frozenset({"1", "2", "3"})}
    free = build_from_matrix(Mat(Z4, ["1", "2"], [[1, 0], [0, 1]]))
    assert free.circuits().members == frozenset()


def test_circuit_reconstruction_roundtrip():
    rng = rng_for("cryptomorphism")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(25):
            mat = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 5))
            system = build_from_matrix(mat)
            assert system.circuits().to_system().family == system.family


def test_clutter_axioms_and_minors():
    with pytest.raises(ValueError):
        Clutter("ab", [set()])
    with pytest.raises(ValueError):
        Clutter("abc", [{"a"}, {"a", "b"}])
    c = Clutter(["1", "2"], [{"1", "2"}])
    assert c.contract({"1"}).members == {frozenset({"2"})}
    c2 = Clutter(["1", "2", "3"], [{"1", "2"}, {"1", "3"}])
    assert c2.delete({"1"}).members == frozenset()
    assert c2.delete([]) == c2
    assert c2.contract({"2"}).members == {frozenset({"1"})}
    with pytest.raises(ContractDependentSetError):
        Clutter(["1", "2"], [{"1"}]).contract({"1"})
    for minor in (c2.delete, c2.contract):
        with pytest.raises(UnknownLabelError, match="unknown label 'zz'"):
            minor({"1", "zz"})


def test_clutter_antichain_check_sees_non_adjacent_containment():
    with pytest.raises(BadValueError, match=r"not an antichain: \{'a'\} < \{"):
        Clutter("abc", [{"a"}, {"a", "b", "c"}])
    # enough members that the submasks of {a, b, c} are enumerated, not
    # the members scanned
    pairs = [{x, y} for x in "defgh" for y in "defgh" if x < y]
    with pytest.raises(BadValueError, match=r"not an antichain: \{'a'\} < \{"):
        Clutter("abcdefgh", pairs + [{"a"}, {"a", "b", "c"}])
    assert len(Clutter("abcdefgh", pairs + [{"a"}, {"b", "c"}]).members) == 12


def test_clutter_minimize_matches_pairwise_definition():
    rng = rng_for("clutter-minimize")
    labels = [str(i) for i in range(7)]
    for _ in range(300):
        sets = [frozenset(rng.sample(labels, rng.randint(0, 7))) for _ in range(rng.randint(0, 30))]
        want = {s for s in sets if s and not any(t and t < s for t in sets)}
        assert Clutter.minimize(labels, sets).members == want


def test_lows_are_the_masks_without_each_element():
    # _lows doubles the sets over n - 1 elements; each is the set of the
    # masks without element i, and at n = 16 it equals the closed form
    # (2^(2^n) - 1) / (2^(2^(i+1)) - 1) * (2^(2^i) - 1) built by division.
    for n in range(13):
        without = [sum(1 << m for m in range(1 << n) if not m >> i & 1) for i in range(n)]
        assert indepsys._lows(n) == tuple(without), n
    ones = (1 << (1 << 16)) - 1
    divided = [ones // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(16)]
    assert indepsys._lows(16) == tuple(divided)


def test_build_tests_only_up_to_the_generator_count(monkeypatch):
    # Over a chain ring mu is monotone, so no set with more than r elements
    # (r = number of invariant factors of the whole matrix) is tested, and
    # an independent set with r elements has no child to decide, so it
    # never gets an entry on the stack of independent ancestors.  Every
    # call the build makes into its kernel (an insert or extend on Howell
    # forms, a pivot step on a free span, or an insert that forms a set's
    # V when it is handed over) records the set being decided.
    import chainmat.howell as howell

    tested, stacked = [], []
    kernel, eliminator = howell.kernel, howell.eliminator

    def spy(call):  # wraps insert, extend and eliminate alike
        def spied(*args):
            build = sys._getframe(1)  # the caller: the build deciding a set, or span_form
            if build.f_code is indepsys.build_from_matrix.__code__:
                tested.append(build.f_locals["mask"])
                stacked.extend(entry[0] for entry in build.f_locals["stack"])
            return call(*args)

        return spied

    monkeypatch.setattr(howell, "kernel", lambda additive, lanes: tuple(map(spy, kernel(additive, lanes))))
    monkeypatch.setattr(howell, "eliminator", lambda additive, lanes: spy(eliminator(additive, lanes)))
    rng = rng_for("snf-build-cap")
    for spec in CHAIN_SPECS + ("z:5",):
        ring = make_ring(spec)
        for _ in range(6):
            mat = random_matrix(rng, ring, 3, 7)
            rows = [list(r) for r in mat.rows]
            rows[2] = list(rows[rng.randrange(2)])  # r < k
            mat = Mat(ring, mat.labels, rows)
            r = len(snf_exponents(ring, mat.columns()))
            tested.clear()
            stacked.clear()
            system = build_from_matrix(mat)
            assert system.rank() == r, (spec, rows)
            assert max(map(int.bit_count, tested)) <= r, (spec, rows)
            assert max(map(int.bit_count, stacked)) < r, (spec, rows)


def test_single_element_minor_laws():
    rng = rng_for("minor-laws")
    for _ in range(120):
        n = rng.randint(2, 6)
        labels = [str(i) for i in range(n)]
        pool = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n)
            pool.append(frozenset(rng.sample(labels, size)))
        clutter = Clutter.minimize(labels, pool)
        loops, isthmuses = clutter.loops(), clutter.isthmuses()
        for e in labels:
            if e in loops or e in isthmuses:
                continue
            deleted = clutter.delete({e})
            assert deleted.members == {d for d in clutter.members if e not in d}
            contracted = clutter.contract({e})
            for d in contracted.members:
                with_e = d | {e}
                case_i = with_e in clutter.members
                case_ii = d in clutter.members and all(
                    not (m <= with_e) for m in clutter.members if m != d
                )
                assert case_i or case_ii
            # and conversely both cases land in the contraction
            for d in clutter.members:
                if e not in d:
                    if all(not (m <= (d | {e})) for m in clutter.members if m != d):
                        assert d in contracted.members
                else:
                    assert any(c <= d - {e} for c in contracted.members)


def test_dual_example_and_involution_failure():
    m = build_from_matrix(NON_MATROID)
    dual = m.dual()
    assert fam(dual) == {frozenset(), frozenset({"1"})}
    double = dual.dual()
    assert fam(double) == {frozenset(), frozenset({"2"}), frozenset({"3"}), frozenset({"2", "3"})}
    assert double != m


def test_uniform_duality():
    for k, n in [(2, 6), (1, 4), (3, 5)]:
        dual = uniform_system(k, n).dual()
        want = uniform_system(n - k, n)
        assert dual.family == want.family


def test_purity_equivalences():
    rng = rng_for("purity")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(30):
            mat = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 5))
            m = build_from_matrix(mat)
            pure = m.is_pure()
            bases = m.bases()
            # every independent set extends to a maximum one iff pure
            extends = all(
                any(mask & b == mask for b in bases) for mask in m.family
            )
            assert pure == extends
            # dual rank formula matches the dual's rank function iff pure
            dual = m.dual()
            agrees = all(
                dual.rank(m.subset_of(mask)) == m.dual_rank(m.subset_of(mask))
                for mask in range(m.full_mask + 1)
            )
            assert pure == agrees
            if pure:
                assert dual.dual().family == m.family


def test_check_matroid_simplicity_fields():
    m = build_from_matrix(Mat(Z4, "abc", [[1, 1, 0], [0, 0, 2]]))
    report = check_matroid(m)
    assert report.loops == []
    assert ("a", "b") in report.parallel_pairs
    loops = build_from_matrix(Mat(Z4, "ab", [[0, 1]]))
    assert check_matroid(loops).loops == ["a"]


def test_check_matroid_dense_sixteen_elements():
    # Dense systems at n = 16: a random 6x16 matrix over z:4, not a matroid,
    # and U(8, 16).  Pins that every listed pair fails augmentation by
    # definition, the (I2, I1) order and the violation count; the time bound
    # only catches a blow-up of tens of times (this takes well under 0.2 s).
    m = build_from_matrix(random_matrix(rng_for("check-matroid-sixteen"), Z4, 6, 16))
    assert len(m.family) == 11811
    t0 = time.perf_counter()
    report = check_matroid(m)
    assert check_matroid(uniform_system(8, 16)).violations == []
    assert time.perf_counter() - t0 < 5
    assert not report.is_matroid and len(report.violations) == 49719
    mask = {m.subset_of(x): x for x in m.family}
    keys = []
    for s1, s2 in report.violations:
        i1, i2 = mask[s1], mask[s2]
        # augmentation fails by definition: no e in I2 - I1 keeps I1 + e independent
        assert i2.bit_count() > i1.bit_count()
        assert not any(i1 | 1 << e in m.family for e in range(16) if (i2 & ~i1) >> e & 1)
        keys.append((i2.bit_count(), i2, i1.bit_count(), i1))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_submodularity_criterion_matches_dimension_inequality():
    rng = rng_for("submodularity")
    for spec in ("z:4", "z:8", "fpu:2,2"):
        ring = make_ring(spec)
        for _ in range(12):
            mat = random_matrix(rng, ring, rng.randint(1, 2), rng.randint(1, 4))
            system = build_from_matrix(mat)
            verdict, witnesses = is_rank_submodular(system)
            cols = mat.columns()
            n = mat.ncols
            criterion = True
            for xm in range(1 << n):
                for ym in range(1 << n):
                    xs = [i for i in range(n) if xm >> i & 1]
                    ys = [i for i in range(n) if ym >> i & 1]
                    lhs, rhs = submodularity_gap(ring, cols, xs, ys)
                    if lhs > rhs:
                        criterion = False
                        break
                if not criterion:
                    break
            assert verdict == criterion, (spec, mat.rows, witnesses)


def test_sufficient_condition_implies_submodularity():
    # V_{XnY} n mV_X n mV_Y == m V_{XnY} for all X, Y forces a submodular rank
    from chainmat.modindep import ideal_multiple, span

    rng = rng_for("sufficient-submodular")
    hits = 0
    for spec in ("z:4", "z:8", "fpu:2,2"):
        ring = make_ring(spec)
        for _ in range(15):
            mat = random_matrix(rng, ring, rng.randint(1, 2), rng.randint(1, 4))
            cols = mat.columns()
            n = mat.ncols
            condition = True
            for xm in range(1 << n):
                for ym in range(1 << n):
                    vx = span(ring, [cols[i] for i in range(n) if xm >> i & 1], mat.nrows)
                    vy = span(ring, [cols[i] for i in range(n) if ym >> i & 1], mat.nrows)
                    vxy = span(ring, [cols[i] for i in range(n) if (xm & ym) >> i & 1], mat.nrows)
                    lhs = vxy.vectors & ideal_multiple(vx).vectors & ideal_multiple(vy).vectors
                    if lhs != ideal_multiple(vxy).vectors:
                        condition = False
                        break
                if not condition:
                    break
            if condition:
                hits += 1
                verdict, _ = is_rank_submodular(build_from_matrix(mat))
                assert verdict
    assert hits >= 5


def test_isomorphism():
    assert is_isomorphic(uniform_system(2, 6), uniform_system(2, 6, labels=list("abcdef")))
    assert is_isomorphic(uniform_system(2, 6), uniform_system(4, 6)) is None
    m = build_from_matrix(NON_MATROID)
    ident = is_isomorphic(m, m)
    assert ident is not None
    got = {frozenset(ident[l] for l in s) for s in fam(m)}
    assert got == fam(m)
    relabeled = IndependenceSystem(
        ["x", "y", "z"], m.family
    )
    bij = is_isomorphic(m, relabeled)
    assert bij is not None
    assert {frozenset(bij[l] for l in s) for s in fam(m)} == fam(relabeled)
    # permuted ground set of a non-uniform matroid
    p8 = Mat(Z4, list("abcdefgh"), [
        [1, 1, 0, 0, 0, 0, 3, 1],
        [0, 2, 0, 1, 0, 1, 0, 2],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
    ])
    m1 = build_from_matrix(p8)
    m2 = build_from_matrix(p8.submatrix(list("hgfedcba")))
    bij = is_isomorphic(m1, m2)
    assert bij is not None
    f1 = {frozenset(s) for s in m1.independent_sets()}
    f2 = {frozenset(s) for s in m2.independent_sets()}
    assert {frozenset(bij[l] for l in s) for s in f1} == f2


def test_isomorphism_ground_set_cap():
    labels = [str(i) for i in range(11)]
    fam11 = {0} | {1 << i for i in range(11)} | {(1 << i) | (1 << j) for i in range(11) for j in range(i)}
    fam11.discard((1 << 0) | (1 << 1))
    m1 = IndependenceSystem(labels, fam11)
    with pytest.raises(GroundSetTooLargeError):
        is_isomorphic(m1, m1)


def test_ground_set_cap():
    with pytest.raises(GroundSetTooLargeError):
        IndependenceSystem([str(i) for i in range(17)], [0])


@pytest.mark.parametrize("n", [2, 8, 16])
def test_constructor_rejects_bad_families_with_exact_messages(n):
    labels = [str(i) for i in range(n)]
    full = (1 << n) - 1
    cases = [
        ([0, full], "independent family is not downward closed"),
        # every mask but the top one less its highest element
        ([m for m in range(full + 1) if m != full >> 1], "independent family is not downward closed"),
        # the highest singleton missing under a pair
        ([0, 1, 1 | 1 << (n - 1)], "independent family is not downward closed"),
        ([0, 1 << n], "independent mask outside the ground set"),
        ([0, 1, -1], "independent mask outside the ground set"),
        ([1], "the empty set must be independent"),
        (range(1, full + 1), "the empty set must be independent"),
    ]
    for masks, message in cases:
        with pytest.raises(BadValueError, match=f"^{message}$"):
            IndependenceSystem(labels, masks)


def test_clutter_labels_must_be_distinct():
    # a repeated label would give two elements the same bit
    with pytest.raises(BadValueError, match="^ground set labels must be distinct$"):
        Clutter(["a", "a", "b"], [{"a"}])
    with pytest.raises(BadValueError, match="^ground set labels must be distinct$"):
        Clutter.minimize(["a", "b", "a"], [{"b"}])


def test_clutter_ground_set_cap():
    with pytest.raises(GroundSetTooLargeError):
        Clutter([str(i) for i in range(17)], [{"0"}])
    with pytest.raises(GroundSetTooLargeError):
        Clutter.minimize([str(i) for i in range(17)], [{"0"}])


def test_json_roundtrip():
    m = build_from_matrix(NON_MATROID)
    assert system_from_json(system_to_json(m)) == m
    with pytest.raises(UnknownLabelError, match="^unknown label 'b'$"):
        system_from_json('{"ground": ["a"], "independent": [["b"]]}')
    v = build_from_matrix(Mat(Z8, "abc", [[1, 0, 2], [0, 1, 4]]))
    assert system_from_json(system_to_json(v)) == v


def test_planes_transpose_sets_into_bytes():
    # bit i of byte m of _planes(sets, n) is mask m's membership in
    # sets[i]: against a loop per mask, from one set to eight, below a
    # byte of masks (n < 3, padded to a 64-bit word) and up to MAX_GROUND
    # elements
    rng = rng_for("planes-transpose")
    for n in range(indepsys.MAX_GROUND + 1):
        for count in range(1, 9):
            sets = [rng.getrandbits(1 << n) for _ in range(count)]
            if count > 1:  # a full set sets one bit in every byte
                sets[-1] |= (1 << (1 << n)) - 1
            flags = [format(bits, f"0{1 << n}b")[::-1] for bits in sets]
            want = bytes(sum((flag[m] == "1") << i for i, flag in enumerate(flags)) for m in range(1 << n))
            assert indepsys._planes(sets, n) == want, (n, count)
