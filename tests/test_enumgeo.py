import time
from itertools import combinations

import pytest

from chainmat.enumgeo import (
    MAX_ANSWER_DIGITS,
    ModuleShape,
    count_cyclic_submodules,
    cyc_antichain_bound,
    cyclic_submodules,
    max_antichain,
    projective_line,
    simple_size_bound,
    uniform_rank2_representation,
)
from chainmat.errors import BadTorsionIndexError, BadValueError, NotChainRingError
from chainmat.indepsys import build_from_matrix, is_isomorphic, uniform_system
from chainmat.modindep import is_modular_independent
from chainmat.oracle import cyclic_submodule_census, cyclic_submodule_census_by_sets, max_antichain_by_search
from chainmat.rings import make_ring

from helpers import TABLE_SPECS, rng_for

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")


def test_counting_examples():
    assert count_cyclic_submodules(ModuleShape((2, 0)), Z4, 1) == 3
    assert count_cyclic_submodules(ModuleShape((2, 0)), Z4, 2) == 6
    assert count_cyclic_submodules(ModuleShape((2, 0, 0)), Z8, 3) == 12
    with pytest.raises(BadTorsionIndexError):
        count_cyclic_submodules(ModuleShape((1, 0)), Z4, 3)
    with pytest.raises(NotChainRingError):
        count_cyclic_submodules(ModuleShape((1,)), make_ring("table:f2xy_xx_xy_yy"), 1)


def test_counting_matches_both_censuses():
    cases = [
        (Z4, (2, 0)), (Z4, (1, 1)), (Z4, (0, 3)), (Z4, (2, 1)),
        (Z8, (1, 0, 0)), (Z8, (1, 1, 1)), (Z8, (0, 2, 0)),
        (make_ring("z:9"), (2, 0)), (make_ring("fpu:2,2"), (1, 2)),
        (make_ring("fpu:2,3"), (1, 0, 1)),
    ]
    for ring, mult in cases:
        shape = ModuleShape(mult)
        vals = shape.component_valuations()
        fast = cyclic_submodule_census(ring, vals)
        slow = cyclic_submodule_census_by_sets(ring, vals)
        assert fast == slow
        for s in range(1, ring.nilpotency_index + 1):
            assert fast.get(s, 0) == count_cyclic_submodules(shape, ring, s)


def test_answers_beyond_the_digit_cap():
    # The cap is judged from logarithms, before any power is formed; it
    # must agree with the exact answer on both sides of the boundary.
    cap = 10**MAX_ANSWER_DIGITS
    # The first k whose bound reaches the cap: 7143 over Z4, 4763 over Z8,
    # 4508 over Z9; the first m whose count does: 14285.
    firsts = ((Z4, 7143), (Z8, 4763), (make_ring("z:9"), 4508))
    for ring, k in [(ring, k) for ring, first in firsts for k in range(first - 20, first + 20)]:
        q, nu = ring.residue_field_size, ring.nilpotency_index
        exact = q ** ((nu - 1) * (k - 1)) * (q**k - 1) // (q - 1)
        if exact < cap:
            assert simple_size_bound(ring, k) == exact
        else:
            message = f"^k={k} is too large: the answer has more than {MAX_ANSWER_DIGITS} digits$"
            with pytest.raises(BadValueError, match=message):
                simple_size_bound(ring, k)
    # Over Z4 (q = 2, nu = 2) the shapes (m, 0) at s = 1 and (1, m) at s = 2.
    for mult, s in [((m, 0), 1) for m in range(14265, 14305)] + [((1, m), 2) for m in range(14265, 14305)]:
        exact = (2 ** (mult[0] * s + mult[1]) - 2 ** (mult[0] * (s - 1) + mult[1] * (s - 1))) // 2 ** (s - 1)
        if exact < cap:
            assert count_cyclic_submodules(ModuleShape(mult), Z4, s) == exact
        else:
            with pytest.raises(BadValueError, match=f"^shape {mult[0]},{mult[1]} is too large"):
                count_cyclic_submodules(ModuleShape(mult), Z4, s)
    with pytest.raises(BadValueError, match="^k=1000000000 is too large"):
        simple_size_bound(Z4, 10**9)


def test_projective_line_sizes():
    assert len(projective_line(Z4)) == 6
    assert len(projective_line(Z8)) == 12
    assert len(projective_line(make_ring("z:2"))) == 3
    assert len(projective_line(make_ring("fpu:3,2"))) == 12


def test_projective_line_pairs_and_triples():
    for ring in (Z4, make_ring("fpu:2,2"), make_ring("z:3")):
        line = projective_line(ring)
        for pair in combinations(line, 2):
            assert is_modular_independent(ring, list(pair))
        for triple in combinations(line, 3):
            assert not is_modular_independent(ring, list(triple))


def test_uniform_rank2_representation():
    m = uniform_rank2_representation(Z4, 6)
    assert is_isomorphic(build_from_matrix(m), uniform_system(2, 6)) is not None
    assert uniform_rank2_representation(Z4, 7) is None
    m5 = uniform_rank2_representation(Z4, 5)
    assert is_isomorphic(build_from_matrix(m5), uniform_system(2, 5)) is not None
    m1 = uniform_rank2_representation(Z4, 1)
    assert build_from_matrix(m1).rank() == 1


def test_simple_size_bound():
    assert simple_size_bound(Z4, 2) == 6
    assert simple_size_bound(Z8, 2) == 12
    f5 = make_ring("z:5")
    assert simple_size_bound(f5, 3) == 31  # projective plane point count over F5
    assert simple_size_bound(make_ring("z:3"), 2) == 4


def test_antichain_bounds():
    assert cyc_antichain_bound(Z4, 1) == 1
    assert cyc_antichain_bound(Z4, 2) == 6
    assert cyc_antichain_bound(make_ring("z:2"), 2) == 3
    # Over a chain ring the width is the number of free cyclic submodules;
    # the matching and the oracle's exhaustive search over the poset are
    # the references.
    for spec, k_max in (("z:4", 3), ("fpu:2,2", 3), ("z:8", 2), ("z:9", 2), ("z:2", 4), ("z:3", 3), ("z:5", 2)):
        ring = make_ring(spec)
        for k in range(1, k_max + 1):
            posets = cyclic_submodules(ring, k)
            width = max_antichain(posets)
            assert width == max_antichain_by_search(posets), (spec, k)
            assert cyc_antichain_bound(ring, k) == simple_size_bound(ring, k) == width, (spec, k)
    # Z8^3 has 512 vectors, on which the search ran for minutes
    assert cyc_antichain_bound(Z8, 3) == 112
    # off chain rings the width is the matching's, equal to the search's
    # where the search finishes (it ran past 20 s on the 176 cyclic
    # submodules of one of these rings at k = 3)
    for spec in TABLE_SPECS:
        ring = make_ring(spec)
        for k in (1, 2):
            posets = cyclic_submodules(ring, k)
            if len(posets) <= 30:
                assert cyc_antichain_bound(ring, k) == max_antichain_by_search(posets), (spec, k)
    t8 = make_ring("table:f2xy_xx_xy_yy")
    assert cyc_antichain_bound(t8, 2) == 18


def test_antichain_width_off_chain_rings_is_polynomial():
    # 176 and 624 cyclic submodules at k = 3: the matching takes
    # milliseconds where the exhaustive search does not finish
    for spec, width in (("table:f2xy_xx_xy_yy", 154), ("table:f2xy_xx_yy", 532)):
        start = time.perf_counter()
        assert cyc_antichain_bound(make_ring(spec), 3) == width
        assert time.perf_counter() - start < 1, spec


def test_max_antichain_bruteforce():
    sets = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    assert max_antichain(sets) == max_antichain_by_search(sets) == 2
    chain = [frozenset(range(i)) for i in range(5)]
    assert max_antichain(chain) == max_antichain_by_search(chain) == 1
    assert max_antichain([]) == max_antichain_by_search([]) == 0
    # repeated sets are one element of the poset
    assert max_antichain([frozenset("a"), frozenset("a"), frozenset("b")]) == 2


def test_max_antichain_matches_search_on_random_families():
    rng = rng_for("antichain-random")
    for _ in range(300):
        universe = rng.randint(1, 6)
        sets = {frozenset(x for x in range(universe) if rng.random() < rng.random()) for _ in range(rng.randint(0, 22))}
        assert max_antichain(sets) == max_antichain_by_search(sets), sorted(map(sorted, sets))


def test_cyclic_submodules_count():
    mods = cyclic_submodules(Z4, 2)
    # 1 zero + 3 of size 2 + 6 of size 4
    assert len(mods) == 10
    sizes = sorted(len(m) for m in mods)
    assert sizes == [1, 2, 2, 2, 4, 4, 4, 4, 4, 4]
