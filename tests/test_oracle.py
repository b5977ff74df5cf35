import sys
from importlib import resources
from itertools import combinations

import pytest

from chainmat.codes import Code, dual_code, is_contractible, puncture, shorten, word_generators
from chainmat.enumgeo import projective_line, uniform_rank2_representation
from chainmat.errors import ContractDependentSetError, NonIntegralDimensionError, ZeroProjectionError
from chainmat.gallery import load_matrix
from chainmat.indepsys import (
    MAX_GROUND,
    Clutter,
    IndependenceSystem,
    build_from_matrix,
    check_matroid,
    is_rank_submodular,
    uniform_system,
)
from chainmat.linalg import Mat
from chainmat.modindep import minimal_generator_count, span, submodularity_gap
from chainmat.oracle import (
    _naive_span,
    circuits_by_mask_scan,
    circuits_by_subset_scan,
    clutter_system_by_superset_marking,
    cyclic_submodule_census,
    cyclic_submodule_census_by_sets,
    dual_by_enumeration,
    dual_by_rank_complement,
    exchange_violations_by_pair_scan,
    extend_closure,
    minimal_sets_by_pair_scan,
    mu_by_enumeration,
    rank_submodular_by_local_scan,
    rank_submodular_by_pair_scan,
    ranks_by_family_scan,
    system_by_closure,
)
from chainmat.rings import make_ring

from helpers import (
    CHAIN_SPECS,
    EXTENSION_RINGS,
    FIELD_SPECS,
    TABLE_SPECS,
    random_free_code,
    random_matrix,
    random_submodule_generators,
    rng_for,
    write_extension_ring,
)

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")


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
        # Both builds grow each child from its parent's entry on a stack of
        # independent ancestors; wider matrices exercise deep stacks, and
        # the build (Howell forms) must agree with the oracle's vector-set
        # build.
        for _ in range(4):
            mat = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(5, 7))
            enum = system_by_closure(mat)
            assert circuits_by_subset_scan(mat).members == enum.circuits().members
            assert enum == build_from_matrix(mat)
    # at MAX_GROUND columns: a field, a chain ring with a = 2 and a
    # non-chain ring, where the walk is uncapped
    for spec, k in (("z:2", 4), ("fpu:2,2", 3), ("table:f2xy_xx_yy", 2)):
        mat = random_matrix(rng, make_ring(spec), k, MAX_GROUND)
        assert build_from_matrix(mat) == system_by_closure(mat), spec


def _degenerate_matrices(rng, ring):
    """Matrices whose column module needs fewer generators than there are
    rows (a repeated row, a row times the uniformizer, a zero row), with
    zero and repeated columns, and with more rows than columns."""
    mul = ring.mul
    out = []
    for k, n in ((2, 5), (3, 5), (3, 6), (4, 3), (3, 2)):
        base = random_matrix(rng, ring, k, n)
        for kind in ("repeat", "theta", "zero"):
            rows = [list(r) for r in base.rows]
            i, j = rng.sample(range(k), 2)
            if kind == "repeat":
                rows[i] = list(rows[j])
            elif kind == "theta":
                rows[i] = [mul(ring.uniformizer, a) for a in rows[j]]
            else:
                rows[i] = [0] * n
            out.append(Mat(ring, base.labels, rows))
        cols = [list(c) for c in zip(*base.rows)]
        cols[rng.randrange(n)] = [0] * k
        a, b = rng.sample(range(n), 2)
        cols[a] = list(cols[b])
        out.append(Mat(ring, base.labels, [list(r) for r in zip(*cols)]))
    return out


def test_snf_build_matches_enum_and_scan_on_degenerate_matrices():
    # Over a chain ring the "auto" build stops at the generator count r of
    # the column module (read off Howell sizes) and decides each
    # child from the Howell forms on its parent's stack entry; r < k, zero
    # and repeated columns and k > n are where a wrong cap would show.
    rng = rng_for("snf-kernel-degenerate")
    for spec in CHAIN_SPECS + FIELD_SPECS:
        ring = make_ring(spec)
        for mat in _degenerate_matrices(rng, ring) + _degenerate_matrices(rng, ring):
            auto = build_from_matrix(mat)
            assert auto == system_by_closure(mat), (spec, mat)
            assert auto.circuits().members == circuits_by_subset_scan(mat).members, (spec, mat)


def _nonchain_matrices(rng, ring):
    """Matrices over a non-chain ring with a zero column, a repeated column
    and columns inside m^k, ones with every entry in m (the subset scan
    over those is slow past 14 entries), and widths up to 7 (deep ancestor
    stacks)."""
    radical = sorted(ring.maximal_ideal)
    out = []
    for k, n in ((1, 5), (2, 5), (2, 7), (3, 7), (4, 3)):
        labels = [str(j + 1) for j in range(n)]
        cols = [[rng.randrange(ring.size) for _ in range(k)] for _ in range(n)]
        for j in rng.sample(range(n), n // 2):
            cols[j] = [rng.choice(radical) for _ in range(k)]
        cols[rng.randrange(n)] = [0] * k
        a, b = rng.sample(range(n), 2)
        cols[a] = list(cols[b])
        out.append(Mat(ring, labels, [list(r) for r in zip(*cols)]))
        if k * n <= 14:
            out.append(Mat(ring, labels, [[rng.choice(radical) for _ in range(n)] for _ in range(k)]))
    return out


def test_howell_build_matches_enum_and_scan_on_degenerate_matrices():
    # Over a non-chain ring the "auto" build decides each child from the
    # Howell forms of V and m*V on its parent's stack entry.  Columns inside
    # m^k and deep stacks are where a wrong Howell form would show.
    rng = rng_for("howell-build-degenerate")
    for spec in TABLE_SPECS:
        ring = make_ring(spec)
        for mat in _nonchain_matrices(rng, ring):
            auto = build_from_matrix(mat)
            assert auto == system_by_closure(mat), (spec, mat)
            assert auto.circuits().members == circuits_by_subset_scan(mat).members, (spec, mat)


def test_howell_build_matches_closure_where_v_grows_by_less_than_q():
    # The build grows V's form first and skips m*V when log_p of V's
    # growth is below f (q = p^f).  A repeated column, a column c*x + t*y
    # inside the span of two others, and a column t*x + t'*y in m times
    # their span (t, t' in m) make V grow by less than q, or m*V grow with
    # it; over fields m*span is zero.  Z/25 is the odd-p, a = 2 ring.
    rng = rng_for("howell-build-early-exit")
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS + ("z:25",):
        ring = make_ring(spec)
        add, mul = ring.add, ring.mul
        radical = sorted(ring.maximal_ideal)
        for k, n in ((3, 5), (2, 5), (3, 6)):
            for _ in range(3):
                cols = [[rng.randrange(ring.size) for _ in range(k)] for _ in range(n)]
                x, y, rep, inside, small = rng.sample(range(n), 5)
                c, t, t2 = rng.randrange(ring.size), rng.choice(radical), rng.choice(radical)
                cols[rep] = list(cols[x])
                cols[inside] = [add(mul(c, u), mul(t, v)) for u, v in zip(cols[x], cols[y])]
                cols[small] = [add(mul(t, u), mul(t2, v)) for u, v in zip(cols[x], cols[y])]
                mat = Mat(ring, [str(j + 1) for j in range(n)], [list(r) for r in zip(*cols)])
                assert build_from_matrix(mat) == system_by_closure(mat), (spec, mat)


def _free_then_partial(rng, ring, k, n, late):
    """A k x n matrix (n > k) whose last k columns are e_i plus entries in
    m, a basis of R^k, so each splits off as a free summand R*g of the span
    of the later ones and goes on the stack without a form of m*V.  The
    earlier columns mix them with coefficients in m, so V grows by less
    than log_p |R| there, and m*V forms are filled in on demand.  With
    ``late``, each earlier column is x + t*y for top columns x, y, x not
    the last, t in m: it splits off from the last column alone, so the
    first child to need m*V has two free ancestors without a form."""
    add, mul = ring.add, ring.mul
    radical = sorted(ring.maximal_ideal)
    top = [[int(i == j) or rng.choice(radical) for i in range(k)] for j in range(k)]

    def mix(*terms):
        out = [0] * k
        for c, col in terms:
            out = [add(s, mul(c, x)) for s, x in zip(out, col)]
        return out

    cols = []
    for _ in range(n - k):
        t, c = rng.choice(radical), rng.randrange(ring.size)
        if late:
            x = rng.choice(top[:-1])
            cols.append(mix((1, x), (t, rng.choice([y for y in top if y is not x]))))
            continue
        x, y = rng.sample(top, 2)
        cols.append(rng.choice((
            mix((t, x)),  # R*g inside m times a free summand
            mix((1, x), (t, y)),  # a free summand up to m
            mix((t, x), (c, y)),
            [rng.choice(radical) for _ in range(k)],
        )))
    cols += top
    return Mat(ring, [str(j + 1) for j in range(n)], [list(r) for r in zip(*cols)])


def test_free_summand_shortcut_matches_closure(tmp_path):
    # A child whose R*g splits off (V grows by log_p |R|) is independent
    # without m*V; a deeper child that grows V by less fills in its
    # ancestors' m*V forms from the nearest stacked one.  A skipped or
    # stale form shows against the vector sets.
    rng = rng_for("howell-build-free-summand")
    specs = CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS + ("z:25",)
    specs += tuple(write_extension_ring(tmp_path, *spec) for spec in EXTENSION_RINGS)
    for spec in specs:
        ring = make_ring(spec)
        for late in (False, True, True):
            for k, n in ((3, 6), (2, 5)) if ring.size <= 9 else ((3, 5), (2, 4)):
                mat = _free_then_partial(rng, ring, k, n, late)
                assert build_from_matrix(mat) == system_by_closure(mat), (spec, mat)


def _mixed_columns(rng, ring, k, n):
    """A k x n matrix whose first k columns are random and whose others
    are, seven times in ten, c*x + y for two earlier columns x, y (c in m
    half of the time), and otherwise random, so dependent sets and partial
    growths turn up at every level of the walk."""
    add, mul = ring.add, ring.mul
    radical = sorted(ring.maximal_ideal)
    cols = [[rng.randrange(ring.size) for _ in range(k)] for _ in range(k)]
    while len(cols) < n:
        x, y = rng.sample(cols, 2)
        c = rng.choice(radical) if rng.random() < 0.5 else rng.randrange(ring.size)
        fresh = [rng.randrange(ring.size) for _ in range(k)] if rng.random() < 0.3 else None
        cols.append(fresh or [add(mul(c, u), v) for u, v in zip(x, y)])
    rng.shuffle(cols)
    return Mat(ring, [str(j + 1) for j in range(n)], [list(r) for r in zip(*cols)])


def test_build_carries_rows_across_levels(tmp_path):
    # The build tests P + g from g's row reduced one level up, by V of P's
    # parent, and stores it reduced by V of P for P's children.  With at
    # least 3 rows and 8 columns each carried row crosses two levels or
    # more, over every ring class: chain rings and fields (capped at r),
    # the extension fields, a Galois ring, a ramified ring and the
    # non-chain rings (uncapped).  A row carried from a form outside V
    # shows against the vector sets.
    rng = rng_for("build-carried-rows")
    specs = CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS
    specs += tuple(write_extension_ring(tmp_path, *spec) for spec in EXTENSION_RINGS)
    for spec in specs:
        ring = make_ring(spec)
        ranks = []
        for k, n in ((3, 8), (4, 9)) if ring.size <= 5 else ((3, 8),):
            for mat in (random_matrix(rng, ring, k, n), _mixed_columns(rng, ring, k, n)):
                system = build_from_matrix(mat)
                assert system == system_by_closure(mat), (spec, mat)
                ranks.append(system.rank())
        assert max(ranks) >= 3, spec  # some set of 3 was tested from a row carried two levels


def _handover_columns(rng, ring, k, n):
    """A k x n matrix over Z/p^a with columns of every kind the free part
    of the build meets: random ones, ones in m^k, c*x + y for an earlier y
    with c in m (whose residual past y lies in m^k), unit multiples of
    earlier columns and zero columns; half the time its last row is a
    multiple of its first, so r < k."""
    add, mul = ring.add, ring.mul
    radical, units = sorted(ring.maximal_ideal), sorted(ring.units)
    cols = []
    while len(cols) < n:
        kind = rng.randrange(6) if cols else rng.randrange(2)
        if kind == 0:
            cols.append([rng.randrange(ring.size) for _ in range(k)])
        elif kind == 1:
            cols.append([rng.choice(radical) for _ in range(k)])
        elif kind in (2, 3):
            x, y, c = rng.choice(cols), rng.choice(cols), rng.choice(radical)
            cols.append([add(mul(c, u), v) for u, v in zip(x, y)])
        elif kind == 4:
            u = rng.choice(units)
            cols.append([mul(u, v) for v in rng.choice(cols)])
        else:
            cols.append([0] * k)
    rng.shuffle(cols)
    rows = [list(r) for r in zip(*cols)]
    if rng.random() < 0.5:
        c = rng.randrange(ring.size)
        rows[-1] = [mul(c, v) for v in rows[0]]
    return Mat(ring, [str(j + 1) for j in range(n)], rows)


def test_free_part_hands_over_to_howell_forms(monkeypatch):
    # Over Z/p^a a free span P sits on the stack as unit pivots, and P + g
    # is independent iff g's row reduced at them is nonzero; a residual in
    # m^k hands S over to Howell forms.  The spy on ``howell.unit_pivot``
    # records the size of each set handed over, and every ring must hand
    # sets over at each size from 1 to k - 1 (none over a field, where
    # every nonzero lane is a unit).  Each system must be the vector-set
    # build's.
    import chainmat.howell as howell

    handed, unit_pivot = [], howell.unit_pivot

    def spy(additive, lanes, row):
        pivot = unit_pivot(additive, lanes, row)
        if pivot is None:
            handed.append(sys._getframe(1).f_locals["mask"].bit_count())
        return pivot

    monkeypatch.setattr(howell, "unit_pivot", spy)
    rng = rng_for("free-part-handover")
    for spec in ("z:2", "z:4", "z:8", "z:9", "z:16", "z:25", "z:27", "z:32", "z:49", "z:5", "z:7"):
        ring = make_ring(spec)
        k = 4 if ring.size <= 9 else 3
        handed.clear()
        for _ in range(24 if ring.size <= 9 else 12):
            mat = _handover_columns(rng, ring, k, rng.randint(7, 10))
            assert build_from_matrix(mat) == system_by_closure(mat), (spec, mat)
        if ring.maximal_ideal == {0}:
            assert not handed, spec
        else:
            assert set(range(1, k)) <= set(handed), (spec, sorted(set(handed)))


def _walk_inserts(monkeypatch):
    """A list that gets an entry per call of the build's walk into its
    kernels: a spy on every ``insert`` and ``extend`` that ``howell.kernel``
    hands out and every ``eliminate`` that ``howell.eliminator`` binds (a
    set tested on Howell forms takes its first row through ``extend`` and
    each further row through ``insert``; a set tested on a free span over
    Z/p^a takes one pivot step, ``eliminate``), less those that the rank
    cap's generator count (``minimal_generator_count`` of the columns,
    chain rings only) makes under the same spy, measured as it runs and
    subtracted."""
    import chainmat.howell as howell
    import chainmat.indepsys as indepsys

    calls = []
    kernel, eliminator, count = howell.kernel, howell.eliminator, indepsys.minimal_generator_count

    def mu(*args):
        before = len(calls)
        out = count(*args)
        del calls[before:]
        return out

    def spy(call):
        return lambda *args: calls.append(None) or call(*args)

    def spying(additive, lanes):
        return tuple(map(spy, kernel(additive, lanes)))

    monkeypatch.setattr(howell, "kernel", spying)
    monkeypatch.setattr(howell, "eliminator", lambda additive, lanes: spy(eliminator(additive, lanes)))
    monkeypatch.setattr(indepsys, "minimal_generator_count", mu)
    return calls


def _radical_column_rings():
    """The chain rings of the tests whose additive group is cyclic, Z/p^a
    with a > 1, with their p: the rings where a free span on pivots hands a
    set whose row lies in m^k over to Howell forms."""
    rings = (make_ring(spec) for spec in CHAIN_SPECS)
    return [(ring, ring.additive.p) for ring in rings if len(ring.additive.coords[0]) == 1]


def test_free_summands_insert_no_radical_rows(monkeypatch):
    # Identity columns split off one by one: every tested set is decided
    # from V's rows alone, so on Howell forms the build inserts d rows (the
    # additive generators of R) per tested set and no row of m*g.  Over
    # Z4[x]/(2x, x^2), inside (Z/4)^2, a split-off R*g grows log_2 by
    # log_2 |R| = 3, not d*a = 4.  Over Z/p^a (d = 1) the spans stay free,
    # on pivots, and each tested set is one pivot step, so 7 = 7d again.
    calls = _walk_inserts(monkeypatch)
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        eye = Mat(ring, "123", [[int(i == j) for j in range(3)] for i in range(3)])
        calls.clear()
        assert build_from_matrix(eye) == uniform_system(3, 3)
        assert len(calls) == 7 * len(ring.additive.ring_gens), spec
    # Columns e1, e2, p*e3 over Z/p^a: {3} lies in m^3 and is handed over
    # to a Howell form (one insert, of p*e3), and e1 and e2 split off it as
    # free summands: one extend each for {1, 3}, {2, 3} and {1, 2, 3}, and
    # no row of m*V or m*g; {1}, {2}, {1, 2} and {3} are four pivot steps.
    for ring, p in _radical_column_rings():
        mat = Mat(ring, "123", [[1, 0, 0], [0, 1, 0], [0, 0, p]])
        calls.clear()
        assert build_from_matrix(mat) == uniform_system(3, 3)
        assert len(calls) == 4 + 1 + 3, ring


def test_dependent_child_costs_one_insert(monkeypatch):
    # Columns e1, e2, e1: the child {1, 3} of {3} has g = e1 inside V, so
    # the build stops after g's own row (ring_gens[0] is 1) instead of
    # inserting all d rows of R*g.  The other five tested sets each insert
    # d rows and split off as free summands, so 5d + 1 inserts in all.
    # Over Z/p^a (d = 1) every tested set is one pivot step, so 6 = 5d + 1.
    calls = _walk_inserts(monkeypatch)
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        mat = Mat(ring, "123", [[1, 0, 1], [0, 1, 0]])
        calls.clear()
        system = build_from_matrix(mat)
        assert system.is_independent(["1", "2"]) and not system.is_independent(["1", "3"]), spec
        assert len(calls) == 5 * len(ring.additive.ring_gens) + 1, spec
    # Columns p*e1, e2, p*e1 over Z/p^a: {3} lies in m^2 and is handed over
    # to a Howell form (one insert); its child {1, 3} has g inside V and
    # costs one extend, with no m*V; {2, 3} is one extend and a free
    # summand; {1}, {2}, {1, 2} and {3} are four pivot steps.
    for ring, p in _radical_column_rings():
        mat = Mat(ring, "123", [[p, 0, p], [0, 1, 0]])
        calls.clear()
        system = build_from_matrix(mat)
        assert system.is_independent(["2", "3"]) and not system.is_independent(["1", "3"]), ring
        assert len(calls) == 4 + 1 + 2, ring


def test_hand_over_inserts_one_row(monkeypatch):
    # Columns e1, p*e2, e3 over Z/p^a: {2} lies in m^3, and so does p*e2
    # reduced at the pivot of {3}, so {2} and {2, 3} are handed over to
    # Howell forms, each with N = R*y formed by one insert of its residual
    # y, not a row per column of the set; e1 splits off as a free summand
    # of {1, 2} and {1, 2, 3}, one extend each; {1}, {2}, {3}, {1, 3} and
    # {2, 3} are five pivot steps.
    calls = _walk_inserts(monkeypatch)
    for ring, p in _radical_column_rings():
        mat = Mat(ring, "123", [[1, 0, 0], [0, p, 0], [0, 0, 1]])
        calls.clear()
        assert build_from_matrix(mat) == uniform_system(3, 3)
        assert len(calls) == 5 + 2 + 2, ring


def test_walk_tests_each_set_once(monkeypatch):
    # Over a prime field R*g is one row and m = 0, so every span is free and
    # each tested set costs one pivot step.  The walk tests every member but
    # the empty set, and a dependent set only when its maximal proper
    # subsets are independent, that is a circuit, of at most r elements
    # (the rank cap).  A skipped or repeated set, or one tested with a
    # dependent maximal subset, changes the count.
    calls = _walk_inserts(monkeypatch)
    rng = rng_for("walk-tests-each-set-once")
    for spec in FIELD_SPECS:
        ring = make_ring(spec)
        for k, n in ((1, 9), (2, 12), (3, 16), (4, 16), (5, 14)):
            mat = random_matrix(rng, ring, k, n)
            calls.clear()
            system = build_from_matrix(mat)
            r = system.rank()
            circuits = sum(len(c) <= r for c in system.circuits().members)
            assert len(calls) == len(system.family) - 1 + circuits, (spec, mat)


def test_rank_cap_does_not_apply_off_chain_rings():
    # Over a non-chain ring mu is not monotone: the column module of
    # not_monotonic is R itself (one generator), yet {x, y} is independent.
    mat = load_matrix("not_monotonic.mat")
    assert minimal_generator_count(mat.ring, mat.columns()) == 1
    system = build_from_matrix(mat)
    assert system.is_independent(["1", "2"])
    assert system.rank() == 2
    assert circuits_by_subset_scan(mat).members == system.circuits().members


def test_differential_mu():
    rng = rng_for("diff-mu-small")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(40):
            k, count = rng.randint(1, 3), rng.randint(0, 3)
            vecs = [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(count)]
            assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs)
    for spec in TABLE_SPECS:
        ring = make_ring(spec)
        radical = sorted(ring.maximal_ideal)
        for _ in range(20):
            vecs = [(rng.randrange(ring.size),) for _ in range(rng.randint(0, 3))]
            assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs)
        # V and m*V are sized by Howell forms; zero, repeated and all-in-m
        # vectors are where a wrong size would show
        for _ in range(40):
            k = rng.randint(1, 3)
            vecs = [tuple(rng.choice((rng.randrange(ring.size), rng.choice(radical))) for _ in range(k))
                    for _ in range(rng.randint(0, 4))]
            if vecs and rng.random() < 0.3:
                vecs.append(rng.choice(vecs))
            if rng.random() < 0.2:
                vecs.append((0,) * k)
            assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs), (spec, vecs)


def test_differential_duals(tmp_path):
    # over Z/27 (nilpotency index 3) and the extension rings (residue
    # degree above 1, or ramified) too, at lengths where the kernel scan
    # of R^n stays small
    rng = rng_for("diff-dual-small")
    extensions = tuple(write_extension_ring(tmp_path, *spec) for spec in EXTENSION_RINGS)
    for spec in CHAIN_SPECS + ("z:5", "z:27") + extensions:
        ring = make_ring(spec)
        n_max = 5 if spec == "z:4" else 4 if ring.size <= 9 else 3
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
            _check_dual(c)


def test_differential_nonchain_duals():
    # Over a non-chain ring the dual is the kernel read off a Howell form,
    # with generators chosen by a Nakayama greedy decided by sizes.
    rng = rng_for("diff-dual-nonchain")
    for spec in TABLE_SPECS:
        ring = make_ring(spec)
        n_max = 4 if ring.size <= 8 else 3
        radical = sorted(ring.maximal_ideal)
        codes = [Code.from_matrix(Mat(ring, "abc", [[0, 0, 0]]))]  # the zero code
        codes.append(Code.from_matrix(Mat(ring, "abc", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])))  # zero dual
        for _ in range(10):
            k, n = rng.randint(1, 3), rng.randint(2, n_max)
            mat = random_matrix(rng, ring, k, n)
            codes.append(Code.from_matrix(mat))
            # a row inside m^n, a zero column and a repeated column
            rows = [list(r) for r in mat.rows]
            rows[rng.randrange(k)] = [rng.choice(radical) for _ in range(n)]
            for r in rows:
                r[0], r[-1] = 0, r[1]
            codes.append(Code.from_matrix(Mat(ring, mat.labels, rows)))
            codes.append(Code.from_matrix(Mat(ring, mat.labels, [[rng.choice(radical) for _ in range(n)]])))
        for c in codes:
            _check_dual(c)


def _check_greedy(ring, candidates, kept, gens, n):
    """``kept`` is what the Nakayama greedy keeps from ``candidates``, by
    its defining property: v is kept iff v is not in the span of the vectors
    kept before it plus m*C, C the span of ``gens``; m*C is spanned by the
    t*g (t in m, g in gens), and every span by the oracle."""
    mul = ring.mul
    radical = [tuple(mul(t, a) for a in g) for t in sorted(ring.maximal_ideal) for g in gens]
    want, acc = [], _naive_span(ring, radical, n)
    for v in candidates:
        if v not in acc:
            want.append(v)
            acc = _naive_span(ring, want + radical, n)
    assert want == list(kept), (ring.spec, gens)


def _check_dual(c):
    """dual_code equals the oracle's dual; its generator rows are a minimal
    generating set (mu rows, none zero, or one zero row for the zero dual);
    and the printed form of ``chainmat dual-code``, the greedy over its
    sorted codewords from its own m*C^perp, is the oracle's generator and
    keeps what the greedy's definition keeps."""
    want, got = dual_by_enumeration(c), dual_code(c)
    assert got == want, (c.ring.spec, c.generator)
    rows = got.generator.rows
    assert got.generator_count == want.generator_count, (c.ring.spec, c.generator)
    if got.generator_count:
        assert len(rows) == got.generator_count and all(any(r) for r in rows), (c.ring.spec, c.generator)
    else:
        assert rows == ((0,) * c.length,), (c.ring.spec, c.generator)
    shown = word_generators(got)
    assert shown == want.generator, (c.ring.spec, c.generator)
    if got.size <= 256:  # the oracle spans once per kept row
        _check_greedy(c.ring, sorted(got.codewords), shown.rows if got.generator_count else (), rows, c.length)


def test_differential_dual_edge_codes():
    # the zero code (its dual is the whole space, mu = n), free codes of
    # full rank n (zero dual), and matrices with zero or repeated columns
    for spec in CHAIN_SPECS + ("z:5",):
        ring = make_ring(spec)
        theta = ring.uniformizer
        zero = Code.from_matrix(Mat(ring, "abc", [[0, 0, 0], [0, 0, 0]]))
        assert dual_code(zero).generator_count == 3
        full = Code.from_matrix(Mat(ring, "abc", [[1, 2, 3], [0, 1, theta], [0, 0, 1]]))
        assert dual_code(full).codewords == frozenset({(0, 0, 0)})
        edge = [
            zero,
            full,
            Code.from_matrix(Mat(ring, "ab", [[1, 0], [0, 1]])),
            Code.from_matrix(Mat(ring, "abcd", [[1, 0, 1, 0], [0, theta, 0, 0]])),
            Code.from_matrix(Mat(ring, "abcd", [[theta, theta, 0, 1], [0, 0, 0, theta]])),
            Code.from_matrix(Mat(ring, "abc", [[1, 1, 1]])),
            Code.from_matrix(Mat(ring, "abc", [[0, theta, theta]])),
        ]
        for c in edge:
            _check_dual(c)


def _edge_and_random_rows(rng, ring, n):
    """Generator rows of codes of length n: the zero code, a column inside
    m, a repeated column, a zero column, and random rows."""
    radical = sorted(ring.maximal_ideal)
    theta = ring.uniformizer if ring.is_chain else radical[1]
    out = [[(0,) * n]]
    for _ in range(6):
        rows = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        if n:
            kind, j = rng.randrange(4), rng.randrange(n)
            for r in rows:
                if kind == 0:
                    r[j] = rng.choice(radical)
                elif kind == 1:
                    r[j] = r[n - 1 - j]
                elif kind == 2:
                    r[j] = 0
        if rng.random() < 0.3:
            rows.append([ring.mul(theta, x) for x in rows[0]])
        out.append([tuple(r) for r in rows])
    return out


def test_differential_code_operations():
    # Every code operation on generator rows and Howell forms against the
    # codeword sets the oracle spans, over chain and non-chain rings.
    rng = rng_for("diff-code-operations")
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        codes = []
        for n in (0, 1, 2, 3):
            for rows in _edge_and_random_rows(rng, ring, n):
                words = _naive_span(ring, rows, n)
                c = Code.from_matrix(Mat(ring, [str(j) for j in range(n)], rows))
                assert c.size == len(words) and c.codewords == words, (spec, rows)
                assert c.is_free == (len(words) == ring.size ** mu_by_enumeration(ring, rows)), (spec, rows)
                # the size-decided greedy keeps what its definition keeps
                _check_greedy(ring, rows, c.generator.rows if c.generator_count else (), rows, n)
                if n < 3 or ring.size <= 9:
                    _check_dual(c)
                for mask in range(1 << n):
                    on_x = [j for j in range(n) if mask >> j & 1]
                    keep = [j for j in range(n) if not mask >> j & 1]
                    x = [c.labels[j] for j in on_x]
                    projected = {tuple(w[j] for j in keep) for w in words}
                    vanishing = {tuple(w[j] for j in keep) for w in words if not any(w[j] for j in on_x)}
                    for got, want in ((puncture(c, x), projected), (shorten(c, x), vanishing)):
                        assert got.size == len(want) and got.codewords == want, (spec, rows, x)
                        assert got == Code.from_codeword_set(ring, got.labels, want), (spec, rows, x)
                codes.append((c, words))
            # the same spans from other generating sets: shuffled rows and
            # combinations of them
            for c, words in codes[-7:]:
                rows = list(c.generator.rows) + [rng.choice(sorted(words)) for _ in range(2)]
                rng.shuffle(rows)
                codes.append((Code.from_matrix(Mat(ring, c.labels, rows)), words))
        for c, words in codes:
            for d, other in codes:
                same = c.labels == d.labels and words == other
                assert (c == d) == same, (spec, c.generator, d.generator)
                if same:
                    assert hash(c) == hash(d), (spec, c.generator, d.generator)


def test_differential_howell_words(monkeypatch):
    # The one production enumeration, the words of a Howell form, against
    # the oracle's fixed-point span: codewords, and a span with its radical
    # m*V, over chain rings, fields, fpu (d = 2) and the 16-element table
    # ring (d = 4), with the zero code and length 0.
    from chainmat.errors import ClosureTooLargeError

    rng = rng_for("diff-howell-words")
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        mul = ring.mul
        assert span(ring, [], 0).vectors == span(ring, [()], 0).radical == frozenset({()})
        for n in (0, 1, 2) + ((3,) if ring.size <= 9 else ()):
            for rows in _edge_and_random_rows(rng, ring, n):
                words = _naive_span(ring, rows, n)
                assert Code.from_matrix(Mat(ring, [str(j) for j in range(n)], rows)).codewords == words, (spec, rows)
                sub = span(ring, rows, n)
                products = [tuple(mul(t, a) for a in v) for t in ring.maximal_ideal for v in rows]
                assert sub.vectors == words and sub.radical == _naive_span(ring, products, n), (spec, rows)
    # An oversized request is refused on its Howell size, before any vector
    # is added: 9^4 words over a limit of 100.
    z9 = make_ring("z:9")
    code = Code.from_matrix(Mat(z9, "abcd", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    adds = []
    monkeypatch.setattr(z9, "add", lambda a, b: adds.append(None) or (a + b) % 9)
    monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", "100")
    for read in (lambda: code.codewords, lambda: span(z9, code.generator.rows)):
        with pytest.raises(ClosureTooLargeError, match="^span guard: 6561 vectors requested, limit 100 "):
            read()
    assert adds == []


def test_submodularity_gap_matches_vector_sets():
    # (mu(X n Y), mu(X) + mu(Y) - mu(X u Y)) against the definition:
    # the generator count of V_{X n Y}, and log_q of
    # |V_X n V_Y| / |mV_X n mV_Y| from the oracle's spans.
    rng = rng_for("diff-submodularity-gap")
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        mul, q = ring.mul, ring.residue_field_size
        for _ in range(8):
            k, n = rng.randint(1, 2), rng.randint(2, 4)
            cols = random_matrix(rng, ring, k, n).columns()
            for _ in range(6):
                xs, ys = (rng.sample(range(n), rng.randint(0, n)) for _ in range(2))
                spans = []
                for idx in (xs, ys):
                    v = _naive_span(ring, [cols[i] for i in idx], k)
                    spans.append((v, _naive_span(ring, [tuple(mul(t, a) for a in w) for t in ring.maximal_ideal for w in v], k)))
                (vx, mvx), (vy, mvy) = spans
                ratio = len(vx & vy) // len(mvx & mvy)
                rhs = 0
                while ratio > 1:
                    ratio //= q
                    rhs += 1
                want = (mu_by_enumeration(ring, [cols[i] for i in set(xs) & set(ys)]), rhs)
                assert submodularity_gap(ring, cols, xs, ys) == want, (spec, cols, xs, ys)


def _check_contractibility(c, words):
    """The valuation t read off the generator column against the
    coordinate ideal {w_e : w in C} of the oracle's words; the verdict
    against whether some word has w_e of valuation t and every entry in
    m^t; and the witness is such a word."""
    ring = c.ring
    for j, label in enumerate(c.labels):
        proj = [w[j] for w in words if w[j]]
        if not proj:
            with pytest.raises(ZeroProjectionError):
                is_contractible(c, label)
            continue
        t = min(map(ring.valuation, proj))
        ideal = ring.ideal_of_valuation(t)
        exists = any(w[j] and ring.valuation(w[j]) == t and all(a in ideal for a in w) for w in words)
        got = is_contractible(c, label)
        assert (got is not None) == exists, (ring.spec, c.generator, label)
        if got is not None:
            w = got.codeword
            assert (got.label, got.valuation) == (label, t), (ring.spec, c.generator, label)
            assert w in words and w[j] and ring.valuation(w[j]) == t, (ring.spec, c.generator, label)
            assert all(a in ideal for a in w), (ring.spec, c.generator, label)


def test_contractibility_matches_codeword_scan():
    rng = rng_for("diff-contractible")
    for spec in CHAIN_SPECS + FIELD_SPECS:
        ring = make_ring(spec)
        for n in (1, 2, 3):
            for rows in _edge_and_random_rows(rng, ring, n):
                c = Code.from_matrix(Mat(ring, [str(j) for j in range(n)], rows))
                _check_contractibility(c, _naive_span(ring, rows, n))


@pytest.mark.parametrize("name,p,a,f", EXTENSION_RINGS, ids=[r[0] for r in EXTENSION_RINGS])
def test_extension_rings_match_oracles(tmp_path, name, p, a, f):
    # Chain rings with residue field F_q, q = p^f for f > 1 (where f enters
    # the Howell independence test), and a ramified one with a non-cyclic
    # (R, +): the build, mu, the dual and contractibility against the
    # oracle's vector sets, and the rank-2 uniform matroids up to the
    # paper's n = |R| + |m| where they fit in 16 columns.
    ring = make_ring(write_extension_ring(tmp_path, name, p, a, f))
    assert ring.is_chain
    rng = rng_for("extension-" + name)
    small = ring.size <= 9
    for _ in range(25):
        k, n = rng.randint(1, 3 if small else 2), rng.randint(1, 4 if small else 3)
        mat = random_matrix(rng, ring, k, n)
        system = build_from_matrix(mat)
        assert system == system_by_closure(mat), (name, mat)
        assert system.circuits().members == circuits_by_subset_scan(mat).members, (name, mat)
        vecs = [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(rng.randint(0, 3))]
        assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs), (name, vecs)
        rows = [list(r) for r in mat.rows]
        if rng.random() < 0.5:  # a non-free code: a row times the uniformizer
            rows.append([ring.mul(ring.uniformizer, x) for x in rows[0]])
        c = Code.from_matrix(Mat(ring, mat.labels, rows))
        _check_dual(c)
        _check_contractibility(c, _naive_span(ring, rows, n))
    top = ring.size + len(ring.maximal_ideal)
    assert len(projective_line(ring)) == top
    assert uniform_rank2_representation(ring, top + 1) is None
    if top <= 16:
        assert build_from_matrix(uniform_rank2_representation(ring, top)) == uniform_system(2, top)


def test_closure_kernel_matches_naive_span(monkeypatch):
    # The oracle's vector-set closure.  Each fold forms exactly
    # |V_i| + |m*V_i| vectors (k coordinate additions each), not |a| * |b|:
    # a vector already in the sum has its whole coset of the current span
    # there and is skipped.  A generator already in the span costs nothing.
    gens = [(1, 0), (2, 0), (4, 0), (0, 1)]
    folds = [(1, 0), (0, 1)]  # the generators not already in the span
    doubled = [(2, 0), (0, 2)]  # m = (2), so m*V_i is spanned by 2*g
    sizes = [len(_naive_span(Z8, gs[:i], 2)) for gs in (folds, doubled) for i in (1, 2)]

    def fold(ring, gens, k):
        v = mv = {(0,) * k}
        for g in gens:
            v, mv = extend_closure(ring, v, mv, g)
        return v, mv

    adds = []
    add = Z8.add
    monkeypatch.setattr(Z8, "add", lambda a, b: adds.append(None) or add(a, b))
    assert len(fold(Z8, gens, 2)[0]) == 64
    assert len(adds) == 2 * sum(sizes) == 184
    monkeypatch.undo()
    rng = rng_for("closure-kernel")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        mul = ring.mul
        for _ in range(12):
            k = rng.randint(1, 3 if ring.size < 16 else 2)
            gens = random_submodule_generators(rng, ring, k, rng.randint(0, 3))
            v, mv = fold(ring, gens, k)
            assert v == _naive_span(ring, gens, k)
            products = [tuple(mul(a, x) for x in w) for a in ring.maximal_ideal for w in v]
            assert mv == _naive_span(ring, products, k)


def _random_down_closed(rng, n):
    """The downward closure of a few random subsets of an n-set."""
    fam = {0}
    for _ in range(rng.randint(0, 5)):
        top = sub = rng.randrange(1 << n)
        while sub:
            fam.add(sub)
            sub = (sub - 1) & top
    return IndependenceSystem([str(i + 1) for i in range(n)], fam)


def test_differential_matroid_certification():
    rng = rng_for("diff-check-matroid")
    systems = [_random_down_closed(rng, rng.randint(0, 8)) for _ in range(300)]
    for spec in CHAIN_SPECS + ("table:f2xy_xx_yy",):
        ring = make_ring(spec)
        widest = 10 if spec in CHAIN_SPECS else 7
        for _ in range(12):
            systems.append(build_from_matrix(random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, widest))))
    assert sum(len(m.labels) >= 8 for m in systems[300:]) >= 10
    ring = make_ring("table:f2xy_xx_xy_yy")  # the benchmark's non-chain shapes, dense in violations
    for _ in range(12):
        systems.append(build_from_matrix(random_matrix(rng, ring, rng.randint(2, 3), rng.randint(8, 9))))
    data = resources.files("chainmat").joinpath("data")
    for name in sorted(p.name for p in data.iterdir() if p.name.endswith(".mat")):
        mat = load_matrix(name)
        if mat.ncols <= 10:
            systems.append(build_from_matrix(mat))
    verdicts = []
    for m in systems:
        want = exchange_violations_by_pair_scan(m)
        report = check_matroid(m)
        assert report.violations == want, m
        assert report.is_matroid == (not want), m
        verdicts.append(report.is_matroid)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def _check_power_set_paths(rng, m):
    """Rank, circuits, dual and the Clutter operations on the circuits of
    m against their loop-per-mask and label-set references."""
    assert list(m._ranks()) == ranks_by_family_scan(m), m
    circuits = m.circuits()
    assert {m.mask_of(c) for c in circuits.members} == circuits_by_mask_scan(m), m
    assert m.dual().family == dual_by_rank_complement(m), m
    assert circuits.to_system().family == clutter_system_by_superset_marking(circuits) == m.family, m
    sets = [rng.sample(m.labels, rng.randint(0, len(m.labels))) for _ in range(rng.randint(0, 40))]
    sets += sorted(circuits.members, key=sorted)[:40]
    assert Clutter.minimize(m.labels, sets).members == minimal_sets_by_pair_scan(sets), m
    members = circuits.members
    assert circuits.loops() == {next(iter(c)) for c in members if len(c) == 1}, m
    assert circuits.isthmuses() == set(m.labels).difference(*members), m
    t = set(rng.sample(m.labels, rng.randint(0, len(m.labels))))
    rest = tuple(l for l in m.labels if l not in t)
    deleted = circuits.delete(t)
    assert (deleted.labels, deleted.members) == (rest, {c for c in members if not c & t}), m
    if any(c <= t for c in members):
        with pytest.raises(ContractDependentSetError):
            circuits.contract(t)
    elif len(members) <= 2000:  # the pair scan is quadratic; U(8, 16) is checked apart
        contracted = circuits.contract(t)
        want = minimal_sets_by_pair_scan(c - t for c in members)
        assert (contracted.labels, contracted.members) == (rest, want), m
    # equality and hash do not depend on the order of the labels
    permuted = rng.sample(m.labels, len(m.labels))
    same = Clutter(permuted, members)
    assert same == circuits and hash(same) == hash(circuits), m
    if members:
        fewer = Clutter(permuted, sorted(members, key=sorted)[1:])
        assert fewer != circuits and Clutter(m.labels, fewer.members) == fewer, m


def test_differential_power_set_paths():
    rng = rng_for("diff-power-set")
    systems = [_random_down_closed(rng, rng.randint(0, 10)) for _ in range(300)]
    systems += [uniform_system(8, 16), IndependenceSystem([], [0])]
    for m in systems:
        _check_power_set_paths(rng, m)
    assert {len(m.labels) for m in systems} == set(range(11)) | {16}
    # the circuits of U(8, 16) are its 9-sets, so contracting 3 elements
    # leaves the 6-sets of the other 13
    labels = uniform_system(8, 16).labels
    contracted = uniform_system(8, 16).circuits().contract(labels[5:8])
    assert contracted.members == {frozenset(c) for c in combinations(labels[:5] + labels[8:], 6)}
    assert Clutter([], []).to_system() == IndependenceSystem([], [0])
    assert Clutter.minimize([], [set()]).members == frozenset()


def test_ranks_above_eight_match_family_scan():
    # Past rank 8 the rank table adds a second group of eight upward
    # closures (each group transposed into bytes by _planes); U(8, 16)
    # above stops at the first group.  The dual and the submodularity
    # lanes read the same table.
    rng = rng_for("ranks-above-eight")
    systems = [uniform_system(9, 12), uniform_system(16, 16)]
    while len(systems) < 3:
        m = _random_down_closed(rng, 16)
        if max(map(int.bit_count, m.family)) >= 9:
            systems.append(m)
    for m in systems:
        assert list(m._ranks()) == ranks_by_family_scan(m), m
        assert m.dual().family == dual_by_rank_complement(m), m
    assert [m.rank() for m in systems[:2]] == [9, 16] and systems[2].rank() >= 9
    assert is_rank_submodular(systems[0]) == rank_submodular_by_local_scan(systems[0]) == (True, [])
    assert check_matroid(systems[0]).is_matroid


def test_local_submodularity_matches_pair_scan():
    rng = rng_for("diff-submodular")
    verdicts = []
    for _ in range(200):
        m = _random_down_closed(rng, rng.randint(0, 7))
        verdict, witnesses = is_rank_submodular(m)
        assert verdict == rank_submodular_by_pair_scan(m)[0], m
        assert (verdict, witnesses) == rank_submodular_by_local_scan(m), m
        assert verdict == (not witnesses)
        for x, e, f in witnesses:
            assert m.rank(x | {e}) + m.rank(x | {f}) < m.rank(x | {e, f}) + m.rank(x)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
    # wider ground sets put elements past the first byte of a mask
    wide = [_random_down_closed(rng, rng.randint(8, 10)) for _ in range(20)] + [uniform_system(3, 9)]
    for m in wide:
        assert is_rank_submodular(m) == rank_submodular_by_local_scan(m), m
    assert any(not is_rank_submodular(m)[0] for m in wide)


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
