import time

import pytest

from chainmat.codes import (
    Code,
    circuits_from_dual,
    contract_code,
    dual_code,
    is_contractible,
    puncture,
    shorten,
)
from chainmat.errors import (
    BadValueError,
    NotChainRingError,
    NotContractibleError,
    SearchSpaceTooLargeError,
    UnknownLabelError,
    ZeroProjectionError,
)
from chainmat.indepsys import build_from_matrix, check_matroid, is_isomorphic, uniform_system
from chainmat.linalg import Mat
from chainmat.oracle import dual_by_enumeration
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, TABLE_SPECS, inner, random_code, random_free_code, random_matrix, rng_for

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")


def test_code_from_matrix_reduces_to_minimal_generators():
    c = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    assert c.generator_count == 2
    assert len(c.codewords) == 8
    redundant = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2], [2, 1, 3]]))
    assert redundant == c
    assert redundant.generator_count == 2
    # the matroid does not depend on which generator matrix survived
    assert redundant.matroid().family == c.matroid().family


def test_from_codeword_set_requires_a_submodule():
    c = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    rebuilt = Code.from_codeword_set(Z4, c.labels, list(c.codewords))
    assert rebuilt == c and rebuilt.generator_count == 2
    # A word set missing one word of its span, a set without 0 and the
    # empty set are not codes.
    for words in (sorted(c.codewords)[:-1], [(1, 0, 0)], []):
        with pytest.raises(BadValueError, match="not a submodule"):
            Code.from_codeword_set(Z4, c.labels, words)


def test_coordinate_ideal_matches_codeword_scan():
    rng = rng_for("coordinate-ideal")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        radical = sorted(ring.maximal_ideal)
        for _ in range(10):
            k, n = rng.randint(1, 3), rng.randint(1, 4)
            # Half the columns are drawn from m, so proper ideals occur.
            pools = [radical if rng.random() < 0.5 else range(ring.size) for _ in range(n)]
            rows = [[rng.choice(pools[j]) for j in range(n)] for _ in range(k)]
            c = Code.from_matrix(Mat(ring, [str(j) for j in range(n)], rows))
            for j, label in enumerate(c.labels):
                assert c.coordinate_ideal(label) == frozenset(w[j] for w in c.codewords), (spec, rows, j)


def test_free_flag():
    vamos = Code.from_matrix(Mat(Z8, list("abcdefgh"), [
        [1, 0, 0, 1, 0, 1, 2, 1],
        [0, 1, 0, 1, 0, 1, 3, 2],
        [0, 0, 1, 1, 0, 0, 1, 7],
        [0, 0, 0, 0, 1, 1, 4, 4],
    ]))
    assert vamos.is_free
    assert vamos.generator_count == 4
    assert len(vamos.codewords) == 8**4
    nonfree = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[1, 2, 0], [0, 2, 2]]))
    assert not nonfree.is_free
    assert len(nonfree.codewords) == 8


def test_dual_code_example():
    c = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[1, 2, 0], [0, 2, 2]]))
    dual = dual_code(c)
    check = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    assert dual == check
    # full space dualizes to zero
    whole = Code.from_matrix(Mat(Z4, "ab", [[1, 0], [0, 1]]))
    assert dual_code(whole).codewords == frozenset({(0, 0)})
    # biduality holds here (the example code is its own double dual)
    assert dual_code(dual) == c


def test_dual_paths_agree():
    rng = rng_for("dual-paths")
    for spec, n_max in (("z:4", 5), ("z:8", 4), ("z:9", 3)):
        ring = make_ring(spec)
        for _ in range(12):
            n = rng.randint(2, n_max)
            k = rng.randint(1, min(3, n))
            free = random_free_code(rng, ring, k, n)
            assert dual_code(free) == dual_by_enumeration(free)


def test_vamos_dual_is_free_of_complementary_rank():
    vamos = Code.from_matrix(Mat(Z8, list("abcdefgh"), [
        [1, 0, 0, 1, 0, 1, 2, 1],
        [0, 1, 0, 1, 0, 1, 3, 2],
        [0, 0, 1, 1, 0, 0, 1, 7],
        [0, 0, 0, 0, 1, 1, 4, 4],
    ]))
    dual = dual_code(vamos)
    assert dual.is_free
    assert dual.generator_count == 4
    # parity check: free dual of rank n-k has exactly |R|^(n-k) words and
    # is orthogonal to the code, which pins it down inside the annihilator
    assert len(dual.codewords) == 8 ** 4
    for g in vamos.generator.rows:
        for h in dual.generator.rows:
            assert inner(Z8, g, h) == 0


def test_double_dual_contains_code():
    rng = rng_for("double-dual")
    for spec, n_max in (("z:4", 4), ("z:8", 3)):
        ring = make_ring(spec)
        for _ in range(15):
            c = random_code(rng, ring, rng.randint(1, 2), rng.randint(2, n_max))
            double = dual_by_enumeration(dual_by_enumeration(c))
            assert c.codewords <= double.codewords
    for spec in ("z:4", "z:8"):
        ring = make_ring(spec)
        for _ in range(10):
            n = rng.randint(2, 4)
            c = random_free_code(rng, ring, rng.randint(1, min(3, n)), n)
            assert dual_code(dual_code(c)) == c


def test_puncture_and_shorten_examples():
    c4 = Code.from_matrix(Mat(Z4, ["1", "2", "3", "4"], [[2, 1, 0, 2], [0, 0, 1, 2]]))
    shortened = shorten(c4, ["4"])
    assert shortened == Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    c12 = Code.from_matrix(Mat(Z4, ["1", "2"], [[2, 1], [0, 2]]))
    assert shorten(c12, ["1"]).codewords == frozenset({(0,), (2,)})
    assert puncture(c12, []) == c12
    with pytest.raises(UnknownLabelError):
        puncture(c12, ["9"])


def test_puncture_of_everything():
    c = Code.from_matrix(Mat(Z4, "ab", [[1, 2], [0, 2]]))
    gone = puncture(c, ["a", "b"])
    assert gone.codewords == frozenset({()})


def test_shortening_duality_identities():
    rng = rng_for("shorten-dual")
    for spec, n_max in (("z:4", 4), ("z:8", 3), ("z:9", 3)):
        ring = make_ring(spec)
        for _ in range(20):
            n = rng.randint(2, n_max)
            c = random_code(rng, ring, rng.randint(1, 2), n)
            dual = dual_by_enumeration(c)
            for mask in range(1 << n):
                x = [c.labels[i] for i in range(n) if mask >> i & 1]
                assert dual_by_enumeration(shorten(c, x)) == puncture(dual, x)
                assert dual_by_enumeration(puncture(c, x)) == shorten(dual, x)


def test_puncturing_is_deletion():
    rng = rng_for("puncture-delete")
    specs = ("z:4", "z:8", "table:f2xy_xx_xy_yy")
    for spec in specs:
        ring = make_ring(spec)
        for _ in range(12):
            n = rng.randint(2, 4)
            c = random_code(rng, ring, rng.randint(1, 2), n)
            m = c.matroid()
            circuits = m.circuits()
            for mask in range(1 << n):
                x = [c.labels[i] for i in range(n) if mask >> i & 1]
                punctured = puncture(c, x).matroid()
                deleted = circuits.delete(x).to_system()
                assert punctured.family == deleted.family
                assert punctured.labels == deleted.labels


def test_contractibility_examples():
    c12 = Code.from_matrix(Mat(Z4, ["1", "2"], [[2, 1], [0, 2]]))
    assert is_contractible(c12, "1") is None
    vamos = Code.from_matrix(Mat(Z8, list("abcdefgh"), [
        [1, 0, 0, 1, 0, 1, 2, 1],
        [0, 1, 0, 1, 0, 1, 3, 2],
        [0, 0, 1, 1, 0, 0, 1, 7],
        [0, 0, 0, 0, 1, 1, 4, 4],
    ]))
    witness = is_contractible(vamos, "a")
    assert witness is not None and witness.valuation == 0
    t8 = make_ring("table:f2xy_xx_xy_yy")
    table_code = Code.from_matrix(Mat(t8, "ab", [[1, 0], [0, 1]]))
    with pytest.raises(NotChainRingError):
        is_contractible(table_code, "a")
    zerocol = Code.from_matrix(Mat(Z4, "ab", [[1, 0]]))
    with pytest.raises(ZeroProjectionError):
        is_contractible(zerocol, "b")


def test_contract_code():
    vamos = Code.from_matrix(Mat(Z8, list("abcdefgh"), [
        [1, 0, 0, 1, 0, 1, 2, 1],
        [0, 1, 0, 1, 0, 1, 3, 2],
        [0, 0, 1, 1, 0, 0, 1, 7],
        [0, 0, 0, 0, 1, 1, 4, 4],
    ]))
    contracted, order = contract_code(vamos, ["a"])
    assert order == ("a",)
    want = vamos.matroid().circuits().contract(["a"]).to_system()
    assert contracted.matroid().family == want.family
    c12 = Code.from_matrix(Mat(Z4, ["1", "2"], [[2, 1], [0, 2]]))
    with pytest.raises(NotContractibleError):
        contract_code(c12, ["1"])
    same, order = contract_code(c12, [])
    assert same == c12 and order == ()
    # The ordering search is capped; past the cap nothing is decided.
    with pytest.raises(SearchSpaceTooLargeError, match="^contraction ordering guard: 7 coordinates requested, limit 6$"):
        contract_code(vamos, list("abcdefg"))


# A [I | A] code over Z8 of 8^9 = 2^27 words, over the "span" guard.
Z8_9X16 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 5, 7, 7, 4, 6, 3, 7],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 6, 4, 3, 3, 0, 4],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 4, 5, 2, 4, 0, 3, 4],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 7, 7, 4, 3],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 4, 5, 4, 6, 1, 5, 7],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 6, 2, 4, 0, 4, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 5, 3, 7, 2, 4, 4, 5],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 7, 7, 1, 2, 7, 0, 7],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 7, 1, 7, 1, 7],
]


def test_contraction_lists_no_codeword(monkeypatch):
    # Contractibility and contraction read Howell forms of the generator
    # rows only: with codeword listing made to fail they still answer, on
    # random chain codes and on a code over the span guard.
    import chainmat.codes

    def refuse(*args):
        raise AssertionError("a codeword list was formed")

    rng = rng_for("contract-no-words")
    codes = []
    for spec in CHAIN_SPECS + ("z:5",):
        ring = make_ring(spec)
        codes += [random_code(rng, ring, rng.randint(1, 3), rng.randint(2, 5)) for _ in range(10)]
    big = Code.from_matrix(Mat(Z8, [f"c{j}" for j in range(1, 17)], Z8_9X16))
    monkeypatch.setattr(chainmat.codes, "span_words", refuse)
    witnesses = contracted = 0
    for c in codes:
        for label in c.labels:
            try:
                witnesses += is_contractible(c, label) is not None
            except ZeroProjectionError:
                pass
        try:
            contracted += len(contract_code(c, c.labels[:2])[1]) == 2
        except NotContractibleError:
            pass
    assert witnesses >= 100 and contracted >= 20, (witnesses, contracted)
    assert is_contractible(big, "c12") is not None
    shortened, order = contract_code(big, ["c10", "c11"])
    assert order == ("c10", "c11") and shortened.size == 8**7
    with pytest.raises(AssertionError, match="codeword list"):
        big.codewords


def test_shortening_counterexamples():
    # shortening need not represent contraction
    c12 = Code.from_matrix(Mat(Z4, ["1", "2"], [[2, 1], [0, 2]]))
    m = c12.matroid()
    assert m.circuits().members == {frozenset({"1", "2"})}
    shortened = shorten(c12, ["1"]).matroid()
    assert shortened.circuits().members == frozenset()
    contracted = m.circuits().contract(["1"]).to_system()
    assert contracted.circuits().members == {frozenset({"2"})}
    assert shortened.family != contracted.family
    # and a shortening of a matroid need not be a matroid
    c4 = Code.from_matrix(Mat(Z4, ["1", "2", "3", "4"], [[2, 1, 0, 2], [0, 0, 1, 2]]))
    assert check_matroid(c4.matroid()).is_matroid
    assert not check_matroid(shorten(c4, ["4"]).matroid()).is_matroid


def test_contraction_equals_shortening_under_contractibility():
    rng = rng_for("contract-shorten")
    hits = 0
    for spec in ("z:4", "z:8"):
        ring = make_ring(spec)
        for _ in range(60):
            n = rng.randint(2, 4)
            c = random_code(rng, ring, rng.randint(1, 3), n)
            label = rng.choice(c.labels)
            try:
                witness = is_contractible(c, label)
            except ZeroProjectionError:
                continue
            if witness is None:
                continue
            hits += 1
            shortened = shorten(c, [label]).matroid()
            contracted = c.matroid().circuits().contract([label]).to_system()
            assert shortened.family == contracted.family
    assert hits >= 20


def test_free_duality_theorem_small():
    rng = rng_for("free-duality")
    for spec in ("z:4", "z:8", "z:9", "fpu:2,2"):
        ring = make_ring(spec)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(1, min(3, n, 1 + n - 1))
            if ring.size ** (n - k) > 4096:
                continue
            c = random_free_code(rng, ring, k, n)
            assert c.matroid().dual().family == dual_code(c).matroid().family


def test_parity_check_systems_are_pure():
    rng = rng_for("parity-purity")
    for spec in ("z:4", "z:8"):
        ring = make_ring(spec)
        for _ in range(20):
            kstar = rng.randint(1, 3)
            extra = rng.randint(0, 3)
            rows = []
            for i in range(kstar):
                row = [rng.randrange(ring.size) for _ in range(extra)]
                row += [int(j == i) for j in range(kstar)]
                rows.append(row)
            h = Mat(ring, [str(i) for i in range(extra + kstar)], rows)
            m = build_from_matrix(h)
            assert m.is_pure()
            assert m.rank() == kstar
            bases = m.bases()
            assert all(any(mask & b == mask for b in bases) for mask in m.family)


def test_duality_counterexample_nonfree():
    g = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[1, 2, 0], [0, 2, 2]]))
    m = g.matroid()
    assert is_isomorphic(m, uniform_system(2, 3)) is not None
    dual_system_of_code = dual_code(g).matroid()
    report = check_matroid(dual_system_of_code)
    assert not report.is_matroid


def test_duality_counterexample_nonchain_free():
    t16 = make_ring("table:f2xy_xx_yy")
    p = t16.parse_element
    g = Mat(t16, ["1", "2", "3", "4"],
            [[1, 0, 0, p("y")], [0, 1, p("x+y+xy"), p("x+y")]])
    h = Mat(t16, ["1", "2", "3", "4"],
            [[0, p("x+y+xy"), 1, 0], [p("y"), p("x+y"), 0, 1]])
    code = Code.from_matrix(g)
    # the code is free: systematic [I_2 | A] on the first two coordinates
    assert code.is_free
    assert code.generator_count == 2
    assert len(code.codewords) == 16**2
    # h generates exactly the dual code of g
    dual = dual_code(code)
    assert dual == Code.from_matrix(h)
    mh = build_from_matrix(h)
    report = check_matroid(mh)
    assert not report.is_matroid
    assert (frozenset({"2", "4"}), frozenset({"1", "2", "3"})) in report.violations


def test_circuits_from_dual_route():
    c = Code.from_matrix(Mat(Z4, ["1", "2", "3"], [[2, 1, 1], [0, 0, 2]]))
    assert circuits_from_dual(c).members == {frozenset({"1", "2"}), frozenset({"1", "3"})}
    rng = rng_for("circuits-dual")
    for spec in ("z:4", "z:8"):
        ring = make_ring(spec)
        for _ in range(20):
            c = random_code(rng, ring, rng.randint(1, 2), rng.randint(2, 4))
            assert circuits_from_dual(c).members == c.matroid().circuits().members


def test_codes_past_length_eight():
    # Over Z8, Z9 and F2[u]/(u^2) (Frobenius rings; the last sits in
    # (Z/2)^2, d = 2) |C| * |C^perp| = |R|^n, the dual's rows are
    # orthogonal to C's, the double dual is C, and shortening and
    # puncturing are dual to each other.  The codes have 16 coordinates and
    # up to 9^15 words, far over the "span" guard: none of these operations
    # builds a codeword.
    rng = rng_for("long-codes")
    t0 = time.perf_counter()
    for spec in ("z:8", "z:9", "fpu:2,2"):
        ring = make_ring(spec)
        for k in (1, 4, 9, 15):
            rows = random_matrix(rng, ring, k, 16).rows
            # half of the rows times the uniformizer: not free
            rows = [[ring.mul(ring.uniformizer, a) for a in r] if i % 2 else r for i, r in enumerate(rows)]
            c = Code.from_matrix(Mat(ring, [f"c{j}" for j in range(1, 17)], rows))
            dual = dual_code(c)
            assert c.size * dual.size == ring.size**16, (spec, rows)
            for h in dual.generator.rows:
                assert all(inner(ring, g, h) == 0 for g in c.generator.rows), (spec, rows, h)
            assert dual_code(dual) == c, (spec, rows)
            x = rng.sample(c.labels, 3)
            assert dual_code(shorten(c, x)) == puncture(dual, x), (spec, rows, x)
            assert dual_code(puncture(c, x)) == shorten(dual, x), (spec, rows, x)
    assert time.perf_counter() - t0 < 10.0


def test_generators_are_checked_matrices():
    # every constructor and minor builds its generator unchecked; each one
    # must be the matrix the public constructor builds from the same rows:
    # a tuple of string labels and of tuples of ring elements, one per label
    rng = rng_for("trusted-generators")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for k, n in ((1, 4), (2, 5), (3, 6)):
            c = random_code(rng, ring, k, n)
            made = [c, dual_code(c), dual_code(dual_code(c)), puncture(c, ["1"]), shorten(c, ["2", "3"])]
            made += [puncture(c, c.labels), Code.from_matrix(Mat(ring, c.labels, [[0] * n]))]
            if n <= 5:
                made.append(Code.from_codeword_set(ring, c.labels, c.codewords))
            if ring.is_chain:
                try:
                    made.append(contract_code(c, ["4"])[0])
                except (NotContractibleError, ZeroProjectionError):
                    pass
            for code in made:
                g = code.generator
                assert type(g.labels) is tuple and all(type(label) is str for label in g.labels), spec
                assert type(g.rows) is tuple and all(type(row) is tuple for row in g.rows), spec
                rebuilt = Mat(ring, list(g.labels), [list(row) for row in g.rows])
                assert g == rebuilt and hash(g) == hash(rebuilt), spec
