import pytest

from chainmat.errors import BadValueError, TooManyColumnsError
from chainmat.linalg import Mat, snf_exponents
from chainmat.modindep import (
    has_nonzero_maximal_minor,
    has_trivial_annihilator,
    ideal_multiple,
    is_modular_independent,
    minimal_generator_count,
    span,
    submodularity_gap,
)
from chainmat.oracle import dual_by_enumeration, mu_by_enumeration
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, TABLE_SPECS, random_submodule_generators, rng_for, submodule_mu

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")


def test_span_examples():
    assert span(Z4, [(2, 0), (1, 0)]).vectors == frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
    assert len(span(Z4, [(2, 0), (0, 2)])) == 4
    assert span(Z4, [], 2).vectors == frozenset({(0, 0)})


def test_span_closure_properties():
    rng = rng_for("span-closed")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(10):
            k = rng.randint(1, 2)
            gens = random_submodule_generators(rng, ring, k, rng.randint(0, 3))
            sub = span(ring, gens, k)
            vecs = sorted(sub.vectors)
            assert (0,) * k in sub.vectors
            for u in vecs[:6]:
                for v in vecs[:6]:
                    assert tuple(ring.add(a, b) for a, b in zip(u, v)) in sub.vectors
                for c in range(ring.size):
                    assert tuple(ring.mul(c, a) for a in u) in sub.vectors


def test_generator_count_examples():
    assert minimal_generator_count(Z4, [(2, 0), (0, 2)]) == 2
    assert minimal_generator_count(Z4, [(2, 0), (1, 2)]) == 1
    assert minimal_generator_count(Z4, []) == 0


def test_vector_api_rejects_ragged_input():
    # One length and entries in the ring, or BadValueError: a short or long
    # vector is not truncated or padded, and an entry outside the ring is
    # not read as an index.
    t16 = make_ring("table:f2xy_xx_yy")
    calls = [
        lambda: span(Z4, [(1, 0, 0)], 2),
        lambda: span(Z4, [(1, 2), (3,)]),
        lambda: span(Z4, [(4, 0)]),
        lambda: minimal_generator_count(t16, [(1, 0), (1,)]),
        lambda: minimal_generator_count(Z4, [(5, 0)]),
        lambda: minimal_generator_count(Z4, [(-1, 0)]),
        lambda: minimal_generator_count(Z4, [("1", 0)]),
        lambda: is_modular_independent(Z4, [(1, 2), (1, 2, 3)]),
        lambda: submodularity_gap(Z4, [(1, 0), (1,)], [0], [1]),
        lambda: submodularity_gap(Z4, [(1, 4)], [0], [0]),
    ]
    for call in calls:
        with pytest.raises(BadValueError):
            call()
    with pytest.raises(BadValueError, match="^vector \\(3,\\) has 1 entries, expected 2$"):
        span(Z4, [(1, 2), (3,)])
    # no columns: nothing to count
    assert submodularity_gap(Z4, [], [], []) == (0, 0)
    assert span(Z4, [], 0).vectors == frozenset({()})


def test_modular_independence_examples():
    assert is_modular_independent(Z4, [(1, 0), (1, 2)])
    assert not is_modular_independent(Z4, [(2, 0), (1, 0)])
    vamos_cols = {
        "a": (1, 0, 0, 0), "b": (0, 1, 0, 0), "g": (2, 3, 1, 4), "h": (1, 2, 7, 4),
    }
    assert not is_modular_independent(Z8, list(vamos_cols.values()))


def test_psi_membership():
    assert has_trivial_annihilator(Z4, (2, 1, 1))
    assert not has_trivial_annihilator(Z4, (2, 0, 2))
    assert not has_trivial_annihilator(Z4, (0, 0, 0))
    # agrees with a literal annihilator scan over finite rings
    rng = rng_for("psi")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(40):
            v = tuple(rng.randrange(ring.size) for _ in range(rng.randint(1, 3)))
            ann_trivial = all(
                any(ring.mul(r, a) for a in v) for r in range(1, ring.size)
            )
            assert has_trivial_annihilator(ring, v) == ann_trivial


def test_maximal_minor_sufficient_not_necessary():
    assert has_nonzero_maximal_minor(Mat(Z4, "ab", [[1, 1], [0, 2]]))
    assert not has_nonzero_maximal_minor(Mat(Z4, "ab", [[2, 0], [0, 2]]))
    assert is_modular_independent(Z4, [(2, 0), (0, 2)])
    assert not has_nonzero_maximal_minor(Mat(Z4, "a", [[0], [0]]))
    with pytest.raises(TooManyColumnsError):
        has_nonzero_maximal_minor(Mat(Z4, "abc", [[1, 0, 0], [0, 1, 0]]))
    # nonzero maximal minor always implies independence
    rng = rng_for("minor-implies")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(60):
            k = rng.randint(1, 3)
            l = rng.randint(1, k)
            m = Mat(ring, [str(i) for i in range(l)],
                    [[rng.randrange(ring.size) for _ in range(l)] for _ in range(k)])
            if has_nonzero_maximal_minor(m):
                assert is_modular_independent(ring, m.columns())


def test_dependence_iff_linear_combination():
    rng = rng_for("dep-lincomb")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(40):
            k = rng.randint(1, 2)
            count = rng.randint(1, 3)
            vecs = random_submodule_generators(rng, ring, k, count)
            dependent = not is_modular_independent(ring, vecs)
            in_span_of_rest = any(
                tuple(v) in span(ring, vecs[:i] + vecs[i + 1 :], k).vectors
                for i, v in enumerate(vecs)
            )
            assert dependent == in_span_of_rest


def test_two_vector_criterion():
    rng = rng_for("two-vector")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(60):
            k = rng.randint(1, 3)
            v = tuple(rng.randrange(ring.size) for _ in range(k))
            w = tuple(rng.randrange(ring.size) for _ in range(k))
            if not any(v) or not any(w):
                continue
            dependent = not is_modular_independent(ring, [v, w])
            comparable = v in span(ring, [w], k).vectors or w in span(ring, [v], k).vectors
            assert dependent == comparable


def test_generator_count_supermodular_with_equality_condition():
    rng = rng_for("supermodular")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(25):
            k = rng.randint(1, 2)
            gens_a = random_submodule_generators(rng, ring, k, rng.randint(0, 2))
            gens_b = random_submodule_generators(rng, ring, k, rng.randint(0, 2))
            v1, v2 = span(ring, gens_a, k), span(ring, gens_b, k)
            lhs = submodule_mu(v1) + submodule_mu(v2)
            total = span(ring, gens_a + gens_b, k)
            inter = span(ring, v1.vectors & v2.vectors, k)
            rhs = submodule_mu(total) + submodule_mu(inter)
            assert lhs <= rhs
            equal_condition = ideal_multiple(v1).vectors & ideal_multiple(v2).vectors == ideal_multiple(inter).vectors
            assert (lhs == rhs) == equal_condition


def test_monotonicity_on_chain_rings():
    rng = rng_for("monotone")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(150):
            k = rng.randint(1, 3)
            big = span(ring, random_submodule_generators(rng, ring, k, rng.randint(1, 3)), k)
            inside = rng.sample(sorted(big.vectors), min(len(big), rng.randint(1, 3)))
            small = span(ring, inside, k)
            assert small.vectors <= big.vectors
            assert submodule_mu(small) <= submodule_mu(big)


def test_monotonicity_fails_on_non_chain_witness():
    t8 = make_ring("table:f2xy_xx_xy_yy")
    x, y = t8.parse_element("x"), t8.parse_element("y")
    one_x, one_y = t8.parse_element("1+x"), t8.parse_element("1+y")
    whole = span(t8, [(x,), (y,), (one_x,)], 1)   # = R since 1+x is a unit
    sub = span(t8, [(x,), (y,)], 1)               # = m
    assert sub.vectors < whole.vectors
    assert submodule_mu(whole) == 1
    assert submodule_mu(sub) == 2
    assert submodule_mu(span(t8, [(one_y,)], 1)) == 1


def test_closure_guard_env_override(monkeypatch):
    from chainmat.codes import Code
    from chainmat.enumgeo import cyclic_submodules
    from chainmat.errors import ClosureTooLargeError, SearchSpaceTooLargeError

    monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", "8")
    with pytest.raises(ClosureTooLargeError) as exc:
        span(Z8, [(1, 0), (0, 1)])
    assert str(exc.value) == (
        "span guard: 64 vectors requested, limit 8 (set CHAINMAT_MAX_CLOSURE to raise it)"
    )
    # Where the size is known up front, the message states it.
    with pytest.raises(ClosureTooLargeError, match=r"^cyclic submodules guard: 64 vectors requested, limit 8 "):
        cyclic_submodules(Z8, 2)
    code = Code.from_matrix(Mat(Z8, "ab", [[1, 1]]))
    with pytest.raises(SearchSpaceTooLargeError, match=r"^kernel scan guard: 64 vectors requested, limit 8 "):
        dual_by_enumeration(code)
    with pytest.raises(ClosureTooLargeError, match=r"^naive span guard: more than 8 vectors .*CHAINMAT_MAX_CLOSURE"):
        mu_by_enumeration(Z8, [(1, 0), (0, 1)])
    monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", "100")
    assert len(span(Z8, [(1, 0), (0, 1)])) == 64
    for bad in ("abc", "0"):
        monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", bad)
        with pytest.raises(BadValueError, match=f"CHAINMAT_MAX_CLOSURE='{bad}'"):
            span(Z8, [(1, 0), (0, 1)])


def test_every_closure_names_its_guard(monkeypatch):
    from chainmat.codes import Code, dual_code
    from chainmat.errors import ClosureTooLargeError
    from chainmat.oracle import system_by_closure

    z8_plane = span(Z8, [(1, 0), (0, 1)])
    z8_line = Code.from_matrix(Mat(Z8, "abc", [[1, 1, 1]]))
    t16 = make_ring("table:f2xy_xx_yy")
    t16_line = Code.from_matrix(Mat(t16, "abc", [[1, 1, 1]]))
    f5 = make_ring("z:5")
    f5_plane = [(a, b) for a in range(5) for b in range(5)]
    monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", "8")
    with pytest.raises(ClosureTooLargeError) as exc:
        ideal_multiple(z8_plane)  # m * Z8^2 has 16 vectors
    assert str(exc.value) == (
        "span guard: 16 vectors requested, limit 8 (set CHAINMAT_MAX_CLOSURE to raise it)"
    )
    # Codes and duals are built without their words, so construction and
    # their sizes, freeness and generator counts pass the guard.  A
    # chain-ring dual's size, 8^2 here, is checked when its words are first
    # read, before they are listed.
    dual = dual_code(z8_line)
    assert (dual.size, dual.is_free, dual.generator_count) == (64, True, 2)
    with pytest.raises(ClosureTooLargeError) as exc:
        dual.codewords
    assert str(exc.value) == (
        "span guard: 64 vectors requested, limit 8 (set CHAINMAT_MAX_CLOSURE to raise it)"
    )
    # So is a code's (8^2 over a chain ring, 16 over a non-chain ring) and
    # a non-chain dual's (16^2).
    oversized = (
        (Code.from_matrix(Mat(Z8, "ab", [[1, 0], [0, 1]])), 64, True, 2),
        (Code.from_matrix(Mat(t16, "ab", [[1, 0]])), 16, True, 1),
        (dual_code(t16_line), 256, True, 2),
    )
    for code, size, free, mu in oversized:
        assert (code.size, code.is_free, code.generator_count) == (size, free, mu)
        with pytest.raises(ClosureTooLargeError) as exc:
            code.codewords
        assert str(exc.value) == (
            f"span guard: {size} vectors requested, limit 8 (set CHAINMAT_MAX_CLOSURE to raise it)"
        )
    # A word set is checked by its Howell size, not spanned, so 25 words
    # pass; the oracle's vector-set build stops at the limit.
    plane = Code.from_codeword_set(f5, "ab", f5_plane)
    assert plane == Code.from_matrix(Mat(f5, "ab", [[1, 0], [0, 1]])) and plane.size == 25
    with pytest.raises(ClosureTooLargeError) as exc:
        system_by_closure(Mat(f5, "ab", [[1, 0], [0, 1]]))
    assert str(exc.value) == (
        "closure guard: more than 8 vectors requested, limit 8 (set CHAINMAT_MAX_CLOSURE to raise it)"
    )


def test_oracle_agreement_small():
    rng = rng_for("oracle-mu")
    for spec in CHAIN_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        for _ in range(30):
            k = rng.randint(1, 2)
            vecs = random_submodule_generators(rng, ring, k, rng.randint(0, 3))
            assert minimal_generator_count(ring, vecs) == mu_by_enumeration(ring, vecs)


def test_mu_counts_invariant_factors_past_the_oracle():
    # Over a chain ring mu is the number of invariant factors, which the
    # row echelon of ``snf_exponents`` reads off; on 6 x 12 matrices, with
    # rows scaled by powers of the uniformizer, the span of 12 columns in
    # R^6 or of 6 rows in R^12 is too large for ``mu_by_enumeration``.
    rng = rng_for("mu-snf-large")
    for spec in ("z:8", "z:27", "fpu:2,2"):
        ring = make_ring(spec)
        for _ in range(8):
            rows = []
            for _ in range(6):
                theta = ring.uniformizer_power(rng.randrange(ring.nilpotency_index + 1))
                rows.append([ring.mul(theta, rng.randrange(ring.size)) for _ in range(12)])
            cols = [tuple(r[j] for r in rows) for j in range(12)]
            assert minimal_generator_count(ring, cols) == len(snf_exponents(ring, cols)), (spec, rows)
            assert minimal_generator_count(ring, rows) == len(snf_exponents(ring, rows)), (spec, rows)
