from chainmat.howell import howell_insert, reduced_form, span_form
from chainmat.oracle import _naive_span
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, FIELD_SPECS, TABLE_SPECS, rng_for


def test_howell_insert_sizes_spans():
    # |span| = prod p^(a - e) over the stored leads, and the Howell
    # property: the stored rows led at column j or later span exactly the
    # vectors of the span that vanish before j.  Checked against the naive
    # additive closure over Z/4, Z/8, Z/9, Z/25 and Z/27 (p odd, a up to 3).
    rng = rng_for("howell-insert")
    for p, a in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        q = p**a
        additive = make_ring(f"z:{q}").additive
        for _ in range(40):
            n = rng.randint(1, 3 if q < 25 else 2)
            rows = [[rng.choice((0, rng.randrange(q), p * rng.randrange(q) % q)) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            form = [None] * n
            logs = sum(howell_insert(form, list(row), additive) for row in rows)
            _check_howell_form(p, a, rows, form, logs)


def _check_howell_form(p, a, rows, form, logs):
    q, n = p**a, len(form)
    closure = {(0,) * n}
    for row in rows:
        while True:
            grown = closure | {tuple((s + t) % q for s, t in zip(v, row)) for v in closure}
            if grown == closure:
                break
            closure = grown
    assert p**logs == len(closure), (q, rows, form)
    leads = [lead for lead, row in enumerate(form) if row is not None]
    for lead in leads:
        row = form[lead]
        assert not any(row[:lead]) and row[lead] in {p**e for e in range(a)}, (q, rows, form)
    for j in range(n + 1):
        tail = {(0,) * n}
        for lead in leads:
            if lead >= j:
                row = form[lead]
                tail = {tuple((s + c * t) % q for s, t in zip(v, row)) for v in tail for c in range(q)}
        assert tail == {v for v in closure if not any(v[:j])}, (q, rows, form, j)


def test_howell_insert_displaces_and_reinserts():
    # Over Z/8.  (4, 1) is stored at lead 4 = 2^2, so 2 * (4, 1) = (0, 2)
    # is re-inserted and stored at column 1: |<(4, 1)>| = 8.  (2, 3) then
    # meets the stored lead 4, which its lead 2 does not reach: it is stored
    # at column 0 and displaces (4, 1), which it now reduces to (0, 3),
    # stored as (0, 1) after scaling by 3^-1 and displacing (0, 2) in turn;
    # the re-inserted 4 * (2, 3) = (0, 4) reduces to zero.
    additive = make_ring("z:8").additive
    form = [None, None]
    assert howell_insert(form, [4, 1], additive) == 3
    assert form == [[4, 1], [0, 2]]
    assert howell_insert(form, [2, 3], additive) == 2
    assert form == [[2, 3], [0, 1]]
    _check_howell_form(2, 3, [[4, 1], [2, 3]], form, 5)
    # a unit lead is scaled to 1 and re-inserts nothing
    form = [None, None]
    assert howell_insert(form, [3, 5], additive) == 3
    assert form == [[1, 7], None]


def _additive_closure(ring, gens) -> set:
    out = {0}
    for g in gens:
        while True:
            grown = out | {ring.add(x, g) for x in out}
            if grown == out:
                break
            out = grown
    return out


def test_additive_coordinates_embed_the_group():
    # (R, +) sits in (Z/p^a)^d additively and injectively, p^a the additive
    # order of 1, and the generator lists span R and m as abelian groups.
    more = ("z:27", "fpu:3,2", "zpn:2,5", "fpu:2,8", "fpu:5,3")
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS + more:
        r = make_ring(spec)
        additive = r.additive
        q = additive.p**additive.exponent
        char, one = 1, 1
        while one:
            one, char = r.add(one, 1), char + 1
        assert q == char, spec
        coords = additive.coords
        assert len(set(coords)) == r.size and all(additive.element[coords[x]] == x for x in range(r.size)), spec
        for x in range(r.size):
            for y in range(r.size):
                assert coords[r.add(x, y)] == tuple((s + t) % q for s, t in zip(coords[x], coords[y])), spec
        assert len(additive.ring_gens) == len(coords[0]), spec
        assert _additive_closure(r, additive.ring_gens) == set(range(r.size)), spec
        assert _additive_closure(r, additive.radical_gens) == r.maximal_ideal, spec
        assert additive.p**additive.residue_degree == r.residue_field_size, spec
    # Z4[x]/(2x, x^2): (R, +) = Z/4 + Z/2 and m = {0, 2, x, 2+x} = Z/2 + Z/2
    r = make_ring(TABLE_SPECS[2])
    assert (r.additive.p, r.additive.exponent) == (2, 2)
    assert [len(_additive_closure(r, [g])) for g in r.additive.ring_gens] == [4, 2]
    assert sorted(r.additive.radical_gens) == [r.parse_element("2"), r.parse_element("x")]
    # Z/2^a up to the ring cap is cyclic on 1, and m is cyclic on 2
    for spec in ("z:1024", "z:4096"):
        r = make_ring(spec)
        assert r.additive.coords == tuple((x,) for x in range(r.size)), spec
        assert (r.additive.ring_gens, r.additive.radical_gens) == ((1,), (2,)), spec



def _canonical(ring, vectors) -> tuple:
    form, log = span_form(ring, vectors)
    additive = ring.additive
    return reduced_form(form, additive.p, additive.exponent), log


def test_reduced_howell_form_is_canonical():
    # Two generating sets of one span (shuffled rows plus random
    # combinations of them) give the same reduced form, two different
    # spans different forms, and p^sum(a - e_j) is the span's size.
    rng = rng_for("howell-canonical")
    for spec in CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS:
        ring = make_ring(spec)
        add, mul = ring.add, ring.mul
        radical = sorted(ring.maximal_ideal)
        p, a = ring.additive.p, ring.additive.exponent
        seen = {}
        for _ in range(25):
            n = rng.randint(1, 3)
            pools = [radical if rng.random() < 0.3 else range(ring.size) for _ in range(n)]
            gens = [tuple(rng.choice(pools[j]) for j in range(n)) for _ in range(rng.randint(0, 3))]
            words = _naive_span(ring, gens, n)
            form, log = _canonical(ring, gens)
            assert p**log == len(words), (spec, gens)
            for row in form:
                lead = next(j for j, x in enumerate(row) if x)
                assert row[lead] in {p**e for e in range(a)}, (spec, gens, form)
            for j, later in enumerate(form):
                lead = next(t for t, x in enumerate(later) if x)
                assert all(row[lead] < later[lead] for row in form[:j]), (spec, gens, form)
            other = list(gens)
            rng.shuffle(other)
            for _ in range(rng.randint(0, 3)):
                w = (0,) * n
                for g in gens:
                    c = rng.randrange(ring.size)
                    w = tuple(add(x, mul(c, y)) for x, y in zip(w, g))
                other.insert(rng.randint(0, len(other)), w)
            assert _canonical(ring, other) == (form, log), (spec, gens, other)
            key = (n, words)
            for (m, seen_words), seen_form in seen.items():
                if m == n:
                    assert (seen_form == form) == (seen_words == words), (spec, gens)
            seen[key] = form
