import contextlib
import io
from types import SimpleNamespace

from chainmat import cli, codes
from chainmat.errors import NotContractibleError
from chainmat.howell import _low, eliminator, inserter, kernel, lane_constants, rows_over, unit_pivot
from chainmat.linalg import Mat
from chainmat.rings import MAX_RING_SIZE, _factor_prime_power, make_ring

from helpers import CHAIN_SPECS, EXTENSION_RINGS, FIELD_SPECS, TABLE_SPECS, rng_for, write_extension_ring


def _pack(row, w) -> int:
    """A row of integers as one integer, a lane of w bits per entry."""
    return sum(x << w * t for t, x in enumerate(row))


def _lanes(row, w, n) -> list:
    return [row >> w * t & (1 << w) - 1 for t in range(n)]


def _unpacked(form, additive) -> list:
    """A Howell form with each packed row as a list of its entries."""
    w = additive.barrett[0]
    return [None if h is None else _lanes(h, w, len(form)) for h in form]


def test_howell_insert_sizes_spans():
    # |span| = prod p^(a - e) over the stored leads, and the Howell
    # property: the stored rows led at column j or later span exactly the
    # vectors of the span that vanish before j.  Checked against the naive
    # additive closure over Z/q for the fields F2 to F7, 2^a up to 32 and
    # odd p with a up to 4 (q up to 125), rows packed in lanes.
    rng = rng_for("howell-insert")
    for p, a in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                 (3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (5, 3)):
        q = p**a
        additive = make_ring(f"z:{q}").additive
        for _ in range(40 if q < 49 else 8):
            n = rng.randint(1, 3 if q < 25 else 2)
            rows = [[rng.choice((0, rng.randrange(q), p * rng.randrange(q) % q, q - 1)) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            form = [None] * n
            insert = inserter(additive, n)
            logs = sum(insert(form, _pack(row, additive.barrett[0])) for row in rows)
            _check_howell_form(p, a, rows, _unpacked(form, additive), logs)


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
    w = additive.barrett[0]
    form, insert = [None, None], inserter(additive, 2)
    assert insert(form, _pack([4, 1], w)) == 3
    assert _unpacked(form, additive) == [[4, 1], [0, 2]]
    assert insert(form, _pack([2, 3], w)) == 2
    assert _unpacked(form, additive) == [[2, 3], [0, 1]]
    _check_howell_form(2, 3, [[4, 1], [2, 3]], _unpacked(form, additive), 5)
    # a unit lead is scaled to 1 and re-inserts nothing
    form = [None, None]
    assert insert(form, _pack([3, 5], w)) == 3
    assert _unpacked(form, additive) == [[1, 7], None]


def _prime_powers(limit) -> list:
    return [q for q in range(2, limit + 1) if _factor_prime_power(q)]


def _reduced_lanes(values, q) -> list:
    """The lanes of v - q*((v*M >> s) & LOW), the step an ``inserter``
    takes after each multiply-add, for v the lanes ``values`` packed."""
    w, s, m = lane_constants(q)
    v = _pack(values, w)
    return _lanes(v - q * (v * m >> s & _low(w, s, len(values))), w, len(values))


def test_lane_reduction_is_exact():
    # The lane reduction is v mod q in every lane, for every lane value
    # below q^2, with no carry between lanes: exhaustively for each prime
    # power q <= 64 (all q^2 values packed side by side), and at the
    # extremes (the top values of each residue, next to a full lane) for
    # every q up to the ring cap.
    for q in _prime_powers(64):
        w, s, m = lane_constants(q)
        values = list(range(q * q)) + list(range(q * q - 1, -1, -1))
        assert _reduced_lanes(values, q) == [v % q for v in values], q
        assert 1 << s >= q**3 and m * q - q < 1 << s <= m * q, q
    for q in _prime_powers(MAX_RING_SIZE):
        top = q * q - 1
        values = [0, q - 1, q, top, top - 1, top - q + 1, top - q, top - q - 1, q * (q - 1) // 2 - 1, top]
        assert _reduced_lanes(values, q) == [v % q for v in values], q


def test_howell_insert_scales_unit_leads_exactly():
    # A row led by a unit u is stored scaled to lead 1, each entry x as
    # u^-1 * x mod q, through the lane reduction inside an inserter: for
    # every prime power q up to the ring cap, with u = -1 (lanes up to
    # (q - 1)^2 before reduction) and a random unit.  An inserter reads
    # Z/q's tables only at the lead, so they are given there alone rather
    # than by building all 604 rings Z/q.
    rng = rng_for("howell-unit-lead")
    for q in _prime_powers(MAX_RING_SIZE):
        p, a = _factor_prime_power(q)
        for u in (q - 1, rng.randrange(q // p) * p + rng.randrange(1, p)):
            inverse = pow(u, -1, q)
            tables = SimpleNamespace(exponent=a, valuation={u: 0}, unit_inverse={u: inverse},
                                     cofactor=(q,), barrett=lane_constants(q))
            row = [u, 0, 1, q - 1, q - 2, q // 2, rng.randrange(q), rng.randrange(q)]
            form = [None] * len(row)
            assert inserter(tables, len(row))(form, _pack(row, tables.barrett[0])) == a, q
            assert _lanes(form[0], tables.barrett[0], len(row)) == [inverse * x % q for x in row], (q, u)
            assert form[1:] == [None] * (len(row) - 1), q


def test_ring_gens_start_with_one(tmp_path):
    # the build's dependent exit reads g's own row as the first of the
    # rows of R*g: the cyclic basis of (R, +) starts with the element 1
    specs = CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS
    specs += tuple(write_extension_ring(tmp_path, *spec) for spec in EXTENSION_RINGS)
    for spec in specs:
        ring = make_ring(spec)
        assert ring.additive.ring_gens[0] == 1, spec
        assert all(ring.mul(1, x) == x for x in range(ring.size)), spec


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
        w, packed = additive.barrett[0], additive.packed
        assert len(set(coords)) == r.size and all(additive.element[packed[x]] == x for x in range(r.size)), spec
        assert all(packed[x] == _pack(coords[x], w) for x in range(r.size)), spec
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


def _rows_by_mul(ring, v, gens) -> list:
    """``rows_over`` as products: packed[b*x] in block t for each entry x."""
    additive = ring.additive
    width = additive.barrett[0] * len(additive.coords[0])
    return [sum(additive.packed[ring.mul(b, x)] << width * t for t, x in enumerate(v)) for b in gens]


def test_rows_over_reads_the_products(tmp_path):
    # the image maps give the rows of b*v that ring.mul gives, for every
    # vector of length 1 (every entry, so every (b, x) a map can hold) and
    # seeded random vectors of lengths 2 to 5, over both generator lists
    rng = rng_for("rows-over-images")
    specs = CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS + ("fpu:2,8", "fpu:5,3")
    specs += (write_extension_ring(tmp_path, *EXTENSION_RINGS[-1]),)
    for spec in specs:
        ring = make_ring(spec)
        additive = ring.additive
        vectors = [(x,) for x in range(ring.size)]
        vectors += [tuple(rng.randrange(ring.size) for _ in range(rng.randint(2, 5))) for _ in range(60)]
        for gens in (additive.ring_gens, additive.radical_gens):
            for v in vectors:
                assert rows_over(ring, v, gens) == _rows_by_mul(ring, v, gens), (spec, gens, v)
        assert additive.images[1] is additive.packed, spec
        assert all(len(additive.images[b]) <= ring.size for b in additive.radical_gens), spec


def _counted_mul(monkeypatch, spec) -> list:
    """A list that gets an entry per ``ring.mul`` call of the ring of
    ``spec``, whose additive coordinates are rebuilt under the counter (and
    put back afterwards), so that their image maps start empty."""
    ring = make_ring(spec)
    ring.additive
    calls, mul = [], ring.mul
    monkeypatch.setattr(ring, "mul", lambda a, b: calls.append(None) or mul(a, b))
    monkeypatch.delitem(ring.__dict__, "additive")
    return calls


def test_mul_calls_no_more_than_per_row(monkeypatch):
    # ring.mul fills an image map entry once, and nothing fills a whole
    # table: the bounds are the parent's counts, which called ring.mul once
    # per entry of every row b*v with b != 1 (672, 474 and 118 calls)
    calls = _counted_mul(monkeypatch, "fpu:2,8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["uniform", "--ring", "fpu:2,8", "-n", "12"]) == 0
    assert len(calls) <= 672
    for spec, bound in (("fpu:2,2", 474), ("z:8", 118)):
        calls = _counted_mul(monkeypatch, spec)
        ring = make_ring(spec)
        rows = [[1, 0, 0, 3, 1, 2], [0, 1, 0, 1, 1, 3], [0, 0, 1, 2, 3, 1]]
        rows[1] = [ring.mul(ring.uniformizer, x) for x in rows[1]]
        calls.clear()
        code = codes.Code.from_matrix(Mat(ring, "123456", rows))
        assert codes.dual_code(codes.dual_code(code)) == code
        codes.puncture(code, ["2"])
        codes.shorten(code, ["3"])
        with contextlib.suppress(NotContractibleError):
            codes.contract_code(code, ["4"])
        assert len(calls) <= bound, spec


def test_kernels_insert_as_fresh_inserters(tmp_path):
    # the kernel cached per lane count stores the same rows and reports the
    # same growths as an inserter bound afresh, at several lane counts
    rng = rng_for("cached-kernels")
    specs = CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS + ("z:27", "fpu:2,8")
    specs += (write_extension_ring(tmp_path, *EXTENSION_RINGS[-1]),)
    for spec in specs:
        ring = make_ring(spec)
        additive = ring.additive
        d = len(additive.coords[0])
        for n in (1, 2, 4, 7):
            pair = kernel(additive, d * n)
            assert kernel(additive, d * n) is pair and additive.kernels[d * n] is pair, spec
            insert = pair[0]
            fresh = inserter(additive, d * n)
            cached_form, fresh_form = [None] * (d * n), [None] * (d * n)
            for _ in range(12):
                v = tuple(rng.randrange(ring.size) for _ in range(n))
                for row in rows_over(ring, v, additive.ring_gens + additive.radical_gens):
                    assert insert(cached_form, row) == fresh(fresh_form, row), (spec, n)
                    assert cached_form == fresh_form, (spec, n)


def _log(form, additive) -> int:
    """log_p of the size of the span of a Howell form: sum a - e over its
    stored leads p^e."""
    w, a = additive.barrett[0], additive.exponent
    return sum(a - additive.valuation[h >> w * j & (1 << w) - 1] for j, h in enumerate(form) if h is not None)


def test_extend_matches_a_fresh_inserter(tmp_path):
    # extend(form, row) leaves the form as it is and returns the residual,
    # the form with the row inserted and the growth: the same growth and
    # the same span as an inserter bound afresh, a residual that is zero
    # exactly when the row lies in the span and otherwise differs from it
    # by a vector of the span (the build carries it one level down).  Rows
    # over the generators of m give non-unit leads, which reach the
    # hand-off to insert; repeated and zero rows give zero residuals.
    rng = rng_for("extend-vs-inserter")
    specs = CHAIN_SPECS + FIELD_SPECS + TABLE_SPECS + ("fpu:2,8", "fpu:5,3")
    specs += (write_extension_ring(tmp_path, *EXTENSION_RINGS[-1]),)
    for spec in specs:
        ring = make_ring(spec)
        additive = ring.additive
        d, q = len(additive.coords[0]), additive.cofactor[0]
        gens, growths = additive.ring_gens + additive.radical_gens, set()
        for n in (1, 2, 4, 7):
            lanes = d * n
            extend, fresh = kernel(additive, lanes)[1], inserter(additive, lanes)
            low = _low(*additive.barrett[:2], lanes)
            form, seen = [None] * lanes, []
            for _ in range(10):
                v = tuple(rng.choice((0, rng.randrange(ring.size))) for _ in range(n))
                for row in rows_over(ring, v, gens) + seen[-1:]:
                    before = form[:]
                    residual, grown_form, grown = extend(form, row)
                    assert form == before, (spec, n)  # the parent form is not mutated
                    trial = form[:]
                    assert grown == fresh(trial, row), (spec, n)
                    assert (residual == 0) == (grown == 0), (spec, n)
                    # the residual differs from the row by a vector of the span
                    diff = residual + (q - 1) * row
                    diff -= q * (diff * additive.barrett[2] >> additive.barrett[1] & low)
                    assert fresh(form[:], diff) == 0, (spec, n)
                    if grown:
                        assert _log(grown_form, additive) == _log(form, additive) + grown, (spec, n)
                        assert not any(fresh(trial, h) for h in grown_form if h is not None), (spec, n)
                        form = grown_form
                    else:
                        assert grown_form is None, (spec, n)
                    seen.append(row)
                    growths.add(grown)
        # both verdicts, and over a > 1 a growth other than a: the hand-off
        assert 0 in growths and len(growths) > 1 + (additive.exponent > 1), (spec, growths)


def test_eliminate_and_unit_pivot_match_lane_arithmetic():
    # Over Z/p^a (d = 1) a lane is an entry: eliminate(row, pivot, shift)
    # is row - c*pivot modulo q lane by lane, for c the row's entry in the
    # lane at bit shift (zero there when the pivot holds 1), and pivot 0
    # leaves the row as it is; unit_pivot gives the lowest lane that holds a
    # unit and the row scaled by its inverse, or None when every entry lies
    # in pZ/q.  Entries of valuation 0 to a - 1 and zero entries show.
    rng = rng_for("eliminate-unit-pivot")
    for spec in ("z:2", "z:4", "z:8", "z:9", "z:16", "z:25", "z:27", "z:32", "z:49", "z:5", "z:7"):
        additive = make_ring(spec).additive
        p, q, w = additive.p, additive.cofactor[0], additive.barrett[0]

        def pack(v):
            return sum(x << w * i for i, x in enumerate(v))

        for k in (1, 2, 5, 9):
            eliminate = eliminator(additive, k)
            for _ in range(30):
                v = [rng.choice((0, rng.randrange(q), p * rng.randrange(q) % q)) for _ in range(k)]
                lane = rng.randrange(k)
                h = [rng.randrange(q) for _ in range(k)]
                h[lane] = 1
                want = [(x - v[lane] * y) % q for x, y in zip(v, h)]
                assert eliminate(pack(v), pack(h), w * lane) == pack(want), (spec, v, h)
                assert eliminate(pack(v), 0, w * lane) == pack(v), (spec, v)
                units = [i for i, x in enumerate(v) if x % p]
                if units:
                    inverse = pow(v[units[0]], -1, q)
                    scaled = pack([x * inverse % q for x in v])
                    assert unit_pivot(additive, k, pack(v)) == (w * units[0], scaled), (spec, v)
                else:
                    assert unit_pivot(additive, k, pack(v)) is None, (spec, v)
