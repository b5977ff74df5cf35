import json
import re

import pytest

from chainmat.cli import main
from chainmat.errors import BadValueError, NotARingError, NotChainRingError, NotLocalError, NotPrimeError
from chainmat.linalg import Mat, format_matrix, parse_matrix, parse_matrix_file
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, TABLE_SPECS


def test_z4_basic_data():
    z4 = make_ring("z:4")
    assert z4.size == 4
    assert z4.is_chain
    assert z4.residue_field_size == 2
    assert z4.nilpotency_index == 2
    assert z4.uniformizer == 2
    assert z4.maximal_ideal == frozenset({0, 2})


def test_spec_aliases():
    assert make_ring("z:8") is make_ring("z:8")
    assert make_ring("zpn:2,3").size == 8
    assert make_ring("fpu:2,2").size == 4


def test_units():
    z4 = make_ring("z:4")
    assert 3 in z4.units
    assert 2 not in z4.units
    t16 = make_ring("table:f2xy_xx_yy")
    assert t16.parse_element("1+x") in t16.units
    assert t16.parse_element("x") not in t16.units


def test_valuation():
    z8 = make_ring("z:8")
    assert z8.valuation(6) == 1
    assert z8.valuation(4) == 2
    assert z8.valuation(0) == 3
    with pytest.raises(NotChainRingError):
        make_ring("table:f2xy_xx_xy_yy").valuation(1)


def test_annihilators():
    z4 = make_ring("z:4")
    assert z4.annihilator(2) == frozenset({0, 2})
    assert z4.annihilator(1) == frozenset({0})
    t8 = make_ring("table:f2xy_xx_xy_yy")
    x = t8.parse_element("x")
    assert t8.annihilator(x) == t8.maximal_ideal
    # chain rings: Ann(a) = <theta^(nu - ord a)>
    for spec in CHAIN_SPECS:
        r = make_ring(spec)
        for a in range(r.size):
            assert r.annihilator(a) == r.ideal_of_valuation(r.nilpotency_index - r.valuation(a))


def test_bad_element_tokens():
    f2u = make_ring("fpu:2,2")
    # A negative exponent would index the power table from its end (u^-2
    # as u); it and non-integer coefficients or exponents are bad tokens.
    # An index is 0..|R| - 1: 4 would wrap to 0, and -1 to index 3 (1+u),
    # though -1 = 1 in characteristic 2.
    for token in ("u^-1", "u^-2", "xu", "u^a", "1_1u", "u^1_0", "4", "-1"):
        with pytest.raises(BadValueError, match=re.escape(repr(token))):
            f2u.parse_element(token)
    # Integers are ASCII decimals: int() would read 1_0 as 10 and ٣ as 3.
    for spec in ("z:4", "fpu:2,2", "table:f2xy_xx_yy"):
        for token in ("1_0", "٣"):
            with pytest.raises(BadValueError, match=re.escape(repr(token))):
                make_ring(spec).parse_element(token)


def test_unit_group_closure():
    for spec in CHAIN_SPECS + TABLE_SPECS:
        r = make_ring(spec)
        for a in r.units:
            for b in r.units:
                assert r.mul(a, b) in r.units
        for a in r.maximal_ideal:
            for b in range(r.size):
                assert r.mul(a, b) in r.maximal_ideal


def test_chain_factorization_and_ord_counts():
    for spec in CHAIN_SPECS:
        r = make_ring(spec)
        q, nu = r.residue_field_size, r.nilpotency_index
        assert r.size == q**nu
        assert len(r.maximal_ideal) == q ** (nu - 1)
        for t in range(nu):
            count = sum(1 for a in range(1, r.size) if r.valuation(a) == t)
            assert count == q ** (nu - t - 1) * (q - 1)
        for a in range(1, r.size):
            u = r.unit_part(a)
            assert u in r.units
            assert r.mul(u, r.uniformizer_power(r.valuation(a))) == a


def test_uniformizer_powers():
    for spec in CHAIN_SPECS:
        r = make_ring(spec)
        nu = r.nilpotency_index
        assert r.uniformizer_power(nu) == 0
        if nu > 1:
            assert r.uniformizer_power(nu - 1) != 0


def test_nonchain_rings_have_incomparable_ideals():
    for spec in TABLE_SPECS:
        r = make_ring(spec)
        assert not r.is_chain
        ideals = {r.principal_ideal(a) for a in range(r.size)}
        found = any(
            not (a <= b or b <= a) for a in ideals for b in ideals
        )
        assert found


def test_builtin_table_rings():
    t8 = make_ring("table:f2xy_xx_xy_yy")
    assert t8.size == 8
    assert len(t8.maximal_ideal) == 4
    x, y = t8.parse_element("x"), t8.parse_element("y")
    assert t8.mul(x, y) == 0
    assert t8.mul(x, x) == 0
    t16 = make_ring("table:f2xy_xx_yy")
    assert t16.size == 16
    x, y = t16.parse_element("x"), t16.parse_element("y")
    assert t16.mul(x, y) == t16.parse_element("xy")
    assert t16.mul(t16.mul(x, y), x) == 0


def test_not_prime_power_rejected():
    with pytest.raises(NotPrimeError):
        make_ring("z:6")
    with pytest.raises(NotPrimeError):
        make_ring("zpn:4,1")
    with pytest.raises(NotPrimeError):
        make_ring("z:1")
    for spec in ("z:1_6", "z:١٦", "zpn:2,1_0", "fpu:٢,2"):
        with pytest.raises(NotPrimeError, match="bad ring spec"):
            make_ring(spec)


def test_table_ring_from_json_rejects_nonlocal(tmp_path):
    # Z2 x Z2 written as a table: two maximal ideals, hence rejected.
    pairs = [(0, 0), (1, 1), (1, 0), (0, 1)]
    index = {p: i for i, p in enumerate(pairs)}
    size = 4
    add = [[index[(a[0] ^ b[0], a[1] ^ b[1])] for b in pairs] for a in pairs]
    mul = [[index[(a[0] & b[0], a[1] & b[1])] for b in pairs] for a in pairs]
    path = tmp_path / "z2z2.json"
    blob = {"size": size, "add": add, "mul": mul, "names": ["0", "1", "e1", "e2"]}
    path.write_text(json.dumps(blob))
    with pytest.raises(NotLocalError):
        make_ring(f"table:{path}")


def _write_table(path, size, add, mul, names=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    table = {
        "size": size,
        "add": [[add(a, b) for b in range(size)] for a in range(size)],
        "mul": [[mul(a, b) for b in range(size)] for a in range(size)],
    }
    if names is not None:
        table["names"] = names
    path.write_text(json.dumps(table))
    return f"table:{path}"


def _z4_table(path):
    return _write_table(path, 4, lambda a, b: (a + b) % 4, lambda a, b: a * b % 4)


def _f2u2_table(path):
    # F_2[u]/<u^2> with index a = a0 + 2*a1 for a0 + a1*u.
    return _write_table(path, 4, lambda a, b: a ^ b, lambda a, b: make_ring("fpu:2,2").mul(a, b))


@pytest.mark.parametrize(
    "names, why",
    [
        (["a", "a"], "'a' is repeated"),
        (["0", ""], "'' is empty"),
        (["0", "a b"], "whitespace"),
        (["0", "a\tb"], "whitespace"),
        (["0", " a"], "whitespace"),
        (["0", "a#"], "'#'"),
    ],
)
def test_table_ring_rejects_names_that_do_not_reload(tmp_path, capsys, names, why):
    # A printed matrix must read back: with names ["a", "a"] the row 0 1
    # printed as "a a" and read back as (0, 0).
    spec = _write_table(tmp_path / "f2.json", 2, lambda a, b: a ^ b, lambda a, b: a & b, names)
    with pytest.raises(NotARingError, match=re.escape(why)):
        make_ring(spec)
    (tmp_path / "m.mat").write_text(f"ring {spec}\ncols x y\n0 1\n")
    assert main(["puncture", str(tmp_path / "m.mat"), "-X", "x"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "NotARingError" in err


def test_table_ring_names_round_trip(tmp_path):
    # F_2[u]/<u^2> with names of more than one character, one of them a
    # digit naming another element's index: every matrix prints and reloads.
    f2u2 = make_ring("fpu:2,2")
    spec = _write_table(tmp_path / "r.json", 4, lambda a, b: a ^ b, f2u2.mul, ["zero", "1", "0", "1+u"])
    ring = make_ring(spec)
    assert [ring.element_name(a) for a in range(4)] == ["zero", "1", "0", "1+u"]
    # Tokens are names only: 0 is element 2, and 2, an index, names nothing.
    assert [ring.parse_element(t) for t in ("zero", "1", "0", "1+u")] == [0, 1, 2, 3]
    with pytest.raises(BadValueError, match=re.escape(repr("2"))):
        ring.parse_element("2")
    m = Mat(ring, ["a", "b", "c", "d"], [[0, 1, 2, 3], [3, 2, 1, 0], [2, 2, 0, 3]])
    assert parse_matrix(format_matrix(m)) == m


def test_table_ring_local_json_accepted(tmp_path):
    # Z4 shipped as a table ring should round-trip the chain structure.
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"size": 4, "add": add, "mul": mul, "names": ["0", "1", "2", "3"]}))
    r = make_ring(f"table:{path}")
    assert r.is_chain
    assert r.uniformizer == 2
    assert r.nilpotency_index == 2


def test_table_ring_identity_and_cap(tmp_path, monkeypatch):
    # Same basename, different rings: the spec is the absolute path.
    z4 = make_ring(_z4_table(tmp_path / "a" / "r.json"))
    f2u2 = make_ring(_f2u2_table(tmp_path / "b" / "r.json"))
    assert z4 != f2u2 and z4.spec != f2u2.spec
    assert Mat(z4, ["1"], [[2]]) != Mat(f2u2, ["1"], [[2]])
    # The printed spec reloads the same ring from another directory.
    m = Mat(f2u2, ["1", "2"], [[1, 2], [2, 0]])
    monkeypatch.chdir(tmp_path / "a")
    assert parse_matrix(format_matrix(m)) == m
    # A relative path names the file in the current directory.
    assert make_ring("table:r.json") is z4
    monkeypatch.chdir(tmp_path / "b")
    assert make_ring("table:r.json") is f2u2
    # In a matrix file it names the file next to the matrix file.
    (tmp_path / "a" / "f.mat").write_text("ring table:r.json\ncols x\n2\n")
    assert parse_matrix_file("../a/f.mat").ring is z4
    monkeypatch.chdir(tmp_path)
    assert parse_matrix_file("a/f.mat").ring is z4
    assert parse_matrix_file(str(tmp_path / "a" / "f.mat")).ring is z4
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"size": 257, "add": [], "mul": []}))
    with pytest.raises(NotARingError, match="257 exceeds the table cap 256"):
        make_ring(f"table:{big}")


def test_table_file_rewritten_in_place_is_reloaded(tmp_path):
    # The cache is keyed on the path and the file's bytes, and so is ring
    # identity: the same spec over new contents is a new, unequal ring.
    path = tmp_path / "r.json"
    spec = _z4_table(path)
    z4 = make_ring(spec)
    assert z4.add(1, 1) == 2
    _f2u2_table(path)
    f2u2 = make_ring(spec)
    assert f2u2.spec == z4.spec
    assert f2u2 != z4 and f2u2.add(1, 1) == 0
    assert Mat(z4, ["1"], [[2]]) != Mat(f2u2, ["1"], [[2]])
    assert parse_matrix(f"ring {spec}\ncols x\n1\n").ring is f2u2
    _z4_table(path)
    assert make_ring(spec) is z4
    assert make_ring("table:f2xy_xx_yy") is make_ring("table:f2xy_xx_yy")


def _prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]
    return [(p, nu) for p in primes for nu in range(1, limit.bit_length()) if p**nu <= limit]


def test_ring_data_matches_definitions(tmp_path):
    specs = [f"{family}:{p},{nu}" for family in ("zpn", "fpu") for p, nu in _prime_powers(256)]
    specs += list(TABLE_SPECS) + [_z4_table(tmp_path / "z4.json")]
    for spec in specs:
        r = make_ring(spec)
        elements = range(r.size)
        products = [[r.mul(a, b) for b in elements] for a in elements]
        inverse = {a: row.index(1) for a, row in enumerate(products) if 1 in row}
        assert r.units == frozenset(inverse), spec
        assert all(r.inverse(a) == b for a, b in inverse.items()), spec
        assert r.maximal_ideal == frozenset(elements) - r.units, spec
        for a in elements:
            assert r.add(a, r.neg(a)) == 0, spec
        ideals = [frozenset(row) for row in products]
        assert [r.principal_ideal(a) for a in elements] == ideals, spec
        distinct = set(ideals)
        assert r.is_chain == all(i <= j or j <= i for i in distinct for j in distinct), spec
        generators = [a for a in sorted(r.maximal_ideal) if ideals[a] == r.maximal_ideal]
        assert r.uniformizer == (generators[0] if r.is_chain else None), spec
