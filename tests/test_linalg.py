import pytest

from chainmat.codes import Code, puncture
from chainmat.errors import (
    BadValueError,
    MatrixParseError,
    NotChainRingError,
    NotSquareError,
    UnknownLabelError,
)
from chainmat.indepsys import build_from_matrix
from chainmat.linalg import (
    Mat,
    det,
    format_matrix,
    parse_matrix,
    smith_normal_form,
    snf_exponents,
    systematic_form,
)
from chainmat.modindep import span
from chainmat.rings import make_ring

from helpers import CHAIN_SPECS, matmul, random_matrix, rng_for, submodule_mu

Z4 = make_ring("z:4")
Z8 = make_ring("z:8")

VAMOS = Mat(Z8, list("abcdefgh"), [
    [1, 0, 0, 1, 0, 1, 2, 1],
    [0, 1, 0, 1, 0, 1, 3, 2],
    [0, 0, 1, 1, 0, 0, 1, 7],
    [0, 0, 0, 0, 1, 1, 4, 4],
])


def test_det_examples():
    assert det(Mat(Z4, "ab", [[1, 1], [0, 2]])) == 2
    assert det(Mat(Z4, "ab", [[2, 0], [0, 2]])) == 0
    eye = Mat(Z8, "abcd", [[int(i == j) for j in range(4)] for i in range(4)])
    assert det(eye) == 1
    with pytest.raises(NotSquareError):
        det(Mat(Z4, "abc", [[1, 0, 0], [0, 1, 0]]))


def test_det_multiplicative_on_random_pairs():
    rng = rng_for("det-mult")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(rng, ring, n, n)
            b = random_matrix(rng, ring, n, n)
            ab = matmul(ring, [list(r) for r in a.rows], [list(r) for r in b.rows])
            lhs = det(Mat(ring, a.labels, ab))
            assert lhs == ring.mul(det(a), det(b))


def test_snf_diagonal_examples():
    res = smith_normal_form(Mat(Z4, "ab", [[2, 0], [0, 2]]))
    assert res.exponents == (1, 1)
    res = smith_normal_form(Mat(Z4, "ab", [[2, 1], [0, 2]]))
    assert res.exponents == (0,)
    assert res.diagonal[0][0] == 1 and res.diagonal[1][1] == 0
    # cross-check: generator count of the column span is 1
    sub = span(Z4, [(2, 0), (1, 2)])
    assert submodule_mu(sub) == 1
    pivot = VAMOS.submatrix(["a", "b", "c", "e"])
    res = smith_normal_form(pivot)
    assert res.exponents == (0, 0, 0, 0)
    assert res.diagonal == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def test_snf_soundness_random():
    rng = rng_for("snf-sound")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(120):
            k, n = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, ring, k, n)
            res = smith_normal_form(m)
            pa = matmul(ring, [list(r) for r in res.left], [list(r) for r in m.rows])
            paq = matmul(ring, pa, [list(r) for r in res.right])
            assert tuple(tuple(r) for r in paq) == res.diagonal
            assert det(Mat(ring, [str(i) for i in range(k)], res.left)) in ring.units
            assert det(Mat(ring, [str(i) for i in range(n)], res.right)) in ring.units
            assert list(res.exponents) == sorted(res.exponents)
            assert snf_exponents(ring, m.columns()) == res.exponents
            for i, row in enumerate(res.diagonal):
                for j, a in enumerate(row):
                    if i != j:
                        assert a == 0


def test_snf_mu_agreement():
    rng = rng_for("snf-mu")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(60):
            k, n = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, ring, k, n)
            sub = span(ring, m.columns(), k)
            assert len(snf_exponents(ring, m.columns())) == submodule_mu(sub)


def test_snf_transpose_invariance():
    rng = rng_for("snf-transpose")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_matrix(rng, ring, n, n)
            mt = Mat(ring, m.labels, m.columns())
            assert sorted(snf_exponents(ring, m.columns())) == sorted(
                snf_exponents(ring, mt.columns())
            )


def test_snf_requires_chain_ring():
    t8 = make_ring("table:f2xy_xx_xy_yy")
    with pytest.raises(NotChainRingError):
        smith_normal_form(Mat(t8, "ab", [[1, 0], [0, 1]]))


def test_row_ops_preserve_independence_system():
    rng = rng_for("rowops-preserve")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for _ in range(25):
            k, n = rng.randint(1, 3), rng.randint(1, 5)
            m = random_matrix(rng, ring, k, n)
            # swaps, scalings by units and row additions keep the row span
            rows = [list(r) for r in m.rows]
            for _ in range(rng.randint(1, 6)):
                kind = rng.choice(["swap", "scale", "addmul"])
                if kind == "swap" and k >= 2:
                    i, j = rng.sample(range(k), 2)
                    rows[i], rows[j] = rows[j], rows[i]
                elif kind == "scale":
                    i, u = rng.randrange(k), rng.choice(sorted(ring.units))
                    rows[i] = [ring.mul(u, a) for a in rows[i]]
                elif k >= 2:
                    i, j = rng.sample(range(k), 2)
                    c = rng.randrange(ring.size)
                    rows[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(rows[i], rows[j])]
            out = Mat(ring, m.labels, rows)
            assert build_from_matrix(out).family == build_from_matrix(m).family


def test_systematic_form():
    assert systematic_form(Mat(Z4, "abc", [[1, 2, 0], [0, 2, 2]])) is None
    sf = systematic_form(VAMOS)
    assert sf is not None
    assert sf.perm[:4] == ("a", "b", "c", "e")
    k = 4
    for i in range(k):
        for j in range(k):
            assert sf.mat.rows[i][j] == int(i == j)


def _row_mixed(rng, ring, rows):
    """The rows after a few random row operations, which keep their span."""
    rows = [list(r) for r in rows]
    for _ in range(3):
        if len(rows) >= 2:
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randrange(ring.size)
            rows[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    return rows


def test_systematic_form_preserves_row_span():
    # None exactly when the closure says the span is not free of rank k;
    # otherwise [I_k | A] spans the same rows.
    rng = rng_for("systematic-span")
    for spec in CHAIN_SPECS:
        ring = make_ring(spec)
        for trial in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(1, min(3, n))
            rows = []
            for i in range(k):
                row = [int(j == i) for j in range(k)] + [rng.randrange(ring.size) for _ in range(n - k)]
                rows.append(row)
            order = list(range(n))
            rng.shuffle(order)
            rows = [[r[j] for j in order] for r in rows]
            if trial % 4 == 1:
                rows = _row_mixed(rng, ring, rows)
            elif trial % 4 == 2:
                rows = random_matrix(rng, ring, k, n).rows
            elif trial % 4 == 3:
                k = rng.randint(1, 4)
                n = rng.randint(max(1, k - 2), 4)
                rows = _row_mixed(rng, ring, random_matrix(rng, ring, k, n).rows)
            m = Mat(ring, [str(j) for j in range(n)], rows)
            sf = systematic_form(m)
            free = len(Code.from_matrix(m).codewords) == ring.size**k
            assert (sf is not None) == free, (spec, m)
            if sf is None:
                continue
            for i in range(k):
                assert sf.mat.rows[i][:k] == tuple(int(i == j) for j in range(k))
            back = sf.mat.submatrix(m.labels)
            assert span(ring, [tuple(r) for r in back.rows], n).vectors == span(
                ring, [tuple(r) for r in m.rows], n
            ).vectors


@pytest.mark.parametrize(
    "lookup",
    [
        lambda m: m.column("zz"),
        lambda m: m.submatrix(["a", "zz"]),
        lambda m: Code.from_matrix(m).coordinate_ideal("zz"),
    ],
    ids=["column", "submatrix", "coordinate_ideal"],
)
def test_unknown_label_is_an_unknown_label_error(lookup):
    with pytest.raises(UnknownLabelError, match="^unknown label 'zz'$"):
        lookup(Mat(Z4, "ab", [[1, 2], [0, 2]]))


def test_matrix_text_roundtrip():
    for m in (VAMOS, Mat(Z4, ["1", "2"], [[2, 1], [0, 2]])):
        assert parse_matrix(format_matrix(m)) == m
    f2u = make_ring("fpu:2,2")
    m = parse_matrix("ring fpu:2,2\ncols a b\n# comment line\n1+u u\n0 1\n")
    assert m.rows == ((3, 2), (0, 1))
    assert parse_matrix(format_matrix(m)) == m
    t8 = make_ring("table:f2xy_xx_xy_yy")
    m = parse_matrix("ring table:f2xy_xx_xy_yy\ncols 1 2\nx 1+y\n0 1\n")
    assert m.rows[0] == (t8.parse_element("x"), t8.parse_element("1+y"))


def test_zero_column_matrix_text_roundtrip():
    # puncturing every coordinate leaves a code of length 0, whose generator
    # is one empty row under a bare "cols" line
    m = puncture(Code.from_matrix(VAMOS), VAMOS.labels).generator
    assert m.ncols == 0
    assert format_matrix(m) == f"ring {Z8.spec}\ncols \n\n"
    assert parse_matrix(format_matrix(m)) == m
    assert build_from_matrix(parse_matrix(format_matrix(m))).family == {0}


def test_matrix_parse_errors_carry_position():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("ring z:4\ncols a b\n1 2\n3 oops\n")
    assert err.value.line == 4
    assert err.value.column == 2
    with pytest.raises(MatrixParseError):
        parse_matrix("cols a b\n1 2\n")
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("ring z:4\ncols a b\n1 2 3\n")
    assert err.value.line == 3


def test_public_matrix_checks_every_entry():
    # the library's own matrices skip these checks (Mat._trusted); a matrix
    # built through Mat(...) keeps them, with these messages
    for labels, rows, message in (
        (["a", "a"], [[0, 1]], "column labels must be distinct"),
        (["a", "b"], [[0, 1], [1]], "row length does not match label count"),
        (["a", "b"], [[0, 4]], "entry 4 outside ring of size 4"),
        (["a", "b"], [[-1, 0]], "entry -1 outside ring of size 4"),
    ):
        with pytest.raises(BadValueError) as info:
            Mat(Z4, labels, rows)
        assert str(info.value) == message
