"""Spans over a finite local ring sized by Howell forms over Z/p^a.

A finite local ring R has characteristic p^a, and (R, +) embeds in
(Z/p^a)^d, additively and injectively (``additive_coordinates``; it is
``Ring.additive``).  Applied entrywise to R^k, the embedding preserves the
size of every subgroup, and it carries R-submodules to Z/p^a-spans: with b
over additive generators of R and t over those of m, R*v is the additive
span of the b*v (r = sum c_i b_i gives r*v = sum c_i b_i*v) and m*v that
of the t*v.  ``howell_insert`` keeps a Howell form of such a span, which
gives its size exactly without building a vector set, so the generator
count mu(V) = log_q |V| / |mV| (Nakayama) and a dual code's kernel come
from integer row operations.  A form is a list with a slot per coordinate:
the row led there, or ``None``.  Insertion reads valuations, unit-part
inverses and p^(a-e) from tables built once per ring (``AdditiveCoordinates``).
As mV only grows, |V| / |mV| grows by at most what |V| does, so
``indepsys.build_from_matrix`` grows mV only after V grew by a factor of
at least q, and less than |R| (R*v then splits off as a free summand).

A Howell form also lists its span, each vector once (``span_words``):
the one enumeration of a span outside ``oracle``.

``indepsys`` and ``modindep`` import this module when a route that needs
it first runs; ``codes``, which holds every code as a Howell form, when it
loads.  A command that takes none of these never compiles it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ClosureTooLargeError
from .rings import Ring, _factor_prime_power, guard_error, guard_limit


def howell_insert(form: list, row, additive) -> int:
    """Insert ``row``, a list of integers modulo p^a, into the Howell form
    ``form`` in place and return by how much log_p of its span's size grew;
    p, a and the ring's tables of Z/p^a come from ``additive``.

    ``form`` has a slot per column: the one row led there (zero before that
    column, p^e with e < a at it), or ``None``.  A row is reduced by the
    stored row at its lead while that row's lead divides its own; otherwise
    it is scaled by the inverse of its unit part and stored, the row it
    displaces (whose lead it now divides) goes on being reduced, and
    p^(a-e) times it, zero at its lead, is inserted too.  That re-insertion
    keeps the Howell property (Howell 1986; Storjohann & Mulders, ESA
    1998): the vectors of the span that vanish before a column are spanned
    by the stored rows led at or after it.  Every vector of the span is
    then sum c_j * row_j with 0 <= c_j < p^(a - e_j) in exactly one way (the
    first nonzero c_j would make its lead entry c_j * p^e_j nonzero), so
    |span| = prod p^(a - e_j).
    """
    a, valuation, unit_inverse = additive.exponent, additive.valuation, additive.unit_inverse
    cofactor = additive.cofactor
    q, n = cofactor[0], len(row)
    r, j, grown = row, 0, 0
    pending = None  # rows still to insert, each with the column before which it is zero
    while True:
        while j < n:
            x = r[j]
            if not x:
                j += 1
                continue
            h = form[j]
            if h is not None:
                y = h[j]
                if x % y == 0:
                    c = x // y
                    r = [(s - c * t) % q for s, t in zip(r, h)]
                    j += 1
                    continue
            e, u = valuation[x], unit_inverse[x]
            if u != 1:
                r = [s * u % q for s in r]
            form[j] = r
            grown += a - e
            if e:
                pending = pending or []
                pending.append(([s * cofactor[e] % q for s in r], j + 1))
            if h is None:
                break
            # the displaced row's lead y = p^f (f > e) is now divisible
            grown -= a - valuation[y]
            r = h
        if not pending:
            return grown
        r, j = pending.pop()


# -- additive coordinates ------------------------------------------------------------


class AdditiveCoordinates(NamedTuple):
    """(R, +) inside (Z/p^a)^d, where p^a is the characteristic of R.

    ``coords[x]`` is the image of the element x, a d-tuple of integers
    modulo p^a; the map is additive and injective, and ``element`` inverts
    it on its image.  ``ring_gens`` and ``radical_gens`` generate R and its
    maximal ideal m as abelian groups.  ``residue_degree`` is f with
    q = p^f.  ``howell_insert`` reads three tables of Z/p^a: for x = p^e * u
    (u prime to p), ``valuation[x]`` is e and ``unit_inverse[x]`` is u^-1
    modulo p^a; ``cofactor[e]`` is p^(a - e) for 0 <= e <= a.
    """

    p: int
    exponent: int
    coords: tuple
    element: dict
    ring_gens: tuple
    radical_gens: tuple
    residue_degree: int
    valuation: tuple
    unit_inverse: tuple
    cofactor: tuple


def _multiples(add, x) -> list:
    """[0, x, 2x, ..., (o - 1)x] for o the additive order of x."""
    out, y = [0], x
    while y:
        out.append(y)
        y = add(y, x)
    return out


def _times(add, x, k: int):
    """k*x, by doubling."""
    out = 0
    while k:
        if k & 1:
            out = add(out, x)
        x = add(x, x)
        k >>= 1
    return out


def _cyclic_basis(group, add, p: int) -> list:
    """Elements g_1, g_2, ... such that ``group`` (a finite abelian p-group
    given as a set of elements with its addition, 0 the identity) is the
    direct sum of the cyclic groups <g_i>, largest first.

    Brute force, for groups of at most ``rings.MAX_RING_SIZE`` elements:
    the next g is the first element of largest order whose cyclic group
    meets the sum K so far only in 0 and keeps K + <g> pure
    (p^n G & K = p^n K for every n).  It always exists: a pure subgroup of a
    finite abelian group is a direct summand, and K plus the cyclic group
    of an element of largest order in a complement of K is again one.  In
    characteristic p purity is automatic and this is a greedy F_p basis.
    Orders come from the table of p*x; a cyclic group is listed only for
    an element tried outside K."""
    times_p = {x: _times(add, x, p) for x in group}

    layers = [set(group)]  # p^n G for n = 0, 1, ... until it is {0}
    while len(layers[-1]) > 1:
        layers.append({times_p[x] for x in layers[-1]})

    def pure(k: set) -> bool:
        pk = k
        for layer in layers[1:]:
            pk = {times_p[x] for x in pk}
            if not layer & k <= pk:
                return False
        return True

    order = {}
    for x in group:
        y, o = x, 1
        while y:
            y, o = times_p[y], o * p
        order[x] = o
    candidates = sorted(group, key=lambda x: (-order[x], x))
    cyclic = {}
    span, basis = {0}, []
    while len(span) < len(group):
        for x in candidates:
            if x in span:
                continue
            cyc = cyclic.get(x)
            if cyc is None:
                cyc = cyclic[x] = _multiples(add, x)
            if any(y in span for y in cyc[1:]):
                continue
            k = {add(s, y) for s in span for y in cyc}
            if pure(k):
                span = k
                basis.append(x)
                break
    return basis


def additive_coordinates(ring: Ring) -> AdditiveCoordinates:
    """The coordinates of (R, +), from ``add`` alone.

    The additive order of 1 is the characteristic p^a, which every
    element's order divides.  A cyclic basis g_i of (R, +), g_i of order
    p^(a_i), gives the coordinates of sum c_i g_i as the integers
    c_i * p^(a - a_i) modulo p^a."""
    add = ring.add
    p, a = _factor_prime_power(len(_multiples(add, 1)))
    basis = _cyclic_basis(range(ring.size), add, p)
    coords = {0: ()}
    for g in basis:
        mult = _multiples(add, g)
        scale = p**a // len(mult)
        coords = {add(x, y): c + (i * scale,) for x, c in coords.items() for i, y in enumerate(mult)}
    q, valuation = p**a, [0] * p**a
    for e in range(1, a + 1):
        valuation[:: p**e] = [e] * (q // p**e)
    return AdditiveCoordinates(
        p=p,
        exponent=a,
        coords=tuple(coords[x] for x in range(ring.size)),
        element={c: x for x, c in coords.items()},
        ring_gens=tuple(basis),
        radical_gens=tuple(_cyclic_basis(ring.maximal_ideal, add, p)),
        residue_degree=_factor_prime_power(ring.residue_field_size)[1],
        valuation=tuple(valuation),
        unit_inverse=(0,) + tuple(pow(x // p**e, -1, q) for x, e in enumerate(valuation[1:], 1)),
        cofactor=tuple(p ** (a - e) for e in range(a + 1)),
    )


# -- submodule sizes ------------------------------------------------------------------


def rows_over(ring: Ring, v, gens) -> list:
    """Rows of integers modulo p^a, the coordinates of the b*v over the
    elements b of ``gens``: over ``ring_gens`` (the additive generators of
    R) their Z/p^a-span is R*v, over ``radical_gens`` (those of m) m*v."""
    coords, mul = ring.additive.coords, ring.mul
    return [[c for x in v for c in coords[mul(b, x)]] for b in gens]


def grow(ring: Ring, form: list, rows) -> int:
    """Insert ``rows`` into the Howell form ``form`` in place; return the
    growth of log_p of its span's size."""
    return sum(howell_insert(form, row, ring.additive) for row in rows)


def span_sizes(ring: Ring, vectors) -> tuple:
    """(Howell form of V, log_p |V|, Howell form of m*V, log_p |m*V|) for
    V the span of ``vectors``."""
    return span_form(ring, vectors) + span_form(ring, vectors, ring.additive.radical_gens)


def span_words(ring: Ring, form: list, log: int, n: int) -> frozenset:
    """The vectors of R^n spanned by the Howell form ``form``, log_p of
    their number ``log``, which is first checked against the "span" guard.
    With each row h_j (led by p^e_j) mapped back to R^n, they are the sums
    of the c_j*h_j, 0 <= c_j < p^(a - e_j), formed by ring addition; each
    is such a sum in exactly one way (``howell_insert``), so built once."""
    additive, add = ring.additive, ring.add
    limit = guard_limit()
    if additive.p**log > limit:
        raise guard_error(ClosureTooLargeError, "span", additive.p**log, limit)
    q, d, element = additive.p**additive.exponent, len(additive.coords[0]), additive.element
    words = [(0,) * n]
    for lead, row in enumerate(form):
        if row is None:
            continue
        h = tuple(element[tuple(row[t:t + d])] for t in range(0, n * d, d))
        multiples = [h]
        for _ in range(q // row[lead] - 2):
            multiples.append(tuple(map(add, multiples[-1], h)))
        words += [tuple(map(add, w, c)) for c in multiples for w in words]
    return frozenset(words)


# -- codes -------------------------------------------------------------------------------


def reduced_form(form: list, p: int, a: int) -> tuple:
    """The reduced Howell form of the span of the Howell form ``form``
    (which is not changed): its rows in lead order, each entry above a lead
    p^e reduced modulo p^e.

    A pass over the leads in increasing order subtracts from every earlier
    row the multiple of the row led at j that leaves its entry at j below
    the lead.  That row is zero before j, so entries at earlier leads stay
    reduced, and the rows led at or after any column keep their span, so
    the Howell property holds.  The reduced Howell form of a span is unique
    (Howell 1986; Storjohann & Mulders, ESA 1998): two spans are equal
    exactly when their reduced forms are."""
    q = p**a
    leads = [j for j, h in enumerate(form) if h is not None]
    rows = [form[j] for j in leads]
    for t, j in enumerate(leads):
        h = rows[t]
        y = h[j]
        for i in range(t):
            c = rows[i][j] // y
            if c:
                rows[i] = [(s - c * u) % q for s, u in zip(rows[i], h)]
    return tuple(map(tuple, rows))


def span_form(ring: Ring, vectors, gens=None) -> tuple:
    """A Howell form of the span V of ``vectors`` (vectors of R^n) in the
    additive coordinates of R^n, and log_p of the span's size; with
    ``gens`` the additive generators of m (``radical_gens``), of m*V; the
    form has a slot per coordinate, or none without vectors."""
    additive = ring.additive
    over = additive.ring_gens if gens is None else gens
    form = [None] * (len(additive.coords[0]) * len(vectors[0]) if vectors else 0)
    return form, grow(ring, form, [row for v in vectors for row in rows_over(ring, v, over)])


def generators_among(ring: Ring, generators, candidates, full=None) -> tuple:
    """(kept, form, log) of the Nakayama greedy over ``candidates``, in
    order, vectors of the span C of ``generators``: v is kept unless R*v
    adds nothing to the span of the kept vectors plus m*C (spanned by the
    t*g), decided by Howell sizes, that is unless v lies in it.  By
    Nakayama's lemma the kept vectors generate C, and none is redundant.
    The form starts as one of m*C and takes in each kept R*v; given
    ``full`` = log_p |C|, the greedy stops once it gets there, after which
    nothing would be kept."""
    additive = ring.additive
    form, log = span_form(ring, generators, additive.radical_gens)
    kept = []
    for v in candidates:
        if log == full:
            break
        trial = form[:]
        grown = grow(ring, trial, rows_over(ring, v, additive.ring_gens))
        if grown:
            kept.append(v)
            form, log = trial, log + grown
    return kept, form, log


def vanishing_part(ring: Ring, vectors, k: int) -> list:
    """Vectors that span the part of the span of ``vectors`` vanishing on
    the first k coordinates, each with those coordinates dropped.

    By the Howell property the rows of a Howell form of the span led after
    the first k coordinate blocks span that part additively, hence as an
    R-module; each block of d integers in such a row is the image of one
    element of R."""
    additive = ring.additive
    d = len(additive.coords[0])
    element = additive.element
    form = span_form(ring, vectors)[0]
    return [tuple(element[tuple(row[t:t + d])] for t in range(k * d, len(row), d))
            for row in form[k * d:] if row]


def dual_generators(ring: Ring, rows) -> tuple:
    """(kept, form, log) of D = {x in R^n : G x = 0}, for the matrix G with
    the given rows (at least one, each of length n): a minimal generating
    set of D, a Howell form of D and log_p |D|.

    The vectors (G e_j, e_j) of R^(k+n) span the graph {(G x, x)} of
    x -> G x, whose part vanishing on the first k coordinates is
    {0} x D (``vanishing_part``); the Nakayama greedy over those vectors
    (``generators_among``) keeps a minimal generating set of D and ends
    with a Howell form of it."""
    n = len(rows[0])
    graph = [tuple(row[j] for row in rows) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    spanning = vanishing_part(ring, graph, len(rows))
    return generators_among(ring, spanning, spanning)
