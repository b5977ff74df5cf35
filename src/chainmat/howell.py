"""Spans over a finite local ring sized by Howell forms over Z/p^a.

A finite local ring R has characteristic p^a, and (R, +) embeds in
(Z/p^a)^d, additively and injectively (``additive_coordinates``; it is
``Ring.additive``).  Applied entrywise to R^k, the embedding preserves the
size of every subgroup, and it carries R-submodules to Z/p^a-spans: with b
over additive generators of R and t over those of m, R*v is the additive
span of the b*v (r = sum c_i b_i gives r*v = sum c_i b_i*v) and m*v that
of the t*v.  An ``inserter`` keeps a Howell form of such a span, which
gives its size exactly without building a vector set, so the generator
count mu(V) = log_q |V| / |mV| (Nakayama) and a dual code's kernel come
from integer row operations.  A form is a list with a slot per coordinate:
the row led there, or ``None``.  Insertion reads valuations, unit-part
inverses and p^(a-e) from tables built once per ring (``AdditiveCoordinates``).
As mV only grows, |V| / |mV| grows by at most what |V| does, so
``indepsys.build_from_matrix`` grows mV only after V grew by a factor of
at least q, and less than |R| (R*v then splits off as a free summand).

A row is one integer, a w-bit lane per coordinate (lowest first) holding
its entry reduced modulo q = p^a, so the lowest set bit gives the lead.  A
row operation (r - c*h as r + (q - c)*h, or a scaling) is a multiply-add
leaving each lane below q^2, then reduced in all lanes at once as
v - q*((v*M >> s) & LOW), 2^s >= q^3, M = ceil(2^s / q), w = bitlen(q^2 M),
LOW the low w - s bits of each lane.  A lane's v*M is below 2^w, so lanes do
not overlap, and LOW keeps floor(v*M / 2^s) = floor(v/q): with M*q = 2^s + eps,
0 <= eps < q (0 if q = 2^a), the error v*eps / (q 2^s) < q^3 / q^4 = 1/q,
and v/q is 1/q or more below an integer.

When a = 1, Z/p is the field F_p and every nonzero lane value is a unit:
a stored row is scaled to lead 1, which divides every lead, so no stored
row is ever displaced and nothing is re-inserted.  The form is an echelon
basis over F_p, a row is reduced by r - x*h at its lead x until it is zero
or stored, and each stored row adds 1 to log_p.  When q = 2 every lane
holds 0 or 1, so that step is r ^= h: lane-wise addition modulo 2, which
carries nothing, and ``inserter`` takes it in a loop of its own.

An ``inserter`` grows a form in place; an ``extender`` reduces one row by
a form it leaves as it is and returns the residual, the grown copy and the
growth.  ``build_from_matrix`` holds a span as unit pivots plus a Howell
form of its part N zero at their lanes, tests a set by one ``extend`` of
N's form, and carries the residual down its walk.  Over Z/p^a (d = 1) a
parent with N = 0 tests by one step r - c*h at its pivot h, which holds 1
in the lane where the row holds c (``eliminator``, bound once per build);
``unit_pivot`` scales a residual with a unit lane to such a pivot, and
``radical_rows`` forms p*y, whose span is m*y there.

Every path reads two things that depend only on the ring, and so are kept
beside its coordinates.  ``images[b]`` maps x to the packed image of b*x,
for each additive generator b of R and of m (``packed`` itself for b = 1),
filled the first time each x is read: at most |R| entries per generator,
and ``ring.mul`` is called once per (b, x) however many rows are formed.
``kernels`` holds one bound ``inserter`` and ``extender`` per lane count
(``kernel``).

A Howell form also lists its span, each vector once (``span_words``):
the one enumeration of a span outside ``oracle``.

``indepsys`` and ``modindep`` import this module when a route that needs
it first runs; ``codes``, which holds every code as a Howell form, when it
loads.  A command that takes none of these never compiles it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import ClosureTooLargeError
from .rings import Ring, _factor_prime_power, guard_error, guard_limit


@lru_cache(maxsize=None)
def _low(w: int, s: int, lanes: int) -> int:
    """LOW of the lane reduction (module docstring): the low w - s bits of
    each of ``lanes`` lanes."""
    return ((1 << w - s) - 1) * (((1 << w * lanes) - 1) // ((1 << w) - 1))


def lane_constants(q: int) -> tuple:
    """(w, s, M) of the lane reduction modulo q (module docstring)."""
    s = (q**3 - 1).bit_length()
    m = -(-(1 << s) // q)
    return (q * q * m).bit_length(), s, m


def _vector(row: int, additive, k: int, n: int) -> tuple:
    """The elements of R whose images are the blocks k to n - 1 of ``row``."""
    bits = additive.barrett[0] * len(additive.coords[0])
    return tuple(additive.element[row >> bits * t & (1 << bits) - 1] for t in range(k, n))


def inserter(additive, lanes: int):
    """``insert(form, row)``, which inserts the packed ``row`` (module
    docstring) into the Howell form ``form`` of ``lanes`` lanes in place and
    returns by how much log_p of its span's size grew; p, a, the lane
    constants and the tables of Z/p^a come from ``additive`` and are bound
    here; ``kernel`` keeps one such binding per lane count.

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
    |span| = prod p^(a - e_j).  Each step is a multiply-add and the lane
    reduction (module docstring).  For q = 2 it takes the XOR step of the
    module docstring, which stores the same rows.
    """
    a, q, unit_inverse = additive.exponent, additive.cofactor[0], additive.unit_inverse
    w, s, m = additive.barrett
    if q == 2:

        def insert(form: list, r: int) -> int:
            while r:
                j = ((r & -r).bit_length() - 1) // w
                h = form[j]
                if h is None:
                    form[j] = r
                    return 1
                r ^= h
            return 0

        return insert
    low, mask = _low(w, s, lanes), (1 << w) - 1
    valuation, cofactor = additive.valuation, additive.cofactor

    def insert(form: list, row: int) -> int:
        r, grown, pending = row, 0, []  # pending: rows still to insert
        while True:
            while r:
                j = ((r & -r).bit_length() - 1) // w
                x = r >> w * j & mask
                h = form[j]
                if h is not None:
                    y = h >> w * j & mask
                    if x % y == 0:
                        r += (q - x // y) * h
                        r -= q * (r * m >> s & low)
                        continue
                e, u = valuation[x], unit_inverse[x]
                if u != 1:
                    r *= u
                    r -= q * (r * m >> s & low)
                form[j] = r
                grown += a - e
                if e:
                    t = r * cofactor[e]
                    pending.append(t - q * (t * m >> s & low))
                if h is None:
                    break
                # the displaced row's lead y = p^f (f > e) is now divisible
                grown -= a - valuation[y]
                r = h
            if not pending:
                return grown
            r = pending.pop()

    return insert


def extender(additive, lanes: int, insert):
    """``extend(form, row) -> (residual, new form, growth)``: what the
    packed ``row`` adds to the Howell form ``form`` of ``lanes`` lanes,
    which is left as it is; the tables are ``inserter``'s, and ``insert``
    is the bound inserter it hands rows to.

    ``row`` is reduced as in ``insert`` while the stored lead divides its
    own, with no copy of the form, so the residual differs from ``row`` by
    a vector of the span.  A zero residual (``row`` in the span) gives
    ``(0, None, 0)``.  One that reaches an empty slot with a unit lead
    (every nonzero lead when a = 1) displaces nothing, and p^a times it is
    zero: scaled by the unit's inverse, it is stored in a copy of the form,
    and log_p grows by a.  Any other goes to ``insert`` on a copy.  For
    q = 2 it takes the XOR step.
    """
    a, q, unit_inverse = additive.exponent, additive.cofactor[0], additive.unit_inverse
    w, s, m = additive.barrett
    if q == 2:

        def extend(form: list, r: int) -> tuple:
            while r:
                j = ((r & -r).bit_length() - 1) // w
                h = form[j]
                if h is None:
                    new = form[:]
                    new[j] = r
                    return r, new, 1
                r ^= h
            return 0, None, 0

        return extend
    low, mask, valuation = _low(w, s, lanes), (1 << w) - 1, additive.valuation

    def extend(form: list, r: int) -> tuple:
        while r:
            j = ((r & -r).bit_length() - 1) // w
            x = r >> w * j & mask
            h = form[j]
            if h is None:
                if valuation[x]:
                    break
                new, u = form[:], unit_inverse[x]
                if u == 1:
                    new[j] = r
                else:
                    t = r * u
                    new[j] = t - q * (t * m >> s & low)
                return r, new, a
            y = h >> w * j & mask
            if x % y:
                break
            r += (q - x // y) * h
            r -= q * (r * m >> s & low)
        else:
            return 0, None, 0
        new = form[:]
        return r, new, insert(new, r)

    return extend


def eliminator(additive, lanes: int):
    """``eliminate(row, pivot, shift) -> row'``: the packed ``row`` of
    ``lanes`` lanes less c times ``pivot``, for c its entry in the lane at
    bit ``shift``, where ``pivot`` holds 1, so that ``row'`` is zero there;
    one step r + (q - c)*h and the lane reduction (module docstring), none
    when c is 0.  A pivot 0 leaves every row as it is.  Meant for a ring
    whose additive group is cyclic (d = 1), where a lane's arithmetic is
    the ring's: ``indepsys.build_from_matrix`` takes this step on free
    spans."""
    q, (w, s, m) = additive.cofactor[0], additive.barrett
    low, mask = _low(w, s, lanes), (1 << w) - 1

    def eliminate(r: int, h: int, shift: int) -> int:
        c = r >> shift & mask
        if c:
            r += (q - c) * h
            r -= q * (r * m >> s & low)
        return r

    return eliminate


def unit_pivot(additive, lanes: int, row: int):
    """``(shift, pivot)`` for the lowest lane of the packed ``row`` that
    holds a unit, at bit ``shift``, and ``row`` scaled by its inverse to 1
    there; ``None`` when no lane does, that is when p^(a-1) * row is zero
    (d = 1, as in ``eliminator``)."""
    q, (w, s, m) = additive.cofactor[0], additive.barrett
    low = _low(w, s, lanes)
    t = row * additive.cofactor[1]
    t -= q * (t * m >> s & low)
    if not t:
        return None
    shift = ((t & -t).bit_length() - 1) // w * w
    u = additive.unit_inverse[row >> shift & (1 << w) - 1]
    if u != 1:
        row *= u
        row -= q * (row * m >> s & low)
    return shift, row


def radical_rows(additive, lanes: int):
    """``rows(y) -> (p*y,)``: the packed row p*y of ``lanes`` lanes, whose
    Z/p^a-span is m*y when m = pR (d = 1, as in ``eliminator``)."""
    p, q, (w, s, m) = additive.p, additive.cofactor[0], additive.barrett
    low = _low(w, s, lanes)

    def rows(y: int) -> tuple:
        y *= p
        return (y - q * (y * m >> s & low),)

    return rows


def kernel(additive, lanes: int) -> tuple:
    """``(insert, extend)`` of ``inserter`` and ``extender`` for ``lanes``
    lanes, bound once per lane count and kept in ``additive.kernels``."""
    pair = additive.kernels.get(lanes)
    if pair is None:
        insert = inserter(additive, lanes)
        pair = additive.kernels[lanes] = insert, extender(additive, lanes, insert)
    return pair


# -- additive coordinates ------------------------------------------------------------


class AdditiveCoordinates(NamedTuple):
    """(R, +) inside (Z/p^a)^d, where p^a is the characteristic of R.

    ``coords[x]`` is the image of the element x, a d-tuple of integers
    modulo p^a, and ``packed[x]`` is it as d lanes (module docstring); the
    map is additive and injective, and ``element`` inverts ``packed``.
    ``ring_gens`` and ``radical_gens`` generate R and its maximal ideal m as
    abelian groups.  ``residue_degree`` is f with q = p^f.  ``inserter``
    reads three tables of Z/p^a: for x = p^e * u (u prime to p),
    ``valuation[x]`` is e and ``unit_inverse[x]`` is u^-1 modulo p^a;
    ``cofactor[e]`` is p^(a - e) for 0 <= e <= a; ``barrett`` is (w, s, M)
    of ``lane_constants(p^a)``.  ``images[b]``, for b in ``ring_gens`` and
    ``radical_gens``, maps x to ``packed[b*x]``, filled on first read
    (``packed`` for b = 1); ``kernels`` maps a lane count to its bound
    ``inserter`` and ``extender`` (``kernel``).
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
    barrett: tuple
    packed: tuple
    images: dict
    kernels: dict


class _Images(dict):
    """x -> packed[b*x] for one ring element b, each entry filled from
    ``mul`` the first time it is read."""

    __slots__ = ("b", "mul", "packed")

    def __init__(self, b: int, mul, packed: tuple):
        super().__init__()
        self.b, self.mul, self.packed = b, mul, packed

    def __missing__(self, x: int) -> int:
        image = self[x] = self.packed[self.mul(self.b, x)]
        return image


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
    c_i * p^(a - a_i) modulo p^a.  1, of largest order, is ``ring_gens[0]``."""
    add = ring.add
    p, a = _factor_prime_power(len(_multiples(add, 1)))
    basis = _cyclic_basis(range(ring.size), add, p)
    coords = {0: ()}
    for g in basis:
        mult = _multiples(add, g)
        scale = p**a // len(mult)
        coords = {add(x, y): c + (i * scale,) for x, c in coords.items() for i, y in enumerate(mult)}
    q, valuation, barrett = p**a, [0] * p**a, lane_constants(p**a)
    packed = tuple(sum(c << barrett[0] * i for i, c in enumerate(coords[x])) for x in range(ring.size))
    for e in range(1, a + 1):
        valuation[:: p**e] = [e] * (q // p**e)
    radical_gens = tuple(_cyclic_basis(ring.maximal_ideal, add, p))
    return AdditiveCoordinates(
        p=p,
        exponent=a,
        coords=tuple(coords[x] for x in range(ring.size)),
        element={image: x for x, image in enumerate(packed)},
        ring_gens=tuple(basis),
        radical_gens=radical_gens,
        residue_degree=_factor_prime_power(ring.residue_field_size)[1],
        valuation=tuple(valuation),
        unit_inverse=(0,) + tuple(pow(x // p**e, -1, q) for x, e in enumerate(valuation[1:], 1)),
        cofactor=tuple(p ** (a - e) for e in range(a + 1)),
        barrett=barrett,
        packed=packed,
        images={b: packed if b == 1 else _Images(b, ring.mul, packed) for b in (*basis, *radical_gens)},
        kernels={},
    )


# -- submodule sizes ------------------------------------------------------------------


def rows_over(ring: Ring, v, gens) -> list:
    """Packed rows, the coordinates of the b*v over the elements b of
    ``gens``, d lanes per entry: over ``ring_gens`` (additive generators of
    R) their Z/p^a-span is R*v, over ``radical_gens`` (those of m) m*v.
    Each entry's image is read off ``images[b]`` (module docstring)."""
    additive = ring.additive
    images, width = additive.images, additive.barrett[0] * len(additive.coords[0])
    rows = []
    for b in gens:
        image, r = images[b], 0
        for x in reversed(v):
            r = r << width | image[x]
        rows.append(r)
    return rows


def span_words(ring: Ring, form: list, log: int, n: int) -> frozenset:
    """The vectors of R^n spanned by the Howell form ``form``, log_p of
    their number ``log``, which is first checked against the "span" guard.
    With each row h_j (led by p^e_j) mapped back to R^n, they are the sums
    of the c_j*h_j, 0 <= c_j < p^(a - e_j), formed by ring addition; each
    is such a sum in exactly one way (``inserter``), so built once."""
    additive, add = ring.additive, ring.add
    limit = guard_limit()
    if additive.p**log > limit:
        raise guard_error(ClosureTooLargeError, "span", additive.p**log, limit)
    q, w = additive.cofactor[0], additive.barrett[0]
    words = [(0,) * n]
    for lead, row in enumerate(form):
        if row is None:
            continue
        h = _vector(row, additive, 0, n)
        multiples = [h]
        for _ in range(q // (row >> w * lead & (1 << w) - 1) - 2):
            multiples.append(tuple(map(add, multiples[-1], h)))
        words += [tuple(map(add, w, c)) for c in multiples for w in words]
    return frozenset(words)


# -- codes -------------------------------------------------------------------------------


def span_form(ring: Ring, vectors, gens=None) -> tuple:
    """A Howell form of the span V of ``vectors`` (vectors of R^n) in the
    additive coordinates of R^n, and log_p of the span's size; with
    ``gens`` the additive generators of m (``radical_gens``), of m*V; the
    form has a slot per coordinate, or none without vectors."""
    additive = ring.additive
    over = additive.ring_gens if gens is None else gens
    form = [None] * (len(additive.coords[0]) * len(vectors[0]) if vectors else 0)
    insert = kernel(additive, len(form))[0]
    return form, sum(insert(form, row) for v in vectors for row in rows_over(ring, v, over))


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
    insert, kept = kernel(additive, len(form))[0], []
    for v in candidates:
        if log == full:
            break
        trial = form[:]
        grown = sum(insert(trial, row) for row in rows_over(ring, v, additive.ring_gens))
        if grown:
            kept.append(v)
            form, log = trial, log + grown
    return kept, form, log


def vanishing_part(ring: Ring, vectors, k: int) -> tuple:
    """(spanning, log): vectors that span the part of the span of
    ``vectors`` vanishing on the first k coordinates, each with those
    coordinates dropped, and log_p of that part's size.

    By the Howell property the rows of a Howell form of the span led after
    the first k coordinate blocks span that part additively, hence as an
    R-module; they are a Howell form of it, so log is the sum of a - e_j
    over their leads p^e_j (``inserter``).  Each block of d lanes in such a
    row is the image of one element of R."""
    additive = ring.additive
    a, valuation, d, w = additive.exponent, additive.valuation, len(additive.coords[0]), additive.barrett[0]
    form = span_form(ring, vectors)[0]
    spanning, log = [], 0
    for j in range(k * d, len(form)):
        row = form[j]
        if row:
            spanning.append(_vector(row, additive, k, len(form) // d))
            log += a - valuation[row >> w * j & (1 << w) - 1]
    return spanning, log


def dual_generators(ring: Ring, rows) -> tuple:
    """(kept, form, log) of D = {x in R^n : G x = 0}, for the matrix G with
    the given rows (at least one, each of length n): a minimal generating
    set of D, a Howell form of D and log_p |D|.

    The vectors (G e_j, e_j) of R^(k+n) span the graph {(G x, x)} of
    x -> G x, whose part vanishing on the first k coordinates is
    {0} x D (``vanishing_part``, which gives log_p |D| too); the Nakayama
    greedy over those vectors (``generators_among``) keeps a minimal
    generating set of D, stops once its form reaches |D|, and ends with a
    Howell form of D."""
    n = len(rows[0])
    graph = [tuple(row[j] for row in rows) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    spanning, log = vanishing_part(ring, graph, len(rows))
    return generators_among(ring, spanning, spanning, log)
