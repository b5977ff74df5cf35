"""Modular independence and minimal-generator counts for submodules of R^k.

A family of vectors is modular independent when every vanishing linear
combination has all coefficients in the maximal ideal; equivalently the
span needs as many generators as there are vectors.  The generator count
is mu(V) = log_q |V| / |mV| (Nakayama).  Over chain rings it is read off
the Smith normal form.  Over every other ring both sizes come from Howell
forms over Z/p^a, p^a the characteristic (``howell``), without a vector
set.

Every submodule closure (a ``Submodule`` with its vector set, for codes and
for the "enum" reference paths) goes through one guarded set sum,
``_sum_sets``, which skips every vector whose coset is already in the sum.
m*V is formed in one place, ``extend_closure``, which grows (V, m*V) by one
vector: ``span`` is its fold from ({0}, {0}), so every ``Submodule``
carries its radical m*V, which the generator counts and the Nakayama greedy
read.
"""

from __future__ import annotations

from .errors import (
    BadValueError,
    ClosureTooLargeError,
    NonIntegralDimensionError,
    TooManyColumnsError,
)
from .linalg import Mat, det_rows, snf_exponents
from .rings import Ring, guard_error, guard_limit, orbit

def _sum_sets(ring: Ring, a, b, guard: str) -> set:
    """{x + y : x in a, y in b}, where ``a`` must be a submodule (every
    caller passes one: a span or an m*V, grown by orbits).

    ``out`` is then a union of cosets y + a, so a y already in ``out`` has
    its whole coset there (Lagrange) and is skipped.  The sum costs |b|
    lookups plus exactly |a + b| vector additions, not |a|*|b|.  The guard
    is checked after each vector added, so at most limit + 1 vectors are
    built before it raises."""
    limit = guard_limit()
    add = ring.add
    out = set()
    for y in b:
        if y in out:
            continue
        for x in a:
            out.add(tuple(map(add, x, y)))
            if len(out) > limit:
                raise guard_error(ClosureTooLargeError, guard, None, limit)
    return out


def extend_closure(ring: Ring, v, mv, g) -> tuple:
    """(V + R*g, m*V + m*g) from the vector sets of a submodule V and of
    m*V (unchanged when g is in V).  m*(R*g) is the sum of the R*(t*g) over
    the generators t of m.  Every sum carries the "span" guard: m*V is
    inside V, so it cannot overflow first."""
    if g in v:
        return v, mv
    mul = ring.mul
    v = _sum_sets(ring, v, orbit(ring, g), "span")
    for t in ring.max_ideal_generators:
        mv = _sum_sets(ring, mv, orbit(ring, tuple(mul(t, a) for a in g)), "span")
    return v, mv


class Submodule:
    """An explicit finite submodule V of R^k: its vector set and m*V.
    Equal, and hashed, by the vector set alone."""

    __slots__ = ("ring", "ambient_power", "vectors", "radical")

    def __init__(self, ring: Ring, ambient_power: int, vectors: frozenset, radical: frozenset):
        self.ring = ring
        self.ambient_power = ambient_power
        self.vectors = vectors
        self.radical = radical

    def __repr__(self):
        return (f"Submodule(ring={self.ring!r}, ambient_power={self.ambient_power!r}, "
                f"vectors={self.vectors!r}, radical={self.radical!r})")

    def __len__(self):
        return len(self.vectors)

    def __eq__(self, other):
        return isinstance(other, Submodule) and self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)


def span(ring: Ring, vectors, ambient_power=None) -> Submodule:
    """Smallest submodule of R^k containing the given vectors, and its m*V."""
    vectors = [tuple(v) for v in vectors]
    if ambient_power is None:
        if not vectors:
            raise BadValueError("ambient power required for an empty generator list")
        ambient_power = len(vectors[0])
    v = mv = {(0,) * ambient_power}
    for g in vectors:
        v, mv = extend_closure(ring, v, mv, g)
    return Submodule(ring, ambient_power, frozenset(v), frozenset(mv))


def ideal_multiple(sub: Submodule) -> Submodule:
    """The submodule m*V for V = sub."""
    return span(sub.ring, sub.radical, sub.ambient_power)


def minimal_generators(sub: Submodule, candidates) -> list:
    """A minimal generating set of ``sub`` picked from ``candidates``
    (vectors that span it) in order: v is kept unless v is in span(kept) +
    m*sub.  By Nakayama's lemma the kept vectors generate sub."""
    acc = sub.radical
    kept = []
    for v in candidates:
        if v in acc:
            continue
        kept.append(v)
        acc = _sum_sets(sub.ring, acc, orbit(sub.ring, v), "minimal generators")
    return kept


def _log_residue(ring: Ring, ratio: int) -> int:
    q = ring.residue_field_size
    d = 0
    while ratio > 1:
        if ratio % q:
            raise NonIntegralDimensionError(
                f"quotient size {ratio} is not a power of q={q} over {ring.spec}"
            )
        ratio //= q
        d += 1
    return d


def generator_count_of_submodule(sub: Submodule) -> int:
    """dim over the residue field of V / mV, i.e. the minimal number of
    generators, computed from cardinalities."""
    return _log_residue(sub.ring, len(sub) // len(sub.radical))


def minimal_generator_count(ring: Ring, vectors, method: str = "auto") -> int:
    """Minimal number of generators of the span of ``vectors``.

    ``method`` forces a code path: "snf" (chain rings only), "enum"
    (vector sets), or "auto": SNF over a chain ring, else |V| and |m*V|
    from Howell forms (``howell.span_logs``).
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return 0
    if method == "auto" and not ring.is_chain:
        from .howell import span_logs  # here: only a route that runs it compiles it

        vlog, mlog = span_logs(ring, vectors)
        return _log_residue(ring, ring.additive.p ** (vlog - mlog))
    if method in ("auto", "snf"):
        return len(snf_exponents(ring, vectors))
    if method == "enum":
        return generator_count_of_submodule(span(ring, vectors))
    raise BadValueError(f"unknown method {method!r}")


def is_modular_independent(ring: Ring, vectors, method: str = "auto") -> bool:
    """True when every vanishing combination has all coefficients in m."""
    vectors = list(vectors)
    return minimal_generator_count(ring, vectors, method) == len(vectors)


def has_trivial_annihilator(ring: Ring, vector) -> bool:
    """Membership in psi(V): over a finite ring, exactly the vectors with
    some unit coordinate."""
    units = ring.units
    return any(a in units for a in vector)


def has_nonzero_maximal_minor(m: Mat) -> bool:
    """Sufficient test for modular independence of the columns: some
    l x l minor (l = ncols) is nonzero.  The converse fails."""
    k, l = m.nrows, m.ncols
    if l > k:
        raise TooManyColumnsError(f"{l} columns but only {k} rows")
    from itertools import combinations

    for rowsel in combinations(range(k), l):
        rows = [[m.rows[i][j] for j in range(l)] for i in rowsel]
        if det_rows(m.ring, rows) != 0:
            return True
    return False


def submodularity_gap(ring: Ring, col_vectors, x_idx, y_idx):
    """Data for the chain-ring submodularity criterion on index sets X, Y.

    Returns (lhs, rhs) where the rank function of the induced independence
    system is submodular at (X, Y) iff lhs <= rhs:
    lhs = generators of V_{X&Y}, rhs = dim (V_X n V_Y)/(mV_X n mV_Y).
    """
    vx = span(ring, [col_vectors[i] for i in x_idx], len(col_vectors[0]))
    vy = span(ring, [col_vectors[i] for i in y_idx], len(col_vectors[0]))
    vxy = span(ring, [col_vectors[i] for i in set(x_idx) & set(y_idx)], len(col_vectors[0]))
    inter = vx.vectors & vy.vectors
    minter = vx.radical & vy.radical
    lhs = generator_count_of_submodule(vxy)
    rhs = _log_residue(ring, len(inter) // len(minter))
    return lhs, rhs
