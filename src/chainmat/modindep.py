"""Modular independence and minimal-generator counts for submodules of R^k.

A family of vectors is modular independent when every vanishing linear
combination has all coefficients in the maximal ideal; equivalently the
span needs as many generators as there are vectors.  The generator count
is mu(V) = log_q |V| / |mV| (Nakayama), over every ring, both sizes read
off Howell forms over Z/p^a, p^a the characteristic (``howell``), without
a vector set.

``span`` lists a submodule and its radical m*V from their Howell forms
(``howell.span_words``), each vector built once; no vector set is grown
by closure here.  Every function that takes vectors checks that they have
one length and entries in the ring (``BadValueError`` otherwise).
"""

from __future__ import annotations

from .errors import BadValueError, NonIntegralDimensionError, TooManyColumnsError
from .linalg import Mat, det_rows
from .rings import Ring


def _vectors(ring: Ring, vectors, k=None) -> list:
    """``vectors`` as tuples, each of k entries (the first one's count when
    k is None) that are elements of ``ring``."""
    vectors = [tuple(v) for v in vectors]
    if k is None and vectors:
        k = len(vectors[0])
    for v in vectors:
        if len(v) != k:
            raise BadValueError(f"vector {v} has {len(v)} entries, expected {k}")
        if not all(isinstance(a, int) and 0 <= a < ring.size for a in v):
            raise BadValueError(f"vector {v} has an entry that is not an element of {ring.spec}")
    return vectors


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
    """Smallest submodule of R^k containing the given vectors, and its m*V,
    listed from their Howell forms after |V| is checked against the "span"
    guard."""
    vectors = _vectors(ring, vectors, ambient_power)
    if ambient_power is None:
        if not vectors:
            raise BadValueError("ambient power required for an empty generator list")
        ambient_power = len(vectors[0])
    from .howell import span_form, span_words  # here: only a route that runs it compiles it

    k, radical = ambient_power, ring.additive.radical_gens
    words = span_words(ring, *span_form(ring, vectors), k)
    return Submodule(ring, k, words, span_words(ring, *span_form(ring, vectors, radical), k))


def ideal_multiple(sub: Submodule) -> Submodule:
    """The submodule m*V for V = sub."""
    return span(sub.ring, sub.radical, sub.ambient_power)


def minimal_generator_count(ring: Ring, vectors) -> int:
    """Minimal number of generators of the span of ``vectors``,
    log_q |V| / |m*V| from Howell forms (``howell.span_form``)."""
    vectors = _vectors(ring, vectors)
    if not vectors:
        return 0
    from .howell import span_form  # here: only a route that runs it compiles it

    vlog = span_form(ring, vectors)[1]
    mlog = span_form(ring, vectors, ring.additive.radical_gens)[1]
    mu, rest = divmod(vlog - mlog, ring.additive.residue_degree)
    if rest:
        ratio, q = ring.additive.p**rest, ring.residue_field_size
        raise NonIntegralDimensionError(f"quotient size {ratio} is not a power of q={q} over {ring.spec}")
    return mu


def is_modular_independent(ring: Ring, vectors) -> bool:
    """True when every vanishing combination has all coefficients in m."""
    vectors = list(vectors)
    return minimal_generator_count(ring, vectors) == len(vectors)


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

    rhs is mu(X) + mu(Y) - mu(X u Y), four generator counts in all, since
    V_X + V_Y = V_{X u Y}, m(A + B) = mA + mB and |A n B| = |A| |B| / |A + B|
    for subgroups A, B.
    """
    cols = _vectors(ring, col_vectors)
    x, y = set(x_idx), set(y_idx)

    def mu(idx):
        return minimal_generator_count(ring, [cols[i] for i in idx])

    return mu(x & y), mu(x) + mu(y) - mu(x | y)
