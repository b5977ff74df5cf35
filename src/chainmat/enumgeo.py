"""Counting formulas, projective-line constructions, and size bounds for
matroid representations over chain rings."""

from __future__ import annotations

from math import log10

from .errors import (
    BadTorsionIndexError,
    BadValueError,
    ClosureTooLargeError,
    NotChainRingError,
)
from .rings import Ring, guard_error, guard_limit, orbit

# CPython's default limit on converting an int to decimal text.
MAX_ANSWER_DIGITS = 4300


class ModuleShape:
    """Multiplicities (k_0, ..., k_{nu-1}) of the invariant-factor summands:
    k_0 free copies of R, then k_i copies of R/<theta^(nu-i)>."""

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities: tuple):
        if any(k < 0 for k in multiplicities):
            raise BadValueError("multiplicities must be nonnegative")
        self.multiplicities = multiplicities

    def __repr__(self):
        return f"ModuleShape(multiplicities={self.multiplicities!r})"

    def __eq__(self, other):
        return isinstance(other, ModuleShape) and self.multiplicities == other.multiplicities

    def __hash__(self):
        return hash(self.multiplicities)

    def component_valuations(self) -> list:
        """One valuation per summand; summand of valuation t is the ideal
        <theta^t> inside R (isomorphic to R/<theta^(nu-t)>)."""
        out = []
        for t, k in enumerate(self.multiplicities):
            out.extend([t] * k)
        return out


def _require_chain(ring: Ring):
    if not ring.is_chain:
        raise NotChainRingError(f"{ring.spec} is not a chain ring")


def _require_printable(log10_answer: float, argument: str):
    """Refuse an answer of more than MAX_ANSWER_DIGITS decimal digits,
    judged from its logarithm before any power is formed."""
    if log10_answer >= MAX_ANSWER_DIGITS:
        raise BadValueError(f"{argument} is too large: the answer has more than {MAX_ANSWER_DIGITS} digits")


def _torsion_exponent(shape: ModuleShape, ring: Ring, s: int) -> int:
    _require_chain(ring)
    nu = ring.nilpotency_index
    if len(shape.multiplicities) > nu:
        raise BadTorsionIndexError("shape has more summand kinds than the nilpotency index")
    return sum(k * min(s, nu - t) for t, k in enumerate(shape.multiplicities))


def torsion_subgroup_size(shape: ModuleShape, ring: Ring, s: int) -> int:
    """|U[theta^s]| = q^(sum_i k_i min(s, nu - i))."""
    return ring.residue_field_size ** _torsion_exponent(shape, ring, s)


def count_cyclic_submodules(shape: ModuleShape, ring: Ring, s: int) -> int:
    """Number of cyclic submodules of the shaped module isomorphic to
    R/<theta^s>:  (|U[theta^s]| - |U[theta^(s-1)]|) / (q^(s-1) (q-1))."""
    _require_chain(ring)
    nu = ring.nilpotency_index
    if not 1 <= s <= nu:
        raise BadTorsionIndexError(f"s={s} outside 1..{nu}")
    q = ring.residue_field_size
    hi, lo = _torsion_exponent(shape, ring, s), _torsion_exponent(shape, ring, s - 1)
    if hi > lo:
        log10_count = (hi - s + 1) * log10(q) + log10(1 - q ** (lo - hi)) - log10(q - 1)
        _require_printable(log10_count, "shape " + ",".join(map(str, shape.multiplicities)))
    num = q**hi - q**lo
    den = q ** (s - 1) * (q - 1)
    assert num % den == 0
    return num // den


def projective_line(ring: Ring) -> list:
    """Representatives {(1, r)} u {(l, 1) : l in m}, sorted lexicographically.

    Every pair is modular independent (unit 2x2 determinant) and every
    triple is dependent; the count is |R| + |m|.
    """
    _require_chain(ring)
    vecs = [(1, r) for r in range(ring.size)]
    vecs += [(l, 1) for l in sorted(ring.maximal_ideal)]
    return sorted(vecs)


def uniform_rank2_representation(ring: Ring, n: int) -> Mat | None:
    """A 2 x n matrix representing the rank-2 uniform matroid on n
    elements, or None when n exceeds |R| + |m| (then no representation
    exists at all)."""
    from .linalg import Mat  # here: bound and counting never compile linalg

    _require_chain(ring)
    if n < 1:
        raise BadValueError("n must be positive")
    line = projective_line(ring)
    if n > len(line):
        return None
    cols = line[:n]
    labels = [str(i + 1) for i in range(n)]
    return Mat(ring, labels, [[v[0] for v in cols], [v[1] for v in cols]])


def simple_size_bound(ring: Ring, k: int) -> int:
    """Maximal ground-set size of a simple matroid with a free rank-k
    representation: the number of cyclic submodules of R^k generated by
    primitive vectors."""
    _require_chain(ring)
    if k < 1:
        raise BadValueError("k must be positive")
    q, nu = ring.residue_field_size, ring.nilpotency_index
    _require_printable(((nu - 1) * (k - 1) + k) * log10(q) + log10(1 - q ** -k) - log10(q - 1), f"k={k}")
    return q ** ((nu - 1) * (k - 1)) * (q**k - 1) // (q - 1)


def cyclic_submodules(ring: Ring, k: int) -> list:
    """All cyclic submodules of R^k as frozensets of vectors."""
    from itertools import product

    limit = guard_limit()
    if ring.size**k > limit:
        raise guard_error(ClosureTooLargeError, "cyclic submodules", ring.size**k, limit)
    seen = {frozenset(orbit(ring, v)) for v in product(range(ring.size), repeat=k)}
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def max_antichain(sets) -> int:
    """Width of a family of sets ordered by inclusion.

    By Dilworth's theorem the width is the fewest chains that cover the
    family, and a cover by c chains is a set of |P| - c pairs X < Y, each
    set paired at most once below and once above (each set with the next
    one up its chain).  So the width is |P| less a maximum matching of the
    bipartite graph of strict inclusions (Fulkerson 1956), found here by
    augmenting paths (Kuhn), in O(|P| * edges) steps.
    ``oracle.max_antichain_by_search`` is the exhaustive reference."""
    sets = sorted(set(sets), key=len)
    above = [[j for j in range(i + 1, len(sets)) if x < sets[j]] for i, x in enumerate(sets)]
    below = [None] * len(sets)  # below[j]: the set matched under j
    for root in range(len(sets)):
        # depth first for a path root < j_1, below[j_1] < j_2, ... ending at
        # an unmatched j; path holds the j taken from each entry of stack
        seen, path, stack = set(), [], [(root, iter(above[root]))]
        while stack:
            j = next((j for j in stack[-1][1] if j not in seen), None)
            if j is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(j)
            if below[j] is None:
                for (i, _), t in zip(stack, path + [j]):
                    below[t] = i
                break
            path.append(j)
            stack.append((below[j], iter(above[below[j]])))
    return len(sets) - sum(i is not None for i in below)


def cyc_antichain_bound(ring: Ring, k: int) -> int:
    """Width of the inclusion order on cyclic submodules of R^k; an upper
    bound on the ground-set size of any simple representation in R^k.

    Over a chain ring it is ``simple_size_bound(ring, k)``, the number of
    free cyclic submodules.  A cyclic X = Rv != 0 is a quotient of R, so
    its submodules form the chain X > theta X > ... > 0.  Every non-free
    cyclic Y is theta X for some X (R theta^s u = theta R theta^(s-1) u,
    u primitive), and no free one is.  Picking one such X above each
    non-free Y is injective (X fixes Y = theta X), so following the picks
    upward splits the poset into chains, one topped by each free cyclic
    submodule.  An antichain meets each chain at most once, and the free
    ones, distinct and of one size, are an antichain.  Off chain rings it
    is ``max_antichain`` of the ``cyclic_submodules``."""
    if ring.is_chain:
        return simple_size_bound(ring, k)
    return max_antichain(cyclic_submodules(ring, k))
