"""Linear codes over finite local rings and their independence systems.

A code carries its full codeword set (desk scale), as the ``Submodule``
that also holds m*C, and a generator matrix whose rows are a minimal
generating set.  ``Code.from_matrix`` and ``Code.from_codeword_set`` pick
those rows by the Nakayama greedy of ``modindep.minimal_generators`` over
the matrix rows or the sorted codewords.  Over a chain ring every dual,
free or not, is read off the Smith normal form of the generator matrix,
whose scaled right-transform columns are already a minimal generating set,
so no greedy runs.  Over other rings the dual is the kernel of x -> G x
read off a Howell form over Z/p^a, with a Nakayama greedy decided by span
sizes.  Every code's size is checked against the "span" guard before its
codewords are built.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .errors import (
    BadValueError,
    ClosureTooLargeError,
    NotChainRingError,
    NotContractibleError,
    SearchSpaceTooLargeError,
    ZeroProjectionError,
)
from .linalg import Mat, label_index, smith_normal_form, snf_exponents
from .modindep import Submodule, minimal_generators, span
from .rings import Ring, guard_error, guard_limit


def _check_span_size(size: int) -> None:
    """The "span" guard, applied to a size known before the span is built."""
    limit = guard_limit()
    if size > limit:
        raise guard_error(ClosureTooLargeError, "span", size, limit)


def _span_size(ring: Ring, vectors) -> int:
    """|R-span of ``vectors``| without building it: q^sum(nu - e_i) from
    the invariant-factor exponents over a chain ring (the span is the sum
    of the theta^e_i R), p^log from a Howell form of R*v over any other."""
    if ring.is_chain:
        nu = ring.nilpotency_index
        return ring.residue_field_size ** sum(nu - e for e in snf_exponents(ring, vectors))
    from .howell import span_logs  # here: only a route that runs it compiles it

    return ring.additive.p ** span_logs(ring, vectors)[0]


class Code:
    """An R-submodule of R^E with labelled coordinates."""

    def __init__(self, labels, sub: Submodule, generator: Mat):
        self.ring = sub.ring
        self.labels = tuple(str(l) for l in labels)
        self.submodule = sub
        self.codewords = sub.vectors
        self.generator = generator

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_submodule(labels, sub: Submodule, candidates) -> "Code":
        """The code ``sub``, its generator rows chosen greedily from
        ``candidates`` (vectors that span it) in their order."""
        gens = minimal_generators(sub, candidates)
        gen = Mat(sub.ring, labels, gens if gens else [(0,) * sub.ambient_power])
        return Code(labels, sub, gen)

    @staticmethod
    def from_matrix(g: Mat) -> "Code":
        """The row span of ``g``, its size checked against the "span" guard
        before it is built; its generator rows are chosen greedily from the
        rows of ``g`` in order."""
        rows = [tuple(r) for r in g.rows]
        # k rows span at most |R|^min(k, n) words, so a smaller bound needs
        # no elimination
        if g.ring.size ** min(len(rows), g.ncols) > guard_limit():
            _check_span_size(_span_size(g.ring, rows))
        return Code.from_submodule(g.labels, span(g.ring, rows, g.ncols), rows)

    @staticmethod
    def from_codeword_set(ring: Ring, labels, codewords) -> "Code":
        """Build from an addition/scalar-closed set of words (a submodule);
        generators are chosen greedily from the sorted word list.  Words
        that are not closed (their span is larger) are an error."""
        words = sorted({tuple(c) for c in codewords})
        sub = span(ring, words, len(labels))
        if len(sub) != len(words):
            raise BadValueError(f"{len(words)} words are not a submodule: they span {len(sub)}")
        return Code.from_submodule(labels, sub, words)

    # -- basic data -----------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def generator_count(self) -> int:
        """mu_R(C): rows of the reduced generator matrix (0 for the zero code)."""
        rows = [r for r in self.generator.rows if any(r)]
        return len(rows)

    @property
    def is_free(self) -> bool:
        # over any finite local ring: free of rank mu iff the canonical
        # surjection from R^mu is injective (mu = 0 is the zero module)
        return len(self.codewords) == self.ring.size**self.generator_count

    def matroid(self) -> IndependenceSystem:
        from .indepsys import build_from_matrix  # here: the code commands never compile indepsys

        return build_from_matrix(self.generator)

    def coordinate_ideal(self, label) -> frozenset:
        """The ideal {c_e : c in C}: the span of the generator column."""
        j = label_index(self.labels, label)
        return frozenset(a for (a,) in span(self.ring, [(r[j],) for r in self.generator.rows], 1).vectors)

    def __eq__(self, other):
        return (
            isinstance(other, Code)
            and self.ring == other.ring
            and self.labels == other.labels
            and self.codewords == other.codewords
        )

    def __hash__(self):
        return hash((self.ring, self.labels, self.codewords))

    def __repr__(self):
        return f"Code({self.ring.spec}, n={self.length}, |C|={len(self.codewords)}, mu={self.generator_count})"


# -- duality -----------------------------------------------------------------


def dual_code(c: Code) -> Code:
    """The dual code.

    Over a chain ring, take L @ G @ R = D with diagonal exponents e_i
    (a missing or zero diagonal entry counts as theta^nu).  Then G x = 0
    iff x = R y with theta^e_i y_i = 0, i.e. y_i in <theta^(nu - e_i)>, so
    the dual is spanned by the columns R_i of R scaled by theta^(nu - e_i)
    (zero when e_i = 0).  Its size q^(e_1 + ... + e_n) is checked against
    the "span" guard first.  Over other rings the dual and its minimal
    generators come from Howell forms (``howell.dual_generators``), after
    |R^n| / |G R^n| is checked against the guard.

    These scaled columns are the generator rows, and they are minimal
    (Norton & Salagean, AAECC 2000): R is invertible, so y -> R y is an
    automorphism of R^n and the dual is the direct sum over e_i > 0 of
    R theta^(nu - e_i) R_i, each isomorphic to R / theta^(e_i) R.  Every R_i
    has a unit entry (a column inside m^n would put det R in m), so each
    summand is a nonzero cyclic module, which needs exactly one generator
    (Nakayama); mu of the dual is therefore #{i : e_i > 0}, the number of
    rows.  All exponents zero give the zero dual and one zero row.
    """
    ring, n = c.ring, c.length
    if ring.is_chain:
        nu, mul = ring.nilpotency_index, ring.mul
        snf = smith_normal_form(c.generator)
        exps = snf.exponents + (nu,) * (n - len(snf.exponents))
        _check_span_size(ring.residue_field_size ** sum(exps))
        gens = []
        for i, e in enumerate(exps):
            if e:
                theta = ring.uniformizer_power(nu - e)
                gens.append(tuple(mul(theta, row[i]) for row in snf.right))
    else:
        from .howell import dual_generators  # here: only a route that runs it compiles it

        # |dual| = |R^n| / |G R^n|, and G R^n is the span of G's columns
        _check_span_size(ring.size**n // _span_size(ring, c.generator.columns()))
        gens = dual_generators(ring, c.generator.rows)
    generator = Mat(ring, c.labels, gens if gens else [(0,) * n])
    return Code(c.labels, span(ring, gens, n), generator)


# -- puncturing and shortening ---------------------------------------------------


def _split_labels(c: Code, x):
    """The label set x (duplicates collapse), the labels kept in coordinate
    order and their indices; an unknown label is an error."""
    xs = frozenset(str(l) for l in x)
    for l in sorted(xs):
        label_index(c.labels, l)
    keep_idx = [j for j, l in enumerate(c.labels) if l not in xs]
    return xs, [c.labels[j] for j in keep_idx], keep_idx


def puncture(c: Code, x) -> Code:
    """Delete the coordinates in x from every codeword."""
    xs, keep, keep_idx = _split_labels(c, x)
    rows = [[row[j] for j in keep_idx] for row in c.generator.rows]
    return Code.from_matrix(Mat(c.ring, keep, rows if rows else [[]]))


def shorten(c: Code, x) -> Code:
    """Keep only codewords vanishing on x, then delete those coordinates."""
    xs, keep, keep_idx = _split_labels(c, x)
    x_idx = [j for j, l in enumerate(c.labels) if l in xs]
    words = [tuple(w[j] for j in keep_idx) for w in c.codewords if all(w[j] == 0 for j in x_idx)]
    return Code.from_codeword_set(c.ring, keep, words)


# -- contraction ------------------------------------------------------------------


class ContractionWitness(NamedTuple):
    """Codeword certifying contractibility at one coordinate: its entry
    there is a unit multiple of the projection generator and every entry
    lies in the projection ideal."""

    label: str
    codeword: tuple
    valuation: int


def is_contractible(c: Code, label) -> ContractionWitness | None:
    """Witness codeword if the code is contractible by the coordinate,
    else None."""
    ring = c.ring
    if not ring.is_chain:
        raise NotChainRingError(f"contractibility is defined over chain rings, got {ring.spec}")
    lab = str(label)
    j = label_index(c.labels, lab)
    proj = c.coordinate_ideal(lab)
    if proj == {0}:
        raise ZeroProjectionError(f"code projects to zero at {label!r}")
    t = min(ring.valuation(a) for a in proj if a)
    ideal = ring.ideal_of_valuation(t)
    for w in sorted(c.codewords):
        if w[j] and ring.valuation(w[j]) == t and all(a in ideal for a in w):
            return ContractionWitness(label=lab, codeword=w, valuation=t)
    return None


def contract_code(c: Code, x):
    """Shorten by x after certifying contractibility step by step.

    Orderings of x are searched lexicographically; the first one whose
    every step is contractible is returned with the shortened code.
    Raises NotContractibleError when no ordering works; more than 6
    coordinates are not searched (SearchSpaceTooLargeError).
    """
    xs = sorted(_split_labels(c, x)[0])
    if not xs:
        return c, ()
    if len(xs) > 6:
        raise SearchSpaceTooLargeError(f"contraction ordering guard: {len(xs)} coordinates requested, limit 6")
    for ordering in permutations(xs):
        current = c
        ok = True
        for l in ordering:
            try:
                witness = is_contractible(current, l)
            except ZeroProjectionError:
                witness = None
            if witness is None:
                ok = False
                break
            current = shorten(current, [l])
        if ok:
            return current, ordering
    raise NotContractibleError(f"no ordering of {xs} is contractible")


# -- circuits through the dual ------------------------------------------------------


def circuits_from_dual(c: Code):
    """Circuits of the code's independence system as the minimal supports
    of dual codewords having a unit coordinate."""
    from .indepsys import Clutter

    units = c.ring.units
    dual = dual_code(c)
    supports = set()
    for w in dual.codewords:
        if any(a in units for a in w):
            supports.add(frozenset(l for l, a in zip(dual.labels, w) if a))
    return Clutter.minimize(c.labels, supports)
