"""Linear codes over finite local rings and their independence systems.

A code is generator-first.  It holds its labelled generator rows, a
minimal generating set, and a Howell form of its span in the additive
coordinates of R (``howell``), so its size p^(sum of a - e_j over the
leads p^e_j) and its freeness are read off the form, and two codes C and
D are equal when |C| = |D| = |C + D|, three sizes of Howell forms.
``Code.from_matrix`` picks the generator rows from the matrix rows in
order by the size-decided Nakayama greedy (``howell.generators_among``).
Puncturing re-forms the punctured generator rows; shortening by X reads
C n {x_X = 0} off a Howell form whose first coordinates are X's, and
the contractibility witness is a row of a Howell form of C n (m^t)^n.
The dual is read off a Howell form over every ring (``dual_code``).  No
codeword is built by any of them, nor by the dual or a contraction.  Their
generator matrices hold rows the library made (tuples of ring elements,
one per label), so they are built unchecked (``Mat._trusted``); a matrix
given to ``from_matrix`` was checked when it was made, and the words given
to ``from_codeword_set`` are checked by ``Mat``.

The codeword set (``codewords``) is listed from the Howell form on first
read and then kept, after |C| is checked against the "span" guard.  Only
the printed dual form of ``chainmat dual-code`` (``word_generators``) and
``circuits_from_dual`` read it, their answers being defined by the words.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .errors import (
    BadValueError,
    NotChainRingError,
    NotContractibleError,
    SearchSpaceTooLargeError,
    ZeroProjectionError,
)
from .howell import (
    dual_generators,
    generators_among,
    span_form,
    span_words,
    vanishing_part,
)
from .linalg import Mat, label_index
from .rings import Ring


class Code:
    """An R-submodule C of R^E with labelled coordinates: its generator
    matrix (a minimal generating set, or one zero row for the zero code),
    a Howell form of C and log_p |C|; the codewords are listed when read."""

    def __init__(self, generator: Mat, form: list, log: int):
        self.ring = generator.ring
        self.labels = generator.labels
        self.generator = generator
        self._form = form
        self._log = log
        self._words = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_matrix(g: Mat) -> "Code":
        """The row span of ``g``, its generator rows chosen greedily from the
        rows of ``g`` in order; no codeword is built."""
        return _from_rows(g.ring, g.labels, g.rows)

    @staticmethod
    def from_codeword_set(ring: Ring, labels, codewords) -> "Code":
        """Build from an addition/scalar-closed set of words (a submodule);
        generators are chosen greedily from the sorted word list.  Words
        that are not closed (their span is larger) are an error.  The
        words and labels come from the caller, so the generator matrix is
        built by the checking ``Mat``."""
        words = sorted({tuple(c) for c in codewords})
        gens, log = vanishing_part(ring, words, 0)  # the rows of a Howell form of their span
        if ring.additive.p**log != len(words):
            raise BadValueError(f"{len(words)} words are not a submodule: they span {ring.additive.p**log}")
        kept, form, log = generators_among(ring, gens, words, log)
        return Code(Mat(ring, labels, kept or [(0,) * len(labels)]), form, log)

    # -- basic data -----------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """|C|, read off the Howell form."""
        return self.ring.additive.p**self._log

    @property
    def generator_count(self) -> int:
        """mu_R(C): rows of the reduced generator matrix (0 for the zero code)."""
        return sum(map(any, self.generator.rows))

    @property
    def is_free(self) -> bool:
        # over any finite local ring: free of rank mu iff the canonical
        # surjection from R^mu is injective (mu = 0 is the zero module)
        return self.size == self.ring.size**self.generator_count

    @property
    def codewords(self) -> frozenset:
        """The words of C, listed from its Howell form on first read, after
        |C| is checked against the "span" guard (``howell.span_words``)."""
        if self._words is None:
            self._words = span_words(self.ring, self._form, self._log, self.length)
        return self._words

    def matroid(self) -> IndependenceSystem:
        from .indepsys import build_from_matrix  # here: the code commands never compile indepsys

        return build_from_matrix(self.generator)

    def coordinate_ideal(self, label) -> frozenset:
        """The ideal {c_e : c in C}: the span of the generator column."""
        j = label_index(self.labels, label)
        form, log = span_form(self.ring, [(r[j],) for r in self.generator.rows])
        return frozenset(a for (a,) in span_words(self.ring, form, log, 1))

    def __eq__(self, other):
        # |C + D| = |C| exactly when D lies in C
        return (
            isinstance(other, Code)
            and self.ring == other.ring
            and self.labels == other.labels
            and self._log == other._log == span_form(self.ring, self.generator.rows + other.generator.rows)[1]
        )

    def __hash__(self):
        return hash((self.ring, self.labels, self._log))

    def __repr__(self):
        return f"Code({self.ring.spec}, n={self.length}, |C|={self.size}, mu={self.generator_count})"


def _code(ring: Ring, labels, gens, form, log) -> Code:
    """The code generated by ``gens``, a minimal generating set (empty for
    the zero code) of tuples the library made; ``form`` and ``log`` are its
    Howell form and log_p |C|."""
    return Code(Mat._trusted(ring, tuple(labels), tuple(gens) or ((0,) * len(labels),)), form, log)


def _from_rows(ring: Ring, labels, rows) -> Code:
    """The span of ``rows``, generated by those the Nakayama greedy keeps."""
    return _code(ring, labels, *generators_among(ring, rows, rows))


# -- duality -----------------------------------------------------------------


def dual_code(c: Code) -> Code:
    """The dual code, its minimal generator rows and its Howell form, from
    the generator rows alone (``howell.dual_generators``), over every ring:
    no codeword is built.  Reading the dual's codewords checks its size
    against the "span" guard.
    """
    return _code(c.ring, c.labels, *dual_generators(c.ring, c.generator.rows))


def word_generators(c: Code) -> Mat:
    """The generator rows that ``Code.from_codeword_set`` keeps from the
    sorted words of C, the form ``chainmat dual-code`` prints: the Nakayama
    greedy over them from m*C, formed from C's own generator rows, up to
    the first word at which the kept rows span C."""
    kept = generators_among(c.ring, c.generator.rows, sorted(c.codewords), c._log)[0]
    return Mat(c.ring, c.labels, kept or [(0,) * c.length])


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
    """Delete the coordinates in x from every codeword: the span of the
    punctured generator rows."""
    xs, keep, keep_idx = _split_labels(c, x)
    return _from_rows(c.ring, keep, [tuple(row[j] for j in keep_idx) for row in c.generator.rows])


def shorten(c: Code, x) -> Code:
    """Keep only codewords vanishing on x, then delete those coordinates.

    With x's coordinates put first, ``howell.vanishing_part`` of the
    generator rows spans those codewords without them and gives log_p of
    their number, at which the Nakayama greedy over them stops."""
    xs, keep, keep_idx = _split_labels(c, x)
    order = [j for j, l in enumerate(c.labels) if l in xs] + keep_idx
    rows = [tuple(row[j] for j in order) for row in c.generator.rows]
    spanning, log = vanishing_part(c.ring, rows, len(xs))
    return _code(c.ring, keep, *generators_among(c.ring, spanning, spanning, log))


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
    else None; no codeword of C is listed.

    The generator column at j spans the coordinate ideal m^t.  A witness
    is a word of D = C n (m^t)^n whose j-entry has valuation t, and D is
    the part of C that theta^(nu - t) kills (m^t = ann(theta^(nu - t))),
    which ``howell.vanishing_part`` of the graph rows (theta^(nu - t) g, g)
    over the generator rows g spans additively.  m^(t+1) is a subgroup, so
    D has such a word iff one of those rows does; the first is returned."""
    ring = c.ring
    if not ring.is_chain:
        raise NotChainRingError(f"contractibility is defined over chain rings, got {ring.spec}")
    lab = str(label)
    j = label_index(c.labels, lab)
    column = [row[j] for row in c.generator.rows if row[j]]
    if not column:
        raise ZeroProjectionError(f"code projects to zero at {label!r}")
    t = min(map(ring.valuation, column))
    theta, mul = ring.uniformizer_power(ring.nilpotency_index - t), ring.mul
    graph = [tuple(mul(theta, a) for a in row) + row for row in c.generator.rows]
    for w in vanishing_part(ring, graph, c.length)[0]:
        if ring.valuation(w[j]) == t:
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
