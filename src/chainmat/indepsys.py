"""Independence systems on small ground sets.

Subsets are bitmasks over an ordered label tuple and the independent
family is stored explicitly, so axiom checks, circuits, duals and
isomorphism all reduce to set algebra.  Ground sets are capped at 16
elements.  A family, and a clutter's members, are also held as a 2^n-bit
integer (bit m set for each member m), so validation, circuits, the rank
table, the dual and the clutter operations each take O(n) big-integer
shifts, and label sets are formed only where the API returns them; the
library's own families and clutters skip re-validation (``_from_bits``).
``build_from_matrix`` walks the independent column sets depth-first over
extension masks, each column's row carried down the walk already reduced
one level up.  Each set's span is held as F (+) N: F free, as unit pivots
over Z/p^a (a ring whose additive group is cyclic), one row per column
scaled to 1 at its own lane and zero at the lanes of the pivots before it,
and N inside W, the rows zero at every pivot lane, as Howell forms of N
and m*N.  R^k = F (+) W: F & W = 0 by that triangularity (the first
nonzero coefficient of a vector of F shows at its pivot's lane), and
reducing at the pivots in order takes any row into W.  With N = 0, g's
row reduced so is a y in W with g - y in F, and mu(F (+) R*y) =
mu(F) + [y != 0]: P + g is independent iff y != 0, the field rule, and
stays free iff y has a unit lane, else is handed over with N = R*y.  Above
it, and over a ring with d > 1 lanes per entry (F = 0), a set is decided
by the growth of N's forms (``build_from_matrix``); ``check_matroid``
decides the augmentation axiom from the rank table and reads the
violators of each failing set off the family's bitset.  The byte-lane
tables (ranks, X(I), the lanes of e outside X) come from one 8x8
bit-matrix transpose of up to eight 2^n-bit sets at a time (``_planes``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import NamedTuple

from .errors import (
    BadValueError,
    ContractDependentSetError,
    GroundSetTooLargeError,
    UnknownLabelError,
)
from .linalg import Mat
from .modindep import minimal_generator_count
from .rings import _factor_prime_power

MAX_GROUND = 16
MAX_BACKTRACK = 10

# -- power-set bitsets: a family of masks over n elements is a 2^n-bit integer
# with bit m set for each member m, so a question about the whole subset
# lattice takes n shifts of it (Yates's zeta transform)

_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")
_BIT_COUNT = bytes(map(int.bit_count, range(256)))


@lru_cache(maxsize=None)
def _lows(n: int) -> tuple:
    """For each element i < n, the set of the masks without i, doubled
    from the sets over n - 1 elements (shifted by 2^(n-1), element n - 1
    added); for n - 1 itself, the masks below 2^(n-1)."""
    if not n:
        return ()
    half = 1 << (n - 1)
    return tuple(lo | lo << half for lo in _lows(n - 1)) + ((1 << half) - 1,)


@lru_cache(maxsize=None)
def _larger(n: int) -> tuple:
    """For each k <= n, the set of the masks with more than k elements,
    doubled from the sets over n - 1 elements (those with more than k,
    and shifted by 2^(n-1), those with more than k - 1)."""
    if not n:
        return (0,)
    half, prev = 1 << (n - 1), _larger(n - 1)
    return tuple(hi | lo << half for lo, hi in zip(((1 << half) - 1,) + prev, prev + (0,)))


def _bits(masks, n: int) -> int:
    """The set of ``masks``, each in [0, 2^n)."""
    top = (1 << n) - 1
    buf = bytearray(b"0") * (top + 1)
    for m in masks:
        buf[top - m] = 49  # "1"; the string is read most significant first
    return int(buf, 2)


def _flags(bits: int, n: int) -> bytes:
    """2^n bytes, byte m 1 when mask m is in the set and 0 otherwise."""
    return format(bits, f"0{1 << n}b").encode().translate(_ZERO_ONE)[::-1]


@lru_cache(maxsize=None)
def _transpose_masks(n: int) -> tuple:
    """The masks of the three delta swaps of an 8x8 bit-matrix transpose
    (Warren, *Hacker's Delight*, 7-3), repeated over every 64-bit word of
    2^n bytes (one word when n < 3)."""
    words = ((1 << (64 << max(n - 3, 0))) - 1) // ((1 << 64) - 1)
    return tuple(m * words for m in (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0))


def _planes(sets, n: int) -> bytes:
    """2^n bytes, bit i of byte m set when mask m is in sets[i], for at
    most eight sets: set i's bytes go to bytes i, i + 8, ... of a buffer,
    so each 64-bit word w is an 8x8 bit matrix (row i: masks 8w to 8w + 7
    in set i), and one transpose of every word at once moves mask m's bit
    of row i to bit i of byte m."""
    size = max(1 << n >> 3, 1)
    buf = bytearray(8 * size)
    for i, bits in enumerate(sets):
        buf[i::8] = bits.to_bytes(size, "little")
    x = int.from_bytes(buf, "little")
    for shift, mask in zip((7, 14, 28), _transpose_masks(n)):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x.to_bytes(8 * size, "little")[: 1 << n]


def _masks(bits: int, n: int) -> list:
    """The masks in the set, in increasing order."""
    return list(compress(range(1 << n), _flags(bits, n)))


def _inside(bits: int, x: int, n: int) -> int:
    """The masks of the set that are subsets of the mask ``x``."""
    for i, lo in enumerate(_lows(n)):
        if not x >> i & 1:
            bits &= lo
    return bits


def _shrink(bits: int, n: int) -> int:
    """The masks that are a member less one element."""
    out = 0
    for i, lo in enumerate(_lows(n)):
        out |= (bits & ~lo) >> (1 << i)
    return out


def _above(bits: int, n: int) -> int:
    """The masks that strictly contain a member: after element i, ``out``
    holds those whose excess over some member lies in {0, ..., i}."""
    out = 0
    for i, lo in enumerate(_lows(n)):
        out |= ((bits | out) & lo) << (1 << i)
    return out


def _byte_tables(values, zero) -> tuple:
    """Two 256-entry lists: entry b of the first is ``zero`` plus the
    values[i] over the bits i of b, of the second the same over the
    values[8 + i].  Built by doubling, so entry m & 255 of the first plus
    entry m >> 8 of the second sums ``values`` over the bits of mask m."""
    tables = []
    for part in (values[:8], values[8:]):
        table = [zero]
        for v in part:
            table += [t + v for t in table]
        tables.append(table)
    return tuple(tables)


def _label_tuples(labels):
    """mask -> the tuple of its labels, in label order."""
    lo, hi = _byte_tables([(l,) for l in labels], ())
    return lambda m: lo[m & 255] + hi[m >> 8]


def _ground(labels) -> tuple:
    """``labels`` as a tuple of strings, which must be distinct and at most
    MAX_GROUND."""
    labels = tuple(str(l) for l in labels)
    if len(labels) > MAX_GROUND:
        raise GroundSetTooLargeError(f"{len(labels)} > {MAX_GROUND} elements")
    if len(set(labels)) != len(labels):
        raise BadValueError("ground set labels must be distinct")
    return labels


class IndependenceSystem:
    """Ground set plus an explicitly stored downward-closed family."""

    def __init__(self, labels, independent_masks):
        labels = _ground(labels)
        fam = frozenset(independent_masks)
        if 0 not in fam:
            raise BadValueError("the empty set must be independent")
        n = len(labels)
        if min(fam) < 0 or max(fam) >> n:
            raise BadValueError("independent mask outside the ground set")
        bits = _bits(fam, n)
        if _shrink(bits, n) & ~bits:
            raise BadValueError("independent family is not downward closed")
        self._set(labels, bits, fam)

    @classmethod
    def _from_bits(cls, labels: tuple, bits: int, family=None) -> "IndependenceSystem":
        """The system whose family is ``bits``, for families the library
        made: ``labels`` is as ``_ground`` returns it and ``bits`` is taken
        to be downward closed with the empty set in it, unchecked.
        ``family`` is its set of masks, when the caller holds it."""
        self = cls.__new__(cls)
        self._set(labels, bits, frozenset(_masks(bits, len(labels)) if family is None else family))
        return self

    def _set(self, labels: tuple, bits: int, family: frozenset):
        self.labels = labels
        self.family = family
        self._bits = bits
        self._index = {l: i for i, l in enumerate(labels)}
        self._rank_table = None

    # -- subset plumbing --------------------------------------------------

    def mask_of(self, subset) -> int:
        m = 0
        for l in subset:
            i = self._index.get(str(l))
            if i is None:
                raise UnknownLabelError(f"unknown label {l!r}")
            m |= 1 << i
        return m

    def subset_of(self, mask: int) -> frozenset:
        return frozenset(compress(self.labels, bin(mask)[:1:-1].encode().translate(_ZERO_ONE)))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def is_independent(self, subset) -> bool:
        return self.mask_of(subset) in self.family

    def independent_sets(self) -> list:
        label_tuple = _label_tuples(self.labels)
        return [sorted(label_tuple(m)) for m in sorted(self.family, key=lambda m: (m.bit_count(), m))]

    # -- rank --------------------------------------------------------------

    def _ranks(self) -> bytes:
        """Byte m is the rank of mask m.  The family is downward closed, so
        r(X) >= k iff X lies in U_k, the upward closure of the members with
        at least k elements (the members strictly above those of U_k have
        at least k + 1).  U_1 contains U_2 contains ..., so the transpose
        (``_planes``) of eight of them at a time has 2^r - 1 in byte X, for
        r the number of them holding X; a bit count maps it to r, and the
        two groups are added when the rank is above 8."""
        if self._rank_table is None:
            n = len(self.labels)
            closures, members = [], self._bits ^ 1  # the nonempty members
            while members:
                above = _above(members, n)
                closures.append(members | above)
                members = self._bits & above
            table = _planes(closures[:8], n).translate(_BIT_COUNT)
            if len(closures) > 8:
                high = int.from_bytes(_planes(closures[8:], n).translate(_BIT_COUNT), "little")
                table = (int.from_bytes(table, "little") + high).to_bytes(1 << n, "little")
            self._rank_table = table
        return self._rank_table

    def rank(self, subset=None) -> int:
        mask = self.full_mask if subset is None else self.mask_of(subset)
        return self._ranks()[mask]

    # -- derived objects -----------------------------------------------------

    def _circuit_bits(self) -> int:
        """The minimal non-members: the non-members that strictly contain
        no non-member."""
        n = len(self.labels)
        dependent = self._bits ^ ((1 << (1 << n)) - 1)
        return dependent & ~_above(dependent, n)

    def circuits(self) -> "Clutter":
        """The minimal non-members, as a clutter."""
        return Clutter._from_bits(self.labels, self._circuit_bits())

    def bases(self) -> list:
        r = self.rank()
        return [m for m in self.family if m.bit_count() == r]

    def is_pure(self) -> bool:
        """Every maximal member has the same size."""
        maximal = _masks(self._bits & ~_shrink(self._bits, len(self.labels)), len(self.labels))
        return len({m.bit_count() for m in maximal}) <= 1

    def dual(self) -> "IndependenceSystem":
        """Dual via rank complementation: X independent in the dual iff
        the complement of X still has full rank.  Byte y of the rank table,
        read as a binary digit, is the digit 2^n - 1 - y places from the
        top, which is the bit of y's complement.  The dual is downward
        closed: X <= Y and r(E - Y) = r(E) give r(E - X) = r(E)."""
        ranks = self._ranks()
        top = ranks[-1]  # the largest rank
        digits = b"0" * top + b"1" + b"0" * (255 - top)
        return IndependenceSystem._from_bits(self.labels, int(ranks.translate(digits), 2))

    def dual_rank(self, subset) -> int:
        """|X| + r(E - X) - r(E) (not the rank function of the dual unless
        the system is pure)."""
        mask = self.mask_of(subset)
        ranks = self._ranks()
        return mask.bit_count() + ranks[self.full_mask & ~mask] - ranks[self.full_mask]

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, IndependenceSystem)
            and self.labels == other.labels
            and self.family == other.family
        )

    def __hash__(self):
        return hash((self.labels, self.family))

    def __repr__(self):
        return f"IndependenceSystem({list(self.labels)}, {len(self.family)} independent sets)"


def _label_set(labels, t) -> frozenset:
    """``t`` as a set of labels, each of which must be one of ``labels``."""
    t = frozenset(map(str, t))
    unknown = sorted(t.difference(labels))
    if unknown:
        raise UnknownLabelError(f"unknown label {unknown[0]!r}")
    return t


def _label_masks(labels, sets) -> dict:
    """{bitmask over ``labels``: label set} for the sets ``sets`` of labels."""
    bit = {l: 1 << i for i, l in enumerate(labels)}
    return {sum(map(bit.__getitem__, t)): t for t in (_label_set(labels, s) for s in sets)}


class Clutter:
    """An antichain of nonempty subsets of a ground set, held like a
    system's family as a 2^n-bit integer (bit m set for each member m);
    ``members`` is its label sets."""

    def __init__(self, labels, members):
        labels = _ground(labels)
        by_mask = _label_masks(labels, members)
        if 0 in by_mask:
            raise BadValueError("clutter members must be nonempty")
        bits = _bits(by_mask, len(labels))
        above = bits & _above(bits, len(labels))
        if above:
            b = above.bit_length() - 1
            a = next(a for a in by_mask if a != b and a & b == a)
            raise BadValueError(f"clutter is not an antichain: {set(by_mask[a])} < {set(by_mask[b])}")
        self._set(labels, bits)

    @classmethod
    def _from_bits(cls, labels: tuple, bits: int) -> "Clutter":
        """The clutter whose members are ``bits``, for antichains the
        library made: ``labels`` is as ``_ground`` returns it and ``bits``
        is taken to be an antichain without the empty set, unchecked."""
        self = cls.__new__(cls)
        self._set(labels, bits)
        return self

    def _set(self, labels: tuple, bits: int):
        self.labels = labels
        self._bits = bits
        self.members = frozenset(map(frozenset, map(_label_tuples(labels), _masks(bits, len(labels)))))

    @staticmethod
    def minimize(labels, sets) -> "Clutter":
        """The inclusion-minimal members of ``sets``, empty sets dropped."""
        labels = _ground(labels)
        n = len(labels)
        bits = _bits(_label_masks(labels, sets), n) & ~1
        return Clutter._from_bits(labels, bits & ~_above(bits, n))

    def _drop(self, gone: int, masks) -> tuple:
        """(labels, bits) of the ground set less the mask ``gone`` and of
        ``masks`` (which miss ``gone``) on it, each element's bit moved
        down past the removed ones below it."""
        n = len(self.labels)
        moved = [0 if gone >> i & 1 else 1 << (~gone & ((1 << i) - 1)).bit_count() for i in range(n)]
        lo, hi = _byte_tables(moved, 0)
        labels = tuple(l for i, l in enumerate(self.labels) if not gone >> i & 1)
        return labels, _bits([lo[m & 255] + hi[m >> 8] for m in masks], len(labels))

    def delete(self, t) -> "Clutter":
        [gone] = _label_masks(self.labels, [t])
        kept = _inside(self._bits, ~gone, len(self.labels))
        return Clutter._from_bits(*self._drop(gone, _masks(kept, len(self.labels))))

    def contract(self, t) -> "Clutter":
        [gone] = _label_masks(self.labels, [t])
        n = len(self.labels)
        inside = _inside(self._bits, gone, n)
        if inside:
            label_tuple = _label_tuples(self.labels)
            member = (inside & -inside).bit_length() - 1
            raise ContractDependentSetError(
                f"{sorted(label_tuple(gone))} contains the member {sorted(label_tuple(member))}"
            )
        labels, bits = self._drop(gone, [m & ~gone for m in _masks(self._bits, n)])
        return Clutter._from_bits(labels, bits & ~_above(bits, len(labels)))

    def loops(self) -> frozenset:
        return frozenset(l for i, l in enumerate(self.labels) if self._bits >> (1 << i) & 1)

    def isthmuses(self) -> frozenset:
        return frozenset(l for l, lo in zip(self.labels, _lows(len(self.labels))) if not self._bits & ~lo)

    def to_system(self) -> IndependenceSystem:
        """Independent sets = subsets containing no member."""
        n = len(self.labels)
        dependent = self._bits | _above(self._bits, n)
        return IndependenceSystem._from_bits(self.labels, dependent ^ ((1 << (1 << n)) - 1))

    def __eq__(self, other):
        return (
            isinstance(other, Clutter)
            and set(self.labels) == set(other.labels)
            and self.members == other.members
        )

    def __hash__(self):
        return hash((frozenset(self.labels), self.members))

    def __repr__(self):
        body = sorted(sorted(m) for m in self.members)
        return f"Clutter({list(self.labels)}, {body})"


class MatroidReport(NamedTuple):
    """Outcome of the exchange-axiom certification."""

    is_matroid: bool
    violations: list  # pairs (I1, I2) of label frozensets with no augmentation
    rank: int
    is_simple: bool
    loops: list
    parallel_pairs: list


def build_from_matrix(a: Mat) -> IndependenceSystem:
    """Column independence system of a matrix: S independent iff the
    columns labelled by S are modular independent.

    The independent sets are walked depth-first, each from its parent P,
    the set without its lowest element, so P's children are the P + g with
    g below P's lowest element; taken in ascending g, this decides the
    masks in increasing order, every subset of a set before it.  A set is
    tested only when all its maximal proper subsets are independent (the
    join step of downward-closed enumeration; Agrawal & Srikant, VLDB
    1994).  ``ext[Q]``, for each member Q, holds the elements g below Q's
    lowest element with Q + g independent, so the children of P to test
    are the g below P's lowest element in ext[P - h] for every h in P.
    Each P - h + g is smaller than P, so those bits are final once P is
    found independent, as ``ext`` grows with each member.  A stack entry
    ``[mask, candidates left, res, the parent's res, pivot row or None, its
    shift, Howell form of N, of m*N or None]`` per independent ancestor of
    the current set (depth at most n) carries what each path reuses, and
    each child S = P + g is decided from its parent's entry.

    S is independent iff |V| / |m*V| = q^|S| for V the span of S (Nakayama),
    decided without a vector set, in the additive coordinates of ``howell``
    (R^k in (Z/p^a)^(dk), sizes kept).  g's row is not reduced from
    scratch.  The test of parent(P) + g, one level up, reduced it by V of
    parent(P) and kept the result in parent(P)'s ``res[g]``, which P's
    entry holds as its parent's res (the raw rows at the root).  That test
    came first: P + g is tested only for g in ext[parent(P)], and
    parent(P)'s children are tested in ascending order, g before P's
    lowest element.  The carried row differs from g's row by a vector of V
    of parent(P), which lies inside V of P, so V plus either row spans the
    same group.  When P + g is independent and has fewer than r elements,
    P's test stores the row reduced by V of P in P's own ``res[g]``, for
    the tests of the P + h + g; otherwise no such set is tested.

    *Entries.*  Each entry holds V as F (+) N: F free, spanned by the s
    unit pivots of P's path, and N inside W, the rows zero at every pivot
    lane, held as Howell forms of N and m*N (the Z/p^a-spans of the rows
    b*y and t*y over y in N, b and t running over additive generators of R
    and m).  A pivot entry is the case N = 0, with zero forms: one pivot
    row h, the residual of the column that joined it scaled by a unit to 1
    at its lowest unit lane, and the bit ``shift`` of that lane.  Pivots
    need d = 1, where R is Z/p^a itself and lane arithmetic modulo q = p^a
    is the ring's; the root holds pivot 0 ({0} is free).  When d > 1 (an
    extension field, a Galois or ramified ring, a table ring) every entry
    is the case s = 0, N = V: reducing at a pivot would need the ring
    product c*h, an image look-up per entry for each additive generator,
    while the Howell forms only ever add Z/p^a multiples of packed rows.

    At a pivot entry g's carried row is reduced at P's lane by one step
    (``howell.eliminator``), y - c*h as y + (q - c)*h and the lane
    reduction.  Each pivot is zero at the lanes of the pivots below it on
    the stack, and so is every row carried to a child.  Lemma:
    R^k = F (+) W.  F & W = 0: a vector sum c_i*h_i of F shows c_i at the
    lane of the first pivot h_i with c_i != 0, as the pivots after it are
    zero there (triangularity).  F + W = R^k: the steps at the pivots in
    order take any row into W.  y lies in W and g - y in F, so
    span(S) = F (+) R*y, and as mu adds over direct sums
    ((A (+) B)/m(A (+) B) = A/mA (+) B/mB), mu(F (+) N) = s + mu(N): S is
    independent iff y != 0.  R*y is free iff some lane of y is a unit, iff
    p^(a-1)*y != 0 (``howell.unit_pivot``), and S then pivots on that
    lane.  Otherwise S is handed over: N = R*y, its form from one insert
    of y, m*N left for later.  Above it s stays fixed, as N's rows need not
    be zero at a unit lane of a later residual.

    At any other entry ``extend`` (the ring's ``howell.kernel`` for k*d
    lanes) reduces g's carried row, which lies in W, by N's form and returns
    the residual y, a grown copy and the growth; g's other rows b*g
    (``ring_gens[0]`` is 1) go to ``insert`` on that copy.  If y is 0, g
    lies in V, and S is dependent.  As P is independent, S is iff log_p of
    N's growth less m*N's is f (q = p^f); m*N never shrinks, so a growth
    below f makes S dependent.  A growth of log_p |R| makes S independent
    without m*N: |N + Ry| = |N| |Ry| / |N & Ry| <= |N| |R| is an equality
    only when ann(y) = 0 and N & Ry = 0, so S/mS = P/mP (+) R/m.  Only a
    growth in between needs m*N: an entry holds ``None`` for it until such a
    descendant fills it in from the nearest entry below that has one, each
    entry's form the one below it plus the m-rows of the column that joined
    it, so each form is built at most once, and only when asked for.  Over
    Z/p^a, m = pR and the m-rows of a column are p*y for its residual y,
    which lie in W (p*g would not: g - y lies in F); when d > 1 they are the
    raw rows t*g, which differ from the t*y by vectors of m*N.

    The walk is capped by the paper's characterisation of chain rings:
    there the generator count mu is monotone on submodules, so
    mu(span S) <= r, the generator count of the whole column module, and no
    S with more than r elements is tested; an independent S with r elements
    has no child to decide and goes on no stack.  Over a non-chain ring mu
    is not monotone, so r = n there.  ``oracle.system_by_closure`` is the
    uncapped vector-set reference.
    """
    n = a.ncols
    if n > MAX_GROUND:
        raise GroundSetTooLargeError(f"{n} columns > {MAX_GROUND}")
    # here: only a route that runs it compiles it
    from .howell import eliminator, kernel, radical_rows, rows_over, unit_pivot

    ring = a.ring
    cols = a.columns()
    r = minimal_generator_count(ring, cols) if ring.is_chain else n
    additive = ring.additive
    f, d = additive.residue_degree, len(additive.coords[0])
    full = _factor_prime_power(ring.size)[1]  # log_p |R|, not d*a: R may sit in (Z/p^a)^d properly
    lanes = d * a.nrows
    zero = [None] * lanes
    insert, extend = kernel(additive, lanes)
    eliminate = eliminator(additive, lanes)  # bound per build: only this walk takes the step
    vrows = {1 << i: rows_over(ring, c, additive.ring_gens) for i, c in enumerate(cols)}
    raw = {bit: rows.pop(0) for bit, rows in vrows.items()}  # g's own row: ring_gens[0] is 1
    if d == 1:  # m = pR, and p*y lies in W with the residual y
        times_p = radical_rows(additive, lanes)
        m_rows = lambda bit, y: times_p(y)  # noqa: E731
    else:  # no set pivots, so the raw rows t*g differ from the t*y by vectors of m*N
        radical = {1 << i: rows_over(ring, c, additive.radical_gens) for i, c in enumerate(cols)}
        m_rows = lambda bit, y: radical[bit]  # noqa: E731
    ext = {0: 0}  # member Q -> the g below Q's lowest element with Q + g independent
    # independent ancestors: [mask, left, res, parent's res, pivot, shift, N, m*N] (docstring)
    stack = [[0, (1 << n) - 1 if r else 0, {}, raw, 0 if d == 1 else None, 0, zero, zero]]
    while stack:
        top = stack[-1]
        parent, left, res, carried, pivot, shift, nform, mform = top
        if not left:
            stack.pop()
            continue
        bit = left & -left
        top[1] = left ^ bit
        mask = parent | bit
        if pivot is not None:  # N = 0: S is independent iff the row reduced at the pivot is nonzero
            residual = eliminate(carried[bit], pivot, shift)
            if not residual:
                continue
        else:
            residual, nform, grown = extend(nform, carried[bit])
            if not grown:  # g itself lies in V, so R*g does
                continue
            for row in vrows[bit]:  # the rows b*g but g's own
                grown += insert(nform, row)
            if grown < f:
                continue
            mform = None  # R*g splits off as a free summand when grown == full
            if grown < full:
                if top[7] is None:  # fill m*N up from the nearest entry below that has it
                    i = len(stack) - 1
                    while stack[i - 1][7] is None:
                        i -= 1
                    for below, above in zip(stack[i - 1 :], stack[i:]):
                        low = above[0] & -above[0]  # the column that joined ``above``
                        above[7] = form = below[7][:]
                        for row in m_rows(low, above[3][low]):
                            insert(form, row)
                mform = top[7][:]
                for row in m_rows(bit, residual):
                    grown -= insert(mform, row)
                if grown != f:
                    continue
        ext[mask] = 0
        ext[parent] |= bit
        if mask.bit_count() < r:
            res[bit] = residual  # read only by the tests of the P + h + g (docstring)
            children, x = bit - 1 & ext[parent], parent
            while x and children:
                h = x & -x
                children &= ext[mask ^ h]
                x ^= h
            if not children:
                continue
            if pivot is not None:
                pivot = unit_pivot(additive, lanes, residual)
                if pivot is None:  # y lies in m^k: S is handed over, with N = R*y
                    nform, mform = zero[:], None
                    insert(nform, residual)
                else:  # S stays free: it pivots on y's lowest unit lane
                    shift, pivot = pivot
            stack.append([mask, children, {}, res, pivot, shift, nform, mform])
    return IndependenceSystem._from_bits(a.labels, _bits(ext, n), ext)


def check_matroid(m: IndependenceSystem) -> MatroidReport:
    """Certify the augmentation axiom from the rank table.

    For an independent I let X(I) = I + {e : I + e dependent}.  I is a
    maximal independent subset of X(I), so the axiom "all maximal
    independent subsets of a set have the same size" (Oxley, *Matroid
    Theory*, ch. 1) needs rank(X(I)) = |I|, and the family is a matroid iff
    that holds for every independent I.  The check costs O(|F| n) over the
    rank table.

    X(I) - I is read for every I at once: for each element e, the members
    without e whose union with e is not a member form a 2^n-bit set, and
    the transpose of those sets (``_planes``) for e < 8 and for e >= 8
    leaves the elements of X(I) - I in byte I of two tables.

    An augmentation fails for (I1, I2) exactly when |I2| > |I1| and I2 is
    an independent subset of X(I1), so ``violations`` lists every such
    pair, built from the I1 whose X(I1) has rank above |I1| (the whole of
    detection).  The I2 of such an I1 are read off the family's bitset once
    per distinct (X(I1), |I1|): the members with more than |I1| elements
    and without any e outside X(I1).  Pairs are ordered by I2, then I1,
    each by (size, mask), by the walk and not by a sort over pairs: the
    failing I1 are sorted, each is appended to the list of every I2 it
    fails against, and the distinct I2 are walked in order.
    ``oracle.exchange_violations_by_pair_scan`` is the pair-scan reference.
    """
    bits, n = m._bits, len(m.labels)
    ranks, lows = m._ranks(), _lows(n)
    dependent = [bits & lo & ~(bits >> (1 << e)) for e, lo in enumerate(lows)]
    low, high = _planes(dependent[:8], n), _planes(dependent[8:], n)
    # the failing I1, each with |I1| and X(I1), in (size, mask) order
    failing = sorted(
        (i1.bit_count(), i1, x) for i1 in m.family if ranks[x := i1 | low[i1] | high[i1] << 8] > i1.bit_count()
    )
    larger = _larger(n)
    large, by_i2 = {}, {}  # (X(I1), |I1|) -> its independent subsets above |I1|; I2 -> its I1s
    for size, i1, x in failing:
        found = large.get((x, size))
        if found is None:
            inside, found = _inside(bits & larger[size], x, n), []
            while inside:  # sparse: popping bits beats _masks' scan of all 2^n
                i2 = inside & -inside
                found.append(i2.bit_length() - 1)
                inside ^= i2
            large[x, size] = found
        for i2 in found:
            by_i2.setdefault(i2, []).append(i1)
    violations = []
    if by_i2:
        label_tuple = _label_tuples(m.labels)
        sets = {mask: frozenset(label_tuple(mask)) for mask in {*by_i2, *(i1 for _, i1, _ in failing)}}
        for i2 in sorted(by_i2, key=lambda mask: (mask.bit_count(), mask)):
            violations += [(sets[i1], sets[i2]) for i1 in by_i2[i2]]
    loops = [l for i, l in enumerate(m.labels) if (1 << i) not in m.family]
    parallel = []
    for i, j in combinations(range(len(m.labels)), 2):
        if (1 << i) in m.family and (1 << j) in m.family and ((1 << i) | (1 << j)) not in m.family:
            parallel.append((m.labels[i], m.labels[j]))
    return MatroidReport(
        is_matroid=not violations,
        violations=violations,
        rank=m.rank(),
        is_simple=not loops and not parallel,
        loops=loops,
        parallel_pairs=parallel,
    )


def is_rank_submodular(m: IndependenceSystem):
    """Submodularity of the rank function in its local form
    r(X+e) + r(X+f) >= r(X+e+f) + r(X) for every X and e != f outside X,
    which is equivalent to r(X) + r(Y) >= r(X|Y) + r(X&Y) for all X, Y.
    Costs O(2^n n^2).

    Returns (verdict, witnesses) where witnesses lists the offending
    (X, e, f) with e before f in label order, by mask of X, then e, f.

    The rank table is read as byte lanes of one integer, lane x holding
    r(x), so shifting it down by 2^e lanes puts r(X + e) in lane X for
    every X without e.  For each pair e < f the lanes of
    r(X+e) + r(X+f) + 32 - r(X+e+f) - r(X) all lie in [0, 64], so the sum
    is exact lane by lane, and a lane below 32 (bits 5-7 clear) with e and
    f outside X is a witness; bit e of byte X of the transpose
    (``_planes``) of the sets of masks without e says that e is outside X.
    ``oracle.rank_submodular_by_local_scan`` is the loop-per-mask
    reference.
    """
    ranks = m._ranks()
    n = len(m.labels)
    one = int.from_bytes(b"\1" * len(ranks), "little")  # 1 in every lane
    table = int.from_bytes(ranks, "little")
    up = [table >> (8 << e) for e in range(n)]
    lows = _lows(n)
    planes = [int.from_bytes(_planes(part, n), "little") for part in (lows[:8], lows[8:])]
    base, seven, carry, sign = 32 * one - table, 7 * one, 127 * one, 128 * one
    outside = [planes[e >> 3] << 7 - (e & 7) & sign for e in range(n)]  # bit 7 of lane X: e not in X
    found = []
    for f in range(n):
        for e in range(f):
            lanes = up[e] + up[f] + base - (up[e] >> (8 << f))
            below = ~((lanes >> 5 & seven) + carry) & outside[e] & outside[f]
            while below:
                low = below & -below
                found.append(((low.bit_length() >> 3) - 1, e, f))
                below ^= low
    found.sort()
    return (not found, [(m.subset_of(x), m.labels[e], m.labels[f]) for x, e, f in found])


def uniform_system(k: int, n: int, labels=None) -> IndependenceSystem:
    labels = labels if labels is not None else [str(i + 1) for i in range(n)]
    fam = [m for m in range(1 << n) if m.bit_count() <= k]
    return IndependenceSystem(labels, fam)


def _uniform_rank(m: IndependenceSystem):
    """k when the system is the uniform one of rank k, else None."""
    k = m.rank()
    return k if len(m.family) == sum(comb(len(m.labels), i) for i in range(k + 1)) else None


def is_isomorphic(m1: IndependenceSystem, m2: IndependenceSystem):
    """A label bijection carrying one family onto the other, or None.

    Uniform systems are matched structurally at any size; everything else
    is backtracking, capped at 10 elements.
    """
    n = len(m1.labels)
    if n != len(m2.labels) or len(m1.family) != len(m2.family):
        return None
    u1, u2 = _uniform_rank(m1), _uniform_rank(m2)
    if u1 is not None or u2 is not None:
        if u1 != u2:
            return None
        return dict(zip(sorted(m1.labels), sorted(m2.labels)))
    if n > MAX_BACKTRACK:
        raise GroundSetTooLargeError(f"backtracking isomorphism capped at {MAX_BACKTRACK} elements")

    profile1 = sorted(map(int.bit_count, m1.family))
    profile2 = sorted(map(int.bit_count, m2.family))
    if profile1 != profile2:
        return None

    c1, c2 = _masks(m1._circuit_bits(), n), _masks(m2._circuit_bits(), n)
    if sorted(map(int.bit_count, c1)) != sorted(map(int.bit_count, c2)):
        return None

    def signatures(m, circuits):
        sig = {}
        for i in range(n):
            incident = [c.bit_count() for c in circuits if c >> i & 1]
            sig[i] = ((1 << i) not in m.family, len(incident), tuple(sorted(incident)))
        return sig

    sig1, sig2 = signatures(m1, c1), signatures(m2, c2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    # rarest signatures first shrink the branching factor
    freq = {}
    for s in sig1.values():
        freq[s] = freq.get(s, 0) + 1
    order = sorted(range(n), key=lambda i: (freq[sig1[i]], sig1[i]))

    fam1, fam2 = m1.family, m2.family
    mapping = [None] * n  # index in m1 -> index in m2

    def consistent(depth: int) -> bool:
        # check every mapped subset through the newly mapped element
        a = order[depth]
        placed = order[: depth + 1]
        others = placed[:-1]
        for sub in range(1 << len(others)):
            mask1 = 1 << a
            mask2 = 1 << mapping[a]
            for j, b in enumerate(others):
                if sub >> j & 1:
                    mask1 |= 1 << b
                    mask2 |= 1 << mapping[b]
            if (mask1 in fam1) != (mask2 in fam2):
                return False
        return True

    used2 = [False] * n

    def backtrack(depth: int):
        if depth == n:
            return True
        a = order[depth]
        for b in range(n):
            if used2[b] or sig1[a] != sig2[b]:
                continue
            mapping[a] = b
            used2[b] = True
            if consistent(depth) and backtrack(depth + 1):
                return True
            used2[b] = False
            mapping[a] = None
        return False

    if not backtrack(0):
        return None
    return {m1.labels[i]: m2.labels[mapping[i]] for i in range(n)}


# -- JSON export ----------------------------------------------------------------


def system_to_json(m: IndependenceSystem, report: MatroidReport | None = None) -> str:
    """The system and its report as ``json.dumps(blob, indent=2)`` writes
    them for the blob {"ground", "independent", "circuits", "rank",
    "is_matroid", "violations"}, byte for byte, but line by line: with
    ``indent`` the standard library encodes in pure Python.  Each label is
    escaped once by ``json.dumps`` (``ensure_ascii``), and each label set of
    the violations, which ``check_matroid`` shares between pairs, is written
    once."""
    import json  # here: only the --json commands need it

    if report is None:
        report = check_matroid(m)
    name = {l: json.dumps(l) for l in m.labels}

    def array(items: list, depth: int) -> str:  # items written, at indentation depth + 1
        if not items:
            return "[]"
        pad = "\n" + "  " * depth
        return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"

    def labels(s, depth: int) -> str:
        return array([name[l] for l in sorted(s)], depth)

    written = {}

    def shared(s) -> str:
        text = written.get(s)
        if text is None:
            text = written[s] = labels(s, 3)
        return text

    fields = (
        ("ground", array(list(name.values()), 1)),
        ("independent", array([labels(s, 2) for s in m.independent_sets()], 1)),
        ("circuits", array([labels(c, 2) for c in sorted(sorted(c) for c in m.circuits().members)], 1)),
        ("rank", json.dumps(report.rank)),
        ("is_matroid", json.dumps(report.is_matroid)),
        ("violations", array([array([shared(a), shared(b)], 2) for a, b in report.violations], 1)),
    )
    return "{\n  " + ",\n  ".join(f'"{key}": {text}' for key, text in fields) + "\n}"


def system_from_json(text: str) -> IndependenceSystem:
    import json

    blob = json.loads(text)
    labels = _ground(blob["ground"])
    return IndependenceSystem(labels, {0, *_label_masks(labels, blob["independent"])})
