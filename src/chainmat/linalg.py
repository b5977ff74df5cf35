"""Exact matrices over a finite local ring.

Every chain-ring routine here is a view of one elimination, ``_eliminate``:
a row echelon form by row operations and column swaps that pivots on an
entry of minimal valuation.  That pivot divides every remaining entry, so
no division by a non-unit ever happens, and every row clearing goes
through ``_clear``.  ``snf_exponents`` is the pure row echelon (its pivot
valuations are the invariant-factor exponents); ``smith_normal_form`` also
clears each pivot row by column operations and tracks both transforms (the
``snf`` command prints them); ``systematic_form`` back-substitutes to
[I_k | A] (the ``systematic`` command).  Generator counts and dual codes
come from Howell forms (``howell``) over every ring, so only those two
commands run this elimination.  Determinants use cofactor expansion
memoised over column subsets, which never divides at all (the rings have
zero divisors).
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import (
    BadValueError,
    MatrixParseError,
    NotChainRingError,
    NotSquareError,
    UnknownLabelError,
)
from .rings import Ring, make_ring


def label_index(labels: tuple, label) -> int:
    """The position of ``label`` in ``labels``, or an UnknownLabelError."""
    try:
        return labels.index(str(label))
    except ValueError:
        raise UnknownLabelError(f"unknown label {str(label)!r}") from None


class Mat:
    """A k x |E| matrix over a ring with labelled columns (immutable)."""

    __slots__ = ("ring", "labels", "rows")

    def __init__(self, ring: Ring, labels, rows):
        labels = tuple(str(l) for l in labels)
        rows = tuple(tuple(r) for r in rows)
        if len(set(labels)) != len(labels):
            raise BadValueError("column labels must be distinct")
        for r in rows:
            if len(r) != len(labels):
                raise BadValueError("row length does not match label count")
            for a in r:
                if not (0 <= a < ring.size):
                    raise BadValueError(f"entry {a} outside ring of size {ring.size}")
        self.ring = ring
        self.labels = labels
        self.rows = rows

    @classmethod
    def _trusted(cls, ring: Ring, labels: tuple, rows: tuple) -> "Mat":
        """The matrix with these columns and rows, for matrices the library
        made: ``labels`` is a tuple of distinct strings and ``rows`` a tuple
        of tuples of ring elements, one per label, unchecked."""
        self = cls.__new__(cls)
        self.ring, self.labels, self.rows = ring, labels, rows
        return self

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.labels)

    def column(self, label) -> tuple:
        j = label_index(self.labels, label)
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list:
        return [tuple(row[j] for row in self.rows) for j in range(self.ncols)]

    def submatrix(self, labels) -> "Mat":
        idx = [label_index(self.labels, l) for l in labels]
        return Mat(self.ring, [self.labels[j] for j in idx], [[row[j] for j in idx] for row in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring == other.ring
            and self.labels == other.labels
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.labels, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.ring.element_name(a) for a in row) for row in self.rows)
        return f"Mat({self.ring.spec}; cols {' '.join(self.labels)}; {body})"


# -- matrix text format -------------------------------------------------------


def parse_matrix(text: str, directory: str = "") -> Mat:
    """Parse the text format: ``ring <spec>``, ``cols <l> ...`` (a bare
    ``cols`` for no columns), then rows.  A relative table-ring path names
    a file in ``directory`` (by default the current directory)."""
    ring = None
    labels = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if ring is None:
            if toks[0] != "ring" or len(toks) != 2:
                raise MatrixParseError("expected 'ring <spec>'", line=lineno)
            ring = make_ring(toks[1], directory)
        elif labels is None:
            if toks[0] != "cols":
                raise MatrixParseError("expected 'cols <label> ...'", line=lineno)
            labels = toks[1:]
        else:
            if len(toks) != len(labels):
                raise MatrixParseError(
                    f"expected {len(labels)} entries, got {len(toks)}", line=lineno
                )
            row = []
            for colno, tok in enumerate(toks, start=1):
                try:
                    row.append(ring.parse_element(tok))
                except ValueError as exc:
                    raise MatrixParseError(str(exc), line=lineno, column=colno) from None
            rows.append(row)
    if ring is None or labels is None:
        raise MatrixParseError("matrix text must declare a ring and column labels")
    # the rows of a matrix without columns are blank lines, skipped above:
    # it reads as the one empty row that a code of length 0 is generated by
    return Mat(ring, labels, rows if labels else [[]])


def parse_matrix_file(path: str) -> Mat:
    """Parse a matrix file; a relative table-ring path names a file beside it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"not UTF-8 text ({exc.reason})", line=raw.count(b"\n", 0, exc.start) + 1) from None
    return parse_matrix(text, os.path.dirname(path))


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def read_data(name: str) -> str:
    """The text of a packaged data file: a matrix (``data:<name>`` on the
    command line, the gallery's entries), the gallery manifest or its
    circuit fixtures."""
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def format_matrix(m: Mat) -> str:
    lines = [f"ring {m.ring.spec}", "cols " + " ".join(m.labels)]
    for row in m.rows:
        lines.append(" ".join(m.ring.element_name(a) for a in row))
    return "\n".join(lines) + "\n"


# -- determinant ---------------------------------------------------------------


def det(m: Mat):
    """Determinant of a square matrix, by memoised cofactor expansion."""
    if m.nrows != m.ncols:
        raise NotSquareError(f"{m.nrows}x{m.ncols} matrix has no determinant")
    return det_rows(m.ring, [list(r) for r in m.rows])


def det_rows(ring: Ring, rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    add, mul, neg = ring.add, ring.mul, ring.neg
    cache = {}

    def minor(row_start: int, colmask: int) -> int:
        # Determinant of rows row_start.. restricted to columns in colmask.
        if colmask == 0:
            return 1
        key = colmask
        got = cache.get(key)
        if got is not None:
            return got
        r = rows[row_start]
        acc = 0
        sign = 1
        rest = colmask
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            a = r[j]
            if a != 0:
                sub = minor(row_start + 1, colmask & ~(1 << j))
                term = mul(a, sub)
                acc = add(acc, term if sign > 0 else neg(term))
            sign = -sign
        cache[key] = acc
        return acc

    # cache keyed by colmask alone: row_start is determined by popcount.
    return minor(0, (1 << n) - 1)


# -- Smith normal form ----------------------------------------------------------


class SnfResult(NamedTuple):
    """Invertible left/right transforms with left @ A @ right diagonal.

    ``exponents`` lists the valuations of the nonzero diagonal entries in
    nondecreasing order; the diagonal entries themselves are the matching
    uniformizer powers.
    """

    left: tuple
    right: tuple
    diagonal: tuple
    exponents: tuple


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _chain_quotient(ring: Ring, a: int, p: int) -> int:
    """c with c * p == a, valid when valuation(p) <= valuation(a), p != 0."""
    if a == 0:
        return 0
    s, t = ring.valuation(a), ring.valuation(p)
    u = ring.mul(ring.unit_part(a), ring.inverse(ring.unit_part(p)))
    return ring.mul(u, ring.uniformizer_power(s - t))


def _clear(ring: Ring, rows: list, i: int, j: int, targets, left=None) -> None:
    """rows[r] -= (rows[r][j] / rows[i][j]) * rows[i] for each r in
    ``targets``, which zeroes column j of those rows; ``left``, when given,
    receives the same row operations.

    The pivot rows[i][j] must have minimal valuation among the entries it
    clears, so that each quotient exists.
    """
    add, mul, neg = ring.add, ring.mul, ring.neg
    pivot = rows[i][j]
    support = [(s, b) for s, b in enumerate(rows[i]) if b]
    for r in targets:
        a = rows[r][j]
        if a == 0:
            continue
        c = neg(_chain_quotient(ring, a, pivot))
        row = rows[r]
        for s, b in support:
            row[s] = add(row[s], mul(c, b))
        if left is not None:
            lr = left[r]
            for s, b in enumerate(left[i]):
                lr[s] = add(lr[s], mul(c, b))


def _eliminate(ring: Ring, work: list, left=None, right=None):
    """Bring ``work`` (a list of row lists) to row echelon form in place;
    return the pivot valuations and the column order (the original index
    of each column after the swaps).

    Step t pivots on the first entry of minimal valuation in rows t..,
    columns t.. (the search stops at the first unit), swaps it to (t, t)
    and clears column t below it with ``_clear``.  The pivot divides every
    remaining entry, so no division by a non-unit ever happens.  ``left``,
    when given, receives the row operations.  ``right``, when given,
    receives the column swaps, and then the pivot row is cleared too, by
    column operations mirrored into ``right``, so that ``work`` ends
    diagonal with left @ A @ right == work.
    """
    k = len(work)
    n = len(work[0]) if work else 0
    add, mul, neg, ordv = ring.add, ring.mul, ring.neg, ring.valuation
    nu = ring.nilpotency_index
    exps, order = [], list(range(n))
    for t in range(min(k, n)):
        best, best_ord = None, nu
        for i in range(t, k):
            wi = work[i]
            for j in range(t, n):
                o = ordv(wi[j])
                if o < best_ord:
                    best, best_ord = (i, j), o
                    if o == 0:
                        break
            if best_ord == 0:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            work[t], work[bi] = work[bi], work[t]
            if left is not None:
                left[t], left[bi] = left[bi], left[t]
        if bj != t:
            order[t], order[bj] = order[bj], order[t]
            for row in work:
                row[t], row[bj] = row[bj], row[t]
            if right is not None:
                for row in right:
                    row[t], row[bj] = row[bj], row[t]
        _clear(ring, work, t, t, range(t + 1, k), left)
        if right is not None:
            # column t is zero below the pivot now, so each column
            # operation changes only row t (to zero) and ``right``
            wt, pivot = work[t], work[t][t]
            for j in range(t + 1, n):
                a = wt[j]
                if a:
                    c = neg(_chain_quotient(ring, a, pivot))
                    wt[j] = 0
                    for row in right:
                        row[j] = add(row[j], mul(c, row[t]))
        exps.append(best_ord)
    return exps, order


def smith_normal_form(m: Mat) -> SnfResult:
    ring = m.ring
    if not ring.is_chain:
        raise NotChainRingError(f"Smith normal form needs a chain ring, got {ring.spec}")
    work = [list(r) for r in m.rows]
    left, right = _identity(m.nrows), _identity(m.ncols)
    exponents, _ = _eliminate(ring, work, left, right)
    # normalise each pivot to a pure uniformizer power; a pivot row is
    # never touched again once cleared, so scaling afterwards is exact
    mul = ring.mul
    for t in range(len(exponents)):
        uinv = ring.inverse(ring.unit_part(work[t][t]))
        if uinv != 1:
            work[t] = [mul(uinv, a) for a in work[t]]
            left[t] = [mul(uinv, a) for a in left[t]]
    return SnfResult(
        left=tuple(tuple(r) for r in left),
        right=tuple(tuple(r) for r in right),
        diagonal=tuple(tuple(r) for r in work),
        exponents=tuple(exponents),
    )


def snf_exponents(ring: Ring, vectors) -> tuple:
    """Invariant-factor exponents of the matrix whose columns are ``vectors``.

    The same elimination as :func:`smith_normal_form` without transforms:
    a pure row echelon, since the pivot valuations are already the
    exponents.  Their number is the generator count over a chain ring, the
    reference that ``modindep.minimal_generator_count`` is tested against.
    """
    if not ring.is_chain:
        raise NotChainRingError(f"{ring.spec} is not a chain ring")
    if not vectors:
        return ()
    work = [[v[i] for v in vectors] for i in range(len(vectors[0]))]
    return tuple(_eliminate(ring, work)[0])


# -- systematic form -------------------------------------------------------------


class SystematicForm(NamedTuple):
    """Column permutation and the matrix [I_k | A] it produces.

    ``perm`` lists the original column labels in their new order (identity
    block first).  Undoing the permutation recovers a generator matrix of
    the original row span.
    """

    perm: tuple
    mat: Mat


def systematic_form(m: Mat):
    """Bring a generator matrix to [I_k | A] form, or None when the row
    span is not free of rank ``nrows``.

    The row echelon form of ``_eliminate`` has k unit pivots exactly when
    the span is free of rank k; back-substitution through ``_clear``,
    bottom-up with each pivot scaled to 1, then leaves the identity block.
    """
    ring = m.ring
    if not ring.is_chain:
        raise NotChainRingError(f"systematic form needs a chain ring, got {ring.spec}")
    if not m.rows:
        return SystematicForm(perm=m.labels, mat=m)
    work = [list(r) for r in m.rows]
    exps, order = _eliminate(ring, work)
    if len(exps) < m.nrows or any(exps):
        return None
    mul = ring.mul
    for t in reversed(range(m.nrows)):
        inv = ring.inverse(work[t][t])
        if inv != 1:
            work[t] = [mul(inv, a) for a in work[t]]
        _clear(ring, work, t, t, range(t))
    # the columns after the identity block keep their original order
    cols = [*range(m.nrows), *sorted(range(m.nrows, m.ncols), key=order.__getitem__)]
    perm = tuple(m.labels[order[c]] for c in cols)
    return SystematicForm(perm=perm, mat=Mat(ring, perm, [[row[c] for c in cols] for row in work]))
