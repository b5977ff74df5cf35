"""Naive reference implementations used for differential testing.

Everything here recomputes from definitions with plain set enumeration and
shares nothing with the fast paths beyond ring arithmetic.  Slow on
purpose; sized for desk-scale inputs.  The vector-set closure lives here
and nowhere else.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import (
    ClosureTooLargeError,
    GroundSetTooLargeError,
    NonIntegralDimensionError,
    SearchSpaceTooLargeError,
)
from .linalg import Mat
from .rings import Ring, guard_error, guard_limit, orbit

DEFAULT_MAX_SCAN = 1 << 26


def _naive_span(ring: Ring, vectors, k: int) -> frozenset:
    """Fixed-point closure of {0} u generators under + and scalars."""
    add, mul = ring.add, ring.mul
    zero = (0,) * k
    gens = set()
    for v in vectors:
        for c in range(ring.size):
            gens.add(tuple(mul(c, a) for a in v))
    current = {zero} | gens
    frontier = list(current)
    limit = guard_limit()
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple(add(a, b) for a, b in zip(v, g))
                if w not in current:
                    current.add(w)
                    nxt.append(w)
        if len(current) > limit:
            raise guard_error(ClosureTooLargeError, "naive span", None, limit)
        frontier = nxt
    return frozenset(current)


def mu_by_enumeration(ring: Ring, vectors) -> int:
    """log_q(|span| / |m*span|), the minimal number of generators."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return 0
    k = len(vectors[0])
    big = _naive_span(ring, vectors, k)
    products = set()
    mul = ring.mul
    for a in ring.maximal_ideal:
        for v in big:
            products.add(tuple(mul(a, x) for x in v))
    small = _naive_span(ring, products, k)
    q = ring.residue_field_size
    ratio, d = len(big) // len(small), 0
    if len(big) % len(small):
        raise NonIntegralDimensionError(f"|V|={len(big)} not divisible by |mV|={len(small)}")
    while ratio > 1:
        if ratio % q:
            raise NonIntegralDimensionError(f"|V|/|mV|={len(big)//len(small)} is not a power of {q}")
        ratio //= q
        d += 1
    return d


def _naive_independent(ring: Ring, vectors) -> bool:
    """Definition-level test: for small coefficient spaces, scan every
    linear combination; otherwise compare the naive generator count."""
    vectors = [tuple(v) for v in vectors]
    l = len(vectors)
    if l == 0:
        return True
    if ring.size**l <= 4096:
        add, mul = ring.add, ring.mul
        k = len(vectors[0])
        zero = (0,) * k
        for coeffs in product(range(ring.size), repeat=l):
            acc = zero
            for c, v in zip(coeffs, vectors):
                acc = tuple(add(a, mul(c, b)) for a, b in zip(acc, v))
            if acc == zero and any(c in ring.units for c in coeffs):
                return False
        return True
    return mu_by_enumeration(ring, vectors) == l


def _sum_sets(ring: Ring, a, b) -> set:
    """{x + y : x in a, y in b} for a submodule ``a``: ``out`` is a union of
    cosets y + a, so a y already in it has its whole coset there and is
    skipped, and the sum costs exactly |a + b| vector additions.  The
    "closure" guard is checked after each one."""
    limit = guard_limit()
    add = ring.add
    out = set()
    for y in b:
        if y in out:
            continue
        for x in a:
            out.add(tuple(map(add, x, y)))
            if len(out) > limit:
                raise guard_error(ClosureTooLargeError, "closure", None, limit)
    return out


def extend_closure(ring: Ring, v, mv, g) -> tuple:
    """(V + R*g, m*V + m*g) from the vector sets of a submodule V and of
    m*V; m*g = {t*g : t in m} is already a submodule."""
    if g in v:
        return v, mv
    mg = {tuple(ring.mul(t, a) for a in g) for t in ring.maximal_ideal}
    return _sum_sets(ring, v, orbit(ring, g)), _sum_sets(ring, mv, mg)


def system_by_closure(a: Mat):
    """The column independence system of ``a`` from vector sets: S is
    independent iff |V| = q^|S| |m*V| for V the span of its columns.  Every
    mask is taken in increasing order and tested when each of its maximal
    proper subsets is independent, uncapped; each is one ``extend_closure``
    from its parent's entry (the mask without its lowest element) on a
    stack of independent ancestors."""
    from .indepsys import MAX_GROUND, IndependenceSystem

    n = a.ncols
    if n > MAX_GROUND:
        raise GroundSetTooLargeError(f"{n} columns > {MAX_GROUND}")
    ring, cols, q = a.ring, a.columns(), a.ring.residue_field_size
    fam = {0}
    zero = (0,) * a.nrows
    stack = [(0, {zero}, {zero})]  # (mask, V, m*V) of independent ancestors
    for mask in range(1, 1 << n):
        if any(mask >> i & 1 and (mask ^ 1 << i) not in fam for i in range(n)):
            continue
        parent = mask & (mask - 1)
        while stack[-1][0] != parent:
            stack.pop()
        v, mv = extend_closure(ring, stack[-1][1], stack[-1][2], cols[(mask ^ parent).bit_length() - 1])
        if len(v) == q ** mask.bit_count() * len(mv):
            fam.add(mask)
            stack.append((mask, v, mv))
    return IndependenceSystem(a.labels, fam)


def dual_by_enumeration(code) -> "object":
    """Exact dual code by scanning all of R^E against the generators."""
    from .codes import Code

    ring = code.ring
    n = len(code.labels)
    limit = guard_limit(DEFAULT_MAX_SCAN)
    if ring.size**n > limit:
        raise guard_error(SearchSpaceTooLargeError, "kernel scan", ring.size**n, limit)
    add, mul = ring.add, ring.mul
    gens = [tuple(r) for r in code.generator.rows]
    kernel = []
    for x in product(range(ring.size), repeat=n):
        ok = True
        for g in gens:
            s = 0
            for a, b in zip(x, g):
                if a and b:
                    s = add(s, mul(a, b))
            if s != 0:
                ok = False
                break
        if ok:
            kernel.append(x)
    return Code.from_codeword_set(ring, code.labels, kernel)


def circuits_by_subset_scan(a: Mat):
    """Minimal modular-dependent column sets, straight from the definition."""
    from .indepsys import Clutter

    n = a.ncols
    if n > 16:
        raise GroundSetTooLargeError(f"{n} columns exceeds the subset-scan cap")
    cols = a.columns()
    ring = a.ring
    minimal = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            cset = set(combo)
            if any(d <= cset for d in minimal):
                continue
            if not _naive_independent(ring, [cols[i] for i in combo]):
                minimal.append(frozenset(combo))
    members = [frozenset(a.labels[i] for i in d) for d in minimal]
    return Clutter(a.labels, members)


def exchange_violations_by_pair_scan(m) -> list:
    """Augmentation-axiom failures of an independence system, comparing
    every pair of independent sets: (I1, I2) with |I1| < |I2| such that no
    e in I2 - I1 keeps I1 + e independent.  Ordered by I2, then I1, each
    by (size, mask)."""
    fam_sorted = sorted(m.family, key=lambda x: (x.bit_count(), x))
    violations = []
    for i2 in fam_sorted:
        s2 = i2.bit_count()
        for i1 in fam_sorted:
            if i1.bit_count() >= s2:
                continue
            cand = i2 & ~i1
            ok = False
            x = cand
            while x:
                bit = x & -x
                if (i1 | bit) in m.family:
                    ok = True
                    break
                x ^= bit
            if not ok:
                violations.append((m.subset_of(i1), m.subset_of(i2)))
    return violations


def ranks_by_family_scan(m) -> list:
    """The rank of every mask of an independence system: each member's
    size at the member, then the largest value below each mask, carried
    up one element at a time in increasing mask order."""
    n = len(m.labels)
    table = [0] * (1 << n)
    for i in m.family:
        table[i] = i.bit_count()
    for x in range(1 << n):
        for e in range(n):
            if x >> e & 1 and table[x ^ 1 << e] > table[x]:
                table[x] = table[x ^ 1 << e]
    return table


def circuits_by_mask_scan(m) -> set:
    """The minimal non-members of a downward-closed family, as masks: the
    non-members whose every one-smaller subset is a member."""
    fam = m.family
    n = len(m.labels)
    return {
        x for x in range(1 << n)
        if x not in fam and all(x ^ 1 << e in fam for e in range(n) if x >> e & 1)
    }


def dual_by_rank_complement(m) -> set:
    """The dual family as masks: X such that r(E - X) = r(E)."""
    ranks = ranks_by_family_scan(m)
    full = (1 << len(m.labels)) - 1
    return {x for x in range(full + 1) if ranks[full ^ x] == ranks[full]}


def clutter_system_by_superset_marking(c) -> set:
    """The masks containing no member of the clutter c: every superset of
    every member is marked dependent, and the rest returned."""
    index = {l: i for i, l in enumerate(c.labels)}
    full = (1 << len(c.labels)) - 1
    dependent = set()
    for member in c.members:
        low = sum(1 << index[l] for l in member)
        rest = s = full & ~low
        while True:
            dependent.add(low | s)
            if not s:
                break
            s = (s - 1) & rest
    return set(range(full + 1)) - dependent


def minimal_sets_by_pair_scan(sets) -> set:
    """The nonempty sets among ``sets`` with no nonempty proper subset
    among them, comparing every pair."""
    sets = {frozenset(map(str, s)) for s in sets}
    return {s for s in sets if s and not any(t and t < s for t in sets)}


def max_antichain_by_search(sets) -> int:
    """Width of a family of sets ordered by inclusion, by exhaustive
    branch and bound over include/exclude choices (exponential)."""
    sets = list(sets)
    n = len(sets)
    comparable = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and (sets[i] <= sets[j] or sets[j] <= sets[i]):
                comparable[i] |= 1 << j

    best = 0

    def grow(idx: int, forbidden: int, size: int):
        nonlocal best
        if size + (n - idx) <= best:
            return
        if idx == n:
            best = size
            return
        if not forbidden >> idx & 1:
            grow(idx + 1, forbidden | comparable[idx], size + 1)
        grow(idx + 1, forbidden, size)

    grow(0, 0, 0)
    return best


def rank_submodular_by_pair_scan(m):
    """Submodularity of the rank function over every pair X, Y of subsets.

    Returns (verdict, witnesses) where witnesses lists offending (X, Y).
    """
    ranks = m._ranks()
    full = m.full_mask
    witnesses = []
    for x in range(full + 1):
        rx = ranks[x]
        for y in range(x, full + 1):
            if ranks[x | y] + ranks[x & y] > rx + ranks[y]:
                witnesses.append((m.subset_of(x), m.subset_of(y)))
    return (not witnesses, witnesses)


def rank_submodular_by_local_scan(m):
    """Local submodularity of the rank function, one triple at a time:
    (verdict, witnesses) with witnesses the (X, e, f), e before f in label
    order and both outside X, where r(X+e) + r(X+f) < r(X+e+f) + r(X),
    by mask of X, then e, f."""
    ranks = ranks_by_family_scan(m)
    n = len(m.labels)
    witnesses = []
    for x in range(m.full_mask + 1):
        rx = ranks[x]
        outside = [i for i in range(n) if not x >> i & 1]
        for a, e in enumerate(outside):
            rxe = ranks[x | 1 << e]
            for f in outside[a + 1 :]:
                if rxe + ranks[x | 1 << f] < ranks[x | 1 << e | 1 << f] + rx:
                    witnesses.append((m.subset_of(x), m.labels[e], m.labels[f]))
    return (not witnesses, witnesses)


def cyclic_submodule_census(ring: Ring, component_valuations) -> dict:
    """Brute-force count of cyclic submodules by torsion exponent.

    ``component_valuations`` lists one valuation t per summand; summand t
    is realised as the ideal <uniformizer^t> inside R.  Returns a dict
    s -> number of cyclic submodules of size q^s (s >= 1).
    """
    nu = ring.nilpotency_index
    comps = [sorted(ring.ideal_of_valuation(t)) for t in component_valuations]
    total = 1
    for c in comps:
        total *= len(c)
    limit = guard_limit()
    if total > limit:
        raise guard_error(ClosureTooLargeError, "census", total, limit)
    ordv, upart = ring.valuation, ring.unit_part
    # Each cyclic submodule has exactly one generator whose first
    # minimal-valuation coordinate is a pure uniformizer power (unit
    # multiples sweep out the other generators), so counting those
    # canonical vectors counts the submodules.
    counts = {}
    for vec in product(*comps):
        min_ord = nu
        first = -1
        for i, a in enumerate(vec):
            if a:
                o = ordv(a)
                if o < min_ord:
                    min_ord, first = o, i
        if first < 0:
            continue
        if upart(vec[first]) == 1:
            s = nu - min_ord
            counts[s] = counts.get(s, 0) + 1
    return counts


def cyclic_submodule_census_by_sets(ring: Ring, component_valuations) -> dict:
    """Same census via explicit orbit sets (fully naive; small ambients)."""
    comps = [sorted(ring.ideal_of_valuation(t)) for t in component_valuations]
    total = 1
    for c in comps:
        total *= len(c)
    limit = guard_limit(1 << 14)
    if total > limit:
        raise guard_error(ClosureTooLargeError, "set census", total, limit)
    mul = ring.mul
    q = ring.residue_field_size
    modules = set()
    for vec in product(*comps):
        orbit = frozenset(tuple(mul(c, a) for a in vec) for c in range(ring.size))
        modules.add(orbit)
    counts = {}
    for mod in modules:
        size = len(mod)
        if size == 1:
            continue
        s, m = 0, size
        while m > 1:
            m //= q
            s += 1
        counts[s] = counts.get(s, 0) + 1
    return counts
