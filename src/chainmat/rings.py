"""Finite commutative local rings with exact table-backed arithmetic.

Three ring families are supported:

* ``z:<p^nu>`` / ``zpn:<p>,<nu>`` -- integers modulo a prime power,
* ``fpu:<p>,<nu>`` -- truncated polynomial rings F_p[u]/<u^nu>,
* ``table:<name-or-path>`` -- rings given by explicit addition and
  multiplication tables (JSON, at most ``MAX_TABLE_SIZE`` elements; the
  spec is the file's absolute path), plus two built-in non-chain local
  rings used as counterexample material.

All three families share one construction that derives every ring datum
from ``add`` and ``mul``: the maximal ideal is the set of nilpotents, the
ring is local iff every other element is a unit (checked by Lagrange's
theorem in the unit group), and it is a chain ring iff the maximal ideal
is principal (Dinh and Lopez-Permouth, IEEE T-IT 2004, Prop. 2.1).
``Ring.additive`` embeds (R, +) in (Z/p^a)^d, p^a the characteristic, on
first use (``howell``); the system build, codes and the non-chain routes
size and list spans there.  A chain ring tabulates valuations; an ideal
m^t is formed as a set only on request (``ideal_of_valuation``).

Elements are canonical integer indices ``0 .. size-1``; vectors are plain
tuples of indices.  Every handle is immutable after construction and all
operations are pure, so rings can be shared freely.
"""

from __future__ import annotations

import os
import re
from functools import cached_property, lru_cache

from .errors import BadValueError, NotARingError, NotChainRingError, NotLocalError, NotPrimeError

MAX_RING_SIZE = 4096
# Table rings are checked exhaustively, O(size^3); at 256 that takes about
# 5 s in CPython, and each doubling costs eight times as much.
MAX_TABLE_SIZE = 256


def _factor_prime_power(m: int):
    """Return (p, nu) with m == p**nu, or None if m is not a prime power."""
    if m < 2:
        return None
    p = None
    for d in range(2, m + 1):
        if d * d > m:
            p = m if p is None else p
            break
        if m % d == 0:
            p = d
            break
    nu = 0
    rest = m
    while rest % p == 0:
        rest //= p
        nu += 1
    if rest != 1:
        return None
    return p, nu


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Ring:
    """A finite commutative local ring handle.

    Attributes
    ----------
    spec: canonical spec string the ring was built from.
    identity: what equality and hashing compare; the spec, plus a digest
        of the file's bytes for a table ring read from a file.
    size: |R|.
    units: frozenset of unit indices (complement of the maximal ideal).
    maximal_ideal: frozenset of non-unit indices.
    is_chain: True when the ideals are linearly ordered.
    uniformizer, nilpotency_index, residue_field_size: chain-ring data
        (``uniformizer`` generates the maximal ideal; for fields it is 0
        and the nilpotency index is 1).
    """

    def __init__(self, spec, size, add_fn, mul_fn, names=None):
        self.spec = spec
        self.identity = spec
        self.size = size
        self.add = add_fn
        self.mul = mul_fn
        self.names = names if names is not None else [str(i) for i in range(size)]
        self._finish_construction()

    # -- construction helpers -------------------------------------------------

    def _finish_construction(self):
        # O(|R| log |R|) ring operations; the facts used are in the module
        # docstring.  A nilpotent a has a^|R| == 0 because the ideals a^t R
        # shrink strictly until they reach 0.
        size, mul = self.size, self.mul
        elements = range(size)
        minus_one = next(b for b in elements if self.add(1, b) == 0)
        self._neg = [mul(minus_one, a) for a in elements]

        m = frozenset(a for a in elements if self._power(a, size) == 0)
        # Lagrange in the unit group: u^(|R| - |m|) == 1 for every unit u.
        order = size - len(m)
        inverse = {}
        for u in elements:
            if u in m:
                continue
            inverse[u] = v = self._power(u, order - 1)
            if mul(u, v) != 1:
                name = self.names[u]
                raise NotLocalError(
                    f"{self.spec}: not a local ring ({name} is not nilpotent, but {name}^{order} != 1)"
                )
        self._inverse = inverse
        self.units = frozenset(inverse)
        self.maximal_ideal = m
        self.residue_field_size = size // len(m)

        # The least generator of m; a field's m = {0} is generated by 0.
        theta = next((a for a in sorted(m) if len(self.principal_ideal(a)) == len(m)), None)
        self.is_chain = theta is not None
        if self.is_chain:
            self._init_chain_data(theta)
        else:
            self.uniformizer = None
            self.nilpotency_index = None

    def _power(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def _init_chain_data(self, theta):
        self.uniformizer = theta
        powers = [1]
        while powers[-1] != 0:
            powers.append(self.mul(powers[-1], theta))
        # powers[t] = theta^t; theta^nu == 0 first at index nu.
        self.nilpotency_index = nu = len(powers) - 1
        self._theta_pow = powers
        # Every nonzero a is u * theta^t for one t < nu; record t as ord(a)
        # and the smallest such unit u as the unit part.
        ordv = [nu] * self.size
        unit_part = [None] * self.size
        units = sorted(self.units)
        for t in range(nu):
            pt = powers[t]
            for u in units:
                a = self.mul(u, pt)
                if unit_part[a] is None:
                    unit_part[a] = u
                    ordv[a] = t
        self._ord = ordv
        self._unit_part = unit_part

    @cached_property
    def additive(self):
        """The additive coordinates of ``howell.additive_coordinates``,
        built on first use."""
        from .howell import additive_coordinates  # here: only a route that runs it compiles it

        return additive_coordinates(self)

    # -- element level operations ---------------------------------------------

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inverse(self, a: int) -> int:
        return self._inverse[a]

    def valuation(self, a: int) -> int:
        """Largest t with a in <uniformizer^t>; the zero element gets nu."""
        if not self.is_chain:
            raise NotChainRingError(f"{self.spec} is not a chain ring")
        return self._ord[a]

    def unit_part(self, a: int) -> int:
        """Unit u with u * uniformizer^valuation(a) == a (a != 0)."""
        if not self.is_chain:
            raise NotChainRingError(f"{self.spec} is not a chain ring")
        if a == 0:
            raise BadValueError("zero has no unit part")
        return self._unit_part[a]

    def uniformizer_power(self, t: int) -> int:
        if not self.is_chain:
            raise NotChainRingError(f"{self.spec} is not a chain ring")
        return self._theta_pow[min(t, self.nilpotency_index)]

    def ideal_of_valuation(self, t: int) -> frozenset:
        """The ideal <uniformizer^t> as a set of indices, formed on each call."""
        if not self.is_chain:
            raise NotChainRingError(f"{self.spec} is not a chain ring")
        t = min(t, self.nilpotency_index)
        return frozenset(a for a, v in enumerate(self._ord) if v >= t)

    def principal_ideal(self, a: int) -> frozenset:
        mul = self.mul
        return frozenset(mul(a, r) for r in range(self.size))

    def annihilator(self, a: int) -> frozenset:
        """{x : x*a == 0}; over a chain ring this is <theta^(nu-ord(a))>."""
        mul = self.mul
        return frozenset(x for x in range(self.size) if mul(x, a) == 0)

    def element_name(self, a: int) -> str:
        return self.names[a]

    def parse_element(self, token: str) -> int:
        raise NotImplementedError

    def __repr__(self):
        return f"Ring({self.spec}, size={self.size})"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.identity == other.identity

    def __hash__(self):
        return hash(self.identity)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(token: str) -> int:
    """The integer an element token or ring spec writes in ASCII decimal
    digits; ``int`` would also take underscores and other scripts' digits
    (``1_0``, ``٣``), so anything else is a ValueError."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


# -- the enumeration guard ----------------------------------------------------
# One reader for every module that enumerates vectors (howell, enumgeo,
# oracle); here, so that enumgeo reads it without loading howell.

DEFAULT_MAX_CLOSURE = 1 << 24
GUARD_ENV = "CHAINMAT_MAX_CLOSURE"


def guard_limit(default: int = DEFAULT_MAX_CLOSURE) -> int:
    """An enumeration guard: the positive ASCII-decimal integer in
    CHAINMAT_MAX_CLOSURE when that is set, else ``default``."""
    value = os.environ.get(GUARD_ENV)
    if not value:
        return default
    try:
        limit = _decimal(value)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise BadValueError(f"{GUARD_ENV}={value!r} is not a positive integer")
    return limit


def guard_error(error_type, guard: str, requested, limit: int):
    """The error an enumeration guard raises: it names the guard, the size
    requested (``None`` when it is only known to exceed the limit), the
    limit and the variable that raises it."""
    size = f"more than {limit}" if requested is None else requested
    return error_type(f"{guard} guard: {size} vectors requested, limit {limit} (set {GUARD_ENV} to raise it)")


def orbit(ring: Ring, v) -> set:
    """The cyclic submodule R*v as a set of vectors."""
    mul = ring.mul
    return {tuple(mul(c, a) for a in v) for c in range(ring.size)}


class ZpnRing(Ring):
    """Integers modulo p^nu (includes prime fields for nu = 1)."""

    def __init__(self, p: int, nu: int):
        if not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if nu < 1:
            raise NotPrimeError("exponent must be positive")
        n = p**nu
        if n > MAX_RING_SIZE:
            raise NotPrimeError(f"ring size {n} exceeds cap {MAX_RING_SIZE}")
        self.p = p
        super().__init__(
            spec=f"zpn:{p},{nu}",
            size=n,
            add_fn=lambda a, b: (a + b) % n,
            mul_fn=lambda a, b: (a * b) % n,
        )

    def parse_element(self, token: str) -> int:
        try:
            return _decimal(token) % self.size
        except ValueError:
            raise BadValueError(f"bad element token {token!r} for {self.spec}") from None


class FpuRing(Ring):
    """F_p[u]/<u^nu>; index of sum(c_i u^i) is sum(c_i p^i)."""

    def __init__(self, p: int, nu: int):
        if not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if nu < 1:
            raise NotPrimeError("exponent must be positive")
        n = p**nu
        if n > MAX_RING_SIZE:
            raise NotPrimeError(f"ring size {n} exceeds cap {MAX_RING_SIZE}")
        self.p = p
        self._nu_param = nu
        coeffs = []
        for a in range(n):
            c, rest = [], a
            for _ in range(nu):
                c.append(rest % p)
                rest //= p
            coeffs.append(tuple(c))

        def add_fn(a, b, _c=coeffs, _p=p):
            ca, cb = _c[a], _c[b]
            idx, mult = 0, 1
            for i in range(len(ca)):
                idx += ((ca[i] + cb[i]) % _p) * mult
                mult *= _p
            return idx

        def mul_fn(a, b, _c=coeffs, _p=p, _nu=nu):
            ca, cb = _c[a], _c[b]
            out = [0] * _nu
            for i in range(_nu):
                if ca[i]:
                    for j in range(_nu - i):
                        out[i + j] = (out[i + j] + ca[i] * cb[j]) % _p
            idx, mult = 0, 1
            for c in out:
                idx += c * mult
                mult *= _p
            return idx

        names = [self._poly_name(c) for c in coeffs]
        super().__init__(spec=f"fpu:{p},{nu}", size=n, add_fn=add_fn, mul_fn=mul_fn, names=names)

    @staticmethod
    def _poly_name(coeffs) -> str:
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mon = "u" if i == 1 else f"u^{i}"
                terms.append(mon if c == 1 else f"{c}{mon}")
        return "+".join(terms) if terms else "0"

    def parse_element(self, token: str) -> int:
        try:
            v = _decimal(token)
        except ValueError:
            pass
        else:
            if not 0 <= v < self.size:
                raise BadValueError(f"element index {token!r} outside 0..{self.size - 1} for {self.spec}")
            return v
        idx = 0
        for term in token.replace(" ", "").split("+"):
            head, u, tail = term.partition("u")
            if tail and not tail.startswith("^"):
                raise BadValueError(f"bad element token {token!r} for {self.spec}")
            try:
                c = _decimal(head) if head or not u else 1
                i = _decimal(tail[1:]) if tail else int(bool(u))
            except ValueError:
                raise BadValueError(f"bad element token {token!r} for {self.spec}") from None
            if i < 0:
                raise BadValueError(f"negative exponent in element token {token!r} for {self.spec}")
            if i >= self._nu_param:
                continue
            idx = self.add(idx, self.mul(c % self.p, self._theta_pow[i]))
        return idx


class TableRing(Ring):
    """Ring given by explicit add/mul tables; axioms verified exhaustively."""

    def __init__(self, name: str, size: int, add_table, mul_table, names, digest=None):
        self._validate_tables(name, size, add_table, mul_table)
        self._add_table = add_table
        self._mul_table = mul_table
        super().__init__(
            spec=f"table:{name}",
            size=size,
            add_fn=lambda a, b: add_table[a][b],
            mul_fn=lambda a, b: mul_table[a][b],
            names=list(names),
        )
        if digest is not None:
            self.identity = (self.spec, digest)

    @staticmethod
    def _validate_tables(name, size, add, mul):
        rng = range(size)
        if len(add) != size or len(mul) != size or any(len(row) != size for row in add + mul):
            raise NotARingError(f"{name}: tables are not {size}x{size}")
        for a in rng:
            if add[a][0] != a:
                raise NotARingError(f"{name}: 0 is not the additive identity")
            if mul[a][1] != a:
                raise NotARingError(f"{name}: 1 is not the multiplicative identity")
            if not any(add[a][b] == 0 for b in rng):
                raise NotARingError(f"{name}: element {a} has no additive inverse")
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise NotARingError(f"{name}: tables are not commutative at ({a},{b})")
        for a in rng:
            for b in rng:
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise NotARingError(f"{name}: addition not associative at ({a},{b},{c})")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise NotARingError(f"{name}: multiplication not associative at ({a},{b},{c})")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise NotARingError(f"{name}: distributivity fails at ({a},{b},{c})")

    def parse_element(self, token: str) -> int:
        tok = token.replace(" ", "")
        for i, nm in enumerate(self.names):
            if nm.replace(" ", "") == tok:
                return i
        raise BadValueError(f"unknown element {token!r} of {self.spec}")


def _builtin_f2_monomial_ring(name: str, monomials, products):
    """Build an F_2-algebra table ring from a monomial basis.

    ``monomials`` lists the basis names (first entry "1"), ``products`` maps
    basis-index pairs to a basis index or None when the product vanishes.
    """
    k = len(monomials)
    size = 2**k

    def add(a, b):
        return a ^ b

    def mul(a, b):
        out = 0
        for i in range(k):
            if not a >> i & 1:
                continue
            for j in range(k):
                if not b >> j & 1:
                    continue
                t = products[i][j]
                if t is not None:
                    out ^= 1 << t
        return out

    names = []
    for a in range(size):
        terms = [monomials[i] for i in range(k) if a >> i & 1]
        names.append("+".join(terms) if terms else "0")
    add_table = [[add(a, b) for b in range(size)] for a in range(size)]
    mul_table = [[mul(a, b) for b in range(size)] for a in range(size)]
    return TableRing(name, size, add_table, mul_table, names)


@lru_cache(maxsize=None)
def _builtin_tables():
    # F_2[x,y]/<x^2, xy, y^2>: basis 1, x, y.
    small = _builtin_f2_monomial_ring(
        "f2xy_xx_xy_yy",
        ["1", "x", "y"],
        [[0, 1, 2], [1, None, None], [2, None, None]],
    )
    # F_2[x,y]/<x^2, y^2>: basis 1, x, y, xy.
    big = _builtin_f2_monomial_ring(
        "f2xy_xx_yy",
        ["1", "x", "y", "xy"],
        [[0, 1, 2, 3], [1, None, 3, None], [2, 3, None, None], [3, None, None, None]],
    )
    return {"f2xy_xx_xy_yy": small, "f2xy_xx_yy": big}


_table_files = {}


def _table_file_ring(path: str) -> Ring:
    """The table ring in the JSON file at the absolute ``path``, cached on
    the path and a digest of the file's bytes: a file rewritten in place
    is read again, and the new ring is not equal to the old one."""
    if not os.path.isfile(path):
        raise NotARingError(f"unknown table ring {path!r}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise NotARingError(f"{path}: not a JSON table ring ({exc})") from None
    import hashlib  # here, not at the top: it adds ~5 ms to every start-up

    key = (path, hashlib.sha256(raw).hexdigest())
    ring = _table_files.get(key)
    if ring is None:
        ring = _table_files[key] = _parse_table_ring(path, raw, key[1])
    return ring


def _parse_table_ring(path: str, raw: bytes, digest: str) -> Ring:
    import json  # here: only table files need it

    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise NotARingError(f"{path}: not a JSON table ring ({exc})") from None
    if not isinstance(data, dict):
        raise NotARingError(f"{path}: a table ring is a JSON object")
    size = data.get("size")
    if type(size) is not int or size < 2:  # a local ring has 1 != 0
        raise NotARingError(f"{path}: 'size' must be an integer of at least 2")
    if size > MAX_TABLE_SIZE:
        raise NotARingError(f"table ring size {size} exceeds the table cap {MAX_TABLE_SIZE}")
    for key in ("add", "mul"):
        table = data.get(key)
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(type(x) is int and 0 <= x < size for x in row) for row in table
        ):
            raise NotARingError(f"{path}: {key!r} must be a table of integers 0..{size - 1}")
    names = data.get("names", [str(i) for i in range(size)])
    if not isinstance(names, list) or len(names) != size or not all(isinstance(x, str) for x in names):
        raise NotARingError(f"{path}: 'names' must be a list of {size} strings")
    # a printed matrix reloads only if each name is one distinct token of
    # the matrix text format, which splits on whitespace and cuts at '#'
    for x in names:
        if x.split() != [x] or "#" in x:
            raise NotARingError(f"{path}: element name {x!r} is empty or holds whitespace or '#'")
    if len(set(names)) != size:
        dup = next(x for i, x in enumerate(names) if x in names[:i])
        raise NotARingError(f"{path}: element name {dup!r} is repeated")
    return TableRing(path, size, data["add"], data["mul"], names, digest)


def make_ring(spec: str, directory: str = "") -> Ring:
    """Construct a ring from a spec string.

    Grammar: ``z:<prime-power>``, ``zpn:<p>,<nu>``, ``fpu:<p>,<nu>``,
    ``table:<builtin-name-or-json-path>``.  Rings are cached by spec.  A
    table path is made absolute first and is the ring's spec, so two files
    with the same basename are different rings, a relative path names the
    file in ``directory`` (by default the current directory), and the
    printed spec reloads from anywhere.  A table file's ring is cached on
    that path plus a digest of the file's bytes, which is also part of the
    ring's identity, so a file edited in place gives a new, unequal ring.
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head.lower() == "table" and rest not in _builtin_tables():
        return _table_file_ring(os.path.abspath(os.path.join(directory, rest)))
    return _make_ring(spec)


@lru_cache(maxsize=None)
def _make_ring(spec: str) -> Ring:
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head == "z":
        try:
            m = _decimal(rest)
        except ValueError:
            raise NotPrimeError(f"bad ring spec {spec!r}") from None
        pw = _factor_prime_power(m)
        if pw is None:
            raise NotPrimeError(f"{m} is not a prime power")
        return ZpnRing(*pw)
    if head in ("zpn", "fpu"):
        try:
            p_s, nu_s = rest.split(",")
            p, nu = _decimal(p_s), _decimal(nu_s)
        except ValueError:
            raise NotPrimeError(f"bad ring spec {spec!r}") from None
        return ZpnRing(p, nu) if head == "zpn" else FpuRing(p, nu)
    if head == "table":
        return _builtin_tables()[rest]
    raise NotPrimeError(f"unknown ring spec {spec!r}")


def _cache_clear():
    _make_ring.cache_clear()
    _table_files.clear()


make_ring.cache_clear = _cache_clear
