"""Shared generators for the randomized suites (seeded, deterministic)."""

import hashlib
import json
import os
import random

from chainmat.codes import Code
from chainmat.indepsys import build_from_matrix, check_matroid
from chainmat.linalg import Mat

CHAIN_SPECS = ("z:4", "z:8", "z:9", "fpu:2,2")
FIELD_SPECS = ("z:2", "z:3", "z:5")  # chain rings with nilpotency index 1
# The non-chain rings: the two built-in F_2-algebras, and Z4[x]/(2x, x^2),
# whose characteristic 4 and (R, +) = Z/4 + Z/2 exercise the Howell paths
# beyond F_2 (its m = {0, 2, x, 2+x} needs the two generators 2 and x).
TABLE_SPECS = (
    "table:f2xy_xx_xy_yy",
    "table:f2xy_xx_yy",
    "table:" + os.path.join(os.path.dirname(os.path.abspath(__file__)), "z4x_2x_xx.json"),
)

# Chain rings Z/p^a[x]/(f) with residue degree above 1 or a ramified
# extension, as (name, p, a, coefficients of the monic f, lowest first);
# ``write_extension_ring`` writes their tables.
EXTENSION_RINGS = (
    ("f4", 2, 1, (1, 1, 1)),  # F4 = F2[x]/(x^2 + x + 1)
    ("f8", 2, 1, (1, 1, 0, 1)),  # F8 = F2[x]/(x^3 + x + 1)
    ("f9", 3, 1, (1, 0, 1)),  # F9 = F3[x]/(x^2 + 1)
    ("gr4_2", 2, 2, (1, 1, 1)),  # the Galois ring GR(4, 2) = Z4[x]/(x^2 + x + 1)
    ("z4u_u2_2", 2, 2, (2, 0, 1)),  # Z4[u]/(u^2 + 2): ramified, (R, +) = Z4 + Z4
)


def write_extension_ring(directory, name, p, a, f) -> str:
    """Write the add/mul tables of Z/p^a[x]/(f), for f monic given by its
    coefficients lowest first, as a table-ring file ``<name>.json`` in
    ``directory`` and return its ``table:`` spec.  Element i is the
    polynomial whose coefficients are the base-p^a digits of i, lowest
    first, so 0 and 1 are the constants; ``make_ring`` validates the
    tables."""
    q, d = p**a, len(f) - 1
    polys = [[i // q**j % q for j in range(d)] for i in range(q**d)]

    def index(c):
        return sum(x * q**j for j, x in enumerate(c))

    def mul(u, v):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] += x * y
        for top in range(2 * d - 2, d - 1, -1):  # x^top = x^(top-d) * (x^d - f)
            c, prod[top] = prod[top], 0
            for j in range(d):
                prod[top - d + j] -= c * f[j]
        return index([x % q for x in prod[:d]])

    table = {
        "size": q**d,
        "add": [[index([(x + y) % q for x, y in zip(u, v)]) for v in polys] for u in polys],
        "mul": [[mul(u, v) for v in polys] for u in polys],
    }
    path = os.path.join(str(directory), f"{name}.json")
    with open(path, "w") as fh:
        json.dump(table, fh)
    return "table:" + path


def rng_for(name: str) -> random.Random:
    return random.Random(f"chainmat::{name}")


def random_matrix(rng, ring, k, n, labels=None) -> Mat:
    labels = labels or [str(i + 1) for i in range(n)]
    rows = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(k)]
    return Mat(ring, labels, rows)


def inner(ring, g, h) -> int:
    """The dot product of the vectors ``g`` and ``h`` over ``ring``."""
    acc = 0
    for a, b in zip(g, h):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def random_code(rng, ring, k, n) -> Code:
    return Code.from_matrix(random_matrix(rng, ring, k, n))


def random_free_code(rng, ring, k, n) -> Code:
    """Random [I_k | A] with shuffled columns: free of rank k by design."""
    assert k <= n
    rows = []
    for i in range(k):
        row = [1 if j == i else 0 for j in range(k)]
        row += [rng.randrange(ring.size) for _ in range(n - k)]
        rows.append(row)
    order = list(range(n))
    rng.shuffle(order)
    labels = [str(j + 1) for j in range(n)]
    return Code.from_matrix(Mat(ring, labels, [[row[j] for j in order] for row in rows]))


def random_submodule_generators(rng, ring, k, count):
    return [tuple(rng.randrange(ring.size) for _ in range(k)) for _ in range(count)]


def submodule_mu(sub) -> int:
    """log_q |V| / |m*V| for a ``modindep.Submodule`` V, from its vector set
    and its radical."""
    ratio, q, mu = len(sub.vectors) // len(sub.radical), sub.ring.residue_field_size, 0
    while ratio > 1:
        assert ratio % q == 0, (len(sub.vectors), len(sub.radical))
        ratio //= q
        mu += 1
    return mu


def matmul(ring, a, b):
    """The product of two matrices given as lists of rows."""
    add, mul = ring.add, ring.mul
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = 0
            for t in range(k):
                if ai[t]:
                    s = add(s, mul(ai[t], b[t][j]))
            row.append(s)
        out.append(row)
    return out


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def answer_digests(mat) -> dict:
    """sha256 digests of the answers for the columns of ``mat``: the
    independent family (its masks, sorted), the circuits (sorted label
    tuples) and the exchange violations ``check_matroid`` lists, in its
    order (pairs of sorted label tuples).  ``tests/golden`` holds them
    frozen for a fixed set of matrices."""
    system = build_from_matrix(mat)
    violations = check_matroid(system).violations
    return {
        "family": _sha256(sorted(system.family)),
        "circuits": _sha256(sorted(tuple(sorted(c)) for c in system.circuits().members)),
        "violations": _sha256([(tuple(sorted(a)), tuple(sorted(b))) for a, b in violations]),
    }
