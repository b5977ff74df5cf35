"""Shared generators for the randomized suites (seeded, deterministic)."""

import os
import random

from chainmat.codes import Code
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


def rng_for(name: str) -> random.Random:
    return random.Random(f"chainmat::{name}")


def random_matrix(rng, ring, k, n, labels=None) -> Mat:
    labels = labels or [str(i + 1) for i in range(n)]
    rows = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(k)]
    return Mat(ring, labels, rows)


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
