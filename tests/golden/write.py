"""Write the answer corpus ``answers.json`` beside this script.

    PYTHONPATH=src python3 tests/golden/write.py

The corpus holds seeded random matrices (their rows, so the test does not
depend on the generator) over Z/p^a for p^a from 2 to 49, the chain ring
fpu:2,2 and the two built-in table rings, plus the packaged matrices, each
with the sha256 digests of its family, circuits and exchange violations
(``helpers.answer_digests``).  Each random matrix is checked once against
the vector-set build, the mask scan and the pair scan of ``oracle``
before it is written, and so is each packaged matrix.  ``tests/test_golden.py`` recomputes every digest.

Write it only at a commit whose answers are to become the reference: the
corpus changes by added entries or with an intended answer change.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from helpers import answer_digests  # noqa: E402

from chainmat import oracle  # noqa: E402
from chainmat.gallery import load_matrix  # noqa: E402
from chainmat.indepsys import build_from_matrix, check_matroid  # noqa: E402
from chainmat.linalg import DATA_DIR, Mat  # noqa: E402
from chainmat.rings import make_ring  # noqa: E402

RINGS = tuple(f"z:{q}" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49))
RINGS += ("fpu:2,2", "table:f2xy_xx_xy_yy", "table:f2xy_xx_yy")
PER_RING = 24


def _columns(rng: random.Random, ring, k: int, n: int) -> list:
    """n columns of length k, each of a kind the build treats apart:
    random, all in m, c*x + y for earlier x, y and c in m, a unit multiple
    or a repeat of an earlier column, or zero.  Half the time the last row
    is c times the first, so the rank falls below k."""
    add, mul = ring.add, ring.mul
    radical, units = sorted(ring.maximal_ideal), sorted(ring.units)
    cols = []
    while len(cols) < n:
        kind = rng.randrange(7) if cols else rng.randrange(2)
        if kind == 0:
            cols.append([rng.randrange(ring.size) for _ in range(k)])
        elif kind == 1:
            cols.append([rng.choice(radical) for _ in range(k)])
        elif kind in (2, 3):
            x, y, c = rng.choice(cols), rng.choice(cols), rng.choice(radical)
            cols.append([add(mul(c, u), v) for u, v in zip(x, y)])
        elif kind == 4:
            u = rng.choice(units)
            cols.append([mul(u, v) for v in rng.choice(cols)])
        elif kind == 5:
            cols.append(list(rng.choice(cols)))
        else:
            cols.append([0] * k)
    rng.shuffle(cols)
    rows = [list(r) for r in zip(*cols)]
    if rng.random() < 0.5:
        c = rng.randrange(ring.size)
        rows[-1] = [mul(c, v) for v in rows[0]]
    return rows


def _check_with_oracle(mat) -> None:
    system = build_from_matrix(mat)
    assert system == oracle.system_by_closure(mat), mat
    assert {system.mask_of(c) for c in system.circuits().members} == oracle.circuits_by_mask_scan(system), mat
    assert check_matroid(system).violations == oracle.exchange_violations_by_pair_scan(system), mat


def main() -> None:
    entries, checked = [], 0
    for spec in RINGS:
        ring = make_ring(spec)
        rng = random.Random(f"chainmat::golden::{spec}")
        for i in range(PER_RING):
            k = rng.randint(2, 4 if ring.size <= 16 else 3)
            n = rng.randint(6, 10)
            labels = [str(j + 1) for j in range(n)]
            rows = _columns(rng, ring, k, n)
            mat = Mat(ring, labels, rows)
            _check_with_oracle(mat)
            checked += 1
            entries.append({"name": f"{spec}#{i}", "ring": spec, "labels": labels, "rows": rows, **answer_digests(mat)})
    for name in sorted(f[:-4] for f in os.listdir(DATA_DIR) if f.endswith(".mat")):
        mat = load_matrix(f"{name}.mat")
        _check_with_oracle(mat)
        checked += 1
        entries.append({"name": f"data:{name}", **answer_digests(mat)})
    with open(os.path.join(HERE, "answers.json"), "w") as fh:
        lines = ",\n".join(json.dumps(e) for e in entries)  # an entry a line
        fh.write(f'{{"oracle_checked": {checked}, "entries": [\n{lines}\n]}}\n')
    print(f"{len(entries)} entries, {checked} checked against the oracle")


if __name__ == "__main__":
    main()
