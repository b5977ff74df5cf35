import json
import os

from chainmat.gallery import load_matrix
from chainmat.linalg import Mat
from chainmat.rings import make_ring

from helpers import answer_digests

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "answers.json")


def test_answers_match_the_frozen_corpus():
    # Family, circuits and exchange violations of every corpus matrix, as
    # sha256 digests frozen by ``golden/write.py`` (each checked against
    # the oracle then): seeded random matrices over Z/2 to Z/49, fpu:2,2
    # and the table rings, with zero, repeated, unit-multiple, all-in-m and
    # c*x + y (c in m) columns, and the packaged matrices.
    with open(CORPUS) as fh:
        entries = json.load(fh)["entries"]
    for entry in entries:
        name = entry.pop("name")
        if name.startswith("data:"):
            mat = load_matrix(name[5:] + ".mat")
        else:
            mat = Mat(make_ring(entry.pop("ring")), entry.pop("labels"), entry.pop("rows"))
        assert answer_digests(mat) == entry, name
