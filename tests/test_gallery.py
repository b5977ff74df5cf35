import pytest

from chainmat.errors import NotFreeError, VerificationFailedError
from chainmat.gallery import (
    AG_DIAGONAL_PLANES,
    AG_TWISTED_PLANE,
    VAMOS_4CIRCUITS,
    dual_entry,
    entry_names,
    get_entry,
    load_matrix,
    verify_entry,
)

def test_all_entries_verify():
    reports = [verify_entry(n) for n in entry_names()]
    assert len(reports) == len(entry_names())
    assert all(r.passed for r in reports)


def test_vamos_entry():
    rep = verify_entry("vamos-z8")
    circuits = rep.system.circuits().members
    assert {c for c in circuits if len(c) == 4} == set(VAMOS_4CIRCUITS)


def test_ag_entry_contains_named_planes():
    rep = verify_entry("ag32prime-z4")
    four = {c for c in rep.system.circuits().members if len(c) == 4}
    assert AG_TWISTED_PLANE in four
    for plane in AG_DIAGONAL_PLANES:
        assert plane in four
    assert len(four) == 13


def test_cross_representation_entries():
    assert verify_entry("p8eq-z4-vs-f5").passed
    assert verify_entry("f7minus-z4").passed
    assert verify_entry("p8-z4").passed


def test_dual_entries():
    assert dual_entry("u26-z4").passed
    assert dual_entry("f7minus-z4").passed
    with pytest.raises(NotFreeError):
        dual_entry("u23-z4-nonfree")


def test_unknown_entry():
    with pytest.raises(KeyError):
        get_entry("no-such-entry")


def test_fixture_mismatch_detected():
    # swapping in the wrong matrix must trip the fixture comparison
    entry = get_entry("p6-z4")
    mat = load_matrix("f7minus_z4.mat")
    from chainmat import gallery

    original = gallery.load_matrix
    try:
        gallery.load_matrix = lambda name: mat if name == entry["matrix"] else original(name)
        with pytest.raises(VerificationFailedError):
            verify_entry("p6-z4")
    finally:
        gallery.load_matrix = original
