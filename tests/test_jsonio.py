import json
import sys

import pytest

import finring.corners
from finring import (
    InadmissiblePermutation,
    ShapeMismatch,
    check_ring_ref,
    complete_triangulating_set,
    decomposition_from_obj,
    decomposition_to_obj,
    dumps_canonical,
    identity_iso,
    inner_automorphism,
    iso_decompose,
    iso_synthesize,
    map_from_obj,
    map_to_obj,
    ring_from_obj,
    ring_hash,
    ring_ref,
    ring_to_obj,
)
from finring.fixtures import FIXTURE_BUILDERS, fixture, t2_f2

Z6_HASH = "28f5f451e340893d51de3a79998b3505100f1b7f9cbce7fc8b145dc7e1c13836"


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_ring_roundtrip(name):
    ring = fixture(name)
    again = ring_from_obj(ring_to_obj(ring))
    assert again == ring
    assert again.name == ring.name


def test_ring_hash_frozen_and_name_blind():
    ring = fixture("z6")
    assert ring_hash(ring) == Z6_HASH
    renamed = ring_from_obj({**ring_to_obj(ring), "name": "anything"})
    assert ring_hash(renamed) == Z6_HASH
    assert ring_ref(renamed) == {"hash": Z6_HASH, "name": "anything"}


def test_ring_from_obj_rejects_bad_shapes():
    good = ring_to_obj(fixture("f2"))
    with pytest.raises(ShapeMismatch):
        ring_from_obj([1, 2, 3])
    with pytest.raises(ShapeMismatch):
        ring_from_obj({k: v for k, v in good.items() if k != "one"})
    with pytest.raises(ShapeMismatch):
        ring_from_obj({**good, "orders": ["2"]})
    # unreduced structure constants are rejected, not normalized
    with pytest.raises(ShapeMismatch):
        ring_from_obj({**good, "mul": [[[3]]]})


def test_check_ring_ref():
    z6 = fixture("z6")
    check_ring_ref(ring_ref(z6), z6, "domain")
    check_ring_ref({"name": "Z6"}, z6, "domain")  # hashless refs match by name
    with pytest.raises(ShapeMismatch):
        check_ring_ref({"hash": "0" * 64}, z6, "domain")
    with pytest.raises(ShapeMismatch):
        check_ring_ref({"hash": ring_hash(z6), "name": "other"}, z6, "domain")


def test_map_roundtrip():
    ring = t2_f2()
    phi = inner_automorphism(ring.element((1, 1, 1)))
    obj = map_to_obj(phi)
    assert obj["domain"]["hash"] == ring_hash(ring)
    again = map_from_obj(obj, ring, ring)
    assert again == phi
    with pytest.raises(ShapeMismatch):
        map_from_obj({**obj, "images": [[1, 0, 0], [0, 2, 0], [0, 0, 1]]}, ring, ring)


def test_decomposition_roundtrip():
    ring = t2_f2()
    seq = complete_triangulating_set(ring)
    phi = inner_automorphism(ring.element((1, 1, 1)))
    d = iso_decompose(phi, seq, seq)
    obj = decomposition_to_obj(d)
    assert obj["sigma"] == [1, 2]
    assert obj["layers"][0]["m"] == [0, 1, 0]
    again = decomposition_from_obj(json.loads(json.dumps(obj)), seq, seq)
    assert again == d
    assert iso_synthesize(seq, seq, again) == phi


def test_decomposition_from_obj_rejections():
    ring = t2_f2()
    seq = complete_triangulating_set(ring)
    d = iso_decompose(identity_iso(ring), seq, seq)
    obj = decomposition_to_obj(d)
    with pytest.raises(ShapeMismatch):
        decomposition_from_obj({**obj, "sigma": [1, 3]}, seq, seq)
    with pytest.raises(ShapeMismatch):
        decomposition_from_obj({**obj, "layers": []}, seq, seq)
    with pytest.raises(ShapeMismatch):
        decomposition_from_obj({**obj, "last_rho": None}, seq, seq)
    # the swap is not a strongly triangular order of T2(F2); that is refused
    # before the layers are read against the swapped blocks
    with pytest.raises(InadmissiblePermutation):
        decomposition_from_obj({**obj, "sigma": [2, 1]}, seq, seq)
    # an admissible order whose blocks do not fit the layers is malformed:
    # sigma = (3, 1, 2) sends the nonzero first row onto the trivial third
    ring = fixture("three_block")
    seq = complete_triangulating_set(ring)
    obj = decomposition_to_obj(iso_decompose(identity_iso(ring), seq, seq))
    with pytest.raises(ShapeMismatch):
        decomposition_from_obj({**obj, "sigma": [3, 1, 2]}, seq, seq)


def test_sigma_checks_read_the_sequence_table(monkeypatch):
    # parsing and synthesis ask the built sequence whether sigma is
    # admissible; neither multiplies out a Peirce component again, through
    # the checked vanishes or the unchecked _vanishes the sequence uses
    ring = fixture("three_block")
    seq = complete_triangulating_set(ring)
    obj = decomposition_to_obj(iso_decompose(identity_iso(ring), seq, seq))
    calls = []
    for original in (finring.corners.vanishes, finring.corners._vanishes):

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        for name, mod in list(sys.modules.items()):
            if name == "finring" or name.startswith("finring."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    d = decomposition_from_obj(obj, seq, seq)
    assert iso_synthesize(seq, seq, d) == identity_iso(ring)
    with pytest.raises(InadmissiblePermutation):
        decomposition_from_obj({**obj, "sigma": [2, 1, 3]}, seq, seq)
    assert calls == []
    complete_triangulating_set(ring)  # the patches reach the sequence's table
    assert calls


def test_dumps_canonical_is_deterministic():
    obj = ring_to_obj(fixture("three_block"))
    assert dumps_canonical(obj) == dumps_canonical(json.loads(dumps_canonical(obj)))
    assert "\n" not in dumps_canonical(obj)
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
