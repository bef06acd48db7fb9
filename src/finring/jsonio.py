"""JSON serialization for rings, maps, and decomposition data.

Ring files carry the presentation verbatim: {"orders", "mul", "one"} plus an
optional "name".  ring_from_obj checks only what is JSON about a ring file
(an object, the three keys, a string name) and hands the three values to
RingPresentation unchanged, which holds every rule for ring data: integers
that are not booleans, shapes, reduced entries and the axioms.

Map files carry {"domain", "codomain", "images"} where the endpoint
references hold the ring's content hash (and name, when set); images are
rows of generator-image coefficients.  Decomposition files carry a
1-based "sigma", one {"rho", "chi", "m"} object per non-final level, and
"last_rho".  Nested maps inside decompositions are stored as bare image
matrices: endpoints are implied by position, with rho_i acting between the
canonical corner presentations of block i and block sigma_i, chi_i listing
ambient codomain coordinates per canonical row-subgroup generator, and m_i in
ambient codomain coordinates.

Content hashes are SHA-256 over the canonical JSON of orders/mul/one with the
name stripped, so renaming a ring never changes its identity.
"""
from __future__ import annotations

import hashlib
import json
from typing import Any

from .corners import CornerRing
from .errors import InadmissiblePermutation, ShapeMismatch
from .maps import AdditiveMap, RingIsomorphism
from .morphisms import IsoDecomposition, IsoLayer
from .presentation import RingPresentation
from .sequences import TriangularSequence


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeMismatch(message)


def _int_list(value: Any, what: str) -> list[int]:
    # bool is a subclass of int, but JSON true/false are not integers
    _expect(isinstance(value, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value),
            "%s must be a list of integers" % what)
    return list(value)


def _reduced_element(ring: RingPresentation, row: Any, what: str):
    coeffs = _int_list(row, what)
    _expect(len(coeffs) == ring.rank, "%s needs %d coefficients" % (what, ring.rank))
    _expect(all(0 <= v < d for v, d in zip(coeffs, ring.orders)),
            "%s entries must be reduced modulo the generator orders" % what)
    return ring.element(tuple(coeffs))


# -- rings -----------------------------------------------------------------


def ring_to_obj(ring: RingPresentation) -> dict:
    obj = {
        "orders": list(ring.orders),
        "mul": [[list(cell) for cell in row] for row in ring.mul],
        "one": list(ring.one),
    }
    if ring.name is not None:
        obj["name"] = ring.name
    return obj


def ring_from_obj(obj: Any) -> RingPresentation:
    _expect(isinstance(obj, dict), "ring file must hold a JSON object")
    for key in ("orders", "mul", "one"):
        _expect(key in obj, "ring object lacks %r" % key)
    name = obj.get("name")
    _expect(name is None or isinstance(name, str), "name must be a string")
    return RingPresentation(obj["orders"], obj["mul"], obj["one"], name=name)


def ring_hash(ring: RingPresentation) -> str:
    """The SHA-256 of the ring's canonical JSON without its name, made once
    per ring object and kept in its memo: the other fields are fixed when
    the ring is built."""
    return ring._remember("hash", lambda: _digest(ring))


def _digest(ring: RingPresentation) -> str:
    stripped = ring_to_obj(ring)
    stripped.pop("name", None)
    return hashlib.sha256(dumps_canonical(stripped).encode("utf-8")).hexdigest()


def ring_ref(ring: RingPresentation) -> dict:
    ref = {"hash": ring_hash(ring)}
    if ring.name is not None:
        ref["name"] = ring.name
    return ref


def check_ring_ref(ref: Any, ring: RingPresentation, what: str) -> None:
    """Match a stored endpoint reference against an actual ring."""
    _expect(isinstance(ref, dict), "%s reference must be an object" % what)
    if "hash" in ref:
        _expect(ref["hash"] == ring_hash(ring),
                "%s reference hash does not match the supplied ring" % what)
    if ref.get("name") is not None and ring.name is not None:
        _expect(ref["name"] == ring.name,
                "%s reference names %r, got ring %r" % (what, ref["name"], ring.name))


# -- maps ------------------------------------------------------------------


def map_to_obj(m: AdditiveMap) -> dict:
    return {
        "domain": ring_ref(m.domain),
        "codomain": ring_ref(m.codomain),
        "images": [list(row) for row in m.images],
    }


def map_from_obj(obj: Any, domain: RingPresentation, codomain: RingPresentation) -> AdditiveMap:
    _expect(isinstance(obj, dict), "map file must hold a JSON object")
    for key in ("domain", "codomain", "images"):
        _expect(key in obj, "map object lacks %r" % key)
    check_ring_ref(obj["domain"], domain, "domain")
    check_ring_ref(obj["codomain"], codomain, "codomain")
    images_raw = obj["images"]
    _expect(isinstance(images_raw, list), "images must be a matrix")
    images = [_reduced_element(codomain, row, "image row") for row in images_raw]
    return AdditiveMap(domain, codomain, images)


# -- decompositions --------------------------------------------------------


def _bare_map_obj(m: AdditiveMap) -> dict:
    return {"images": [list(row) for row in m.images]}


def _bare_images(obj: Any, what: str) -> list[list[int]]:
    _expect(isinstance(obj, dict) and "images" in obj, "%s lacks an image matrix" % what)
    raw = obj["images"]
    _expect(isinstance(raw, list), "%s images must be a matrix" % what)
    return [_int_list(row, what) for row in raw]


def decomposition_to_obj(d: IsoDecomposition) -> dict:
    return {
        "sigma": [j + 1 for j in d.sigma],
        "layers": [
            {
                "rho": _bare_map_obj(layer.rho),
                "chi": _bare_map_obj(layer.chi),
                "m": list(layer.m.coeffs),
            }
            for layer in d.layers
        ],
        "last_rho": None if d.last_rho is None else _bare_map_obj(d.last_rho),
    }


def _corner_iso(raw: Any, corner_r: CornerRing, corner_s: CornerRing, what: str) -> RingIsomorphism:
    """Parse the bare image matrix raw, labelled what in errors, as a corner
    isomorphism between the presentations of corner_r and corner_s."""
    dom = corner_r.presentation
    cod = corner_s.presentation
    images = [_reduced_element(cod, row, what + " image") for row in _bare_images(raw, what)]
    return RingIsomorphism.create(AdditiveMap(dom, cod, images))


def decomposition_from_obj(
    obj: Any, seq_a: TriangularSequence, seq_b: TriangularSequence
) -> IsoDecomposition:
    """Rebuild decomposition data against the canonical objects of the two
    sequences.  Layer maps are re-validated on construction."""
    _expect(isinstance(obj, dict), "decomposition file must hold a JSON object")
    for key in ("sigma", "layers", "last_rho"):
        _expect(key in obj, "decomposition object lacks %r" % key)
    sigma = tuple(j - 1 for j in _int_list(obj["sigma"], "sigma"))
    m = seq_a.m
    _expect(sorted(sigma) == list(range(m)), "sigma must be a 1-based permutation of the blocks")
    _expect(seq_b.m == m, "sequences have different lengths")
    # Layers are parsed against the blocks sigma names, so an inadmissible
    # sigma is refused as a domain error before it can misplace them.
    if not seq_b.admits(sigma):
        raise InadmissiblePermutation(sigma)
    layers_raw = obj["layers"]
    _expect(isinstance(layers_raw, list) and len(layers_raw) == max(m - 1, 0),
            "expected %d layer objects" % max(m - 1, 0))
    ring_b = seq_b.ring
    layers = []
    for i, raw in enumerate(layers_raw):
        _expect(isinstance(raw, dict), "layer %d must be an object" % (i + 1))
        rho = _corner_iso(raw.get("rho"), seq_a.corners[i], seq_b.corners[sigma[i]], "rho")
        chi = AdditiveMap(
            seq_a.rows[i],
            seq_b.rows[sigma[i]],
            [_reduced_element(ring_b, row, "chi image") for row in _bare_images(raw.get("chi"), "chi")],
        )
        layers.append(IsoLayer(rho, chi, _reduced_element(ring_b, raw.get("m"), "layer offset")))
    last_raw = obj["last_rho"]
    if m == 0:
        _expect(last_raw is None, "empty decomposition cannot carry a closing isomorphism")
        last_rho = None
    else:
        last_rho = _corner_iso(last_raw, seq_a.corners[m - 1], seq_b.corners[sigma[m - 1]], "last_rho")
    return IsoDecomposition(sigma, tuple(layers), last_rho)


# -- whole-file helpers ----------------------------------------------------


def dumps_canonical(obj: Any) -> str:
    """Deterministic serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
