"""Helpers shared by the test modules."""

import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def decoded(cat, slice_) -> dict:
    """degree -> the slice's words as Generator tuples, in the slice's order,
    with the identity () as the source object's name."""
    by_rank = {g.rank: g for g in cat.generators}
    return {deg: [tuple(by_rank[r] for r in w) if w else slice_.source
                  for w in words]
            for deg, words in slice_.words_by_degree.items()}


def _c3_with(change):
    doc = json.loads((DATA / "c3.json").read_text())
    change(doc)
    return doc


# test id -> (malformed document, the ValueError message from_json gives);
# all but two are c3.json with one part changed
MALFORMED_DOCUMENTS = {
    "deg-string": (_c3_with(lambda d: d["generators"][0].update(deg="x")),
                   "generators[0].deg: expected an integer, got 'x'"),
    "deg-bool": (_c3_with(lambda d: d["generators"][0].update(deg=True)),
                 "generators[0].deg: expected an integer, got True"),
    "rank-string": (_c3_with(lambda d: d["generators"][0].update(rank="0")),
                    "generators[0].rank: expected an integer, got '0'"),
    "name-not-a-string": (
        _c3_with(lambda d: d["generators"][0].update(name=5)),
        "generators[0].name: expected a string, got 5"),
    "missing-d": (_c3_with(lambda d: d["generators"][0].pop("d")),
                  "generators[0]: missing 'd'"),
    "generator-not-an-object": (
        _c3_with(lambda d: d.update(generators=[5])),
        "generators[0]: expected an object, got 5"),
    "generators-not-a-list": (_c3_with(lambda d: d.update(generators=5)),
                              "generators: expected a list, got 5"),
    "missing-coefficients": ({"foo": 1}, "document: missing 'coefficients'"),
    "missing-generators": (_c3_with(lambda d: d.pop("generators")),
                           "document: missing 'generators'"),
    "objects-not-a-list": (_c3_with(lambda d: d.update(objects="L")),
                           "objects: expected a list, got 'L'"),
    "object-not-a-string": (_c3_with(lambda d: d.update(objects=[["L"]])),
                            "objects[0]: expected a string, got ['L']"),
    "coefficients-not-a-string": (
        _c3_with(lambda d: d.update(coefficients=7)),
        "coefficients: expected a string, got 7"),
    "document-not-an-object": ([1, 2],
                               "document: expected an object, got list"),
    "provenance-not-a-list": (_c3_with(lambda d: d.update(provenance=5)),
                              "provenance: expected a list, got 5"),
    "modulus-not-an-integer": (
        _c3_with(lambda d: d.update(coefficients="Zmod:x")),
        "coefficients: unknown ring 'Zmod:x': the modulus is not an integer"),
    "weights-not-an-object": (_c3_with(lambda d: d.update(weights=5)),
                              "weights: expected an object, got 5"),
    "weights-a-list": (_c3_with(lambda d: d.update(weights=[1])),
                       "weights: expected an object, got [1]"),
    "weight-of-unknown-generator": (
        _c3_with(lambda d: d.update(weights={"x": "y"})),
        "weights: unknown generator 'x'"),
    "weight-not-an-integer": (
        _c3_with(lambda d: d.update(weights={"z": "y"})),
        "weights.z: expected an integer >= 0, got 'y'"),
}
