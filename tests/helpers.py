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


def _with(name, change):
    doc = json.loads((DATA / name).read_text())
    change(doc)
    return doc


def _c3_with(change):
    return _with("c3.json", change)


def _a2_with(change):
    return _with("a2_n3.json", change)


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


# test id -> (malformed plumbing document, the ValueError message
# plumbing_from_json gives); all but one are a2_n3.json with one part changed
MALFORMED_PLUMBINGS = {
    "gauge-float": (_a2_with(lambda d: d["arrows"][0].update(d=2.5)),
                    "arrows[0].d: expected an integer, got 2.5"),
    "gauge-bool": (_a2_with(lambda d: d["arrows"][0].update(d=True)),
                   "arrows[0].d: expected an integer, got True"),
    "sign-string": (_a2_with(lambda d: d["arrows"][0].update(sign="1")),
                    "arrows[0].sign: expected 1 or -1, got '1'"),
    "sign-two": (_a2_with(lambda d: d["arrows"][0].update(sign=2)),
                 "arrows[0].sign: expected 1 or -1, got 2"),
    "sign-bool": (_a2_with(lambda d: d["arrows"][0].update(sign=True)),
                  "arrows[0].sign: expected 1 or -1, got True"),
    "missing-vertices": (_a2_with(lambda d: d.pop("vertices")),
                         "document: missing 'vertices'"),
    "missing-arrows": (_a2_with(lambda d: d.pop("arrows")),
                       "document: missing 'arrows'"),
    "arrow-not-an-object": (_a2_with(lambda d: d.update(arrows=[5])),
                            "arrows[0]: expected an object, got 5"),
    "arrow-without-src": (_a2_with(lambda d: d["arrows"][0].pop("src")),
                          "arrows[0]: missing 'src'"),
    "vertex-id-not-a-string": (
        _a2_with(lambda d: d["vertices"][0].update(id=1)),
        "vertices[0].id: expected a string, got 1"),
    "unknown-manifold": (
        _a2_with(lambda d: d["vertices"][0]["manifold"].update(type="torus")),
        "vertices[0].manifold.type: unknown manifold type 'torus'"),
    "genus-float": (
        _a2_with(lambda d: d["vertices"][0].update(
            manifold={"type": "surface", "genus": 1.5})),
        "vertices[0].manifold.genus: expected an integer, got 1.5"),
    "custom-without-generators": (
        _a2_with(lambda d: d["vertices"][0].update(
            manifold={"type": "custom"})),
        "vertices[0].manifold: missing 'generators'"),
    "coefficients-not-a-string": (
        _a2_with(lambda d: d.update(coefficients=7)),
        "coefficients: expected a string, got 7"),
    "document-not-an-object": ([1, 2],
                               "document: expected an object, got list"),
}
