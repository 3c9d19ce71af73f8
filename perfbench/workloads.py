"""The four benchmark workloads: seeded inputs and the CLI calls of one job.

Every input is made here, from the seed, with the standard library only, so
a change to the program's own generators cannot change what is measured.
The seed selects one of ``len(PRIMES)`` input variants; ``reference.json``
holds the digests of every output of every variant.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Large primes for the Zmod:p fields; the seed picks one per run.
PRIMES = (1000000007, 1000000009, 998244353, 1000000021,
          1000000033, 1000000087, 1000000093, 1000000097)

# The plumbing sweep covers this grid once per job, with random details, so
# every variant does the same amount of work of each size.
SWEEP_VERTICES = range(1, 6)
SWEEP_ARROWS = range(0, 9)
SWEEP_DIMS = range(2, 7)
QUIVER_DIMS = (3, 4)


class Call(NamedTuple):
    """One CLI call.  Its output is the file it writes (``out``) or, when
    ``out`` is None, what it prints."""

    argv: tuple
    out: str | None


class Item(NamedTuple):
    """An independent request: its calls run in order, each on the last's
    output."""

    name: str
    calls: tuple


class Job(NamedTuple):
    inputs: dict   # file name -> JSON document written at set-up
    items: tuple   # Item, ...
    sizes: dict    # input sizes recorded with every result
    rank_pairs: tuple  # (Q table, Zmod:p table) output files that must agree


def variant(seed: int) -> int:
    return seed % len(PRIMES)


def _hom(src, out, window, bound, field):
    return Call(("hom", src, "--src", "L", "--tgt", "L",
                 f"--window={window}", "--bound", str(bound),
                 "--field", field, "--out", out), out)


def cohomology(v: int, smoke: bool = False) -> Job:
    """Elimination-bound: truncated cohomology of a punctured surface."""
    p = f"Zmod:{PRIMES[v]}"
    calls = (
        Call(("build", "--model", "M:1,1", "--out", "m.json"), "m.json"),
        Call(("verify", "m.json"), None),
        _hom("m.json", "hom_q.json", "-6:0", 3, "Q"),
        _hom("m.json", "hom_p.json", "-6:0", 3, p),
    )
    return Job({}, (Item("job", calls),),
               {"model": "M:1,1", "window": "-6:0", "bound": 3,
                "fields": ["Q", p]},
               (("hom_q.json", "hom_p.json"),))


def hom_enum(v: int, smoke: bool = False) -> Job:
    """Enumeration-bound: a hom slice with many words outside the window."""
    p = f"Zmod:{PRIMES[v]}"
    calls = (
        Call(("build", "--model", "S:3,2,1", "--out", "s.json"), "s.json"),
        Call(("verify", "s.json"), None),
        _hom("s.json", "hom.json", "-4:0", 9, p),
    )
    return Job({}, (Item("job", calls),),
               {"model": "S:3,2,1", "window": "-4:0", "bound": 9,
                "fields": [p]}, ())


def relations(v: int, smoke: bool = False) -> Job:
    """Rewrite-bound: a tensor product and the hom space of its relational
    category."""
    p = f"Zmod:{PRIMES[v]}"
    calls = (
        Call(("build", "--model", "M:1,1", "--out", "a.json"), "a.json"),
        Call(("build", "--model", "S:2,1,1", "--out", "b.json"), "b.json"),
        Call(("tensor", "a.json", "b.json", "--out", "t.json"), "t.json"),
        Call(("verify", "a.json", "b.json", "t.json"), None),
        Call(("hom", "t.json", "--src", "(L,L)", "--tgt", "(L,L)",
              "--window=-2:0", "--bound", "2", "--field", p,
              "--out", "hom.json"), "hom.json"),
    )
    return Job({}, (Item("job", calls),),
               {"models": ["M:1,1", "S:2,1,1"], "window": "-2:0",
                "bound": 2, "fields": [p]}, ())


def _plumbing(rng, n_vertices, n_arrows, n, ring):
    vids = [f"v{i}" for i in range(n_vertices)]
    vertices = []
    for vid in vids:
        kind = rng.choice(("sphere", "disk", "custom")
                          + (("surface",) if n == 2 else ()))
        if kind == "surface":
            manifold = {"type": "surface", "genus": rng.randint(0, 2)}
        elif kind == "custom":
            manifold = {"type": "custom",
                        "generators": [{"name": "w", "deg": 2 - n}],
                        "differentials": {"w": "0"},
                        "eta": "w" if rng.random() < 0.7 else "0"}
        else:
            manifold = {"type": kind}
        vertices.append({"id": vid, "manifold": manifold})
    arrows = [{"id": f"e{i}", "src": rng.choice(vids), "tgt": rng.choice(vids),
               "sign": rng.choice((1, -1)), "d": rng.randint(-2, 2)}
              for i in range(n_arrows)]
    return {"n": n, "coefficients": ring, "vertices": vertices,
            "arrows": arrows}


def _quiver(rng, n_vertices, n_arrows):
    vids = [f"v{i}" for i in range(n_vertices)]
    return {"vertices": vids,
            "arrows": [{"id": f"e{i}", "src": rng.choice(vids),
                        "tgt": rng.choice(vids), "q": rng.randint(-3, 3)}
                       for i in range(n_arrows)]}


def plumbing_sweep(v: int, smoke: bool = False) -> Job:
    """Many small independent requests through plumb, simplify, verify and
    the Ginzburg witness."""
    rng = random.Random(v)
    rings = ("Z", "Q", f"Zmod:{PRIMES[v]}")
    # At n = 2 a vertex's differential multiplies one factor per incident
    # arrow end, so cost grows exponentially with its loops (eight loops on
    # one vertex take 3 s, 200 typical items); n = 2 items keep <= 4 arrows.
    shapes = [(nv, na if n > 2 else na % 5, n) for nv in SWEEP_VERTICES
              for na in SWEEP_ARROWS for n in SWEEP_DIMS]
    rng.shuffle(shapes)
    quiver_shapes = [(nv, na, QUIVER_DIMS[(nv + na) % 2])
                     for nv in SWEEP_VERTICES for na in SWEEP_ARROWS]
    rng.shuffle(quiver_shapes)
    inputs, items = {}, []
    for i, (nv, na, n) in enumerate(shapes):
        name = f"p{i:03d}"
        inputs[f"{name}.json"] = _plumbing(rng, nv, na, n, rings[i % 3])
        items.append(Item(name, (
            Call(("plumb", f"{name}.json", "--out", f"{name}_w.json"),
                 f"{name}_w.json"),
            Call(("simplify", f"{name}_w.json", "--greedy",
                  "--out", f"{name}_s.json"), f"{name}_s.json"),
            Call(("verify", f"{name}_w.json", f"{name}_s.json"), None),
        )))
    for j, (nv, na, n) in enumerate(quiver_shapes):
        name = f"q{j:03d}"
        inputs[f"{name}.json"] = _quiver(rng, nv, na)
        items.append(Item(name, (
            Call(("ginzburg", f"{name}.json", "--n", str(n), "--coeff",
                  rings[j % 3], "--witness", "--out", f"{name}_g.json"),
                 f"{name}_g.json"),
        )))
    if smoke:
        items = items[:6] + items[len(shapes):len(shapes) + 2]
    return Job(inputs, tuple(items),
               {"plumbings": len(shapes), "quivers": len(quiver_shapes),
                "items": len(items), "rings": list(rings)}, ())


WORKLOADS = {
    "cohomology": cohomology,
    "hom_enum": hom_enum,
    "relations": relations,
    "plumbing_sweep": plumbing_sweep,
}
