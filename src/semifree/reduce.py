"""Presentation simplification: basis change, cancellation, substitution
passes, and post-hocolim strictification.

Every step re-validates the category (degree, ordinal, d^2 = 0), records a
replayable provenance entry, and works on relational categories where that
makes sense (rule right-hand sides are rewritten; rules whose left side
mentions a removed generator are dropped and recorded).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Generator, NcPoly, UnionFind, render_poly
from .dgcat import new_semifree, push_poly
from .rewrite import new_relational


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    params: dict
    before: int
    after: int

    def to_json(self):
        return {"kind": self.kind, "params": self.params,
                "before": self.before, "after": self.after}


def _rebuild(cat, gens, table, rules, entry):
    provenance = cat.provenance + (entry,)
    if rules:
        return new_relational(cat.ring, cat.objects, gens, table, rules,
                              cat.weights, provenance)
    return new_semifree(cat.ring, cat.objects, gens, table, provenance)


def _substitute(cat, removed: dict, entry: dict, renames: dict | None = None):
    """Remove generators, replacing occurrences by the given polynomials."""
    ring = cat.ring
    renames = renames or {}
    survivors = []
    for g in cat.generators:
        if g.name in removed:
            continue
        survivors.append(Generator(renames.get(g.name, g.name), g.source,
                                   g.target, g.degree, g.rank))
    images = {}
    for g, ng in zip([g for g in cat.generators if g.name not in removed],
                     survivors):
        images[g.name] = NcPoly.gen(ring, ng)
    images.update(removed)
    omap = {o: o for o in cat.objects}
    table = {}
    for g, ng in zip([g for g in cat.generators if g.name not in removed],
                     survivors):
        table[ng.name] = push_poly(cat.differentials[g.name], omap, images, ring)
    rules = []
    if cat.rules:
        dropped = []
        by_name = {g.name: g for g in survivors}
        for lhs, rhs in cat.rules:
            if any(letter.name in removed for letter in lhs):
                dropped.append([letter.name for letter in lhs])
                continue
            new_lhs = tuple(by_name[letter.name] for letter in lhs)
            rules.append((new_lhs, push_poly(rhs, omap, images, ring)))
        if dropped:
            entry = dict(entry)
            entry["dropped_rules"] = dropped
    return _rebuild(cat, survivors, table, rules, entry)


# ---------------------------------------------------------------------------
# the four reduction moves
# ---------------------------------------------------------------------------

def change_basis(cat, name: str, unit, lower: NcPoly | None = None,
                 new_name: str | None = None):
    """Replace f by f~ := unit*f + lower, with lower built from strictly
    earlier generators; all differentials and rules are rewritten."""
    ring = cat.ring
    g = cat.gen(name)
    unit = ring.normalize(unit)
    if not ring.is_unit(unit):
        raise ValueError(f"{unit} is not a unit in {ring.render()}")
    if lower is None:
        lower = NcPoly.zero(ring, g.source, g.target)
    if lower.source != g.source or lower.target != g.target:
        raise ValueError("basis-change summand has the wrong boundary")
    deg = lower.degree()
    if deg is not None and deg != g.degree:
        raise ValueError("basis-change summand has the wrong degree")
    for word in lower.terms:
        if isinstance(word, str):
            continue
        for letter in word:
            if letter.rank >= g.rank:
                raise ValueError(
                    f"basis-change summand uses {letter.name} of rank >= "
                    f"rank({name})")
    fresh = new_name or name
    if fresh != name and fresh in {h.name for h in cat.generators}:
        raise ValueError(f"name {fresh!r} already used")
    new_gen = Generator(fresh, g.source, g.target, g.degree, g.rank)
    # old f = unit^{-1} (f~ - lower)
    inv = ring.inv(unit)
    replacement = (NcPoly.gen(ring, new_gen) - lower).scale(inv)
    ring_one = ring.one()

    survivors = []
    images = {}
    for h in cat.generators:
        if h.name == name:
            survivors.append(new_gen)
            images[name] = replacement
        else:
            survivors.append(h)
            images[h.name] = NcPoly.gen(ring, h)
    omap = {o: o for o in cat.objects}
    table = {}
    for h, nh in zip(cat.generators, survivors):
        if h.name == name:
            # d(f~) = unit*d(f) + d(lower); no occurrences of f possible
            table[fresh] = (cat.d(NcPoly.gen(ring, g)).scale(unit)
                            + cat.d(lower))
        else:
            table[nh.name] = push_poly(cat.differentials[h.name], omap,
                                       images, ring)
    rules = []
    if cat.rules:
        from .rewrite import RuleIndex, normalize_poly
        carried = []
        pending_eqs = []
        for lhs, rhs in cat.rules:
            if any(letter.name == name for letter in lhs):
                lhs_poly = NcPoly(ring, lhs[-1].source, lhs[0].target,
                                  {lhs: ring_one})
                pending_eqs.append(push_poly(lhs_poly - rhs, omap, images,
                                             ring))
            else:
                carried.append((lhs, push_poly(rhs, omap, images, ring)))
        rules = list(carried)
        carried_index = RuleIndex(carried)
        for eq in pending_eqs:
            eq = normalize_poly(carried_index, eq)
            if not eq.is_zero():
                rules.append(_orient(eq, cat.weights))
    entry = {"op": "change_basis", "gen": name, "unit": ring.render_value(unit),
             "lower": render_poly(lower), "renamed": fresh,
             "before": len(cat.generators), "after": len(survivors)}
    return _rebuild(cat, survivors, table, rules, entry)


def _orient(eq: NcPoly, weights) -> tuple:
    """Orient an equation eq = 0 into a rule by its order-maximal word."""
    from .rewrite import _order_key
    if eq.is_zero():
        raise ValueError("cannot orient the zero relation")
    ring = eq.ring
    words = sorted(eq.terms, key=lambda w: _order_key(w, weights))
    lead = words[-1]
    if isinstance(lead, str):
        raise ValueError("relation with identity leading word")
    coeff = eq.terms[lead]
    if not ring.is_unit(coeff):
        raise ValueError("leading coefficient of relation is not a unit")
    rest = NcPoly(ring, eq.source, eq.target,
                  {w: c for w, c in eq.terms.items() if w != lead})
    return (lead, (-rest).scale(ring.inv(coeff)))


def cancel_pair(cat, a_name: str, b_name: str):
    """Remove a and b when da = u*b + r with u a unit and r built from
    generators earlier than b; b is replaced by -u^{-1} r elsewhere."""
    ring = cat.ring
    a = cat.gen(a_name)
    b = cat.gen(b_name)
    da = cat.differentials[a_name]
    u = da.terms.get((b,))
    if u is None or not ring.is_unit(u):
        raise ValueError(
            f"d({a_name}) has no unit-coefficient {b_name} term")
    r = NcPoly(ring, da.source, da.target,
               {w: c for w, c in da.terms.items() if w != (b,)})
    for word in r.terms:
        if isinstance(word, str):
            continue
        for letter in word:
            if letter.rank >= b.rank:
                raise ValueError(
                    f"remainder of d({a_name}) uses {letter.name} of rank >= "
                    f"rank({b_name})")
    replacement = (-r).scale(ring.inv(u))
    entry = {"op": "cancel_pair", "a": a_name, "b": b_name,
             "before": len(cat.generators), "after": len(cat.generators) - 2}
    removed = {a_name: NcPoly.zero(ring, a.source, a.target),
               b_name: replacement}
    return _substitute(cat, removed, entry)


def set_generator(cat, name: str, value: str):
    """Substitute 0 or the identity for a closed generator and remove it."""
    ring = cat.ring
    g = cat.gen(name)
    if value == "zero":
        image = NcPoly.zero(ring, g.source, g.target)
    elif value == "identity":
        if g.source != g.target or g.degree != 0:
            raise ValueError(f"{name} cannot be set to an identity")
        image = NcPoly.identity(ring, g.source)
    else:
        raise ValueError("value must be 'zero' or 'identity'")
    push = push_poly(cat.differentials[name], {o: o for o in cat.objects},
                     {h.name: (image if h.name == name else
                               NcPoly.gen(ring, h)) for h in cat.generators},
                     ring)
    if not cat.normalize(push).is_zero():
        raise ValueError(
            f"setting {name} = {value} breaks d-compatibility: "
            f"d({name}) maps to {render_poly(push)}")
    entry = {"op": "set_generator", "gen": name, "value": value,
             "before": len(cat.generators), "after": len(cat.generators) - 1}
    return _substitute(cat, {name: image}, entry)


def strictify_t(cat):
    """Collapse hocolim comparison generators: identify the two objects each
    t_X connects, set t_X and its inverse to identities, and drop the
    localization clusters; t_f generators lose their t_ prefix when free."""
    return strictify_t_with_map(cat)[0]


def strictify_t_with_map(cat):
    """strictify_t plus the substitution data (object map, name images)."""
    entries = [e for e in cat.provenance
               if isinstance(e, dict) and e.get("op") == "hocolim"]
    if not entries:
        raise ValueError("no hocolim provenance to strictify")
    entry = entries[-1]
    t_names = set(entry["t_objects"].values())
    cluster_names = {}
    for cluster in entry["clusters"]:
        cluster_names[cluster[0]] = cluster[1:]

    # merge the objects each t_X connects; a merged object takes the
    # smallest name
    merged = UnionFind(cat.objects)
    by_name = cat.gen_map()
    for t_name in sorted(t_names):
        t = by_name[t_name]
        merged.union(t.source, t.target)
    rep = {o: merged.find(o) for o in cat.objects}
    objects = []
    for o in cat.objects:
        if rep[o] == o:
            objects.append(o)

    removed_names = set(t_names)
    for t_name, quad in cluster_names.items():
        removed_names.update(quad)

    ring = cat.ring
    taken = {g.name for g in cat.generators if g.name not in removed_names}
    renames = {}
    for old, t_f in sorted(entry["t_gens"].items()):
        if t_f in removed_names:
            continue
        if old not in taken:
            renames[t_f] = old
            taken.add(old)
    survivors = []
    images = {}
    for g in cat.generators:
        if g.name in removed_names:
            continue
        ng = Generator(renames.get(g.name, g.name), rep[g.source],
                       rep[g.target], g.degree, g.rank)
        survivors.append(ng)
        images[g.name] = NcPoly.gen(ring, ng)
    for t_name in t_names:
        t = by_name[t_name]
        merged = rep[t.source]
        images[t_name] = NcPoly.identity(ring, merged)
        quad = cluster_names[t_name]
        images[quad[0]] = NcPoly.identity(ring, merged)
        for dead in quad[1:]:
            gdead = by_name[dead]
            images[dead] = NcPoly.zero(ring, rep[gdead.source],
                                       rep[gdead.target])
    table = {}
    for g in cat.generators:
        if g.name in removed_names:
            continue
        table[images[g.name].sorted_terms()[0][0][0].name] = push_poly(
            cat.differentials[g.name], rep, images, ring)
    step = {"op": "strictify", "merged": {o: rep[o] for o in cat.objects
                                          if rep[o] != o},
            "renamed": renames,
            "before": len(cat.generators), "after": len(survivors)}
    provenance = tuple(
        e if not (isinstance(e, dict) and e.get("op") == "hocolim"
                  and e is entry)
        else {k: v for k, v in e.items() if k != "clusters"} | {"op": "hocolim_strictified"}
        for e in cat.provenance) + (step,)
    strict = new_semifree(ring, objects, survivors, table, provenance)
    return strict, rep, images


def eliminate_generator(cat, name: str):
    """Remove a generator that a rewrite rule identifies with a word.

    Requires a rule w -> u*name with u a unit; the generator is replaced by
    u^{-1} w everywhere and the defining rule is dropped.  The rebuild
    re-checks ordinal and d^2 conditions, so an unsound elimination raises.
    """
    if not cat.rules:
        raise ValueError("eliminate_generator works on relational categories")
    ring = cat.ring
    defining = None
    for idx, (lhs, rhs) in enumerate(cat.rules):
        items = list(rhs.terms.items())
        if len(items) != 1:
            continue
        word, coeff = items[0]
        if (not isinstance(word, str) and len(word) == 1
                and word[0].name == name and ring.is_unit(coeff)):
            defining = (idx, lhs, coeff)
            break
    if defining is None:
        raise ValueError(f"no rule identifies {name!r} with a word")
    idx, lhs, coeff = defining
    replacement = NcPoly(ring, lhs[-1].source, lhs[0].target,
                         {lhs: ring.inv(coeff)})
    trimmed = replace(cat, rules=cat.rules[:idx] + cat.rules[idx + 1:])
    entry = {"op": "eliminate", "gen": name,
             "word": [g.name for g in lhs],
             "before": len(cat.generators), "after": len(cat.generators) - 1}
    return _substitute(trimmed, {name: replacement}, entry)


# ---------------------------------------------------------------------------
# greedy pass and script replay
# ---------------------------------------------------------------------------

def cancellable_pairs(cat):
    """Deterministic list of (a, b) currently eligible for cancel_pair."""
    ring = cat.ring
    out = []
    used = set()
    for a in cat.generators:
        da = cat.differentials[a.name]
        for word, coeff in da.sorted_terms():
            if isinstance(word, str) or len(word) != 1:
                continue
            b = word[0]
            if not ring.is_unit(coeff) or a.name in used or b.name in used:
                continue
            rest_ok = all(
                isinstance(w, str) or all(letter.rank < b.rank for letter in w)
                for w in da.terms if w != word)
            if rest_ok:
                out.append((a.name, b.name))
                used.update((a.name, b.name))
                break
    return out

def greedy_simplify(cat):
    """Repeatedly cancel eligible (a, b) pairs until none remain."""
    steps = []
    while True:
        pairs = cancellable_pairs(cat)
        if not pairs:
            return cat, steps
        a, b = pairs[0]
        cat = cancel_pair(cat, a, b)
        steps.append({"op": "cancel_pair", "a": a, "b": b})


def replay(cat, steps):
    """Replay a serialized reduction script."""
    from .constructions import localize, name_as_generator
    for step in steps:
        op = step["op"]
        if op == "change_basis":
            g = cat.gen(step["gen"])
            lower = cat.poly(step.get("lower", "0"), g.source, g.target)
            cat = change_basis(cat, step["gen"],
                               cat.ring.parse_value(step.get("unit", "1")),
                               lower, step.get("renamed"))
        elif op == "cancel_pair":
            cat = cancel_pair(cat, step["a"], step["b"])
        elif op == "set_generator":
            cat = set_generator(cat, step["gen"], step["value"])
        elif op == "strictify":
            cat = strictify_t(cat)
        elif op == "localize":
            cat = localize(cat, step["gens"])
        elif op == "name_generator":
            expr = cat.poly(step["expr"], step["src"], step["tgt"])
            cat = name_as_generator(cat, expr, step["name"])
        elif op == "greedy":
            cat, _ = greedy_simplify(cat)
        else:
            raise ValueError(f"unknown reduction step {op!r}")
    return cat


def steps_from_provenance(cat):
    """ReductionStep records for the reduction entries in the provenance."""
    out = []
    for e in cat.provenance:
        if isinstance(e, dict) and e.get("op") in (
                "change_basis", "cancel_pair", "set_generator", "strictify"):
            kinds = {"change_basis": "BasisChange", "cancel_pair": "CancelPair",
                     "set_generator": "SetToConstant",
                     "strictify": "IdentifyObjects"}
            params = {k: v for k, v in e.items()
                      if k not in ("op", "before", "after")}
            out.append(ReductionStep(kinds[e["op"]], params,
                                     e.get("before", -1), e.get("after", -1)))
    return out
