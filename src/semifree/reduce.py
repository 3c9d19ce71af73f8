"""Presentation simplification: basis change, cancellation, substitution
passes, and post-hocolim strictification.

Every step re-validates the category (degree, ordinal, d^2 = 0), records a
replayable provenance entry, and works on relational categories where that
makes sense (rules are rewritten; a rule whose left side mentions a removed
generator is substituted and oriented again, and dropped and recorded only
where the substituted relation vanishes or has no unit lead).
"""

from __future__ import annotations

from functools import partial

from .algebra import Generator, NcPoly, UnionFind, render_poly
from .dgcat import (
    _PARSE_ERRORS,
    InputError,
    _field,
    _known,
    new_semifree,
    push_poly,
)


def _substitute(cat, rules, removed: dict, entry: dict):
    """Remove generators from cat with the given rules, replacing
    occurrences by the given polynomials.

    Only the differentials and rules that use a removed generator are
    pushed through the substitution; the others are carried over unchanged.
    A rule whose lhs uses one becomes the relation lhs = rhs, substituted,
    oriented again by _orient; it is dropped, and recorded under
    dropped_rules, where that relation vanishes or has no unit lead.
    """
    ring = cat.ring
    gone = {cat.gen(name) for name in removed}
    survivors = [g for g in cat.generators if g.name not in removed]
    images = {g.name: NcPoly.gen(ring, g) for g in survivors}
    images.update(removed)
    omap = {o: o for o in cat.objects}

    def pushed(poly):
        # a word is a tuple of Generators: one set test per word
        if all(gone.isdisjoint(word) for word in poly.terms):
            return poly
        return push_poly(poly, omap, images, ring)

    table = {g.name: pushed(cat.differentials[g.name]) for g in survivors}
    one = ring.one()
    kept, dropped = {}, []  # kept: an ordered set, as a substitution can
    for lhs, rhs in rules:  # make two rules one
        if gone.isdisjoint(lhs):
            rule = (lhs, pushed(rhs))
        else:
            # the relation lhs = rhs, substituted and oriented again: a
            # substitution may lower lhs's image below a word of rhs's
            lhs_poly = NcPoly(ring, rhs.source, rhs.target, {lhs: one})
            try:
                rule = _orient(pushed(lhs_poly) - pushed(rhs), cat.weights)
            except ValueError:  # nothing is left, or no unit leads
                dropped.append([letter.name for letter in lhs])
                continue
        kept[rule] = None
    if dropped:
        entry = dict(entry)
        entry["dropped_rules"] = dropped
    return new_semifree(ring, cat.objects, survivors, table,
                        cat.provenance + (entry,), list(kept), cat.weights)


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
    return new_semifree(ring, cat.objects, survivors, table,
                        cat.provenance + (entry,), rules, cat.weights)


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
    return _substitute(cat, cat.rules, removed, entry)


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
    return _substitute(cat, cat.rules, {name: image}, entry)


def strictify_t(cat):
    """Collapse hocolim comparison generators: identify the two objects each
    t_X connects, set t_X and its inverse to identities, and drop the
    localization clusters; t_f generators lose their t_ prefix when free."""
    return strictify_t_with_map(cat)[0]


def strictify_t_with_map(cat):
    """strictify_t plus the substitution data (object map, name images)."""
    if cat.rules:
        raise ValueError("strictify_t cannot keep a category's rules")
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
    u^{-1} w everywhere and the defining rule is dropped.  The one rebuild
    (the other rules need not be confluent without the defining one)
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
    entry = {"op": "eliminate", "gen": name,
             "word": [g.name for g in lhs],
             "before": len(cat.generators), "after": len(cat.generators) - 1}
    return _substitute(cat, cat.rules[:idx] + cat.rules[idx + 1:],
                       {name: replacement}, entry)


# ---------------------------------------------------------------------------
# greedy pass and script replay
# ---------------------------------------------------------------------------

def _partner(da: NcPoly, ring):
    """The b that makes (a, b) cancellable when da = d(a), or None.

    b must be a single-letter term with a unit coefficient whose rank
    exceeds every letter of every other term, so only the single-letter
    term of highest rank can qualify.
    """
    terms = da.terms
    b = None
    for word in terms:
        if (not isinstance(word, str) and len(word) == 1
                and (b is None or word[0].rank > b.rank)):
            b = word[0]
    if b is None or not ring.is_unit(terms[(b,)]):
        return None
    for word in terms:
        if isinstance(word, str) or len(word) == 1:
            continue  # another single letter ranks below b
        for letter in word:
            if letter.rank >= b.rank:
                return None
    return b


def cancellable_pairs(cat):
    """Deterministic list of (a, b) currently eligible for cancel_pair."""
    out = []
    used = set()
    for a in cat.generators:
        b = _partner(cat.differentials[a.name], cat.ring)
        if b is not None and a.name not in used and b.name not in used:
            out.append((a.name, b.name))
            used.update((a.name, b.name))
    return out


def greedy_simplify(cat):
    """Repeatedly cancel eligible (a, b) pairs until none remain.

    Each round cancels the first pair cancellable_pairs would list.
    """
    steps = []
    while True:
        for a in cat.generators:
            b = _partner(cat.differentials[a.name], cat.ring)
            if b is not None:
                break
        else:
            return cat, steps
        cat = cancel_pair(cat, a.name, b.name)
        steps.append({"op": "cancel_pair", "a": a.name, "b": b.name})


def _gen_arg(cat, step: dict, key: str, where: str) -> str:
    """step[key], the name of a generator of cat."""
    name = _field(step, key, str, where)
    _known((name,), cat.gen_map(), "generator named", f"{where}.{key}")
    return name


def _text_arg(step: dict, key: str, default, where: str):
    """step[key], a string, or default when the step does not give it."""
    return _field(step, key, str, where) if key in step else default


def _parsed(where: str, parse, *args):
    """parse(*args), whose first argument is a text; a text that does not
    parse is an InputError at where."""
    try:
        return parse(*args)
    except _PARSE_ERRORS as err:
        raise InputError(where, str(err)) from None


def replay(cat, steps):
    """Replay a serialized reduction script, a list of steps; a malformed
    step, or one naming a generator the category lacks, is an InputError at
    its JSON path."""
    from .constructions import localize, name_as_generator
    if not isinstance(steps, list):
        raise InputError("document", f"expected a list of steps, got "
                                     f"{type(steps).__name__}")
    for i, step in enumerate(steps):
        where = f"[{i}]"
        if not isinstance(step, dict):
            raise InputError(where, f"expected an object, got {step!r}")
        arg = partial(_field, step, kind=str, where=where)
        op = arg("op")
        if op == "change_basis":
            g = cat.gen(_gen_arg(cat, step, "gen", where))
            unit = _parsed(f"{where}.unit", cat.ring.parse_value,
                           _text_arg(step, "unit", "1", where))
            lower = _parsed(f"{where}.lower", cat.poly,
                            _text_arg(step, "lower", "0", where),
                            g.source, g.target)
            renamed = _text_arg(step, "renamed", None, where)
            if renamed != g.name and renamed in cat.gen_map():
                raise InputError(f"{where}.renamed",
                                 f"name {renamed!r} already used")
            cat = change_basis(cat, g.name, unit, lower, renamed)
        elif op == "cancel_pair":
            cat = cancel_pair(cat, _gen_arg(cat, step, "a", where),
                              _gen_arg(cat, step, "b", where))
        elif op == "set_generator":
            name, value = _gen_arg(cat, step, "gen", where), arg("value")
            if value not in ("zero", "identity"):
                raise InputError(f"{where}.value",
                                 "value must be 'zero' or 'identity'")
            cat = set_generator(cat, name, value)
        elif op == "strictify":
            cat = strictify_t(cat)
        elif op == "localize":
            cat = localize(cat, _known(arg("gens", kind=list), cat.gen_map(),
                                       "generator named", f"{where}.gens"))
        elif op == "name_generator":
            ends = [_known((arg(key),), cat.objects, "object",
                           f"{where}.{key}")[0] for key in ("src", "tgt")]
            expr = _parsed(f"{where}.expr", cat.poly, arg("expr"), *ends)
            name = arg("name")
            if {name, name + "_htpy"} & cat.gen_map().keys():
                raise InputError(f"{where}.name",
                                 f"name {name!r} already used")
            cat = name_as_generator(cat, expr, name)
        elif op == "greedy":
            cat, _ = greedy_simplify(cat)
        else:
            raise InputError(f"{where}.op", f"unknown reduction step {op!r}")
    return cat
