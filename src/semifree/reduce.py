"""Presentation simplification: basis change, cancellation, substitution
passes, and post-hocolim strictification.

Every step re-validates the category (degree, ordinal, d^2 = 0), records a
replayable provenance entry, and works on relational categories where that
makes sense.  change_basis, cancel_pair and set_generator all rebuild the
category through one substitution, _substitute: a rule whose left side
mentions a replaced generator is substituted, normalized by the rules it
leaves untouched and oriented again; it is dropped, and recorded under
dropped_rules, only where that relation vanishes or is a multiple of an
identity, and a relation whose lead has no unit coefficient refuses the move.
"""

from __future__ import annotations

from functools import partial

from .algebra import Generator, NcPoly, UnionFind, render_poly, render_word
from .dgcat import (
    BadArgument,
    InputError,
    _field,
    _known,
    new_semifree,
    push_poly,
)
from .rewrite import RuleError, RuleIndex, _order_key


def _substitute(cat, rules, removed: dict, entry: dict, tilde=None):
    """Remove generators from cat with the given rules, replacing
    occurrences by the given polynomials; tilde, which only change_basis
    gives, is (f~, d(f~)), the generator that takes the removed f's rank.

    Only the differentials and rules that use a removed generator are
    pushed through the substitution; the others are carried over with their
    rhs pushed.  A rule whose lhs uses one becomes the relation lhs = rhs,
    substituted, normalized by the carried rules and oriented again by its
    order-maximal word; it is dropped, and recorded under dropped_rules,
    where that relation vanishes or is a multiple of an identity (so
    cancelling a, b in E12, where a*x -> 1, gives D12).  Each rule keeps its
    place.  A relation whose lead has no unit coefficient refuses the move
    with a RuleError naming the move and the relation, and so does the
    rebuilt category (rules that are no longer confluent), naming the move
    and each rule it turned, old -> new.
    """
    ring = cat.ring
    gone = {cat.gen(name) for name in removed}
    survivors = [g for g in cat.generators if g not in gone]
    images = {g.name: NcPoly.gen(ring, g) for g in survivors}
    images.update(removed)
    omap = {o: o for o in cat.objects}
    move = f"{entry['op']} of {', '.join(removed)}"

    def pushed(poly):
        # a word is a tuple of Generators: one set test per word
        if all(gone.isdisjoint(word) for word in poly.terms):
            return poly
        return push_poly(poly, omap, images, ring)

    table = {g.name: pushed(cat.differentials[g.name]) for g in survivors}
    if tilde is not None:
        f_tilde, table[f_tilde.name] = tilde
        survivors = [f_tilde if g in gone else g for g in cat.generators]
    carried = [(lhs, pushed(rhs)) if gone.isdisjoint(lhs) else None
               for lhs, rhs in rules]
    index = None  # of the carried rules, built once a rule is turned
    order = partial(_order_key, weights=cat.weights)
    turned = []  # (old rule, new rule) for each rule whose lhs is substituted
    kept, dropped = {}, []  # kept: an ordered set, as a substitution can
    for (lhs, rhs), rule in zip(rules, carried):  # make two rules one
        if rule is None:
            # the relation lhs = rhs, substituted, normalized and oriented
            # again: a substitution may lower lhs's image below a word of
            # rhs's
            if index is None:
                index = RuleIndex([r for r in carried if r is not None])
            lhs_poly = NcPoly(ring, rhs.source, rhs.target, {lhs: 1})
            eq = index.normalize(pushed(lhs_poly) - pushed(rhs))
            # its order-maximal word leads; identities come first
            lead = max(eq.terms, key=order, default="")
            if isinstance(lead, str):  # eq is 0 or a multiple of an identity
                dropped.append([letter.name for letter in lhs])
                continue
            coeff = eq.terms[lead]
            if not ring.is_unit(coeff):  # dropping it would lose a relation
                raise RuleError(f"{move}: it turned {_rendered((lhs, rhs))} "
                                f"into {render_poly(eq)} = 0, whose lead "
                                f"{render_word(lead)} has the coefficient "
                                f"{coeff}, not a unit")
            rest = NcPoly(ring, eq.source, eq.target,
                          {w: c for w, c in eq.terms.items() if w != lead})
            rule = (lead, (-rest).scale(ring.inv(coeff)))
            turned.append(((lhs, rhs), rule))
        kept[rule] = None
    if dropped:
        entry = dict(entry)
        entry["dropped_rules"] = dropped
    try:
        return new_semifree(ring, cat.objects, survivors, table,
                            cat.provenance + (entry,), list(kept),
                            {name: w for name, w in cat.weights.items()
                             if name in table})  # of the survivors
    except RuleError as err:  # name the move and the rules it turned
        changes = "".join(f"; it turned {_rendered(old)} into {_rendered(new)}"
                          for old, new in turned)
        raise RuleError(f"{move}: {err}{changes}") from None


def _rendered(rule) -> str:
    lhs, rhs = rule
    return f"{render_word(lhs)} -> {render_poly(rhs)}"


# ---------------------------------------------------------------------------
# the four reduction moves
# ---------------------------------------------------------------------------

def change_basis(cat, name: str, unit, lower: NcPoly | None = None,
                 new_name: str | None = None):
    """Replace f by f~ := unit*f + lower, with lower built from strictly
    earlier generators; _substitute rewrites all differentials and rules
    through f = unit^{-1} (f~ - lower)."""
    ring = cat.ring
    g = cat.gen(name)
    unit = ring.normalize(unit)
    if not ring.is_unit(unit):
        raise BadArgument("unit", f"{unit} is not a unit in {ring.render()}")
    if lower is None:
        lower = NcPoly.zero(ring, g.source, g.target)
    if lower.source != g.source or lower.target != g.target:
        raise BadArgument("lower", "basis-change summand has the wrong "
                                   "boundary")
    deg = lower.degree()
    if deg is not None and deg != g.degree:
        raise BadArgument("lower", "basis-change summand has the wrong "
                                   "degree")
    for word in lower.terms:
        if isinstance(word, str):
            continue
        for letter in word:
            if letter.rank >= g.rank:
                raise BadArgument(
                    "lower", f"basis-change summand uses {letter.name} of "
                             f"rank >= rank({name})")
    fresh = new_name or name
    if fresh != name and fresh in {h.name for h in cat.generators}:
        raise BadArgument("renamed", f"name {fresh!r} already used")
    new_gen = Generator(fresh, g.source, g.target, g.degree, g.rank)
    # d(f~) = unit*d(f) + d(lower), neither of which uses f
    d_new = cat.differentials[name].scale(unit) + cat.d(lower)
    replacement = (NcPoly.gen(ring, new_gen) - lower).scale(ring.inv(unit))
    entry = {"op": "change_basis", "gen": name, "unit": str(unit),
             "lower": render_poly(lower), "renamed": fresh,
             "before": len(cat.generators), "after": len(cat.generators)}
    return _substitute(cat, cat.rules, {name: replacement}, entry,
                       (new_gen, d_new))


def cancel_pair(cat, a_name: str, b_name: str):
    """Remove a and b when b is a's partner (see _partner): da = u*b + r
    with u a unit and r built from generators earlier than b; b is replaced
    by -u^{-1} r elsewhere."""
    ring = cat.ring
    a = cat.gen(a_name)
    b = cat.gen(b_name)
    da = cat.differentials[a_name]
    if _partner(da, ring) != b:
        raise BadArgument("b", f"{b_name} is not the partner of {a_name}: "
                               f"d({a_name}) = {render_poly(da)}")
    u = da.terms[(b,)]
    r = NcPoly(ring, da.source, da.target,
               {w: c for w, c in da.terms.items() if w != (b,)})
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
            raise BadArgument("value", f"{name} cannot be set to an "
                                       f"identity")
        image = NcPoly.identity(ring, g.source)
    else:
        raise BadArgument("value", "value must be 'zero' or 'identity'")
    # d(name) uses only earlier generators, so the substitution keeps it
    dx = cat.differentials[name]
    if not cat.normalize(dx).is_zero():
        raise BadArgument(
            "gen", f"setting {name} = {value} breaks d-compatibility: "
                   f"d({name}) maps to {render_poly(dx)}")
    entry = {"op": "set_generator", "gen": name, "value": value,
             "before": len(cat.generators), "after": len(cat.generators) - 1}
    return _substitute(cat, cat.rules, {name: image}, entry)


def strictify_t(cat):
    """Collapse hocolim comparison generators: identify the two objects each
    t_X connects, set t_X and its inverse to identities, and drop the
    localization clusters; t_f generators lose their t_ prefix when free."""
    if cat.rules:
        raise BadArgument(None, "strictify_t cannot keep a category's "
                                "rules")
    entries = [e for e in cat.provenance
               if isinstance(e, dict) and e.get("op") == "hocolim"]
    if not entries:
        raise BadArgument(None, "no hocolim provenance to strictify")
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
        # from_json checks the entry's shape, not that its names exist
        quad = cluster_names.get(t_name, ())
        for name in (t_name, *quad):
            if name not in by_name:
                raise BadArgument(None, f"the hocolim provenance names "
                                        f"{name}, which the category lacks")
        if not quad:
            raise BadArgument(None, f"the hocolim provenance gives {t_name} "
                                    f"no cluster")
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
    table = {renames.get(g.name, g.name): push_poly(cat.differentials[g.name],
                                                    rep, images, ring)
             for g in cat.generators if g.name not in removed_names}
    step = {"op": "strictify", "merged": {o: rep[o] for o in cat.objects
                                          if rep[o] != o},
            "renamed": renames,
            "before": len(cat.generators), "after": len(survivors)}
    provenance = tuple(
        e if not (isinstance(e, dict) and e.get("op") == "hocolim"
                  and e is entry)
        else {k: v for k, v in e.items() if k != "clusters"} | {"op": "hocolim_strictified"}
        for e in cat.provenance) + (step,)
    return new_semifree(ring, objects, survivors, table, provenance)


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


def greedy_simplify(cat):
    """Repeatedly cancel eligible (a, b) pairs until none remain.

    Each round cancels the pair of the first generator a, in rank order,
    that has a partner b.
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


def _parsed(where: str, parse, *args):
    """parse(*args), whose first argument is a text; a text that does not
    parse is an InputError at where."""
    try:
        return parse(*args)
    except ValueError as err:
        raise InputError(where, str(err)) from None


def _moved(where: str, move, *args):
    """move(*args), the move of the step at where; an argument it refuses
    is an InputError at the step key that gives it (the step itself for
    the category)."""
    try:
        return move(*args)
    except BadArgument as err:
        raise InputError(f"{where}.{err.argument}" if err.argument else where,
                         str(err)) from None


def replay(cat, steps):
    """Replay a serialized reduction script, a list of steps; a malformed
    step, one naming a generator the category lacks, or one whose move
    refuses an argument (BadArgument), is an InputError at its JSON path."""
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
                           arg("unit", default="1"))
            lower = _parsed(f"{where}.lower", cat.poly,
                            arg("lower", default="0"), g.source, g.target)
            cat = _moved(where, change_basis, cat, g.name, unit, lower,
                         arg("renamed", default=None))
        elif op == "cancel_pair":
            cat = _moved(where, cancel_pair, cat,
                         _gen_arg(cat, step, "a", where),
                         _gen_arg(cat, step, "b", where))
        elif op == "set_generator":
            cat = _moved(where, set_generator, cat,
                         _gen_arg(cat, step, "gen", where), arg("value"))
        elif op == "strictify":
            cat = _moved(where, strictify_t, cat)
        elif op == "localize":
            cat = _moved(where, localize, cat, _known(
                arg("gens", kind=list), cat.gen_map(), "generator named",
                f"{where}.gens"))
        elif op == "name_generator":
            ends = [_known((arg(key),), cat.objects, "object",
                           f"{where}.{key}")[0] for key in ("src", "tgt")]
            expr = _parsed(f"{where}.expr", cat.poly, arg("expr"), *ends)
            cat = _moved(where, name_as_generator, cat, expr, arg("name"))
        elif op == "greedy":
            cat, _ = greedy_simplify(cat)
        else:
            raise InputError(f"{where}.op", f"unknown reduction step {op!r}")
    return cat
