"""Truncated cohomology ranks, presentation comparison, and reports.

Rank computation restricts a hom complex to a degree window and word-length
bound.  Truncation is a filtration approximation: a degree is marked exact
only when no differential of a basis word leaves the bound, and the caveat
travels with every table.  All elimination is exact (fraction-free over the
integers for rational ranks, modular for prime fields) and shares one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import NcPoly, Ring, render_poly
from .dgcat import _d_table, hom_slice, new_semifree, push_poly
from .rewrite import audit_rules, new_relational, normal_form


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def exact_rank(rows, ring: Ring) -> int:
    """Rank of a sparse integer/rational/modular matrix, exactly.

    rows is a list of {column: value} dicts; they are not modified, and
    their values need not be reduced: zeros and, over Zmod, multiples of
    the modulus are dropped here.  A row with one nonzero entry pivots its
    column outright.  Every other row is copied once, with its values
    reduced mod p or its denominators cleared, and without the zeros and
    the columns of those pivots; the copies are eliminated by _rank_core.
    Q ranks are thus always computed over the integers, never modulo a
    prime.
    """
    p = ring.modulus if ring.kind == "Zmod" else None
    pivoted = set()  # the columns of one-entry rows
    rest = []
    for row in rows:
        if len(row) == 1:
            for c, v in row.items():
                if v % p if p is not None else v:
                    pivoted.add(c)
        elif row:
            rest.append(row)
    reduced = []
    for row in rest:
        if p is not None:
            row = {c: r for c, v in row.items()
                   if (r := v % p) and c not in pivoted}
        elif type(sum(row.values())) is int:  # no Fraction in the row
            row = {c: v for c, v in row.items() if v and c not in pivoted}
        else:
            denom = lcm(*(v.denominator for v in row.values()))
            row = {c: int(v * denom) for c, v in row.items()
                   if v and c not in pivoted}
        if row:
            reduced.append(row)
    return len(pivoted) + _rank_core(reduced, p)


def _rank_core(rows, p) -> int:
    """Rank by sparse elimination into pivot rows keyed by leading column.

    rows are {column: nonzero value} dicts, which the core reduces in
    place.  A row's leading column is its largest.  The hom complex lists
    columns by word length, so that is the row's longest word, which few
    other rows share: pivots chosen there meet fewer rows and stay short
    (fill-in).  Rows enter sparsest first.  Each is reduced
    against the pivots found so far until it vanishes or its leading column
    has no pivot, and then it becomes that column's pivot.  With p None the
    entries are integers and a reduction is fraction-free: cross-multiply,
    then divide out the gcd of the row.  With p set the entries are residues
    mod the prime p and each pivot is scaled to lead with 1.  A pivot row is
    never changed again, so a row costs one pass over each pivot it meets.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                if p is not None and row[col] != 1:
                    inv = pow(row[col], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[col] = row
                break
            factor = row[col]
            if p is None:
                g = gcd(pivot[col], factor)
                lead, factor = pivot[col] // g, factor // g
                if lead != 1:
                    row = {c: v * lead for c, v in row.items()}
            for c, v in pivot.items():
                s = row.get(c, 0) - v * factor
                if p is not None:
                    s %= p
                if s:
                    row[c] = s
                else:
                    del row[c]
            if p is None and row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
    return len(pivots)


# ---------------------------------------------------------------------------
# coefficient change
# ---------------------------------------------------------------------------

def _converter(ring: Ring):
    """The map of int and Fraction values into ring."""
    def convert(value):
        if ring.kind == "Zmod" and isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            if gcd(den, ring.modulus) != 1:
                raise ValueError(f"denominator {den} not invertible mod "
                                 f"{ring.modulus}")
            return num * pow(den, -1, ring.modulus) % ring.modulus
        return ring.normalize(value)
    return convert


def change_coefficients(cat, ring: Ring):
    """Rebuild a presentation over another exact ring (values mapped through)."""
    if cat.ring == ring:
        return cat
    convert = _converter(ring)
    table = {name: NcPoly(ring, p.source, p.target,
                          {w: convert(c) for w, c in p.terms.items()
                           if not ring.is_zero(convert(c))})
             for name, p in cat.differentials.items()}
    entry = {"op": "change_coefficients", "ring": ring.render()}
    if cat.rules:
        rules = [(lhs, NcPoly(ring, r.source, r.target,
                              {w: convert(c) for w, c in r.terms.items()
                               if not ring.is_zero(convert(c))}))
                 for lhs, r in cat.rules]
        return new_relational(ring, cat.objects, cat.generators, table, rules,
                              cat.weights, cat.provenance + (entry,))
    return new_semifree(ring, cat.objects, cat.generators, table,
                        cat.provenance + (entry,))


def _over_field(cat, field: Ring, table=None):
    """cat's coded d table (dgcat._d_table, or table, which is mapped in
    place) and rule index (None without rules) with their values mapped
    into field, d terms first: those of change_coefficients(cat, field),
    without building the category."""
    if table is None:
        table = _d_table(cat)
    rules = cat._index if cat.rules else None
    if field == cat.ring:
        return table, rules
    convert, neg = _converter(field), field.neg
    for r, (g, (terms, _)) in table.items():
        terms = [(t, v) for t, c in terms if (v := convert(c))]
        table[r] = (g, (terms, [(t, neg(v)) for t, v in terms]))
    if rules is not None:
        rules = rules.mapped(convert, field)
    return table, rules


# ---------------------------------------------------------------------------
# truncated cohomology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankTable:
    source: str
    target: str
    window: tuple
    bound: int
    field: str
    ranks: dict        # degree -> cohomology rank
    exact: dict        # degree -> truncation-free flag
    basis_sizes: dict

    def to_json(self):
        return {
            "source": self.source,
            "target": self.target,
            "window": list(self.window),
            "bound": self.bound,
            "field": self.field,
            "ranks": {str(k): v for k, v in sorted(self.ranks.items())},
            "exact": {str(k): v for k, v in sorted(self.exact.items())},
            "basis": {str(k): v for k, v in sorted(self.basis_sizes.items())},
        }

    def markdown(self) -> str:
        lines = [f"| degree | rank | dim C^k | exact |",
                 f"|---|---|---|---|"]
        for k in sorted(self.ranks):
            lines.append(f"| {k} | {self.ranks[k]} | "
                         f"{self.basis_sizes.get(k, 0)} | "
                         f"{'yes' if self.exact[k] else 'no'} |")
        return "\n".join(lines)


def truncated_cohomology(cat, source: str, target: str, window, bound: int,
                         field: Ring) -> RankTable:
    """Kernel/image ranks of the word-length-truncated hom complex."""
    if not field.is_field():
        raise ValueError(f"{field.render()} is not a field")
    lo, hi = window
    if lo > hi:
        raise ValueError(f"hom window {lo}:{hi} is empty (lo > hi)")
    copied = cat.ring.kind == "Zmod" and field != cat.ring
    if copied:
        # Residues mod m read as values of another field make no ring map,
        # so d^2 = 0 and the rules' compatibility with d over Zmod:m need
        # not hold there: rebuild cat over field, which audits both
        cat = change_coefficients(cat, field)
    words = hom_slice(cat, source, target, (lo - 1, hi + 1),
                      bound).words_by_degree
    # degree -> {coded word: column}, in the slice's order
    index = {k: {w: i for i, w in enumerate(words.get(k, ()))}
             for k in range(lo - 1, hi + 2)}
    del words  # the index holds every word the rows need
    table = _d_table(cat)
    if cat.rules and not copied:
        # The rows normalize through the rules, so they must commute with
        # d.  One audit over cat's ring (Z, Q or field itself) covers
        # field: the map into field is then a ring map, which keeps rule/d
        # compatibility, and normal forms commute with it.  Every
        # constructor and from_json audited d^2 = 0 over cat's ring.
        audit_rules(cat, table)
    table, rules = _over_field(cat, field, table)
    ranks_d = {}
    dropped = {}
    for k in range(lo - 1, hi + 1):
        rows, dropped[k] = _d_rows(field, table, rules, index[k],
                                   index[k + 1], bound)
        ranks_d[k] = exact_rank(rows, field)
    ranks = {}
    exact = {}
    for k in range(lo, hi + 1):
        dim = len(index[k])
        rank_out, rank_in = ranks_d.get(k, 0), ranks_d.get(k - 1, 0)
        value = dim - rank_out - rank_in
        if value < 0:
            raise ValueError(
                f"negative cohomology rank in degree {k}: dim {dim} - "
                f"rank d_{k} {rank_out} - rank d_{k - 1} {rank_in} = {value}; "
                f"the truncated differential does not square to zero")
        ranks[k] = value
        exact[k] = not (dropped.get(k, False) or dropped.get(k - 1, False))
    return RankTable(source, target, (lo, hi), bound, field.render(), ranks,
                     exact, {k: len(index[k]) for k in range(lo, hi + 1)})


def _d_rows(ring: Ring, table: dict, rules, basis: dict, index: dict,
            bound: int):
    """The rows {column in index: value} of d on the coded words of basis,
    by the graded Leibniz rule, and whether a term of some d(word) was lost
    (outside index: longer than the bound or not listed).  table is a coded
    d table (dgcat._d_table) and rules a rule index or None, both with
    values in ring; the terms outside index are normalized through rules
    first.

    Each spliced term in index is added straight into its column.  The
    values are raw sums, not reduced: a row may hold zeros and, over Zmod,
    values of any size; exact_rank reduces them.  Only the sum of a term
    outside index is reduced, to decide whether it is lost.

    index lists words of length at most bound.  Once a term is lost, a
    spliced term longer than bound can change no row and no flag unless a
    rule shortens it back into index, so, when no rule has an rhs word
    shorter than its lhs, it is not built: a word of length L takes only
    the d terms of length at most bound + 1 - L.  Until then every term is
    built, so the flag never rests on terms beyond the bound failing to
    cancel.
    """
    p = ring.modulus if ring.kind == "Zmod" else None
    rows = []
    lost = False
    # an identity rhs word is (), of length 0
    trim = rules is None or all(len(w) >= len(lhs)
                                for lhs, terms, _ in rules.rules
                                for w, _ in terms)
    trimmed = {}  # room -> table with the d terms of length <= room
    for word in basis:
        use = table
        if lost and trim:
            room = bound + 1 - len(word)
            use = trimmed.get(room)
            if use is None:
                use = trimmed[room] = _trim(table, room)
        row = {}
        outside = {}
        left_degree = 0
        for j, r in enumerate(word):
            g, signed = use[r]
            dterms = signed[left_degree % 2]
            if dterms:
                left, right = word[:j], word[j + 1:]
                for t, c in dterms:
                    key = left + t + right
                    col = index.get(key)
                    if col is None:
                        outside[key] = outside.get(key, 0) + c
                    else:
                        row[col] = row.get(col, 0) + c
            left_degree += g.degree
        if outside:
            if rules is not None:
                # the words of index are irreducible already: hom_slice
                # lists no reducible word
                normal = normal_form(rules, ring, [
                    (key, r) for key, value in outside.items()
                    if (r := value % p if p is not None else value)])
                outside = {}
                for key, value in normal.items():
                    col = index.get(key)
                    if col is None:
                        outside[key] = value
                    else:
                        row[col] = row.get(col, 0) + value
            if not lost:
                for value in outside.values():
                    if value % p if p is not None else value:
                        lost = True
                        break
        if row:
            rows.append(row)
    return rows, lost


def _trim(table: dict, room: int) -> dict:
    """table with only the d terms of at most room letters."""
    return {r: (g, tuple([(t, c) for t, c in terms if len(t) <= room]
                         for terms in signed))
            for r, (g, signed) in table.items()}


# ---------------------------------------------------------------------------
# presentation equality
# ---------------------------------------------------------------------------

def presentation_equal(cat_a, cat_b, object_renaming: dict,
                       gen_renaming: dict) -> dict:
    """Exact degree-for-degree, differential-for-differential comparison.

    gen_renaming maps each a-generator name to a b-name or (b-name, unit);
    the first mismatch is reported with both sides rendered.
    """
    report = {"equal": True, "mismatches": []}

    def fail(msg):
        report["equal"] = False
        report["mismatches"].append(msg)

    if sorted(object_renaming.get(o) or "" for o in cat_a.objects) != \
            sorted(cat_b.objects):
        fail("object renaming is not a bijection onto the target objects")
        return report
    names_b = {g.name for g in cat_b.generators}
    normalized = {}
    for name, image in gen_renaming.items():
        normalized[name] = image if isinstance(image, tuple) else (image, 1)
    if sorted(normalized) != sorted(g.name for g in cat_a.generators) or \
            sorted(v[0] for v in normalized.values()) != sorted(names_b):
        fail("generator renaming is not a bijection")
        return report
    ring = cat_b.ring
    images = {}
    for g in cat_a.generators:
        target_name, unit = normalized[g.name]
        tg = cat_b.gen(target_name)
        if tg.degree != g.degree:
            fail(f"{g.name} has degree {g.degree} but {target_name} has "
                 f"{tg.degree}")
            return report
        if (object_renaming[g.source], object_renaming[g.target]) != \
                (tg.source, tg.target):
            fail(f"{g.name} and {target_name} have different boundaries")
            return report
        images[g.name] = NcPoly.gen(ring, tg, unit)
    for g in cat_a.generators:
        target_name, unit = normalized[g.name]
        lhs = push_poly(cat_a.differentials[g.name], object_renaming, images,
                        ring).scale(ring.inv(ring.normalize(unit)))
        rhs = cat_b.differentials[target_name]
        if lhs != rhs:
            fail(f"d({g.name}) maps to {render_poly(lhs)} but "
                 f"d({target_name}) = {render_poly(rhs)}")
            return report
    if bool(cat_a.rules) != bool(cat_b.rules):
        fail("one presentation carries rewrite rules and the other does not")
    return report


def functor_rank_compat(functor, window, bound: int, field: Ring) -> dict:
    """Compare truncated tables on functor-corresponding hom pairs.

    Equality is evidence for quasi-equivalence, not a proof; the report
    says so.
    """
    source, target = functor.source, functor.target
    pairs = []
    matches = True
    for x in source.objects:
        for y in source.objects:
            ts = truncated_cohomology(source, x, y, window, bound, field)
            tt = truncated_cohomology(
                target, functor.object_map[x], functor.object_map[y],
                window, bound, field)
            ok = ts.ranks == tt.ranks
            matches = matches and ok
            pairs.append({
                "source_pair": [x, y],
                "target_pair": [functor.object_map[x], functor.object_map[y]],
                "source_ranks": {str(k): v for k, v in sorted(ts.ranks.items())},
                "target_ranks": {str(k): v for k, v in sorted(tt.ranks.items())},
                "agree": ok,
            })
    return {
        "status": "evidence-only",
        "note": "truncated rank agreement is evidence, not a proof of "
                "quasi-equivalence",
        "window": list(window),
        "bound": bound,
        "field": field.render(),
        "agree": matches,
        "pairs": pairs,
    }
