"""Truncated cohomology ranks, presentation comparison, and reports.

Rank computation restricts a hom complex to a degree window and word-length
bound.  Truncation is a filtration approximation: a degree is marked exact
only when no differential of a basis word leaves the bound, and the caveat
travels with every table.  All elimination is exact (fraction-free over the
integers for rational ranks, modular for prime fields) and shares one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .algebra import NcPoly, Ring, render_poly
from .dgcat import BadArgument, _d_table, hom_slice, new_semifree, push_poly
from .rewrite import audit_rules, normal_form


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def exact_rank(rows, ring: Ring) -> int:
    """Rank of a sparse integer/rational/modular matrix, exactly.

    rows is a list of {column: value} dicts; they are not modified, and
    their values need not be reduced: zeros and, over Zmod, multiples of
    the modulus are dropped.  truncated_cohomology passes d's columns
    (_d_columns), keyed by basis position, since d and its transpose have
    one rank.  A row with one nonzero entry pivots its column outright.
    The other rows go to _rank_core as they are, which cleans and copies
    only the rows it must.  Q ranks are thus always computed over the
    integers, never modulo a prime.
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
    return len(pivoted) + _rank_core(rest, p, pivoted)


def _rank_core(rows, p, pivoted) -> int:
    """Rank, outside the columns pivoted, by sparse elimination into pivot
    rows keyed by leading column.

    rows are {column: value} dicts, which the core does not modify.  A row
    is clean when its values are nonzero, reduced mod p (p set) or ints (p
    None), and none of its columns is in pivoted.  A clean row enters the
    elimination as it is; any other row is cleaned as it enters: its values
    are reduced mod p or its denominators cleared, and the zeros and the
    columns of pivoted dropped, in a new dict.  A row is copied the first
    time a reduction changes it, and a pivot row is never changed, so a
    clean row that becomes a pivot is the caller's dict.

    A row's leading column is its largest.  The hom complex lists its words
    by length, so on d's columns that is the latest and longest source
    word, which few other columns reach: pivots chosen there meet fewer
    rows and stay short (fill-in).
    Rows enter sparsest first.  Each is reduced against the pivots found so
    far until it vanishes or its leading column has no pivot, and then it
    becomes that column's pivot.  With p None the entries are integers and
    a reduction is fraction-free: cross-multiply, then divide out the gcd
    of the row.  With p set the entries are residues mod the prime p and
    each pivot is scaled to lead with 1.  A row costs one pass over each
    pivot it meets.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        values = row.values()
        if p is not None:
            clean = min(values) > 0 and max(values) < p
        else:
            ints = type(sum(values)) is int  # no Fraction in the row
            clean = ints and all(values)
        clean = clean and pivoted.isdisjoint(row)
        if not clean:
            if p is not None:
                row = {c: r for c, v in row.items()
                       if (r := v % p) and c not in pivoted}
            elif ints:
                row = {c: v for c, v in row.items() if v and c not in pivoted}
            else:
                denom = lcm(*(v.denominator for v in values))
                row = {c: int(v * denom) for c, v in row.items()
                       if v and c not in pivoted}
        owned = not clean  # whether row is a dict of the core's own
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
                    owned = True
            if not owned:
                row = dict(row)
                owned = True
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

def change_coefficients(cat, ring: Ring):
    """Rebuild a presentation over another exact ring, each value mapped
    by ring.normalize."""
    if cat.ring == ring:
        return cat

    def mapped(p):
        return NcPoly(ring, p.source, p.target, {
            w: v for w, c in p.terms.items() if (v := ring.normalize(c))})

    table = {name: mapped(p) for name, p in cat.differentials.items()}
    entry = {"op": "change_coefficients", "ring": ring.render()}
    return new_semifree(ring, cat.objects, cat.generators, table,
                        cat.provenance + (entry,),
                        [(lhs, mapped(r)) for lhs, r in cat.rules],
                        cat.weights)


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
    normalize, neg = field.normalize, field.neg
    for r, (odd, terms, _) in table.items():
        terms = [(t, v) for t, c in terms if (v := normalize(c))]
        table[r] = (odd, terms, [(t, neg(v)) for t, v in terms])
    if rules is not None:
        rules = rules.mapped(field)
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
    """Kernel/image ranks of the word-length-truncated hom complex; an
    argument it or hom_slice refuses is a BadArgument that names it, a
    modulus whose primality is not decided, or a field that cannot invert
    a denominator of cat, too."""
    try:
        is_field = field.is_field()
    except ValueError as err:
        raise BadArgument("field", str(err)) from None
    if not is_field:
        raise BadArgument("field", f"{field.render()} is not a field")
    lo, hi = window
    if lo > hi:
        raise BadArgument("window", f"hom window {lo}:{hi} is empty (lo > hi)")
    copied = cat.ring.kind == "Zmod" and field != cat.ring
    if copied:
        # Residues mod m read as values of another field make no ring map,
        # so d^2 = 0 and the rules' compatibility with d over Zmod:m need
        # not hold there: rebuild cat over field, which audits both
        cat = change_coefficients(cat, field)
    words = hom_slice(cat, source, target, (lo - 1, hi + 1),
                      bound).words_by_degree
    sizes = {k: len(words.get(k, ())) for k in range(lo, hi + 1)}
    table = _d_table(cat)
    if cat.rules and not copied:
        # The lines normalize through the rules, so they must commute with
        # d.  One audit over cat's ring (Z, Q or field itself) covers
        # field: the map into field is then a ring map, which keeps rule/d
        # compatibility, and normal forms commute with it.  Every
        # constructor and from_json audited d^2 = 0 over cat's ring.
        audit_rules(cat, table)
    try:
        table, rules = _over_field(cat, field, table)
    except ValueError as err:  # a denominator that field cannot invert
        raise BadArgument("field", str(err)) from None
    ranks_d = {}
    dropped = {}
    for k in range(lo - 1, hi + 1):
        # one degree's words, column index and lines at a time: each is
        # dropped once its rank is known
        basis = words.pop(k, ())
        columns = {w: i for i, w in enumerate(words.get(k + 1, ()))}
        lines, dropped[k] = _d_columns(field, table, rules, basis, columns,
                                       bound)
        ranks_d[k] = exact_rank(lines, field)
        del basis, columns, lines
    ranks = {}
    exact = {}
    for k in range(lo, hi + 1):
        dim = sizes[k]
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
                     exact, sizes)


def _d_columns(ring: Ring, table: dict, rules, basis, index: dict,
               bound: int):
    """The columns of d on the coded words of basis (any iterable of them),
    by the graded Leibniz rule, and whether a term of some d(word) was lost
    (outside index: longer than the bound or not listed).  The columns are
    lines {basis position: value}, one for each word of index that some
    term reaches, in index's order; d has the same rank as its transpose,
    so exact_rank takes them as rows.  table is a coded d table
    (dgcat._d_table: rank -> (degree parity, +d terms, -d terms)) and rules
    a rule index or None, both with values in ring; the terms outside index
    are normalized through rules first.

    A word none of whose letters has a d term is skipped: its d is 0, so
    it is in no line and it loses nothing.  In the other words, the letter
    at j takes its -d terms when the letters before it hold an odd number
    of odd degrees (the parity, kept by XOR), and each spliced term in
    index is added straight into its line.  The words are taken in basis
    order, so a line lists its entries by position and leads with the
    latest word that reaches it.  The values are raw sums, not reduced: a
    line may hold zeros and, over Zmod, values of any size; exact_rank
    reduces them.  Only the sum of a term outside index is reduced, to
    decide whether it is lost.

    index lists words of length at most bound.  Once a term is lost, a
    spliced term longer than bound can change no line and no flag unless a
    rule shortens it back into index, so, when no rule has an rhs word
    shorter than its lhs, it is not built: a word of length L takes only
    the d terms of length at most bound + 1 - L.  Until then every term is
    built, so the flag never rests on terms beyond the bound failing to
    cancel.
    """
    p = ring.modulus if ring.kind == "Zmod" else None
    # a slot per word of index, made at the first word with a d letter
    lines = None
    lost = False
    with_d = {r for r, (_, terms, _) in table.items() if terms}
    # an identity rhs word is (), of length 0
    trim = rules is None or all(len(w) >= len(lhs)
                                for lhs, terms, _ in rules.rules
                                for w, _ in terms)
    trimmed = {}  # room -> table with the d terms of length <= room
    find = index.get
    for i, word in enumerate(basis):
        if with_d.isdisjoint(word):
            continue  # d(word) = 0: in no line, and nothing lost
        if lines is None:
            lines = [None] * len(index)
        use = table
        if lost and trim:
            room = bound + 1 - len(word)
            use = trimmed.get(room)
            if use is None:
                use = trimmed[room] = _trim(table, room)
        outside = None
        parity = 0  # of the letters left of j
        for j, r in enumerate(word):
            odd, plus, minus = use[r]
            dterms = minus if parity else plus
            if dterms:
                left, right = word[:j], word[j + 1:]
                for t, c in dterms:
                    key = left + t + right
                    col = find(key)
                    if col is None:
                        if outside is None:
                            outside = {key: c}
                        else:
                            outside[key] = outside.get(key, 0) + c
                        continue
                    line = lines[col]
                    if line is None:
                        lines[col] = {i: c}
                    elif i in line:
                        line[i] += c
                    else:
                        line[i] = c
            parity ^= odd
        if outside:
            if rules is not None:
                # the words of index are irreducible already: hom_slice
                # lists no reducible word
                normal = normal_form(rules, ring, [
                    (key, r) for key, value in outside.items()
                    if (r := value % p if p is not None else value)])
                outside = {}
                for key, value in normal.items():
                    col = find(key)
                    if col is None:
                        outside[key] = value
                    elif lines[col] is None:
                        lines[col] = {i: value}
                    else:
                        lines[col][i] = lines[col].get(i, 0) + value
            if not lost:
                for value in outside.values():
                    if value % p if p is not None else value:
                        lost = True
                        break
    return ([] if lines is None else list(filter(None, lines))), lost


def _trim(table: dict, room: int) -> dict:
    """table with only the d terms of at most room letters."""
    return {r: (odd, [(t, c) for t, c in plus if len(t) <= room],
                [(t, c) for t, c in minus if len(t) <= room])
            for r, (odd, plus, minus) in table.items()}


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
