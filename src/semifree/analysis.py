"""Truncated cohomology ranks, presentation comparison, and reports.

Rank computation restricts a hom complex to a degree window and word-length
bound.  Truncation is a filtration approximation: a degree is marked exact
only when no differential of a basis word leaves the bound, and the caveat
travels with every table.  All elimination is exact (fraction-free over the
integers for rational ranks, modular for prime fields).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import NcPoly, Ring, render_poly, word_names
from .dgcat import hom_slice, new_semifree, push_poly
from .rewrite import new_relational


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def exact_rank(rows, ring: Ring) -> int:
    """Rank of a sparse integer/rational/modular matrix, exactly.

    rows is a list of {column: value} dicts.  Rational rows are cleared to
    integers first; integer elimination is fraction-free with gcd reduction.
    """
    if ring.kind == "Zmod":
        return _rank_mod(rows, ring.modulus)
    cleaned = []
    for row in rows:
        if not row:
            continue
        if ring.kind == "Q":
            denom = 1
            for v in row.values():
                f = Fraction(v)
                denom = denom * f.denominator // gcd(denom, f.denominator)
            row = {c: int(Fraction(v) * denom) for c, v in row.items()}
        row = {c: int(v) for c, v in row.items() if v != 0}
        if row:
            cleaned.append(row)
    return _rank_int(cleaned)


def _rank_int(rows) -> int:
    rank = 0
    rows = [dict(r) for r in rows]
    while rows:
        pivot_row = min(rows, key=lambda r: (min(r), min(abs(v) for v in r.values())))
        rows.remove(pivot_row)
        col = min(pivot_row)
        piv = pivot_row[col]
        rank += 1
        reduced = []
        for r in rows:
            if col in r:
                factor = r[col]
                new = {}
                for c in set(r) | set(pivot_row):
                    v = r.get(c, 0) * piv - pivot_row.get(c, 0) * factor
                    if v:
                        new[c] = v
                if new:
                    g = 0
                    for v in new.values():
                        g = gcd(g, abs(v))
                    if g > 1:
                        new = {c: v // g for c, v in new.items()}
                    reduced.append(new)
            elif r:
                reduced.append(r)
        rows = reduced
    return rank


def _rank_mod(rows, p: int) -> int:
    rows = [{c: v % p for c, v in r.items() if v % p} for r in rows]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot_row = min(rows, key=min)
        rows.remove(pivot_row)
        col = min(pivot_row)
        inv = pow(pivot_row[col], -1, p)
        pivot_row = {c: (v * inv) % p for c, v in pivot_row.items()}
        rank += 1
        reduced = []
        for r in rows:
            if col in r:
                factor = r[col]
                new = {}
                for c in set(r) | set(pivot_row):
                    v = (r.get(c, 0) - pivot_row.get(c, 0) * factor) % p
                    if v:
                        new[c] = v
                if new:
                    reduced.append(new)
            elif r:
                reduced.append(r)
        rows = reduced
    return rank


# ---------------------------------------------------------------------------
# coefficient change
# ---------------------------------------------------------------------------

def change_coefficients(cat, ring: Ring):
    """Rebuild a presentation over another exact ring (values mapped through)."""
    if cat.ring == ring:
        return cat

    def convert(value):
        if ring.kind == "Zmod" and isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            if gcd(den, ring.modulus) != 1:
                raise ValueError(f"denominator {den} not invertible mod "
                                 f"{ring.modulus}")
            return num * pow(den, -1, ring.modulus) % ring.modulus
        return ring.normalize(value)

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
    work = change_coefficients(cat, field)
    slice_ = hom_slice(work, source, target, (lo - 1, hi + 1), bound)
    basis = {k: list(slice_.words_by_degree.get(k, []))
             for k in range(lo - 1, hi + 2)}
    index = {k: {word_names(w): i for i, w in enumerate(basis[k])}
             for k in basis}
    ranks_d = {}
    dropped = {}
    for k in range(lo - 1, hi + 1):
        rows = []
        lost = False
        for w in basis[k]:
            if isinstance(w, str):
                dw = NcPoly.zero(work.ring, source, target)
            else:
                dw = work.normalize(work.d(
                    NcPoly(work.ring, w[-1].source, w[0].target,
                           {w: work.ring.one()})))
            row = {}
            for word, coeff in dw.terms.items():
                length = 0 if isinstance(word, str) else len(word)
                key = word_names(word)
                if length > bound or key not in index[k + 1]:
                    lost = True
                    continue
                row[index[k + 1][key]] = coeff
            if row:
                rows.append(row)
        ranks_d[k] = exact_rank(rows, work.ring)
        dropped[k] = lost
    ranks = {}
    exact = {}
    for k in range(lo, hi + 1):
        dim = len(basis[k])
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
                     exact, {k: len(basis[k]) for k in range(lo, hi + 1)})


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
