"""Terminating rewrite systems on words, and the constructor of dg
categories with relations.

A rule rewrites a contiguous word segment (the lhs) to a polynomial.  Every
rule must strictly decrease the reduction order: weighted word length first,
then, at equal weight and equal length, the lexicographic order on ordinal
ranks.  Weights default to 1 per letter and may be raised per generator so
that relation-style rules (long rhs, short lhs) still terminate.  The rules
live on dgcat.SemifreeDgCat, which checks them and indexes them once.
"""

from __future__ import annotations

from dataclasses import replace

from .algebra import NcPoly, accumulate, render_word
from .dgcat import (
    DSquaredNonzero,
    SemifreeDgCat,
    audit_d_squared,
    unaudited_semifree,
)

# perfbench/tracing.py wraps rewrite.RelationalDgCat.is_reducible by that
# path, so the former class name stays as an alias of SemifreeDgCat.
RelationalDgCat = SemifreeDgCat


class RuleError(Exception):
    pass


def _word_weight(word, weights) -> int:
    if isinstance(word, str):
        return 0
    return sum(weights.get(g.name, 1) for g in word)


def _order_key(word, weights):
    if isinstance(word, str):
        return (0, 0, ())
    return (_word_weight(word, weights), len(word), tuple(g.rank for g in word))


def _below(word, lhs_weight: int, lhs_ranks: tuple, weights) -> bool:
    """word < lhs in the declared reduction order, multiplication-stably,
    where lhs has weight lhs_weight and rank tuple lhs_ranks."""
    if isinstance(word, str):
        return lhs_weight >= 0
    weight = _word_weight(word, weights)
    if weight != lhs_weight:
        return weight < lhs_weight
    # equal weight but different length is not stable under embedding
    return (len(word) == len(lhs_ranks)
            and tuple(g.rank for g in word) < lhs_ranks)


class RuleIndex:
    """Rule left-hand sides keyed by their tuple of Generators, which
    compare by value.

    Built once per rule set.  A duplicate lhs keeps its first rule index, so
    a lookup returns the smallest index among the rules with that lhs.
    """

    __slots__ = ("rules", "first", "lengths")

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.first = {}
        for idx, (lhs, _) in enumerate(self.rules):
            self.first.setdefault(tuple(lhs), idx)
        self.lengths = sorted({len(lhs) for lhs, _ in self.rules})

    # SemifreeDgCat matches and normalizes through these: this module
    # imports dgcat, so dgcat cannot import these functions at load time.
    def match(self, word):
        return match_rule(self, word)

    def normalize(self, p: NcPoly) -> NcPoly:
        return normalize_poly(self, p)


def match_rule(index: RuleIndex, word):
    """First (position, rule index) whose lhs occurs in word, or None.

    One dict lookup of a slice of word per distinct lhs length at each
    position.
    """
    if isinstance(word, str):
        return None
    n = len(word)
    first = index.first
    lengths = index.lengths
    for i in range(n):
        best = None
        for k in lengths:
            if i + k > n:
                break
            idx = first.get(word[i:i + k])
            if idx is not None and (best is None or idx < best):
                best = idx
        if best is not None:
            return i, best
    return None


def normalize_poly(index: RuleIndex, p: NcPoly) -> NcPoly:
    """Rewrite every word of p to normal form under the indexed rules.

    A rewrite splices each rhs term of the matched rule into the word in
    place of the lhs (an identity term joins the two sides) and drops the
    zero products.
    """
    ring = p.ring
    mul, is_zero = ring.mul, ring.is_zero
    rules = index.rules
    normal = []  # irreducible terms, in the order they are summed
    pending = list(p.terms.items())
    while pending:
        word, coeff = pending.pop()
        hit = match_rule(index, word)
        if hit is None:
            normal.append((word, coeff))
            continue
        i, idx = hit
        lhs, rhs = rules[idx]
        if rhs.ring is not ring and rhs.ring != ring:
            raise ValueError("mixed coefficient rings")
        left = word[:i]
        right = word[i + len(lhs):]
        for w, c in rhs.terms.items():
            c = mul(coeff, c)
            if not is_zero(c):
                pending.append(((left + right or w) if isinstance(w, str)
                                else left + w + right, c))
    return NcPoly(ring, p.source, p.target, accumulate(ring, {}, normal))


def new_relational(ring, objects, generators, differentials, rules,
                   weights=None, provenance=()) -> SemifreeDgCat:
    """Validated category with relations: structure checks, then d^2 = 0 and
    rule/d compatibility modulo the rewrite system."""
    cat = replace(unaudited_semifree(ring, objects, generators, differentials,
                                     provenance),
                  rules=tuple(rules), weights=dict(weights or {}))
    audit_d_squared(cat)
    one, neg = ring.one(), ring.neg
    for lhs, rhs in cat.rules:
        if rhs.ring is not ring and rhs.ring != ring:
            raise ValueError("mixed coefficient rings")
        # d(lhs) - d(rhs) as one d(lhs - rhs): every rhs word is smaller
        # than lhs in the reduction order, so none is lhs itself
        terms = {lhs: one}
        for w, c in rhs.terms.items():
            terms[w] = neg(c)
        residual = cat.normalize(cat.d(NcPoly(ring, rhs.source, rhs.target,
                                              terms)))
        if not residual.is_zero():
            raise DSquaredNonzero(
                render_word(lhs), residual)
    return cat
