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

from .algebra import NcPoly, accumulate, compose, render_word
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


def _strictly_smaller(rhs_word, lhs, weights) -> bool:
    """rhs_word < lhs in the declared reduction order, multiplication-stably."""
    wr = _word_weight(rhs_word, weights)
    wl = _word_weight(lhs, weights)
    if wr < wl:
        return True
    if wr > wl:
        return False
    if isinstance(rhs_word, str):
        return True
    if len(rhs_word) != len(lhs):
        # equal weight but different length is not stable under embedding
        return False
    return tuple(g.rank for g in rhs_word) < tuple(g.rank for g in lhs)


class RuleIndex:
    """Rule left-hand sides keyed by their tuple of generator names.

    Built once per rule set.  A duplicate lhs keeps its first rule index, so
    a lookup returns the smallest index among the rules with that lhs.
    """

    __slots__ = ("rules", "first", "lengths")

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.first = {}
        for idx, (lhs, _) in enumerate(self.rules):
            self.first.setdefault(tuple(g.name for g in lhs), idx)
        self.lengths = sorted({len(lhs) for lhs, _ in self.rules})

    # SemifreeDgCat matches and normalizes through these: this module
    # imports dgcat, so dgcat cannot import these functions at load time.
    def match(self, word):
        return match_rule(self, word)

    def normalize(self, p: NcPoly) -> NcPoly:
        return normalize_poly(self, p)


def match_rule(index: RuleIndex, word):
    """First (position, rule index) whose lhs occurs in word, or None.

    One dict lookup per distinct lhs length at each position.
    """
    if isinstance(word, str):
        return None
    names = tuple(g.name for g in word)
    n = len(names)
    first = index.first
    lengths = index.lengths
    for i in range(n):
        best = None
        for k in lengths:
            if i + k > n:
                break
            idx = first.get(names[i:i + k])
            if idx is not None and (best is None or idx < best):
                best = idx
        if best is not None:
            return i, best
    return None


def _replace_at(ring, word, i, lhs, rhs) -> NcPoly:
    out = rhs
    if i + len(lhs) < len(word):
        right = NcPoly(ring, word[-1].source, word[i + len(lhs)].target,
                       {word[i + len(lhs):]: ring.one()})
        out = compose(out, right)
    if i > 0:
        left = NcPoly(ring, word[i - 1].source, word[0].target,
                      {word[:i]: ring.one()})
        out = compose(left, out)
    return out


def normalize_poly(index: RuleIndex, p: NcPoly) -> NcPoly:
    """Rewrite every word of p to normal form under the indexed rules."""
    ring = p.ring
    normal = []  # irreducible terms, in the order they are summed
    pending = list(p.terms.items())
    while pending:
        word, coeff = pending.pop()
        hit = match_rule(index, word)
        if hit is None:
            normal.append((word, coeff))
            continue
        i, idx = hit
        lhs, rhs = index.rules[idx]
        for w, c in _replace_at(ring, word, i, lhs, rhs).terms.items():
            pending.append((w, ring.mul(coeff, c)))
    return NcPoly(ring, p.source, p.target, accumulate(ring, {}, normal))


def new_relational(ring, objects, generators, differentials, rules,
                   weights=None, provenance=()) -> SemifreeDgCat:
    """Validated category with relations: structure checks, then d^2 = 0 and
    rule/d compatibility modulo the rewrite system."""
    cat = replace(unaudited_semifree(ring, objects, generators, differentials,
                                     provenance),
                  rules=tuple(rules), weights=dict(weights or {}))
    audit_d_squared(cat)
    for lhs, rhs in cat.rules:
        word_poly = NcPoly(ring, lhs[-1].source, lhs[0].target,
                           {lhs: ring.one()})
        residual = cat.normalize(cat.d(word_poly) - cat.d(rhs))
        if not residual.is_zero():
            raise DSquaredNonzero(
                render_word(lhs), residual)
    return cat
