"""Terminating rewrite systems on words, and dg categories with relations.

A rule rewrites a contiguous word segment (the lhs) to a polynomial.  Every
rule must strictly decrease the reduction order: weighted word length first,
then, at equal weight and equal length, the lexicographic order on ordinal
ranks.  Weights default to 1 per letter and may be raised per generator so
that relation-style rules (long rhs, short lhs) still terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import NcPoly, compose, render_poly, render_word
from .dgcat import DSquaredNonzero, SemifreeDgCat, unaudited_semifree


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
    terms = {}
    pending = list(p.terms.items())
    while pending:
        word, coeff = pending.pop()
        hit = match_rule(index, word)
        if hit is None:
            s = ring.add(terms.get(word, ring.zero()), coeff)
            if ring.is_zero(s):
                terms.pop(word, None)
            else:
                terms[word] = s
            continue
        i, idx = hit
        lhs, rhs = index.rules[idx]
        for w, c in _replace_at(ring, word, i, lhs, rhs).terms.items():
            pending.append((w, ring.mul(coeff, c)))
    return NcPoly(ring, p.source, p.target, terms)


@dataclass(frozen=True)
class RelationalDgCat:
    """A semifree core plus a terminating rewrite system (word prefix rules)."""

    core: SemifreeDgCat
    rules: tuple  # ((Generator, ...), NcPoly) pairs
    weights: dict = field(default_factory=dict)

    def __post_init__(self):
        for lhs, rhs in self.rules:
            if not lhs:
                raise RuleError("empty rule lhs")
            if rhs.source != lhs[-1].source or rhs.target != lhs[0].target:
                raise RuleError(
                    f"rule {render_word(lhs)} -> {render_poly(rhs)} changes boundary")
            for w in rhs.terms:
                if not _strictly_smaller(w, lhs, self.weights):
                    raise RuleError(
                        f"rule {render_word(lhs)} -> {render_poly(rhs)} does not "
                        f"decrease the reduction order at {render_word(w)}")
        # not a field: equality and repr stay those of (core, rules, weights)
        object.__setattr__(self, "_index", RuleIndex(self.rules))

    # -- category interface --
    @property
    def ring(self):
        return self.core.ring

    @property
    def objects(self):
        return self.core.objects

    @property
    def generators(self):
        return self.core.generators

    @property
    def differentials(self):
        return self.core.differentials

    @property
    def provenance(self):
        return self.core.provenance

    def gen(self, name):
        return self.core.gen(name)

    def gen_map(self):
        return self.core.gen_map()

    def next_rank(self):
        return self.core.next_rank()

    def d(self, p: NcPoly) -> NcPoly:
        return self.core.d(p)

    def poly(self, text, source, target):
        return self.core.poly(text, source, target)

    def with_provenance(self, entry) -> "RelationalDgCat":
        return RelationalDgCat(self.core.with_provenance(entry),
                               self.rules, self.weights)

    # -- rewriting --
    def is_reducible(self, word) -> bool:
        return match_rule(self._index, word) is not None

    def normalize(self, p: NcPoly) -> NcPoly:
        return normalize_poly(self._index, p)

    # -- confluence/diagnostics --
    def critical_pairs(self, max_len: int = 3):
        """Overlap words of bounded length with both one-step reducts normalized."""
        pairs = []
        rules = list(self.rules)
        for a, (l1, r1) in enumerate(rules):
            for b, (l2, r2) in enumerate(rules):
                # overlap: proper suffix of l1 equals prefix of l2
                for k in range(1, min(len(l1), len(l2)) + (1 if a != b else 0)):
                    if l1[-k:] != l2[:k]:
                        continue
                    word = l2[:0] + l1 + l2[k:]
                    if len(word) > max_len:
                        continue
                    if any(word[i].source != word[i + 1].target
                           for i in range(len(word) - 1)):
                        continue
                    left = self._reduce_at(word, 0, a)
                    right = self._reduce_at(word, len(l1) - k, b)
                    pairs.append((word, self.normalize(left),
                                  self.normalize(right)))
                # containment: l2 inside l1 (strict)
                if a != b and len(l2) < len(l1):
                    for i in range(len(l1) - len(l2) + 1):
                        if l1[i:i + len(l2)] == l2:
                            word = l1
                            left = self._reduce_at(word, 0, a)
                            right = self._reduce_at(word, i, b)
                            pairs.append((word, self.normalize(left),
                                          self.normalize(right)))
        return pairs

    def joinable(self, max_len: int = 3) -> bool:
        return all(x == y for _, x, y in self.critical_pairs(max_len))

    def _reduce_at(self, word, i, rule_idx) -> NcPoly:
        lhs, rhs = self.rules[rule_idx]
        return _replace_at(self.ring, word, i, lhs, rhs)


def new_relational(ring, objects, generators, differentials, rules,
                   weights=None, provenance=()) -> RelationalDgCat:
    """Validated relational category: structure checks, then d^2 = 0 and
    rule/d compatibility modulo the rewrite system."""
    core = unaudited_semifree(ring, objects, generators, differentials,
                              provenance)
    cat = RelationalDgCat(core, tuple(rules), dict(weights or {}))
    for g in cat.generators:
        residual = cat.normalize(cat.d(cat.differentials[g.name]))
        if not residual.is_zero():
            raise DSquaredNonzero(g.name, residual)
    for lhs, rhs in cat.rules:
        word_poly = NcPoly(ring, lhs[-1].source, lhs[0].target,
                           {lhs: ring.one()})
        residual = cat.normalize(cat.d(word_poly) - cat.d(rhs))
        if not residual.is_zero():
            raise DSquaredNonzero(
                render_word(lhs), residual)
    return cat
