"""Terminating rewrite systems on words, and the audit of rules against d.

A rule rewrites a contiguous word segment (the lhs) to a polynomial.  Every
rule must strictly decrease the reduction order: weighted word length first,
then, at equal weight and equal length, the lexicographic order on ordinal
ranks.  Weights default to 1 per letter and may be raised per generator so
that relation-style rules (long rhs, short lhs) still terminate.  The rules
live on dgcat.SemifreeDgCat, which checks them, confluence last, and
indexes them once; dgcat.new_semifree builds a category with rules and runs
audit_rules.
"""

from __future__ import annotations

from bisect import insort

from .algebra import NcPoly, accumulate, render_poly, render_word
from .dgcat import (
    DSquaredNonzero,
    SemifreeDgCat,
    _code,
    _d_table,
    new_semifree,
)

# perfbench/tracing.py wraps rewrite.RelationalDgCat.is_reducible by that
# path, so the former class name stays as an alias of SemifreeDgCat.
RelationalDgCat = SemifreeDgCat


class RuleError(ValueError):
    """A rule breaks a check: its boundary, degree, letters or reduction
    order, or confluence."""


def _order_key(word, weights):
    if isinstance(word, str):
        return (0, 0, ())
    return (sum(weights.get(g.name, 1) for g in word), len(word),
            tuple(g.rank for g in word))


class RuleIndex:
    """Rules on rank-coded words (the tuple of a word's generator ranks; an
    identity is ()), which needs distinct ranks.

    rules[i] is (lhs, rhs as (word, value) pairs, rhs ring); first maps an
    lhs to the smallest index of a rule with it; lengths lists the lhs
    lengths in increasing order; letters maps rank -> Generator to decode.
    SemifreeDgCat builds its index as it checks its rules, and
    RuleIndex(rules) indexes (Generator tuple, NcPoly) rules unchecked.
    """

    __slots__ = ("rules", "first", "lengths", "letters")

    def __init__(self, rules=(), letters=None):
        self.rules = []
        self.first = {}
        self.lengths = []
        self.letters = {} if letters is None else letters
        for lhs, rhs in rules:
            for w in rhs.terms:
                if not isinstance(w, str):
                    self.letters.update((g.rank, g) for g in w)
            self.add(_code(lhs), [(_code(w), c) for w, c in rhs.terms.items()],
                     rhs.ring)

    def add(self, lhs: tuple, terms: list, ring) -> None:
        self.first.setdefault(lhs, len(self.rules))
        self.rules.append((lhs, terms, ring))
        if len(lhs) not in self.lengths:
            insort(self.lengths, len(lhs))

    def mapped(self, ring) -> "RuleIndex":
        """This index with each rhs value mapped by ring.normalize and the
        zeros dropped; it shares first, lengths and letters."""
        out = RuleIndex(letters=self.letters)
        out.first, out.lengths = self.first, self.lengths
        normalize = ring.normalize
        out.rules = [(lhs, [(w, v) for w, c in terms if (v := normalize(c))],
                      ring) for lhs, terms, _ in self.rules]
        return out

    # SemifreeDgCat matches and normalizes through these: this module
    # imports dgcat, so dgcat cannot import these functions at load time.
    def match(self, word):
        return match_rule(self, word)

    def normalize(self, p: NcPoly) -> NcPoly:
        return normalize_poly(self, p)

    def check_confluent(self, ring) -> None:
        """Raise RuleError at a word on which two rules apply where their
        lhs overlap and whose two one-step reducts have different normal
        forms; the rules terminate, so they are confluent otherwise
        (Bergman's diamond lemma)."""
        first, rules, letters = self.first, self.rules, self.letters
        starts = {}  # proper prefix of an lhs -> the lhs that start with it
        for lhs in first:
            for k in range(1, len(lhs)):
                starts.setdefault(lhs[:k], []).append(lhs)
        # (word, rule at 0, place i, rule at i): an lhs with another (or an
        # equal) lhs inside it, or with the rest of an lhs that starts with
        # one of its proper suffixes, found by one prefix walk per place
        found = []
        for a, (lhs, _, _) in enumerate(rules):
            for i in range(len(lhs)):
                for j in range(i + 1, len(lhs) + 1):
                    if first.get(lhs[i:j], a) != a:
                        found.append((lhs, a, i, first[lhs[i:j]]))
                    if lhs[i:j] not in starts:
                        break
                else:
                    found += [(lhs + other[len(lhs) - i:], a, i, first[other])
                              for other in starts[lhs[i:]] if i]
        for word, a, i, b in found:
            ends = letters[word[-1]].source, letters[word[0]].target
            left, right = (_decode(letters, ring, *ends, normal_form(
                self, ring, [(word[:at] + w + word[at + len(rules[r][0]):], c)
                             for w, c in rules[r][1]]))
                for at, r in ((0, a), (i, b)))
            if left != right:
                raise RuleError(f"rules are not confluent at "
                                f"{render_word([letters[r] for r in word])}: "
                                f"{render_poly(left)} vs {render_poly(right)}")


def match_rule(index: RuleIndex, word: tuple):
    """First (position, rule index) whose lhs occurs in the coded word, or
    None.

    One dict lookup of a slice of word per distinct lhs length at each
    position.
    """
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


def normal_form(index: RuleIndex, ring, pending: list) -> dict:
    """The normal form {word: value} of pending, a list of (coded word,
    reduced value) pairs that it uses up from the end.  A word is rewritten
    at its leftmost match by the smallest rule index there: each rhs term
    is spliced in place of the lhs, dropping zero products.  Irreducible
    terms are summed in the order they are found."""
    mul = ring.mul
    rules = index.rules
    normal = []
    while pending:
        word, coeff = pending.pop()
        hit = match_rule(index, word)
        if hit is None:
            normal.append((word, coeff))
            continue
        i, idx = hit
        lhs, terms, rhs_ring = rules[idx]
        if rhs_ring is not ring and rhs_ring != ring:
            raise ValueError("mixed coefficient rings")
        left = word[:i]
        right = word[i + len(lhs):]
        for w, c in terms:
            c = mul(coeff, c)
            if c:
                pending.append((left + w + right, c))
    return accumulate(ring, {}, normal)


def _decode(letters: dict, ring, source: str, target: str,
            terms: dict) -> NcPoly:
    return NcPoly(ring, source, target,
                  {tuple([letters[r] for r in w]) if w else source: c
                   for w, c in terms.items()})


def normalize_poly(index: RuleIndex, p: NcPoly) -> NcPoly:
    """p with every word rewritten to normal form under the indexed rules,
    by normal_form on its coded words."""
    letters = dict(index.letters)
    pending = []
    for word, coeff in p.terms.items():
        ranks = _code(word)
        letters.update(zip(ranks, word))
        pending.append((ranks, coeff))
    return _decode(letters, p.ring, p.source, p.target,
                   normal_form(index, p.ring, pending))


# perfbench/tracing.py wraps rewrite.new_relational by that path, so the
# former constructor stays as a forward to dgcat.new_semifree.
def new_relational(ring, objects, generators, differentials, rules,
                   weights=None, provenance=()) -> SemifreeDgCat:
    return new_semifree(ring, objects, generators, differentials, provenance,
                        rules, weights)


def audit_rules(cat, table=None) -> None:
    """Rule/d compatibility: d(lhs - rhs) of each rule, taken by the graded
    Leibniz rule on coded words, normalizes to zero.  table is cat's coded
    d table (dgcat._d_table), built here if None."""
    ring = cat.ring
    if table is None:
        table = _d_table(cat)
    index = cat._index
    neg, mul, add = ring.neg, ring.mul, ring.add
    for (lhs, rhs), (ranks, terms, _) in zip(cat.rules, index.rules):
        # d(lhs) - d(rhs) as one d(lhs - rhs), summed as it is spliced
        # (accumulate's loop, inlined): every rhs word is smaller than lhs
        # in the reduction order, so none is lhs itself
        spliced = {}
        for word, coeff in [(ranks, 1)] + [(w, neg(c)) for w, c in terms]:
            parity = 0  # of the letters left of j
            for j, r in enumerate(word):
                odd, plus, minus = table[r]
                left, right = word[:j], word[j + 1:]
                for t, c in minus if parity else plus:
                    # the d terms are reduced, so 1 * c is c
                    t, c = (left + t + right,
                            c if coeff == 1 else mul(coeff, c))
                    if t in spliced:
                        c = add(spliced[t], c)
                    if c:
                        spliced[t] = c
                    else:
                        spliced.pop(t, None)
                parity ^= odd
        residual = normal_form(index, ring, list(spliced.items()))
        if residual:
            raise DSquaredNonzero(render_word(lhs), _decode(
                index.letters, ring, rhs.source, rhs.target, residual))
