"""Exact coefficient arithmetic and noncommutative graded path-algebra arithmetic.

Morphisms are finite linear combinations of composable generator words with a
fixed source and target.  Words are stored in written order, i.e. the tuple
(f_m, ..., f_1) denotes the composite f_m o ... o f_1 whose rightmost factor
acts first.  All arithmetic is exact: integers, Fractions, or reduced
residues mod p.  No floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Union


class CompositionError(Exception):
    """Raised when sources and targets do not line up."""


class MissingDifferential(Exception):
    """Raised when a generator has no entry in a differential table."""


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ring:
    """Tag for an exact commutative coefficient ring.

    kind is one of "Z", "Q", "Zmod"; modulus is set only for "Zmod".
    """

    kind: str
    modulus: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zmod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod" and self.modulus < 2:
            raise ValueError("Zmod needs modulus >= 2")

    # -- raw value operations (values are int or Fraction, never floats) --
    def normalize(self, value):
        if isinstance(value, float):
            raise TypeError("floating-point coefficients are not allowed")
        if self.kind == "Z":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                value = value.numerator
            return int(value)
        if self.kind == "Q":
            # an integral rational is kept as int: int arithmetic is faster
            # and renders the same
            if isinstance(value, int):
                return int(value)
            value = Fraction(value)
            return value.numerator if value.denominator == 1 else value
        return int(value) % self.modulus

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.modulus if self.kind == "Zmod" else a + b

    def neg(self, a):
        return (-a) % self.modulus if self.kind == "Zmod" else -a

    def mul(self, a, b):
        return (a * b) % self.modulus if self.kind == "Zmod" else a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        if self.kind == "Q":
            return a != 0
        return gcd(int(a), self.modulus) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit in {self.render()}")
        if self.kind == "Z":
            return a
        if self.kind == "Q":
            return self.normalize(1 / Fraction(a))
        return pow(int(a), -1, self.modulus)

    def is_field(self) -> bool:
        """Whether the ring is a field.  Zmod:m with m >= _MR_LIMIT that no
        strong probable-prime test shows composite is a ValueError: its
        primality is not decided here, and no probabilistic answer is
        given."""
        if self.kind == "Q":
            return True
        if self.kind == "Zmod":
            return _is_prime(self.modulus)
        return False

    # -- text forms --
    def render(self) -> str:
        return f"Zmod:{self.modulus}" if self.kind == "Zmod" else self.kind

    @staticmethod
    def parse(text: str) -> "Ring":
        if text == "Z":
            return Ring("Z")
        if text == "Q":
            return Ring("Q")
        if text.startswith("Zmod:"):
            try:
                modulus = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"unknown ring {text!r}: the modulus is not "
                                 f"an integer") from None
            return Ring("Zmod", modulus)
        raise ValueError(f"unknown ring {text!r}")

    def render_value(self, value) -> str:
        return str(value)

    def parse_value(self, text: str):
        text = text.strip()
        try:
            return self.normalize(Fraction(text) if self.kind == "Q"
                                  else int(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None


# Strong probable-prime tests to the first twelve prime bases decide
# primality exactly for n < 3,317,044,064,679,887,385,961,981 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
# (2017)).  At or above that bound a failed test still proves n composite,
# but passing every test proves nothing, so _is_prime raises ValueError.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {n} is prime: primality is proved only "
            f"below {_MR_LIMIT:,}, and {n} passes the strong probable-prime "
            f"test to the first twelve prime bases")
    return True


INTEGERS = Ring("Z")
RATIONALS = Ring("Q")


def integers_mod(p: int) -> Ring:
    return Ring("Zmod", p)


# ---------------------------------------------------------------------------
# generators and words
# ---------------------------------------------------------------------------

class Generator(NamedTuple):
    """A generating morphism.  rank is the ordinal position within its category."""

    name: str
    source: str
    target: str
    degree: int
    rank: int


# A word key is either a tuple of Generators in written order (leftmost acts
# last) or, for an identity morphism, the bare object id.
WordKey = Union[tuple, str]


def word_degree(word: WordKey) -> int:
    return 0 if isinstance(word, str) else sum(g.degree for g in word)


def word_names(word: WordKey):
    """Rank-free view of a word, used for cross-category comparison."""
    if isinstance(word, str):
        return ("1", word)
    return tuple(g.name for g in word)


def _word_sort_key(word: WordKey):
    if isinstance(word, str):
        return (0, ())
    return (len(word), tuple(g.rank for g in word))


# ---------------------------------------------------------------------------
# noncommutative polynomials
# ---------------------------------------------------------------------------

class NcPoly:
    """Finite k-linear combination of composable words with one source/target.

    Zero polynomials keep their source and target (typed zero), so boundary
    errors surface even when a functor sends a generator to 0.
    """

    __slots__ = ("ring", "source", "target", "terms")

    def __init__(self, ring: Ring, source: str, target: str, terms: dict):
        self.ring = ring
        self.source = source
        self.target = target
        self.terms = terms  # WordKey -> raw ring value, no zeros stored

    # -- constructors --
    @staticmethod
    def zero(ring: Ring, source: str, target: str) -> "NcPoly":
        return NcPoly(ring, source, target, {})

    @staticmethod
    def identity(ring: Ring, obj: str) -> "NcPoly":
        return NcPoly(ring, obj, obj, {obj: ring.one()})

    @staticmethod
    def gen(ring: Ring, g: Generator, coeff=None) -> "NcPoly":
        c = ring.one() if coeff is None else ring.normalize(coeff)
        terms = {} if ring.is_zero(c) else {(g,): c}
        return NcPoly(ring, g.source, g.target, terms)

    @staticmethod
    def from_terms(ring: Ring, source: str, target: str, items: Iterable) -> "NcPoly":
        """The sum of the (word, value) items; each word is checked to
        compose along source -> target in the loop that reads it."""
        checked, normalize = [], ring.normalize
        for word, value in items:
            letters = () if isinstance(word, str) else word
            # where the next letter must end, or None once one does not
            end = target if letters else word if word == target else None
            for g in letters:
                end = g.source if g.target == end else None
            if end != source:
                _checked(word, source, target)  # raises its error
            checked.append((word, normalize(value)))
        return NcPoly(ring, source, target, accumulate(ring, {}, checked))

    # -- basic queries --
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Common degree of all words, or None for the zero polynomial."""
        degs = {word_degree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial with degrees {sorted(degs)}")
        return degs.pop()

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _word_sort_key(item[0]))

    # -- arithmetic --
    def _check_boundary(self, other: "NcPoly"):
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        if self.source != other.source or self.target != other.target:
            raise CompositionError(
                f"boundary mismatch: {self.source}->{self.target} vs "
                f"{other.source}->{other.target}"
            )

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check_boundary(other)
        return NcPoly(self.ring, self.source, self.target,
                      accumulate(self.ring, dict(self.terms),
                                 other.terms.items()))

    def add_in_place(self, other: "NcPoly", coeff=None) -> None:
        """self += coeff * other, without copying self's terms.

        Only for a polynomial its caller has built and not yet handed out:
        everywhere else an NcPoly is treated as immutable (it hashes by its
        terms).
        """
        self._check_boundary(other)
        ring = self.ring
        items = other.terms.items()
        if coeff is not None:
            coeff = ring.normalize(coeff)
            if ring.is_zero(coeff):
                return
            items = ((w, ring.mul(coeff, c)) for w, c in items)
        accumulate(ring, self.terms, items)

    def __neg__(self) -> "NcPoly":
        ring = self.ring
        return NcPoly(ring, self.source, self.target,
                      {w: ring.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, value) -> "NcPoly":
        ring = self.ring
        value = ring.normalize(value)
        if ring.is_zero(value):
            return NcPoly.zero(ring, self.source, self.target)
        return NcPoly(ring, self.source, self.target,
                      {w: ring.mul(value, c) for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return (self.ring == other.ring and self.source == other.source
                and self.target == other.target and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.source, self.target,
                     frozenset(self.terms.items())))

    def __repr__(self):
        return f"NcPoly({self.source}->{self.target}: {render_poly(self)})"


def accumulate(ring: Ring, terms: dict, items) -> dict:
    """Add (word, value) pairs into terms in place and return terms.

    The one summation loop of the package, but for rewrite.audit_rules,
    which inlines it.  Values must be reduced elements of ring, as
    ring.normalize leaves them.  A word whose sum is zero is removed; any
    other word keeps its place in the dict's order.
    """
    add, is_zero = ring.add, ring.is_zero
    for word, value in items:
        if word in terms:
            value = add(terms[word], value)
        if is_zero(value):
            terms.pop(word, None)
        else:
            terms[word] = value
    return terms


def _checked(word: WordKey, source: str, target: str) -> WordKey:
    """word, after checking that it composes and runs source -> target."""
    if isinstance(word, str):
        ends = (word, word)
    elif not word:
        raise CompositionError("empty tuple word; use the object id for identities")
    else:
        for left, right in zip(word, word[1:]):
            if right.target != left.source:
                raise CompositionError(
                    f"non-composable factors {left.name} o {right.name}: "
                    f"{left.name} starts at {left.source} but {right.name} ends at {right.target}"
                )
        ends = (word[-1].source, word[0].target)
    if ends != (source, target):
        raise CompositionError(
            f"word {word_names(word)} has boundary "
            f"{ends[0]}->{ends[1]}, expected {source}->{target}"
        )
    return word


def _concat(left: WordKey, right: WordKey) -> WordKey:
    left_unit = isinstance(left, str) or left == ()
    right_unit = isinstance(right, str) or right == ()
    if left_unit and right_unit:
        return left if isinstance(left, str) else right
    if left_unit:
        return right
    if right_unit:
        return left
    return left + right


def compose(p: NcPoly, q: NcPoly) -> NcPoly:
    """Bilinear extension of word concatenation, p o q (q acts first)."""
    if p.ring != q.ring:
        raise ValueError("mixed coefficient rings")
    if q.target != p.source:
        raise CompositionError(
            f"cannot compose: left factor starts at {p.source}, "
            f"right factor ends at {q.target}"
        )
    ring = p.ring
    mul = ring.mul
    terms = accumulate(ring, {}, ((_concat(wp, wq), mul(cp, cq))
                                  for wp, cp in p.terms.items()
                                  for wq, cq in q.terms.items()))
    return NcPoly(ring, q.source, p.target, terms)


def compose_all(factors, ring: Ring, obj: str | None = None) -> NcPoly:
    """Compose a written-order sequence of polynomials; empty product is 1_obj."""
    factors = list(factors)
    if not factors:
        if obj is None:
            raise ValueError("empty product needs an object for the identity")
        return NcPoly.identity(ring, obj)
    out = factors[0]
    for f in factors[1:]:
        out = compose(out, f)
    return out


def leibniz_d(p: NcPoly, table: dict) -> NcPoly:
    """Graded Leibniz differential, d(f o g) = df o g + (-1)^{|f|} f o dg.

    table maps generator names to their differentials (NcPoly).  Every
    generator occurring in p must have an entry.
    """
    ring = p.ring
    terms = {}
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            continue  # d(1_X) = 0
        left_degree = 0
        for j, g in enumerate(word):
            dg = table.get(g.name)
            if dg is None:
                raise MissingDifferential(f"no differential entry for {g.name}")
            if dg.terms:
                if dg.ring != ring:
                    raise ValueError("mixed coefficient rings")
                sign = -1 if left_degree % 2 else 1
                accumulate(ring, terms, _splice(
                    ring, word, j, dg, ring.mul(ring.normalize(sign), coeff),
                    p.source, p.target))
            left_degree += g.degree
    return NcPoly(ring, p.source, p.target, terms)


def _splice(ring: Ring, word: tuple, j: int, dg: NcPoly, coeff,
            source: str, target: str):
    """The terms of coeff * (word with dg in place of letter j), each word
    checked to compose and to run source -> target."""
    left = word[:j]
    right = word[j + 1:]
    for w, c in dg.terms.items():
        if isinstance(w, str):
            whole = left + right
            if not whole:
                whole = w
        else:
            whole = left + w + right
        yield _checked(whole, source, target), ring.mul(coeff, c)


# ---------------------------------------------------------------------------
# canonical text rendering and parsing
# ---------------------------------------------------------------------------
# Words render as generator names joined by "*", identities as "1_{X}".
# Generator and object names therefore must not contain '*', '+', '-',
# whitespace, or braces (objects may not contain '}').

def render_word(word: WordKey) -> str:
    if isinstance(word, str):
        return "1_{%s}" % word
    return "*".join(g.name for g in word)


def render_poly(p: NcPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    one = p.ring.one()
    minus_one = p.ring.neg(one)
    for word, coeff in p.sorted_terms():
        body = render_word(word)
        if coeff == one:
            text = body
        elif coeff == minus_one and p.ring.kind != "Zmod":
            text = "-" + body
        else:
            text = f"{p.ring.render_value(coeff)}*{body}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append("- " + text[1:])
        else:
            parts.append("+ " + text)
    return " ".join(parts)


def parse_poly(text: str, ring: Ring, source: str, target: str, lookup) -> NcPoly:
    """Parse the canonical rendering back into a polynomial.

    lookup maps a generator name to its Generator; identities resolve through
    the explicit 1_{X} form.
    """
    text = text.strip()
    if text in ("", "0"):
        return NcPoly.zero(ring, source, target)
    items = []
    for sign, chunk in _split_terms(text):
        coeff, word = _parse_term(chunk, ring, lookup)
        items.append((word, ring.neg(coeff) if sign < 0 else coeff))
    return NcPoly.from_terms(ring, source, target, items)


# a '+' or '-' right after a space, kept by re.split as a separator (re
# caches the compiled pattern on first use, so importing compiles nothing)
_SIGN = r"(?<= )([+-])"


def _split_terms(text: str):
    """(sign, term) pairs of a polynomial's text.  A '+' or '-' right after a
    space starts a new term unless it sits inside braces; a term's own
    leading '-' flips its sign."""
    # term, sign, term, ..., sign, term; a text with no space is one term
    parts = re.split(_SIGN, text) if " " in text else [text]
    raw = []
    sign, term = 1, parts[0]
    for i in range(1, len(parts), 2):
        if (("{" in term or "}" in term)
                and term.count("{") != term.count("}")):
            term += parts[i] + parts[i + 1]  # the sign sits inside braces
            continue
        raw.append((sign, term))
        sign, term = (1 if parts[i] == "+" else -1), parts[i + 1]
    raw.append((sign, term))
    out = []
    for sign, term in raw:
        term = term.strip()
        if term.startswith("-"):
            sign, term = -sign, term[1:].strip()
        if term:
            out.append((sign, term))
    return out


def _parse_term(chunk: str, ring: Ring, lookup):
    """(coefficient, word) of one term: the word is its generators in
    written order, or its identity 1_{X} when it has no generator.  An
    identity among generators is a unit, but it must sit on the object
    where it stands: the source of the generator on its left, or, left of
    every generator, the target of the first one."""
    coeff = ring.one()
    letters = []
    unit = None  # the object of the identities left of every generator
    for tok in chunk.split("*"):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"bad term {chunk!r}")
        # only a token that starts with a digit or a sign can be a number
        # or an identity; any other is a generator name
        if tok[0].isdigit() or tok[0] in "+-":
            if tok.startswith("1_{") and tok.endswith("}"):
                obj = tok[3:-1]
                at = letters[-1].source if letters else unit
                if at is None:
                    unit = obj
                elif obj != at:
                    raise ValueError(f"{tok} in term {chunk!r} stands at "
                                     f"object {at}")
                continue
            if _is_number(tok):
                coeff = ring.mul(coeff, ring.parse_value(tok))
                continue
        g = lookup(tok)
        if g is None:
            raise ValueError(f"unknown generator {tok!r}")
        letters.append(g)
    if letters:
        if unit is not None and unit != letters[0].target:
            raise ValueError(f"1_{{{unit}}} in term {chunk!r} stands at "
                             f"object {letters[0].target}")
        return coeff, tuple(letters)
    if unit is None:
        raise ValueError(f"term {chunk!r} has no word part")
    return coeff, unit


def _is_number(tok: str) -> bool:
    body = tok[1:] if tok[:1] in "+-" else tok
    if "/" in body:
        num, _, den = body.partition("/")
        return num.isdigit() and den.isdigit()
    return body.isdigit()


# ---------------------------------------------------------------------------
# disjoint sets
# ---------------------------------------------------------------------------

class UnionFind:
    """Disjoint sets of comparable elements; each set's representative is its
    smallest member."""

    def __init__(self, elements):
        self.parent = {x: x for x in elements}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False if they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True
