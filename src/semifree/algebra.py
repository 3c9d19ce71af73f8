"""Exact coefficient arithmetic and noncommutative graded path-algebra arithmetic.

Morphisms are finite linear combinations of composable generator words with a
fixed source and target.  Words are stored in written order, i.e. the tuple
(f_m, ..., f_1) denotes the composite f_m o ... o f_1 whose rightmost factor
acts first.  All arithmetic is exact: integers, Fractions, or reduced
residues mod p.  No floats anywhere.
"""

from __future__ import annotations

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
            return Fraction(value)
        return int(value) % self.modulus

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

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
            return Fraction(1) / a
        return pow(int(a), -1, self.modulus)

    def is_field(self) -> bool:
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
            return Ring("Zmod", int(text.split(":", 1)[1]))
        raise ValueError(f"unknown ring {text!r}")

    def render_value(self, value) -> str:
        return str(value)

    def parse_value(self, text: str):
        text = text.strip()
        if self.kind == "Q":
            return Fraction(text)
        return self.normalize(int(text))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


def word_source(word: WordKey) -> str:
    return word if isinstance(word, str) else word[-1].source


def word_target(word: WordKey) -> str:
    return word if isinstance(word, str) else word[0].target


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


def check_word(word: WordKey):
    if isinstance(word, str):
        return
    if not word:
        raise CompositionError("empty tuple word; use the object id for identities")
    for left, right in zip(word, word[1:]):
        if right.target != left.source:
            raise CompositionError(
                f"non-composable factors {left.name} o {right.name}: "
                f"{left.name} starts at {left.source} but {right.name} ends at {right.target}"
            )


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
        terms = {}
        for word, value in items:
            check_word(word)
            if word_source(word) != source or word_target(word) != target:
                raise CompositionError(
                    f"word {word_names(word)} has boundary "
                    f"{word_source(word)}->{word_target(word)}, expected {source}->{target}"
                )
            value = ring.normalize(value)
            if word in terms:
                value = ring.add(terms[word], value)
            if ring.is_zero(value):
                terms.pop(word, None)
            else:
                terms[word] = value
        return NcPoly(ring, source, target, terms)

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

    def key_view(self):
        """Mapping by generator-name sequences, for cross-category equality."""
        return {word_names(w): c for w, c in self.terms.items()}

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
        ring = self.ring
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = ring.add(terms.get(w, ring.zero()), c)
            if ring.is_zero(s):
                terms.pop(w, None)
            else:
                terms[w] = s
        return NcPoly(ring, self.source, self.target, terms)

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
    terms = {}
    for wp, cp in p.terms.items():
        for wq, cq in q.terms.items():
            w = _concat(wp, wq)
            c = ring.mul(cp, cq)
            s = ring.add(terms.get(w, ring.zero()), c)
            if ring.is_zero(s):
                terms.pop(w, None)
            else:
                terms[w] = s
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
    out = NcPoly.zero(ring, p.source, p.target)
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            continue  # d(1_X) = 0
        left_degree = 0
        for j in range(len(word)):
            g = word[j]
            if g.name not in table:
                raise MissingDifferential(f"no differential entry for {g.name}")
            dg = table[g.name]
            if not dg.is_zero():
                sign = -1 if left_degree % 2 else 1
                piece = NcPoly.from_terms(
                    ring, p.source, p.target,
                    _splice(ring, word, j, dg, ring.mul(ring.normalize(sign), coeff)))
                out = out + piece
            left_degree += g.degree
    return out


def _splice(ring: Ring, word: tuple, j: int, dg: NcPoly, coeff):
    left = word[:j]
    right = word[j + 1:]
    for w, c in dg.terms.items():
        if isinstance(w, str):
            whole = left + right
            if not whole:
                whole = w
        else:
            whole = left + w + right
        if isinstance(whole, tuple):
            check_word(whole)
        yield whole, ring.mul(coeff, c)


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
        coeff, factors = _parse_term(chunk, ring, lookup)
        if sign < 0:
            coeff = ring.neg(coeff)
        word = None
        for f in factors:
            word = f if word is None else _concat(word, f)
        if word is None:
            raise ValueError(f"empty term in {text!r}")
        items.append((word, coeff))
    return NcPoly.from_terms(ring, source, target, items)


def _split_terms(text: str):
    terms = []
    sign = 1
    depth = 0
    buf = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and ch in "+-" and buf and buf[-1] == " ":
            terms.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
            continue
        buf.append(ch)
    terms.append((sign, "".join(buf).strip()))
    out = []
    for s, t in terms:
        if t.startswith("-"):
            s, t = -s, t[1:].strip()
        if t:
            out.append((s, t))
    return out


def _parse_term(chunk: str, ring: Ring, lookup):
    coeff = ring.one()
    factors = []
    for tok in chunk.split("*"):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"bad term {chunk!r}")
        if tok.startswith("1_{") and tok.endswith("}"):
            factors.append(tok[3:-1])
        elif _is_number(tok):
            coeff = ring.mul(coeff, ring.parse_value(tok))
        else:
            g = lookup(tok)
            if g is None:
                raise ValueError(f"unknown generator {tok!r}")
            factors.append((g,))
    if not factors:
        raise ValueError(f"term {chunk!r} has no word part")
    return coeff, factors


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
