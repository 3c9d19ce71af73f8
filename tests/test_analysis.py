"""Truncated cohomology, presentation equality, rank compatibility."""

import functools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifree.algebra import (
    CompositionError,
    Generator,
    INTEGERS,
    NcPoly,
    RATIONALS,
    Ring,
    compose,
    integers_mod,
    leibniz_d,
    word_names,
)
from semifree import analysis
from semifree.analysis import (
    _d_columns,
    _over_field,
    change_coefficients,
    exact_rank,
    functor_rank_compat,
    presentation_equal,
    truncated_cohomology,
)
from semifree.constructions import tensor
from semifree.dgcat import (
    DSquaredNonzero,
    DgFunctor,
    SemifreeDgCat,
    _d_table,
    from_json,
    hom_slice,
    new_semifree,
    to_json,
    validate_functor,
)
from semifree.fukaya import ModelId, build
from semifree.plumbing import (
    RandomPlumbingConfig,
    build_wrapped,
    random_plumbing,
)
from semifree.rewrite import RuleError
from semifree.twisted import build_d12
from helpers import (
    GeneratorRuleIndex,
    copy_based_cohomology,
    decoded,
    generator_normalize,
)
from paper_models import build_e12

ring = INTEGERS
Q = RATIONALS
P = integers_mod(10007)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def test_exact_rank_small_cases():
    assert exact_rank([], ring) == 0
    assert exact_rank([{0: 1}, {0: 2}], ring) == 1
    assert exact_rank([{0: 1, 1: 1}, {1: 1}], ring) == 2
    assert exact_rank([{0: 2, 1: 4}, {0: 1, 1: 2}], Q) == 1


def test_exact_rank_fractions_and_mod():
    from fractions import Fraction
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)},
            {0: Fraction(3, 2), 1: Fraction(1, 1)}]
    assert exact_rank(rows, Q) == 1  # proportional rows
    rows2 = [{0: Fraction(1, 2), 1: Fraction(1, 3)},
             {0: Fraction(3, 2), 1: Fraction(2, 1)}]
    assert exact_rank(rows2, Q) == 2
    assert exact_rank([{0: 10007}], P) == 0
    assert exact_rank([{0: 10008}], P) == 1


def test_exact_rank_on_mixed_int_and_fraction_rows():
    # int rows are copied with their zeros dropped; a row holding a
    # Fraction is cleared of denominators, even Fraction(2, 1)
    rows = [{0: 3, 1: 0, 2: -6},
            {0: Fraction(2, 1), 1: 4, 3: 0},
            {0: Fraction(1, 3), 1: 0, 2: Fraction(-2, 3)},
            {0: 1, 1: Fraction(1, 3), 2: -2, 3: 5},
            {1: 0, 3: Fraction(0, 1)},
            {}]
    before = [dict(r) for r in rows]
    assert exact_rank(rows, Q) == dense_rank(rows, 4) == 3
    assert rows == before
    assert [list(map(type, r.values())) for r in rows] == \
        [list(map(type, r.values())) for r in before]


def dense_rank(rows, ncols, p=None) -> int:
    """Oracle: dense Gaussian elimination, columns left to right, over
    Fractions (p None) or over the residues mod the prime p."""
    if p is None:
        matrix = [[Fraction(row.get(c, 0)) for c in range(ncols)]
                  for row in rows]
    else:
        matrix = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(matrix))
                      if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        # the pivot row is zero left of col, and adding a multiple of a
        # zero entry changes nothing
        support = [(c, b) for c, b in enumerate(matrix[rank])
                   if c >= col and b != 0]
        for i in range(rank + 1, len(matrix)):
            row = matrix[i]
            if row[col] != 0:
                if p is None:
                    f = row[col] / lead
                    for c, b in support:
                        row[c] -= f * b
                else:
                    f = row[col] * pow(lead, -1, p) % p
                    for c, b in support:
                        row[c] = (row[c] - f * b) % p
        rank += 1
    return rank


NCOLS = 6
BIG = st.integers(-10**12, 10**12)
ENTRY = st.one_of(st.integers(-3, 3), BIG)


@st.composite
def sparse_rows(draw, rational: bool):
    """Rows with duplicates, multiples of earlier rows and empty rows."""
    value = (st.builds(Fraction, ENTRY, st.integers(1, 10**6)) if rational
             else ENTRY)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "fresh", "copy", "multiple",
                                     "empty"]))
        if kind in ("copy", "multiple") and rows:
            base = draw(st.sampled_from(rows))
            factor = 1 if kind == "copy" else draw(value.filter(bool))
            rows.append({c: v * factor for c, v in base.items()})
        elif kind == "empty":
            rows.append({})
        else:
            cols = draw(st.sets(st.integers(0, NCOLS - 1), max_size=NCOLS))
            row = {c: draw(value) for c in sorted(cols)}
            rows.append({c: v for c, v in row.items() if v != 0})
    return rows


@settings(max_examples=200)
@given(sparse_rows(rational=False))
def test_exact_rank_integer_matches_dense_oracle(rows):
    before = [dict(r) for r in rows]
    assert exact_rank(rows, ring) == dense_rank(rows, NCOLS)
    assert rows == before  # the caller's rows are not modified


@settings(max_examples=200)
@given(sparse_rows(rational=True))
def test_exact_rank_rational_matches_dense_oracle(rows):
    assert exact_rank(rows, Q) == dense_rank(rows, NCOLS)


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 7]), sparse_rows(rational=False))
def test_exact_rank_modular_matches_dense_oracle(p, rows):
    before = [dict(r) for r in rows]
    assert exact_rank(rows, integers_mod(p)) == dense_rank(rows, NCOLS, p)
    assert rows == before


@st.composite
def singleton_heavy_rows(draw, p, rational: bool):
    """Rows as _d_columns gives them to exact_rank: most have one entry, on
    few columns, so one-entry rows share columns with each other and with
    longer rows; values may be zero, multiples of p or Fractions."""
    small = st.integers(-3, 3)
    value = st.one_of(small, BIG, small.map(lambda k: k * (p or 7)))
    if rational:
        value = st.one_of(value, st.builds(Fraction, small,
                                           st.integers(1, 6)))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        size = draw(st.sampled_from([0, 1, 1, 1, 1, 2, 2, 3, NCOLS]))
        cols = draw(st.lists(st.integers(0, NCOLS - 1), min_size=size,
                             max_size=size, unique=True))
        rows.append({c: draw(value) for c in cols})
    return rows


@settings(max_examples=400)
@given(st.data())
def test_exact_rank_on_singleton_heavy_rows_matches_dense_oracle(data):
    ring_ = data.draw(st.sampled_from([INTEGERS, Q, integers_mod(2),
                                       integers_mod(3), integers_mod(7)]))
    p = ring_.modulus if ring_.kind == "Zmod" else None
    rows = data.draw(singleton_heavy_rows(p, ring_ is Q))
    before = [dict(r) for r in rows]
    assert exact_rank(rows, ring_) == dense_rank(rows, NCOLS, p)
    assert rows == before  # the caller's rows are not modified
    assert [list(map(type, r.values())) for r in rows] == \
        [list(map(type, r.values())) for r in before]


@st.composite
def aliased_rows(draw, p, rational: bool):
    """singleton_heavy_rows with clean multi-entry rows added (nonzero,
    reduced values) and some dicts listed more than once, in any order: a
    clean row that becomes a pivot meets its own alias later."""
    rows = draw(singleton_heavy_rows(p, rational))
    value = st.integers(1, p - 1) if p else st.integers(-5, 5).filter(bool)
    for _ in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.integers(0, NCOLS - 1), min_size=2,
                             max_size=NCOLS, unique=True))
        rows.append({c: draw(value) for c in cols})
    aliases = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=6))
    return draw(st.permutations(rows + aliases))


@settings(max_examples=400)
@given(st.data())
def test_exact_rank_on_aliased_rows_matches_dense_oracle(data):
    # clean rows enter the elimination uncopied, so a reduction must copy
    # a row before it changes it, even when the pivot is the row itself
    ring_ = data.draw(st.sampled_from([INTEGERS, Q, integers_mod(2),
                                       integers_mod(3), integers_mod(7)]))
    p = ring_.modulus if ring_.kind == "Zmod" else None
    rows = data.draw(aliased_rows(p, ring_ is Q))
    before = [dict(r) for r in rows]
    assert exact_rank(rows, ring_) == dense_rank(rows, NCOLS, p)
    assert rows == before  # the caller's rows are not modified
    assert [list(map(type, r.values())) for r in rows] == \
        [list(map(type, r.values())) for r in before]


@pytest.mark.parametrize("ring_", [INTEGERS, P], ids=["Z", "Zmod"])
def test_exact_rank_of_a_pivot_listed_twice(ring_):
    row = {0: 3, 2: 5, 4: 1}  # clean, leading with 1: the caller's pivot
    assert exact_rank([row, {1: 2, 3: 1}, row], ring_) == 2
    assert row == {0: 3, 2: 5, 4: 1}


@pytest.mark.parametrize("field", ["Q", "Zmod:7"])
@pytest.mark.parametrize("spec,bound", [("M:1,1", 2), ("S:2,1,1", 3)])
def test_exact_rank_on_assembled_matrices_matches_dense_oracle(spec, bound,
                                                               field):
    # the transposed d-matrices of real hom complexes, up to 439 x 385,
    # whose fill pattern the small random rows above do not have
    cat = change_coefficients(build(ModelId.parse(spec), ring),
                              Ring.parse(field))
    words = hom_slice(cat, "L", "L", (-8, 2), bound).words_by_degree
    table, rules = _over_field(cat, cat.ring)
    p = cat.ring.modulus if cat.ring.kind == "Zmod" else None
    ranks = []
    for k in sorted(words)[:-1]:
        basis = {w: i for i, w in enumerate(words[k])}
        index = {w: i for i, w in enumerate(words.get(k + 1, []))}
        lines, _ = _d_columns(cat.ring, table, rules, basis, index, bound)
        ranks.append(exact_rank(lines, cat.ring))
        assert ranks[-1] == dense_rank(lines, len(basis), p)
    assert max(ranks) > 20


def test_non_field_rejected():
    d12 = build_d12(3, ring)
    with pytest.raises(ValueError):
        truncated_cohomology(d12, "L1", "L1", (-3, 0), 8, INTEGERS)
    with pytest.raises(ValueError):
        truncated_cohomology(d12, "L1", "L1", (-3, 0), 8, integers_mod(6))


# ---------------------------------------------------------------------------
# truncated cohomology
# ---------------------------------------------------------------------------

def test_d12_ranks_are_free_powers():
    d12 = build_d12(3, ring)
    table = truncated_cohomology(d12, "L1", "L1", (-3, 0), 8, Q)
    assert table.ranks == {0: 1, -1: 1, -2: 1, -3: 1}
    assert all(table.exact.values())


def test_zero_differential_counts_words():
    cat = build(ModelId.parse("S:3,2,0"), ring)
    # restrict to the closed part: a category with d = 0
    free = new_semifree(ring, ("L",),
                        tuple(Generator(f"a{i}", "L", "L", -2, i - 1)
                              for i in (1, 2)),
                        {f"a{i}": NcPoly.zero(ring, "L", "L")
                         for i in (1, 2)})
    from semifree.dgcat import hom_slice
    table = truncated_cohomology(free, "L", "L", (-4, 0), 4, Q)
    slice_ = hom_slice(free, "L", "L", (-4, 0), 4)
    for k, rank in table.ranks.items():
        assert rank == len(slice_.words_by_degree.get(k, []))


def test_e12_matches_d12_on_window():
    e12 = build_e12(3, ring)
    d12 = build_d12(3, ring)
    te = truncated_cohomology(e12, "L2", "L1", (-3, 1), 8, Q)
    td = truncated_cohomology(d12, "L2", "L1", (-3, 1), 8, Q)
    assert te.ranks == td.ranks
    assert te.ranks == {1: 0, 0: 0, -1: 1, -2: 1, -3: 1}


def test_rational_and_modular_ranks_agree():
    # word enumeration is exponential in the bound, so the densely
    # generated localized surface gets a short one
    for spec, bound in (("D12:3", 8), ("S:3,2,0", 6), ("M:1,1", 2)):
        cat = build(ModelId.parse(spec), ring)
        src = cat.objects[0]
        tq = truncated_cohomology(cat, src, src, (-3, 0), bound, Q)
        tp = truncated_cohomology(cat, src, src, (-3, 0), bound, P)
        assert tq.ranks == tp.ranks


def assert_fields_agree(cat, source, target, window, bound):
    tq = truncated_cohomology(cat, source, target, window, bound, Q)
    tp = truncated_cohomology(cat, source, target, window, bound, P)
    assert (tq.ranks, tq.exact, tq.basis_sizes) == \
        (tp.ranks, tp.exact, tp.basis_sizes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_rational_and_modular_tables_agree_on_random_plumbings(seed, data):
    cat = build_wrapped(random_plumbing(
        random.Random(seed), RandomPlumbingConfig(max_vertices=3,
                                                  max_arrows=4), ring))
    source = data.draw(st.sampled_from(cat.objects))
    target = data.draw(st.sampled_from(cat.objects))
    lo = data.draw(st.integers(-4, 0))
    assert_fields_agree(cat, source, target, (lo, lo + 2),
                        data.draw(st.integers(0, 3)))


@pytest.mark.parametrize("window,bound", [((-2, 0), 4), ((-4, -1), 5)])
def test_rational_and_modular_tables_agree_with_fractional_d(window, bound):
    # d(h) = 1/2*x*x - 2/3*x and d(t) = 3/5*(x*h - h*x): rows of Fractions,
    # whose denominators exact_rank clears over Q
    x = Generator("x", "L", "L", 0, 0)
    h = Generator("h", "L", "L", -1, 1)
    t = Generator("t", "L", "L", -2, 2)
    cat = new_semifree(Q, ("L",), (x, h, t), {
        "x": NcPoly.zero(Q, "L", "L"),
        "h": NcPoly(Q, "L", "L", {(x, x): Fraction(1, 2),
                                  (x,): Fraction(-2, 3)}),
        "t": NcPoly(Q, "L", "L", {(x, h): Fraction(3, 5),
                                  (h, x): Fraction(-3, 5)})})
    assert_fields_agree(cat, "L", "L", window, bound)


class _Rows(list):
    """A list that a weak reference can follow."""


def test_hom_holds_one_degrees_rows_at_a_time(monkeypatch):
    # each degree's lines are dropped once ranked, before the next degree's
    # are made: a weak reference to them is dead by the next _d_columns call
    cat = build(ModelId.parse("M:1,1"), ring)
    expected = truncated_cohomology(cat, "L", "L", (-6, 0), 3, Q)
    made = []
    d_columns = analysis._d_columns

    def tracked(*args):
        assert [ref() for ref in made] == [None] * len(made)
        lines, lost = d_columns(*args)
        lines = _Rows(lines)
        made.append(weakref.ref(lines))
        return lines, lost

    monkeypatch.setattr(analysis, "_d_columns", tracked)
    assert truncated_cohomology(cat, "L", "L", (-6, 0), 3, Q) == expected
    assert len(made) == 8 and made[-1]() is None


def test_negative_rank_raises_instead_of_clamping(monkeypatch):
    # ranks larger than the basis would give a negative cohomology rank,
    # which only a truncated d o d != 0 can cause; it must not read as zero
    import semifree.analysis as analysis
    monkeypatch.setattr(analysis, "exact_rank", lambda rows, ring: 5)
    d12 = build_d12(3, ring)
    with pytest.raises(ValueError, match=r"degree -3: dim 1 - rank d_-3 5 "
                                         r"- rank d_-4 5"):
        truncated_cohomology(d12, "L1", "L1", (-3, 0), 8, Q)


def test_empty_window_rejected():
    d12 = build_d12(3, ring)
    with pytest.raises(ValueError, match="window 0:-1"):
        truncated_cohomology(d12, "L1", "L1", (0, -1), 8, Q)


def test_truncation_caveat_flagged():
    # dh = a2 a1 - 1 grows word length, so this slice never saturates and
    # every degree carries the caveat; a zero-differential slice is exact
    cat = build(ModelId.parse("S:2,2,0"), ring, {"localize": False})
    table = truncated_cohomology(cat, "L", "L", (-1, 0), 4, Q)
    assert not any(table.exact.values())
    d12 = build_d12(3, ring)
    free = truncated_cohomology(d12, "L1", "L1", (-2, 0), 6, Q)
    assert all(free.exact.values())


def oracle_rows(cat, basis, next_basis, bound):
    """The former assembly: d of each basis word by leibniz_d, normalized
    by the category's rules on Generator words, columns found by
    word_names."""
    index = {word_names(w): i for i, w in enumerate(next_basis)}
    rules = GeneratorRuleIndex(cat.rules)
    rows, lost = [], False
    for w in basis:
        if isinstance(w, str):
            continue  # d(1_X) = 0
        dw = generator_normalize(rules, leibniz_d(
            NcPoly(cat.ring, w[-1].source, w[0].target, {w: 1}),
            cat.differentials))
        row = {}
        for word, coeff in dw.terms.items():
            length = 0 if isinstance(word, str) else len(word)
            if length > bound or word_names(word) not in index:
                lost = True
                continue
            row[index[word_names(word)]] = coeff
        if row:
            rows.append(row)
    return rows, lost


def oracle_lines(cat, basis, next_basis, bound):
    """oracle_rows transposed: a line {basis position: value} for each word
    of next_basis that some row reaches, in next_basis's order, and the
    lost flag."""
    lines, lost = {}, False
    for i, w in enumerate(basis):
        rows, lost_w = oracle_rows(cat, [w], next_basis, bound)
        lost = lost or lost_w
        for row in rows:  # one at most
            for col, value in row.items():
                lines.setdefault(col, {})[i] = value
    return [lines[col] for col in sorted(lines)], lost


def spliced_reducible():
    """A relational category in which d of an irreducible word can be
    reducible, which no built model has: d(x*y) = x*x -> z + 2*1_L, and
    d(t) = z + x*x sums to 2*z + 2*1_L.  d(w) = z*z is irreducible, so at
    bound 1 it is lost before t is assembled.  The rule x*z -> z*x makes
    the rules confluent: x*x*x reduces to z*x + 2*x either way."""
    z = Generator("z", "L", "L", 0, 0)
    x = Generator("x", "L", "L", 0, 1)
    y = Generator("y", "L", "L", -1, 2)
    u = Generator("u", "L", "L", -1, 3)
    w = Generator("w", "L", "L", -1, 4)
    t = Generator("t", "L", "L", -1, 5)
    xx = compose(NcPoly.gen(ring, x), NcPoly.gen(ring, x))
    table = {g.name: NcPoly.zero(ring, "L", "L") for g in (z, x)}
    table["y"] = NcPoly.gen(ring, x)
    table["u"] = NcPoly.gen(ring, z, -1)
    table["w"] = compose(NcPoly.gen(ring, z), NcPoly.gen(ring, z))
    table["t"] = NcPoly.gen(ring, z) + xx
    rhs = NcPoly.gen(ring, z) + NcPoly.identity(ring, "L").scale(2)
    zx = compose(NcPoly.gen(ring, z), NcPoly.gen(ring, x))
    return new_semifree(ring, ("L",), (z, x, y, u, w, t), table,
                        rules=[((x, x), rhs), ((x, z), zx)])


@functools.cache
def assembly_model(spec: str, ring_text: str):
    if spec == "spliced-reducible":
        cat = spliced_reducible()
    else:
        parts = [build(ModelId.parse(s), ring) for s in spec.split(" x ")]
        cat = parts[0] if len(parts) == 1 else tensor(*parts)
    return change_coefficients(cat, Ring.parse(ring_text))


@st.composite
def assembly_cases(draw):
    """(category, source, target, degree k, bound) for the oracle tests."""
    spec, max_bound = draw(st.sampled_from([
        ("M:1,1", 3), ("S:2,1,1", 4), ("D01:3", 4), ("A2 x C:3", 4),
        ("M:1,1 x S:2,1,1", 2), ("spliced-reducible", 4)]))
    cat = assembly_model(spec, draw(st.sampled_from(["Z", "Q", "Zmod:7"])))
    return (cat, draw(st.sampled_from(cat.objects)),
            draw(st.sampled_from(cat.objects)), draw(st.integers(-4, 1)),
            draw(st.integers(0, max_bound)))


@settings(max_examples=150, deadline=None)
@given(assembly_cases())
def test_assembled_rows_match_leibniz_oracle(case):
    cat, source, target, k, bound = case
    got, want, _ = coded_columns(cat, source, target, (k, k + 1), bound, k)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(assembly_cases())
def test_assembled_columns_are_the_transposed_oracle_rows(case):
    # the lines in column order, their entries in basis order, and their
    # rank that of the oracle's rows
    cat, source, target, k, bound = case
    (lines, lost), (want, want_lost), words = coded_columns(
        cat, source, target, (k, k + 1), bound, k)
    assert [list(line.items()) for line in lines] == \
        [list(line.items()) for line in want]
    assert lost == want_lost
    p = cat.ring.modulus if cat.ring.kind == "Zmod" else None
    rows, _ = oracle_rows(cat, words.get(k, []), words.get(k + 1, []), bound)
    assert exact_rank(lines, cat.ring) == \
        dense_rank(rows, len(words.get(k + 1, [])), p)


def coded_columns(cat, source, target, window, bound, k):
    """_d_columns and oracle_lines on degree k of the slice.  _d_columns
    gives raw sums, so its lines are compared as exact_rank reduces them:
    mod p, and without zeros or empty lines."""
    slice_ = hom_slice(cat, source, target, window, bound)
    coded, words = slice_.words_by_degree, decoded(cat, slice_)
    lines, lost = _d_columns(
        cat.ring, *_over_field(cat, cat.ring),
        {w: i for i, w in enumerate(coded.get(k, []))},
        {w: i for i, w in enumerate(coded.get(k + 1, []))}, bound)
    p = cat.ring.modulus if cat.ring.kind == "Zmod" else None
    reduced = ({i: r for i, v in line.items() if (r := v % p if p else v)}
               for line in lines)
    got = [line for line in reduced if line], lost
    return got, oracle_lines(cat, words.get(k, []), words.get(k + 1, []),
                             bound), words


@pytest.mark.parametrize("field", ["Q", "Zmod:7"])
def test_trimmed_assembly_matches_oracle_on_every_degree(field):
    # once a degree is lost, each word takes only the d terms that fit the
    # bound; no line may change
    cat = assembly_model("M:1,1", field)
    lost = {}
    for k in range(-7, 1):
        got, want, words = coded_columns(cat, "L", "L", (-7, 1), 3, k)
        assert got == want
        lost[k] = got[1]
    assert lost == {-7: False, -6: True, -5: True, -4: True, -3: True,
                    -2: True, -1: True, 0: False}
    # degree -6 is lost at its first word, so its other 26 words are
    # assembled from the trimmed tables
    assert len(words[-6]) == 27
    assert oracle_rows(cat, words[-6][:1], words[-5], 3)[1]


class CountedTable(dict):
    """A coded d table that counts the letters whose d terms are read."""

    reads = 0

    def __getitem__(self, rank):
        self.reads += 1
        return super().__getitem__(rank)


@pytest.mark.parametrize("spec,window,bound,k", [
    ("M:1,1", (-6, 0), 3, 0),  # no letter of a degree-0 word has a d
    ("S:3,2,1", (-4, 0), 4, -4),  # only h has a d
])
def test_a_word_with_no_d_letter_takes_no_d_term(spec, window, bound, k):
    # the slice hom takes for the window
    cat = assembly_model(spec, "Q")
    table, rules = _over_field(cat, cat.ring)
    slice_ = hom_slice(cat, "L", "L", (window[0] - 1, window[1] + 1), bound)
    coded, words = slice_.words_by_degree, decoded(cat, slice_)
    closed = {r for r, (_, terms, _) in table.items() if not terms}
    columns = {w: i for i, w in enumerate(coded.get(k + 1, []))}
    skipped = {i for i, w in enumerate(coded[k]) if closed.issuperset(w)}
    assert skipped
    # the words with no d letter alone, then the whole degree
    for chosen in (sorted(skipped), range(len(coded[k]))):
        counted = CountedTable(table)
        lines, lost = _d_columns(cat.ring, counted, rules,
                                 [coded[k][i] for i in chosen], columns,
                                 bound)
        assert (lines, lost) == oracle_lines(
            cat, [words[k][i] for i in chosen], words.get(k + 1, []), bound)
        # the other words read the entry of each of their letters once
        assert counted.reads == sum(len(coded[k][i]) for i in chosen
                                    if i not in skipped)
    # S:3,2,1's degree also holds words with h, whose d is not 0
    assert bool(lines) == (spec == "S:3,2,1")


def test_assembly_before_a_loss_builds_every_term():
    # Terms beyond the bound can cancel, which the ordinal condition rules
    # out in a category without rules, so the coded table is written by
    # hand: u: Y -> Z and v: X -> Y of degree -1, p on Y of degree 1, with
    # d(u) = u*p, d(v) = p*v and d(p) = p*p.  d(u*v) = u*p*v - u*p*v = 0,
    # so at bound 2 the word u*v loses nothing.  Over Zmod:7 the raw sum is
    # 1 + 6 = 7, which must read as zero.
    u = Generator("u", "Y", "Z", -1, 0)
    v = Generator("v", "X", "Y", -1, 1)
    p = Generator("p", "Y", "Y", 1, 2)
    for field in (Q, integers_mod(7)):
        table = {g.rank: (g.degree % 2, [(t, 1)], [(t, field.neg(1))])
                 for g, t in ((u, (0, 2)), (v, (2, 1)), (p, (2, 2)))}
        assert _d_columns(field, table, None, {(0, 1): 0}, {}, 2) == \
            ([], False)
        # d(u*p*v) = u*p*p*v
        assert _d_columns(field, table, None, {(0, 2, 1): 0}, {}, 3) == \
            ([], True)


@pytest.mark.parametrize("field", ["Z", "Zmod:7"])
def test_assembly_with_rules_builds_every_term_after_a_loss(field):
    # at bound 1, d(w) = z*z is lost first; the x*x of d(t) is beyond the
    # bound too, but reduces to z + 2*1_L, so it still reaches t's entries
    cat = assembly_model("spliced-reducible", field)
    got, want, _ = coded_columns(cat, "L", "L", (-2, 1), 1, -1)
    # lines: 1_L, z, x; basis: y, u, w and t (w's only term is lost)
    assert got == want == ([{3: 2}, {1: cat.ring.neg(1), 3: 2}, {0: 1}],
                           True)


@pytest.mark.parametrize("field", ["Z", "Q", "Zmod:7"])
@pytest.mark.parametrize("spec,source,target,window,bound", [
    ("M:1,1 x S:2,1,1", "(L,L)", "(L,L)", (-3, 1), 2),
    ("M:1,1 x S:2,1,1", "(L,L)", "(L,L)", (-2, 0), 3),
    ("spliced-reducible", "L", "L", (-3, 1), 2),
])
def test_rows_with_rules_equal_those_of_the_oracle_normalizer(
        spec, source, target, window, bound, field, monkeypatch):
    # _d_columns on every degree, once with the coded core and once with
    # normal_form replaced by the Generator-word normalizer of helpers.py;
    # the lines, their entries' order and the flags must agree
    cat = assembly_model(spec, field)
    words = hom_slice(cat, source, target, window, bound).words_by_degree
    table, rules = _over_field(cat, cat.ring)
    index = GeneratorRuleIndex(cat.rules)
    by_rank = {g.rank: g for g in cat.generators}

    calls = []

    def oracle_normal_form(_, ring_, pending):
        calls.append(len(pending))
        p = NcPoly(ring_, source, target, {
            tuple(by_rank[r] for r in w) if w else source: c
            for w, c in pending})
        return {() if isinstance(w, str) else tuple(g.rank for g in w): c
                for w, c in generator_normalize(index, p).terms.items()}

    def all_rows():
        out = []
        for k in range(window[0], window[1]):
            lines, lost = _d_columns(
                cat.ring, table, rules,
                {w: i for i, w in enumerate(words.get(k, []))},
                {w: i for i, w in enumerate(words.get(k + 1, []))}, bound)
            out.append(([list(line.items()) for line in lines], lost))
        return out

    got = all_rows()
    monkeypatch.setattr(analysis, "normal_form", oracle_normal_form)
    assert got == all_rows()
    assert calls and any(lost for _, lost in got)


def test_non_composable_d_term_rejected():
    # d(g) holds a*e, which does not compose (e ends at Y, a starts at X);
    # the class refuses it even without new_semifree's d^2 audit, before
    # truncated_cohomology can see it
    a = Generator("a", "X", "X", 0, 0)
    e = Generator("e", "X", "Y", 0, 1)
    g = Generator("g", "X", "X", -1, 2)
    with pytest.raises(CompositionError, match=r"^d\(g\) has the term a\*e, "
                       "which does not compose along X->X$"):
        cat = SemifreeDgCat(Q, ("X", "Y"), (a, e, g), {
            "a": NcPoly.zero(Q, "X", "X"), "e": NcPoly.zero(Q, "X", "Y"),
            "g": NcPoly(Q, "X", "X", {(a, e): 1})})
        truncated_cohomology(cat, "X", "X", (-1, 0), 1, Q)


def test_assembly_rejects_shared_ranks():
    # ranks code the words, so two generators with one rank would merge
    # distinct words into one column; such a category is refused before
    # truncated_cohomology can see it
    a = Generator("a", "X", "X", 0, 0)
    b = Generator("b", "X", "X", 0, 0)
    with pytest.raises(ValueError, match="^duplicate ordinal ranks$"):
        cat = SemifreeDgCat(Q, ("X",), (a, b), {
            "a": NcPoly.zero(Q, "X", "X"), "b": NcPoly.zero(Q, "X", "X")})
        truncated_cohomology(cat, "X", "X", (0, 0), 1, Q)


def test_change_coefficients_roundtrip():
    cat = build(ModelId.parse("S:2,2,0"), ring)
    over_q = change_coefficients(cat, Q)
    assert over_q.ring == Q
    over_p = change_coefficients(cat, P)
    assert over_p.ring == P


@st.composite
def small_documents(draw):
    """(document, field, bound): a one-object category over Z, Q or Zmod:m
    (m = p, 2p or 4), with or without rules, loaded from its JSON, and a
    field Q or Zmod:p.

    Generators a_i (deg 0, d 0) and h_j (deg -1, d a sum of words of length
    at most 2 in the a_i).  Rules a_i*a_j -> c*a_k + c'*1_L, each kept only
    if the rules stay confluent, and h_j -> c*h_i (i < j) with d(h_j) =
    c*d(h_i), so d^2 = 0 and every rule commutes with d.  Values are multiples of p or not, and over Q fractions, a few with
    the denominator p; d(h_0) holds a multiple of p.  Read in a field
    other than Zmod:m, the residues of scaled values need not be the scaled
    residues, so such a rule h_j -> c*h_i can fail to commute with d there,
    and the rules a_i*a_j -> ... can fail to be confluent there."""
    p = draw(st.sampled_from([5, 7]))
    ring_ = draw(st.sampled_from([ring, Q, integers_mod(p),
                                  integers_mod(2 * p), integers_mod(4)]))
    field = draw(st.sampled_from([Q, integers_mod(p)]))
    value = st.integers(-3, 3) | st.integers(-2, 2).map(lambda k: k * p)
    if ring_ is Q:
        value |= st.builds(Fraction, st.integers(-2 * p, 2 * p),
                           st.sampled_from([2, 3, 4, 6, 2, 3, 4, 6, p]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = [Generator(f"a{i}", "L", "L", 0, i) for i in range(m)]
    h = [Generator(f"h{j}", "L", "L", -1, m + j) for j in range(n)]
    words = ["L"] + [(x,) for x in a] + [(x, y) for x in a for y in a]

    def poly(terms):
        return NcPoly.from_terms(ring_, "L", "L", terms)

    table = {x.name: NcPoly.zero(ring_, "L", "L") for x in a}
    rules = []
    with_rules = draw(st.booleans())
    if with_rules:
        for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)),
                                  max_size=3, unique=True)):
            k = draw(st.integers(0, m - 1))
            rule = ((a[i], a[j]), poly([((a[k],), draw(value)),
                                        ("L", draw(value))]))
            try:  # only the h_j have d != 0, and no rule lhs holds one
                SemifreeDgCat(ring_, ("L",), tuple(a), table,
                              rules=tuple(rules) + (rule,))
            except RuleError:
                continue
            rules.append(rule)
    for j, x in enumerate(h):
        if with_rules and j and draw(st.booleans()):
            i, c = draw(st.integers(0, j - 1)), draw(value)
            table[x.name] = table[h[i].name].scale(c)
            rules.append(((x,), poly([((h[i],), c)])))
        else:
            terms = draw(st.lists(st.tuples(st.sampled_from(words), value),
                                  max_size=4))
            if j == 0:
                terms.append(((a[0],), p * draw(st.sampled_from([1, -2]))))
            table[x.name] = poly(terms)
    cat = new_semifree(ring_, ("L",), tuple(a + h), table, rules=rules)
    return from_json(to_json(cat)), field, draw(st.integers(1, 3))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, DSquaredNonzero, RuleError) as err:
        return (type(err).__name__, str(err))


@settings(max_examples=250, deadline=None)
@given(small_documents())
def test_mapped_tables_equal_those_of_the_field_copy(drawn):
    # hom maps the document's coded tables into the field (or, from Zmod:m
    # to another field, rebuilds the category there); they, and the ranks,
    # must be those of change_coefficients' copy, and so must the first
    # error (a denominator not invertible mod p, or rules that commute with
    # d or are confluent over Zmod:m but not over the field)
    cat, field, bound = drawn
    copy = _outcome(change_coefficients, cat, field)
    mapped = _outcome(_over_field, cat, field)
    got = _outcome(truncated_cohomology, cat, "L", "L", (-1, 0), bound,
                   field)
    if isinstance(copy, tuple):
        # a denominator not invertible mod p fails the mapping alike, and
        # hom refuses it as its field argument; a rule/d or confluence
        # failure over the field is found by the copy hom builds
        assert got == (("BadArgument", copy[1]) if copy[0] == "ValueError"
                       else copy)
        assert mapped == copy or copy[0] in ("DSquaredNonzero", "RuleError")
        return
    table, rules = mapped
    assert table == _d_table(copy)
    assert (None if rules is None else rules.rules) == \
        (copy._index.rules if copy.rules else None)
    # a d term or rule that shortens a word can make the truncated
    # differential square to nonzero: then both paths fail alike
    assert got == _outcome(copy_based_cohomology, cat, "L", "L", (-1, 0),
                           bound, field)


@pytest.mark.parametrize("field", ["Q", "Zmod:7"])
@pytest.mark.parametrize("spec,source,target,bound", [
    ("M:1,1 x S:2,1,1", "(L,L)", "(L,L)", 2),
    ("M:1,1 x S:2,1,1", "(L,L)", "(L,L)", 3),
    ("A2 x C:1", "(K0,L)", "(K1,L)", 4),
])
def test_trimmed_assembly_with_rules_equals_the_untrimmed_one(
        spec, source, target, bound, field, monkeypatch):
    # no interchange rule shortens a word, so once a degree is lost each
    # word takes only the d terms that fit the bound; on every degree the
    # lines and the flag must be those of the untrimmed assembly
    cat = assembly_model(spec, field)
    table, rules = _over_field(cat, cat.ring)
    assert all(len(w) >= len(lhs) for lhs, terms, _ in rules.rules
               for w, _ in terms)
    words = hom_slice(cat, source, target, (-20, 20), bound).words_by_degree

    def all_rows():
        columns = {k: {w: i for i, w in enumerate(ws)}
                   for k, ws in words.items()}
        return [_d_columns(cat.ring, table, rules, columns[k],
                           columns.get(k + 1, {}), bound)
                for k in sorted(words)]

    trims = []
    trim = analysis._trim

    def counted_trim(table_, room):
        trims.append(room)
        return trim(table_, room)

    monkeypatch.setattr(analysis, "_trim", counted_trim)
    got = all_rows()
    monkeypatch.setattr(analysis, "_trim", lambda table_, room: table_)
    assert got == all_rows()
    assert trims and any(lost for _, lost in got)


# ---------------------------------------------------------------------------
# presentation equality
# ---------------------------------------------------------------------------

def test_presentation_equal_reflexive_symmetric_transitive():
    a = build(ModelId.parse("S:3,2,0"), ring)
    ident = {g.name: g.name for g in a.generators}
    assert presentation_equal(a, a, {"L": "L"}, ident)["equal"]
    b = build(ModelId.parse("S:3,2,0"), ring)
    assert presentation_equal(a, b, {"L": "L"}, ident)["equal"]
    assert presentation_equal(b, a, {"L": "L"}, ident)["equal"]


def test_presentation_unequal_pinpoints_generator():
    a = build(ModelId.parse("S:3,2,0"), ring)
    from semifree.reduce import change_basis
    b = change_basis(a, "a1", -1)
    rep = presentation_equal(
        a, b, {"L": "L"}, {g.name: g.name for g in a.generators})
    assert not rep["equal"]
    assert "d(h)" in rep["mismatches"][0]


def test_presentation_equal_with_units():
    a = build(ModelId.parse("S:3,2,0"), ring)
    from semifree.reduce import change_basis
    b = change_basis(a, "a1", -1)
    rep = presentation_equal(a, b, {"L": "L"},
                             {"a1": ("a1", -1), "a2": "a2", "h": "h"})
    assert rep["equal"]


def test_presentation_equal_checks_bijection():
    a = build(ModelId.parse("S:3,2,0"), ring)
    b = build(ModelId.parse("S:3,1,0"), ring)
    rep = presentation_equal(a, b, {"L": "L"}, {"a1": "a1", "a2": "a1",
                                                "h": "h"})
    assert not rep["equal"]


# ---------------------------------------------------------------------------
# functor rank compatibility
# ---------------------------------------------------------------------------

def test_identity_functor_trivially_compatible():
    from helpers import identity_functor
    cat = build_d12(3, ring)
    report = functor_rank_compat(identity_functor(cat), (-2, 0), 6, Q)
    assert report["agree"]
    assert report["status"] == "evidence-only"


def test_generator_change_rank_compatible():
    from paper_models import generator_change_d12
    _, functor, _ = generator_change_d12(3, ring)
    report = functor_rank_compat(functor, (-2, 1), 6, Q)
    assert report["agree"]


def test_free_to_relational_inclusion_rank_compatible():
    # x -> x, y -> y from the free x/y presentation into the cone-side one
    d12 = build_d12(3, ring)
    e12 = build_e12(3, ring)
    f = DgFunctor(d12, e12, {"L1": "L1", "L2": "L2"},
                  {"x": NcPoly.gen(ring, e12.gen("x")),
                   "y": NcPoly.gen(ring, e12.gen("y"))})
    validate_functor(f)
    report = functor_rank_compat(f, (-3, 1), 8, Q)
    assert report["agree"]


def test_non_quasi_iso_detected():
    # z -> 0 from the 2-sphere algebra into the point: rank 1 vs 0 in deg -1
    c2 = build(ModelId.parse("C:2"), ring)
    a1 = build(ModelId("A1"), ring)
    f = DgFunctor(c2, a1, {"L": "K"}, {"z": NcPoly.zero(ring, "K", "K")})
    validate_functor(f)
    report = functor_rank_compat(f, (-1, 0), 4, Q)
    assert not report["agree"]
    pair = report["pairs"][0]
    assert pair["source_ranks"]["-1"] == 1
    assert pair["target_ranks"]["-1"] == 0
