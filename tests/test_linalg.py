"""Exact linear algebra and the rewriting layer against the replaced code.

The integer Gauss-Jordan behind linear_solve and matrix_rank, and the
int-coefficient normal forms behind resolution_check, replaced versions
that did all their arithmetic in Fraction.  Those versions are kept here
as oracles.  The normal forms then moved from tuples of generator names
to str words with one character per generator; the tuple version, with
its Python lead scan, is a second oracle, compared through the explicit
name <-> character table in helpers.  The seeded sweep covers empty matrices, zero and
dependent rows, inconsistent right-hand sides and fractions with large
denominators; the hypothesis property runs derandomized, so every run
sees the same examples.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from goldman_forge.magnus import _normal_form, _rewrite_rule
from goldman_forge.tensoralg import as_coeff, linear_solve, matrix_rank

SWEEP_SEED = 60606
SWEEP_SYSTEMS = 20_000


# -- the replaced code, kept as oracles -----------------------------------

def old_gauss_jordan(rows, ncols):
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        pivot_row = None
        for i in range(r, m):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def old_matrix_rank(rows):
    rows = [list(row) for row in rows]
    return len(old_gauss_jordan(rows, len(rows[0]) if rows else 0))


def old_linear_solve(matrix, rhs):
    m = len(matrix)
    if m != len(rhs):
        raise ValueError("matrix and rhs row counts differ")
    if m == 0:
        return []
    ncols = len(matrix[0])
    rows = []
    for row, b in zip(matrix, rhs):
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        rows.append([as_coeff(x) for x in row] + [as_coeff(b)])
    pivots = old_gauss_jordan(rows, ncols)
    for i in range(len(pivots), m):
        if rows[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = rows[i][ncols]
    return solution


def old_rewrite_rule(genus):
    lead = ("b%d" % genus, "a%d" % genus)
    replacement = {("a%d" % genus, "b%d" % genus): Fraction(1)}
    for i in range(1, genus):
        replacement[("a%d" % i, "b%d" % i)] = Fraction(1)
        replacement[("b%d" % i, "a%d" % i)] = Fraction(-1)
    return lead, replacement


def old_normal_form(word, lead, replacement, memo):
    found = memo.get(word)
    if found is not None:
        return found
    for p in range(len(word) - 1):
        if word[p] == lead[0] and word[p + 1] == lead[1]:
            out = {}
            prefix, suffix = word[:p], word[p + 2:]
            for mid, c in replacement.items():
                for w, c2 in old_normal_form(prefix + mid + suffix, lead,
                                             replacement, memo).items():
                    cc = out.get(w, 0) + c * c2
                    if cc:
                        out[w] = cc
                    elif w in out:
                        del out[w]
            memo[word] = out
            return out
    out = {word: Fraction(1)}
    memo[word] = out
    return out


def old_find_lead(word, lead, start):
    first, second = lead
    for p in range(start, len(word) - 1):
        if word[p] == first and word[p + 1] == second:
            return p
    return -1


def old_tuple_normal_form(word, lead, replacement):
    out = {}
    work = [(word, 1, 0)]
    while work:
        word, coeff, start = work.pop()
        p = old_find_lead(word, lead, start)
        if p < 0:
            c = out.get(word, 0) + coeff
            if c:
                out[word] = c
            else:
                del out[word]
            continue
        prefix, suffix = word[:p], word[p + 2:]
        start = max(p - 1, 0)
        for mid, c in replacement.items():
            work.append((prefix + mid + suffix, coeff * c, start))
    return out


# -- seeded differential sweep --------------------------------------------

def _entry(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.choice((0, 0, 0, 1, -1, 3, -3))
    if kind == "large":
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-10 ** 12, 10 ** 12),
                        rng.randint(1, 10 ** 9))
    if rng.random() < 0.3:
        return 0
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def _system(rng):
    """A seeded system (matrix, rhs, ncols) of one of several shapes."""
    m, n = rng.randint(0, 5), rng.randint(0, 5)
    kind = rng.choice(("int", "small", "large", "mixed"))
    matrix = [[_entry(rng, kind) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        roll = rng.random()
        if roll < 0.1:
            matrix[i] = [0] * n
        elif roll < 0.35 and i >= 2:
            j, k = rng.sample(range(i), 2)
            a, b = rng.choice((1, -2, 3)), _entry(rng, "small")
            matrix[i] = [a * x + b * y for x, y in zip(matrix[j], matrix[k])]
    if rng.random() < 0.5:
        x = [_entry(rng, kind) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    else:
        rhs = [_entry(rng, kind) for _ in range(m)]
    return matrix, rhs, n


def test_sweep_matches_fraction_code():
    rng = random.Random(SWEEP_SEED)
    seen = {"empty_rows": 0, "empty_cols": 0, "inconsistent": 0,
            "rank_deficient": 0, "large": 0}
    for _ in range(SWEEP_SYSTEMS):
        matrix, rhs, n = _system(rng)
        before = [list(row) for row in matrix]
        got = linear_solve(matrix, rhs)
        want = old_linear_solve(matrix, rhs)
        assert got == want, (matrix, rhs)
        assert matrix == before
        if got is not None:
            assert all(type(y) is Fraction for y in got)
        rank = matrix_rank(matrix)
        assert rank == old_matrix_rank(matrix), matrix
        seen["empty_rows"] += not matrix
        seen["empty_cols"] += bool(matrix) and n == 0
        seen["inconsistent"] += want is None
        seen["rank_deficient"] += rank < min(len(matrix), n)
        seen["large"] += any(isinstance(x, Fraction)
                             and x.denominator > 10 ** 6
                             for row in matrix for x in row)
    assert min(seen.values()) >= 100, seen


def test_empty_shapes():
    assert linear_solve([], []) == []
    assert linear_solve([[], []], [0, 0]) == []
    assert linear_solve([[], []], [0, Fraction(1, 2)]) is None
    assert matrix_rank([]) == 0
    assert matrix_rank([[], [], []]) == 0


def _normal_form_cases(genus, letters, lead, max_len):
    """Every word up to max_len, the lead runs b_g^k a_g^k (k <= 4) bare
    and inside a1 ... b1, and, for genus 3, the words resolution_check
    rewrites: a 1-2 letter prefix on a normal word, up to length 8."""
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)
    for k in range(1, 5):
        run = (lead[0],) * k + (lead[1],) * k
        yield run
        yield ("a1",) + run + ("b1",)
    if genus == 3:
        rng = random.Random(SWEEP_SEED)
        for prefix_len in (1, 2):
            for prefix in itertools.product(letters, repeat=prefix_len):
                for _ in range(40):
                    u, length = (), rng.randint(0, 8 - prefix_len)
                    while len(u) < length:
                        letter = rng.choice(letters)
                        if not (u and u[-1] == lead[0] and letter == lead[1]):
                            u += (letter,)
                    yield prefix + u


def test_normal_forms_match_fraction_code():
    encode = helpers.encode_word
    for genus, max_len in ((1, 6), (2, 6), (3, 5)):
        letters = [name for i in range(1, genus + 1)
                   for name in ("a%d" % i, "b%d" % i)]
        chars, lead, replacement = _rewrite_rule(genus)
        old_lead, old_replacement = old_rewrite_rule(genus)
        int_replacement = {w: int(c) for w, c in old_replacement.items()}
        assert chars == encode(letters)
        assert lead == encode(old_lead)
        assert replacement == {encode(w): c
                               for w, c in int_replacement.items()}
        old_memo = {}
        for word in _normal_form_cases(genus, letters, old_lead, max_len):
            got = _normal_form(encode(word), lead, replacement)
            named = {helpers.decode_word(w): c for w, c in got.items()}
            assert named == old_normal_form(word, old_lead, old_replacement,
                                            old_memo)
            assert named == old_tuple_normal_form(word, old_lead,
                                                  int_replacement)
            assert all(type(c) is int for c in got.values())


# -- row intake -----------------------------------------------------------

def test_matrix_rank_rejects_inexact_entries():
    # in floats the two rows look independent; the exact rank is 1
    with pytest.raises(TypeError):
        matrix_rank([[0.1, 0.3], [0.2, 0.6]])
    with pytest.raises(TypeError):
        matrix_rank([[1, "1/3"]])
    with pytest.raises(TypeError):
        linear_solve([[0.5]], [1])
    with pytest.raises(TypeError):
        linear_solve([[1]], [0.5])


def test_ragged_matrix_is_a_value_error():
    with pytest.raises(ValueError, match="ragged matrix"):
        matrix_rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged matrix"):
        matrix_rank([[], [1]])
    with pytest.raises(ValueError, match="ragged matrix"):
        linear_solve([[1, 2], [3]], [1, 2])


# -- hypothesis property --------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
ENTRIES = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-10, max_value=10,
                                 max_denominator=12))


@st.composite
def systems(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    row = st.lists(ENTRIES, min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=m, max_size=m))
    x = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    return matrix, x


@PROPERTY
@given(systems())
def test_solution_solves_and_free_variables_are_zero(system):
    matrix, x = system
    rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    y = linear_solve(matrix, rhs)
    assert y is not None and len(y) == len(x)
    assert all(type(v) is Fraction for v in y)
    assert [sum(a * b for a, b in zip(row, y)) for row in matrix] == rhs
    # column j is free when it lies in the span of the columns before it
    for j in range(len(x)):
        left = old_matrix_rank([row[:j] for row in matrix])
        if old_matrix_rank([row[:j + 1] for row in matrix]) == left:
            assert y[j] == 0
