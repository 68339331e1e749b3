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

resolution_check later stopped rewriting words without the lead and
built each basis from the one a degree below, and the row intake took
rows of ints as they are; the versions before that (recursive word
enumeration, every word rewritten, every entry checked and scaled) are
kept here too, and the reports and integer rows must not change.

_normal_form then moved from one word to a combination, rewriting the
largest word that holds the lead after like words merge.  The str
worklist it replaced, one word at a time, is kept as
old_str_normal_form; old_resolution_check uses it, and every combination
(relator multiples R u, random ones, ones built to vanish in A) must
normalise to the sum of its words' old normal forms.

matrix_rank then stopped clearing above its pivots, and the
surjectivity sweep became a search of NUL-joined chunks of words.  The
Fraction rank is compared on the certificate's own d1 and d2 blocks,
and old_resolution_check's per-word find(lead, 1) judges levels with a
planted word.

_extend then stopped yielding words one at a time and returned each level
as a list, which the sweep takes in blocks of the level below; every level
must equal old_normal_words', and the blocks' strings the level above.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from goldman_forge.magnus import (
    _RANK_LIMIT,
    _SWEEP_LIMIT,
    _extend,
    _normal_counts,
    _normal_form,
    _rewrite_rule,
    resolution_check,
)
from goldman_forge.tensoralg import (
    _int_rows,
    as_coeff,
    linear_solve,
    matrix_rank,
)

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


def old_str_normal_form(word, lead, replacement):
    if lead not in word:
        return {word: 1}
    out = {}
    work = [(word, 1, 0)]
    while work:
        word, coeff, start = work.pop()
        p = word.find(lead, start)
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


def old_int_rows(rows, ncols):
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError("coefficient must be an integer or "
                                "Fraction, got %r" % type(x).__name__)
        scale = math.lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def old_normal_words(letters, lead, length):
    if length == 0:
        yield ""
        return
    for w in old_normal_words(letters, lead, length - 1):
        for letter in letters:
            if not (letter == lead[1] and w.endswith(lead[0])):
                yield w + letter


def old_normal_counts(letters, lead, max_len):
    dims = [1]
    by_last = {}
    for m in range(1, max_len + 1):
        if not by_last:
            by_last = {q: 1 for q in letters}
        else:
            total = sum(by_last.values())
            blocked = by_last[lead[0]]
            by_last = {q: total - (blocked if q == lead[1] else 0)
                       for q in letters}
        dims.append(sum(by_last.values()))
    return dims


def old_resolution_check(genus, n_max):
    if genus < 1:
        raise ValueError("resolution needs genus >= 1")
    if n_max < 0:
        raise ValueError("resolution needs max degree >= 0")
    letters, lead, replacement = _rewrite_rule(genus)

    dims = old_normal_counts(letters, lead, n_max + 2)
    for m in range(2, n_max + 3):
        if dims[m] != 2 * genus * dims[m - 1] - dims[m - 2]:
            raise AssertionError("dimension recursion failed at degree %d" % m)
    if genus == 1 and any(dims[m] != m + 1 for m in range(n_max + 3)):
        raise AssertionError("genus-1 dimensions are not n+1")

    basis_cache = {}

    def basis(m):
        if m not in basis_cache:
            words = list(old_normal_words(letters, lead, m))
            if len(words) != dims[m]:
                raise AssertionError("enumeration disagrees with the "
                                     "transfer count at degree %d" % m)
            basis_cache[m] = words
        return basis_cache[m]

    pair_letters = [letters[h:h + 2] for h in range(0, 2 * genus, 2)]
    rows = []
    passed = True
    for n in range(n_max + 1):
        composite_ok = True
        for u in basis(n):
            out = {}
            for a, b in pair_letters:
                for word, sign in ((a + b + u, 1), (b + a + u, -1)):
                    for w, c in old_str_normal_form(word, lead,
                                                    replacement).items():
                        out[w] = out.get(w, 0) + sign * c
            if any(out.values()):
                composite_ok = False
                break
        images = set()
        injective_ok = True
        for u in basis(n):
            image = old_str_normal_form(letters[1] + u, lead, replacement)
            if len(image) != 1 or next(iter(image.values())) != 1:
                injective_ok = False
                break
            images.add(next(iter(image)))
        if injective_ok and len(images) != dims[n]:
            injective_ok = False
        surjective_swept = dims[n + 2] <= _SWEEP_LIMIT
        surjective_ok = True
        if surjective_swept:
            words = (basis_cache.get(n + 2)
                     or old_normal_words(letters, lead, n + 2))
            surjective_ok = all(w.find(lead, 1) < 0 for w in words)
        rank_identity = dims[n] + dims[n + 2] == 2 * genus * dims[n + 1]

        cross_checked = False
        middle_dim = 2 * genus * dims[n + 1]
        if middle_dim <= _RANK_LIMIT:
            index_n1 = {w: i for i, w in enumerate(basis(n + 1))}
            index_n2 = {w: i for i, w in enumerate(basis(n + 2))}
            d2_cols = []
            for u in basis(n):
                column = [0] * middle_dim
                for h, (a, b) in enumerate(pair_letters):
                    for w, c in old_str_normal_form(b + u, lead,
                                                    replacement).items():
                        column[2 * h * dims[n + 1] + index_n1[w]] += c
                    for w, c in old_str_normal_form(a + u, lead,
                                                    replacement).items():
                        column[(2 * h + 1) * dims[n + 1] + index_n1[w]] -= c
                d2_cols.append(column)
            d1_cols = []
            for letter in letters:
                for v in basis(n + 1):
                    column = [0] * dims[n + 2]
                    for w, c in old_str_normal_form(letter + v, lead,
                                                      replacement).items():
                        column[index_n2[w]] += c
                    d1_cols.append(column)
            rank_d2 = matrix_rank(d2_cols)
            rank_d1 = matrix_rank(d1_cols)
            if rank_d2 != dims[n] or rank_d1 != dims[n + 2]:
                passed = False
            cross_checked = True

        ok = composite_ok and injective_ok and surjective_ok and rank_identity
        passed = passed and ok
        rows.append({
            "n": n,
            "dims": [dims[n], middle_dim, dims[n + 2]],
            "composite_zero": composite_ok,
            "injective": injective_ok,
            "surjective": surjective_ok,
            "surjective_swept": surjective_swept,
            "rank_identity": rank_identity,
            "rank_cross_checked": cross_checked,
        })
    return {"genus": genus, "max_n": n_max, "dims": dims[:n_max + 3],
            "rows": rows, "passed": passed}


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
        assert matrix == before
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
            got = _normal_form({encode(word): 1}, lead, replacement)
            named = {helpers.decode_word(w): c for w, c in got.items()}
            assert named == old_normal_form(word, old_lead, old_replacement,
                                            old_memo)
            assert named == old_tuple_normal_form(word, old_lead,
                                                  int_replacement)
            assert all(type(c) is int for c in got.values())


# -- normal forms of combinations -----------------------------------------

COMBINATION_SEED = 29029


def _relator(genus):
    """R = sum_i (a_i b_i - b_i a_i) as (str word, sign) pairs."""
    letters = _rewrite_rule(genus)[0]
    pairs = [letters[h:h + 2] for h in range(0, 2 * genus, 2)]
    return [(a + b, 1) for a, b in pairs] + [(b + a, -1) for a, b in pairs]


def _add(terms, word, coeff):
    c = terms.get(word, 0) + coeff
    if c:
        terms[word] = c
    else:
        terms.pop(word, None)


def _random_word(rng, letters, length):
    return "".join(rng.choice(letters) for _ in range(length))


def _in_ideal(rng, genus, length, count):
    """sum of c x R y over random x, y with |x| + |y| = length - 2: zero
    in A, though its words only cancel after rewriting."""
    letters = _rewrite_rule(genus)[0]
    terms = {}
    for _ in range(count):
        cut = rng.randint(0, length - 2)
        x = _random_word(rng, letters, cut)
        y = _random_word(rng, letters, length - 2 - cut)
        coeff = rng.choice((-2, -1, 1, 3))
        for m, sign in _relator(genus):
            _add(terms, x + m + y, coeff * sign)
    return terms


def _rewritten_elsewhere(rng, genus, length, count):
    """sum of c (w - w'), w' being w rewritten once at a random lead, not
    always the leftmost one: zero in A."""
    letters, lead, replacement = _rewrite_rule(genus)
    terms = {}
    for _ in range(count):
        cut = rng.randint(0, length - 2)
        word = (_random_word(rng, letters, cut) + lead
                + _random_word(rng, letters, length - 2 - cut))
        p = rng.choice([i for i in range(length - 1)
                        if word.startswith(lead, i)])
        coeff = rng.choice((-1, 1, 2))
        _add(terms, word, coeff)
        for mid, c in replacement.items():
            _add(terms, word[:p] + mid + word[p + 2:], -coeff * c)
    return terms


def _combination_cases():
    """(genus, terms, zero in A): R u for every normal u of degree <= 4
    and for random u, random combinations (words of genus 1-2 collide
    often, so words cancel during rewriting and come back), sums of
    x R y and of w - (w rewritten elsewhere), alone and added to a
    random combination; genus 1-4, length <= 8."""
    rng = random.Random(COMBINATION_SEED)
    for genus in range(1, 5):
        letters, lead, _ = _rewrite_rule(genus)
        relator = _relator(genus)
        for length in range(5):
            for u in old_normal_words(letters, lead, length):
                yield genus, {m + u: c for m, c in relator}, True
        for _ in range(60):
            u = _random_word(rng, letters, rng.randint(0, 6))
            yield genus, {m + u: c for m, c in relator}, True
        for _ in range(300 if genus < 3 else 100):
            length = rng.randint(0, 8)
            terms = {}
            for _ in range(rng.randint(1, 12)):
                _add(terms, _random_word(rng, letters, length),
                     rng.choice((-3, -2, -1, 1, 1, 2, 3)))
            yield genus, terms, False
            if length >= 2:
                zero = (_in_ideal if rng.random() < 0.5
                        else _rewritten_elsewhere)(rng, genus, length,
                                                   rng.randint(1, 6))
                yield genus, zero, True
                mixed = dict(terms)
                for word, c in zero.items():
                    _add(mixed, word, c)
                yield genus, mixed, False


def assert_combination_normal_form(genus, terms, zero=False):
    """_normal_form(terms) is sum c (old normal form of w) over terms,
    holds no lead and no zero coefficient, and is terms itself."""
    _, lead, replacement = _rewrite_rule(genus)
    want = {}
    for word, c in terms.items():
        for w, c2 in old_str_normal_form(word, lead, replacement).items():
            _add(want, w, c * c2)
    given = dict(terms)
    got = _normal_form(given, lead, replacement)
    assert got is given
    assert got == want, (genus, terms)
    assert not any(lead in w for w in got)
    assert all(got.values())
    assert all(type(c) is int for c in got.values())
    if zero:
        assert got == {}


def test_combination_normal_forms_match_the_word_by_word_sum():
    counts = {"zero": 0, "nonzero": 0, "rewrites": 0}
    for genus, terms, zero in _combination_cases():
        assert_combination_normal_form(genus, terms, zero)
        counts["zero" if zero else "nonzero"] += 1
    assert counts["zero"] > 1000 and counts["nonzero"] > 1000


def test_relator_combination_takes_one_rewrite():
    """R u rewrites only b_g a_g u: the result cancels every other word,
    a_g b_g u included when it holds the lead too."""
    rewritten = []

    class Spy(dict):
        def pop(self, word, *default):
            coeff = dict.pop(self, word, *default)
            if coeff:
                rewritten.append(word)
            return coeff

    for genus in range(1, 5):
        letters, lead, replacement = _rewrite_rule(genus)
        for u in old_normal_words(letters, lead, 3):
            rewritten.clear()
            terms = Spy((m + u, c) for m, c in _relator(genus))
            assert _normal_form(terms, lead, replacement) == {}
            assert rewritten == [lead + u]


@st.composite
def combinations(draw):
    genus = draw(st.integers(1, 4))
    letters = _rewrite_rule(genus)[0]
    length = draw(st.integers(0, 8))
    word = st.text(alphabet=letters, min_size=length, max_size=length)
    pairs = draw(st.lists(st.tuples(word, st.integers(-4, 4)), max_size=10))
    terms = {}
    for w, c in pairs:
        _add(terms, w, c)
    return genus, terms


@settings(derandomize=True, max_examples=400, deadline=None)
@given(combinations())
def test_combination_normal_form_property(case):
    assert_combination_normal_form(*case)


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("position", [0, 1, 3])
@pytest.mark.parametrize("first", [True, False])
def test_sweep_flags_a_lead_after_the_first_letter(monkeypatch, genus,
                                                   position, first):
    """A word planted first or last in the swept degree-5 level, with the
    lead at position: past the first letter, stripping that letter
    leaves a word that is not normal, so the row fails; at position 0 it
    passes.  At n_max 3 the level is only streamed to the sweep, never
    listed as a basis (middle_dim > _RANK_LIMIT), and the old sweep
    agrees.  The sweep extends the level below in blocks, so first puts
    the word at the head of the first block's list and last (genus 3:
    6,930 words, from two blocks) past a block boundary."""
    from goldman_forge import magnus

    letters, lead, _ = _rewrite_rule(genus)
    degree = 5
    planted = (letters[0] * position + lead).ljust(degree, letters[0])
    extend, words = magnus._extend, old_normal_words
    below = list(words(letters, lead, degree - 1))
    blocks = []

    def plant(level, length):
        if length != degree:
            return level
        return itertools.chain([planted], level) if first else \
            itertools.chain(level, [planted])

    def planted_extend(block, letters, lead):
        level = extend(block, letters, lead)
        if len(level[0]) != degree:
            return level
        blocks.append(block)
        if first and len(blocks) == 1:
            return [planted] + level
        if not first and block[-1] == below[-1]:
            return level + [planted]
        return level

    def planted_words(letters, lead, length):
        return plant(words(letters, lead, length), length)

    monkeypatch.setattr(magnus, "_extend", planted_extend)
    monkeypatch.setitem(globals(), "old_normal_words", planted_words)
    report = resolution_check(genus, 3)
    assert report == old_resolution_check(genus, 3)
    swept = sum(blocks, [])  # in order; a lead in a block ends the sweep
    assert swept and swept == below[:len(swept)]
    if position == 0 or not first:
        assert swept == below and len(blocks) == genus - 1
    row = report["rows"][3]
    assert row["surjective_swept"] and not row["rank_cross_checked"]
    assert row["surjective"] is (position == 0)
    assert report["passed"] is (position == 0)
    assert all(r["surjective"] for r in report["rows"][:3])


def test_extend_lists_each_level_as_the_old_enumeration():
    """Level by level from the one-word level [""], _extend lists what
    old_normal_words yields, in order, up to the first level above 50,000
    words (genus 1, whose degree-k level has k + 1 words, to degree 64)."""
    for genus in (1, 2, 3, 4):
        letters, lead, _ = _rewrite_rule(genus)
        level, k = [""], 0
        while len(level) <= 50_000 and k < 64:
            level, k = _extend(level, letters, lead), k + 1
            assert level == list(old_normal_words(letters, lead, k)), \
                (genus, k)


@pytest.mark.parametrize("genus, n_max", [
    (1, 6), (2, 6), (3, 5), (4, 3),
    (45, 0),    # A_1: 90 words, two blocks of 45
    (95, 0),    # A_1: 190 words, nine blocks of 21 and one of one word
])
def test_sweep_joins_each_level_in_blocks(monkeypatch, genus, n_max):
    """The strings the sweep searches: for every swept row n, split at
    NUL and concatenated, they are A_{n+2}'s words in old_normal_words
    order, one per block of max(1, 4096 // 2g) words of A_{n+1}, each
    holding at most 4,096 words."""
    import re
    import types

    from goldman_forge import magnus

    searched = []

    def compile(pattern):
        search = re.compile(pattern).search

        def spy(text):
            searched.append(text)
            return search(text)
        return types.SimpleNamespace(search=spy)

    monkeypatch.setattr(magnus, "re", types.SimpleNamespace(
        compile=compile, escape=re.escape))
    report = resolution_check(genus, n_max)
    assert report == old_resolution_check(genus, n_max) and report["passed"]
    letters, lead, _ = _rewrite_rule(genus)
    step, dims = max(1, 4096 // (2 * genus)), report["dims"]
    swept = [row["n"] for row in report["rows"] if row["surjective_swept"]]
    assert swept
    for n in swept:
        strings = [text for text in searched
                   if len(text.split("\0", 1)[0]) == n + 2]
        assert len(strings) == -(-dims[n + 1] // step)
        assert all(text.count("\0") < 4096 for text in strings)
        assert "\0".join(strings).split("\0") == \
            list(old_normal_words(letters, lead, n + 2))


def test_matrix_rank_matches_on_the_certificate_blocks(monkeypatch):
    """The d1 and d2 blocks resolution_check ranks, against the Fraction
    Gauss-Jordan: every cross-checked n of genus 2 and 3 (up to 224 x 209
    for genus 2), and genus 1 up to n = 30 (its limit reaches n = 198,
    which the Fraction code takes most of a minute for)."""
    from goldman_forge import magnus

    blocks = []

    def spy(rows):
        blocks.append([list(row) for row in rows])
        return matrix_rank(rows)

    monkeypatch.setattr(magnus, "matrix_rank", spy)
    for genus, n_max in ((1, 30), (2, 3), (3, 2)):
        blocks.clear()
        report = resolution_check(genus, n_max)
        checked = [row for row in report["rows"]
                   if row["rank_cross_checked"]]
        assert len(blocks) == 2 * len(checked)
        if genus > 1:  # every n whose middle piece is small enough
            assert [row["dims"][1] <= _RANK_LIMIT
                    for row in report["rows"]] == [True] * n_max + [False]
        for rows in blocks:
            assert matrix_rank(rows) == old_matrix_rank(rows)


def test_resolution_reports_match_the_replaced_code():
    cases = [(g, n) for g in (1, 2, 3) for n in range(7)]
    cases += [(4, n) for n in range(5)]
    for genus, n_max in cases:
        assert resolution_check(genus, n_max) == \
            old_resolution_check(genus, n_max), (genus, n_max)
    for genus in range(1, 7):
        letters, lead, _ = _rewrite_rule(genus)
        for max_len in range(16):
            assert _normal_counts(letters, lead, max_len) == \
                old_normal_counts(letters, lead, max_len)


# -- row intake -----------------------------------------------------------

def _intake_row(rng, kind, ncols):
    if kind == "bool":
        return [rng.random() < 0.5 for _ in range(ncols)]
    if kind == "int":
        return [rng.randint(-10 ** 20, 10 ** 20) for _ in range(ncols)]
    return [_entry(rng, rng.choice(("int", "small", "large")))
            for _ in range(ncols)]


def test_int_rows_match_the_replaced_code():
    rng = random.Random(SWEEP_SEED)
    seen = {"int": 0, "bool": 0, "mixed": 0}
    for _ in range(600):
        ncols = rng.randint(0, 6)
        kinds = [rng.choice(tuple(seen)) for _ in range(rng.randint(0, 5))]
        rows = [_intake_row(rng, kind, ncols) for kind in kinds]
        rows = [tuple(row) if rng.random() < 0.2 else row for row in rows]
        before = [list(row) for row in rows]
        got = _int_rows(rows, ncols)
        assert got == old_int_rows(rows, ncols), rows
        assert all(type(x) is int for row in got for x in row)
        assert [list(row) for row in rows] == before
        # every row is a fresh list, so reducing it leaves the input alone
        assert all(g is not r for g, r in zip(got, rows))
        for kind in kinds:
            seen[kind] += 1
    assert min(seen.values()) >= 100, seen


def test_matrix_rank_leaves_its_rows_unchanged():
    rows = [[2, 4, 6], [1, 3, 5], [3, 7, 11]]
    before = [list(row) for row in rows]
    assert matrix_rank(rows) == 2
    assert rows == before
    mixed = [[Fraction(1, 2), 1], [True, 3]]
    assert matrix_rank(mixed) == 2
    assert mixed == [[Fraction(1, 2), 1], [True, 3]]


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_inexact_entries_keep_their_message(bad):
    message = ("coefficient must be an integer or Fraction, got %r"
               % type(bad).__name__)
    for rows in ([[1, bad]], [[bad, Fraction(1, 2)]], [[1, 2], [bad, 3]]):
        ncols = len(rows[0])
        with pytest.raises(TypeError) as old:
            old_int_rows(rows, ncols)
        assert str(old.value) == message
        for call in (lambda: _int_rows(rows, ncols),
                     lambda: matrix_rank(rows),
                     lambda: linear_solve(rows, [0] * len(rows))):
            with pytest.raises(TypeError) as new:
                call()
            assert str(new.value) == message
    with pytest.raises(TypeError) as new:
        linear_solve([[1]], [bad])
    assert str(new.value) == message


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
    # rows of ints only, which the intake copies without a check
    with pytest.raises(ValueError, match="ragged matrix"):
        matrix_rank([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="ragged matrix"):
        _int_rows([[1, 2], [3]], 2)


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
