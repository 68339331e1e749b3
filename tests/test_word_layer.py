"""Word layer: least rotation, cyclic normal form, splices and necklaces.

The differential sweeps compare the O(n) canonical rotation with the
O(n^2) min-over-rotations code it replaced, kept here as oracles, and
the junction-only splice canonical form with the cyclic normal form of
the spliced letters, and the junction-only product of two reduced words
with their free reduction.  The
hypothesis properties run derandomized, so every run sees the same
examples.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_surface_word

from goldman_forge.goldman import (
    LoopSum,
    PathSum,
    bi_pairing,
    goldman_bracket,
    kk_action,
)
from goldman_forge.magnus import NecklaceWord
from goldman_forge.surface import (
    FreeWord,
    Path,
    SurfaceSpec,
    _reduce_letters,
    cyclic_normal_form,
    least_rotation,
    letter_key,
    reduced_product,
    splice_normal_form,
)

SWEEP_SEED = 20240
SWEEP_WORDS = 20_000


# -- the replaced code, kept as oracles -----------------------------------

def old_cyclic_normal_form(word):
    letters = list(_reduce_letters(word.letters))
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        letters = letters[1:-1]
        letters = list(_reduce_letters(letters))
    if not letters:
        return ()
    rotations = [tuple(letters[i:] + letters[:i]) for i in range(len(letters))]
    return min(rotations, key=lambda rot: tuple(letter_key(l) for l in rot))


def old_necklace_rotation(word):
    word = tuple(word)
    if word:
        word = min(word[i:] + word[:i] for i in range(len(word)))
    return word


# -- seeded words ---------------------------------------------------------

# a2 and a10 sort by integer index here, x2 and x10 by string in necklaces
BASES = tuple("%s%d" % (kind, i) for kind in "abc" for i in (1, 2, 3, 10, 11))
TENSOR_LETTERS = tuple("%s%d" % (kind, i) for kind in "xyz"
                       for i in (1, 2, 3, 10, 11))


def _letters(rng, n, bases):
    return [(rng.choice(bases), rng.choice((1, -1))) for _ in range(n)]


def _inverse(letters):
    return [(base, -e) for base, e in reversed(letters)]


def _sweep_word(rng):
    """One seeded free word, of one of five shapes."""
    shape = rng.randrange(5)
    bases = BASES[:rng.choice((2, 4, len(BASES)))]
    if shape == 0:                       # plain, often not reduced
        return _letters(rng, rng.randrange(0, 13), bases)
    if shape == 1:                       # periodic: w^k
        return _letters(rng, rng.randrange(1, 4), bases) * rng.randrange(2, 5)
    if shape == 2:                       # conjugate: several end strips
        h = _letters(rng, rng.randrange(1, 5), bases)
        return h + _letters(rng, rng.randrange(0, 7), bases) + _inverse(h)
    if shape == 3:                       # rotated conjugate of a power
        w = _letters(rng, rng.randrange(1, 4), bases) * rng.randrange(1, 4)
        h = _letters(rng, rng.randrange(0, 3), bases)
        word = h + w + _inverse(h)
        k = rng.randrange(len(word))
        return word[k:] + word[:k]
    return [(rng.choice(bases[:2]), 1) for _ in range(rng.randrange(0, 9))]


def sweep_words():
    rng = random.Random(SWEEP_SEED)
    words = [[], [("a1", 1)] * 3, [("a1", 1), ("b1", 1)] * 3,
             [("a1", 1), ("b1", 1), ("a10", 1), ("b1", -1), ("a1", -1)],
             [("a10", 1), ("a2", 1)], [("a2", 1), ("a10", 1)]]
    words += [_letters(rng, 200, BASES) for _ in range(4)]
    words += [_letters(rng, 100, BASES[:2]) * 2 for _ in range(2)]
    while len(words) < SWEEP_WORDS:
        words.append(_sweep_word(rng))
    return words


def sweep_necklaces():
    rng = random.Random(SWEEP_SEED + 1)
    words = [(), ("x1",) * 3, ("x1", "y1") * 3, ("x10", "x2"), ("x2", "x10"),
             ("x1", "x10", "x1", "x2")]
    words += [tuple(rng.choice(TENSOR_LETTERS) for _ in range(200))
              for _ in range(4)]
    while len(words) < SWEEP_WORDS:
        letters = TENSOR_LETTERS[:rng.choice((2, 3, len(TENSOR_LETTERS)))]
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 9)))
        words.append(word * rng.choice((1, 1, 2, 3)))
    return words


class TestDifferential:
    def test_cyclic_normal_form_matches_old(self):
        words = sweep_words()
        shapes = {"empty": 0, "periodic": 0, "stripped": 0, "long": 0}
        for letters in words:
            word = FreeWord(letters)
            new = cyclic_normal_form(word).word
            assert new == old_cyclic_normal_form(word), letters
            reduced = _reduce_letters(letters)
            shapes["empty"] += not new
            shapes["periodic"] += any(new[p:] + new[:p] == new
                                      for p in range(1, len(new)))
            shapes["stripped"] += len(reduced) - len(new) >= 4
            shapes["long"] += len(letters) >= 200
        assert len(words) >= 20_000
        assert min(shapes.values()) >= 6, shapes

    def test_necklace_rotation_matches_old(self):
        for word in sweep_necklaces():
            assert NecklaceWord(word).word == old_necklace_rotation(word), word

    def test_index_orders(self):
        # surface letters: integer index, so a2 < a10
        w = FreeWord([("a10", 1), ("a2", 1)])
        assert cyclic_normal_form(w).word == (("a2", 1), ("a10", 1))
        # tensor letters: string order, so x10 < x2
        assert NecklaceWord(("x2", "x10")).word == ("x10", "x2")

    def test_periodic_and_empty(self):
        assert least_rotation(()) == 0
        assert least_rotation((1, 0) * 3) == 1
        assert least_rotation((0, 0, 0)) == 0
        assert cyclic_normal_form(FreeWord()).word == ()
        assert NecklaceWord(()).word == ()
        assert NecklaceWord(("y1", "x1") * 3).word == ("x1", "y1") * 3


# -- the splice canonical form -----------------------------------------------

SPLICE_SEED = 1515
SPLICE_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 2),
                   SurfaceSpec(11, 1))


def _junction(x, y):
    """How many letters cancel where x ends and y begins."""
    t = 0
    while t < min(len(x), len(y)) and x[-1 - t] == (y[t][0], -y[t][1]):
        t += 1
    return t


def splice_pairs(rng, spec, count):
    """Seeded pairs of canonical words: unrelated; b beginning with the
    inverse of a stretch of a rotation of a, or of all of it; b the
    inverse class of a."""
    def canonical(letters):
        return cyclic_normal_form(letters).word

    def word(max_len):
        return random_surface_word(rng, spec, max_len).letters

    pairs = []
    while len(pairs) < count:
        a = canonical(word(6))
        if not a:
            continue
        k, shape = rng.randrange(len(a)), rng.randrange(4)
        rotation = a[k:] + a[:k]
        if shape == 0:
            b = canonical(word(6))
        elif shape == 1:
            stretch = rotation[:rng.randint(1, len(a))]
            b = canonical(tuple(_inverse(stretch)) + word(4))
        elif shape == 2:
            b = canonical(tuple(_inverse(rotation)) + word(3))
        else:
            b = canonical(_inverse(a))
        if b:
            pairs.append((a, b))
    return pairs


class TestSplice:
    def test_splice_matches_cyclic_normal_form(self):
        rng = random.Random(SPLICE_SEED)
        shapes = {"none": 0, "first": 0, "second": 0, "both": 0, "long": 0,
                  "whole": 0, "trivial": 0}
        for spec in SPLICE_SURFACES:
            for a, b in splice_pairs(rng, spec, 60):
                ka, kb = list(map(letter_key, a)), list(map(letter_key, b))
                for i in range(len(a)):
                    for j in range(len(b)):
                        x, y = a[i:] + a[:i], b[j:] + b[:j]
                        got = splice_normal_form(a, ka, b, kb, i, j)
                        assert got == cyclic_normal_form(x + y).word, (x, y)
                        assert got == old_cyclic_normal_form(
                            FreeWord(x + y)), (x, y)
                        first, second = _junction(x, y), _junction(y, x)
                        shapes["none"] += not first and not second
                        shapes["first"] += first and not second
                        shapes["second"] += second and not first
                        shapes["both"] += first and second
                        shapes["long"] += first >= 2
                        shapes["whole"] += first == min(len(x), len(y))
                        shapes["trivial"] += not got
        assert min(shapes.values()) >= 20, shapes

    def test_reduced_product_matches_free_reduction(self):
        """The junction-only product of the path splices against the
        FreeWord product, which reduces the whole concatenation; the
        pieces are cut from one word and its inverse, so cancelling
        through the whole of x or y is common."""
        rng = random.Random(SPLICE_SEED + 1)
        shapes = {"none": 0, "some": 0, "whole x": 0, "whole y": 0,
                  "empty": 0}
        for spec in SPLICE_SURFACES:
            for _ in range(600):
                w = random_surface_word(rng, spec, 7).letters
                x = w[:rng.randint(0, len(w))]
                y = tuple(_inverse(w[rng.randint(0, len(w)):]))
                y += random_surface_word(rng, spec, 3).letters
                y = FreeWord(y).reduce().letters
                if rng.random() < 0.5:
                    x, y = y, x
                kx, ky = list(map(letter_key, x)), list(map(letter_key, y))
                got, keys = reduced_product(x, kx, y, ky)
                want = (FreeWord(x) * FreeWord(y)).letters
                assert got == want, (x, y)
                assert keys == list(map(letter_key, want)), (x, y)
                t = _junction(x, y)
                shapes["none"] += not t
                shapes["some"] += 0 < t < min(len(x), len(y))
                shapes["whole x"] += 0 < t == len(x)
                shapes["whole y"] += 0 < t == len(y)
                shapes["empty"] += not got
        assert min(shapes.values()) >= 20, shapes


# -- hypothesis properties ------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

letters_st = st.tuples(st.sampled_from(BASES), st.sampled_from((1, -1)))
words_st = st.lists(letters_st, max_size=14).map(FreeWord)


class TestProperties:
    @PROPERTY
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=24))
    def test_least_rotation_is_argmin(self, seq):
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
        assert least_rotation(seq) == min(range(len(seq)),
                                          key=rotations.__getitem__)

    @PROPERTY
    @given(words_st)
    def test_idempotent(self, word):
        cls = cyclic_normal_form(word)
        assert cyclic_normal_form(cls.free_word()) == cls

    @PROPERTY
    @given(words_st, words_st)
    def test_conjugation_invariant(self, word, h):
        assert (cyclic_normal_form(h * word * h.inverse())
                == cyclic_normal_form(word))

    @PROPERTY
    @given(words_st, st.integers(0, 30))
    def test_rotation_invariant(self, word, k):
        letters = word.letters
        k = k % len(letters) if letters else 0
        rotated = FreeWord(letters[k:] + letters[:k])
        assert cyclic_normal_form(rotated) == cyclic_normal_form(word)


SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(1, 2), SurfaceSpec(2, 1),
            SurfaceSpec(0, 3))


@st.composite
def two_term_sums(draw):
    spec = draw(st.sampled_from(SURFACES))
    gens = st.tuples(st.sampled_from(spec.generators()),
                     st.sampled_from((1, -1)))
    word = st.lists(gens, max_size=6).map(FreeWord)
    coeff = st.sampled_from((1, -1, 2, -3))

    def loop_sum():
        return (LoopSum.of(spec, draw(word), draw(coeff))
                + LoopSum.of(spec, draw(word), draw(coeff)))

    return loop_sum(), loop_sum()


@PROPERTY
@given(two_term_sums())
def test_bracket_antisymmetric(pair):
    u, v = pair
    assert goldman_bracket(u, v) == goldman_bracket(v, u).scaled(-1)


# -- the convention is checked before any term is drawn --------------------

class TestConventionCheckedEagerly:
    spec = SurfaceSpec(1, 3)

    def loops(self):
        zero = LoopSum(self.spec)
        return zero, LoopSum.of(self.spec, FreeWord([("a1", 1)]))

    def paths(self, from_tag, to_tag):
        zero = PathSum(self.spec, from_tag, to_tag)
        one = PathSum.of(self.spec, Path(from_tag, to_tag,
                                          FreeWord([("b1", 1)])))
        return zero, one

    @pytest.mark.parametrize("zero_left", (True, False))
    def test_bracket(self, zero_left):
        zero, one = self.loops()
        u, v = (zero, one) if zero_left else (one, zero)
        assert goldman_bracket(u, v).is_zero()
        with pytest.raises(ValueError, match="convention"):
            goldman_bracket(u, v, convention="bogus")

    @pytest.mark.parametrize("zero_loop", (True, False))
    def test_kk_action(self, zero_loop):
        zero, one = self.loops()
        path_zero, path_one = self.paths(0, 1)
        u, gamma = (zero, path_one) if zero_loop else (one, path_zero)
        assert kk_action(u, gamma).is_zero()
        with pytest.raises(ValueError, match="convention"):
            kk_action(u, gamma, convention="bogus")

    @pytest.mark.parametrize("zero_left", (True, False))
    def test_bi_pairing(self, zero_left):
        left_zero, left_one = self.paths(0, 1)
        right_zero, right_one = self.paths(2, 3)
        g1, g2 = (left_zero, right_one) if zero_left else (left_one,
                                                           right_zero)
        assert bi_pairing(g1, g2).is_zero()
        with pytest.raises(ValueError, match="convention"):
            bi_pairing(g1, g2, convention="bogus")
