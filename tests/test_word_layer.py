"""Word layer: least rotation, cyclic normal form, splices and necklaces.

The differential sweeps compare the least rotation, which is returned
whole, with the rotation at Duval's index, the canonical rotation with
the O(n^2) min-over-rotations code it replaced, the per-pair coded
splicer with the cyclic normal form of the spliced letters, with the
one-call-per-crossing coded splice and with the letters+keys splice
before it, and the coded junction-only product of two reduced words
with their free reduction.  On surfaces with letters past a byte key,
the surgeries match the letters+keys splices, and a bracket whose pairs
of terms mix words with and without such letters is the sum of its
pairs' brackets.  The replaced code is kept here (and
Duval's rotation in helpers) as oracles.  The hypothesis properties run
derandomized, so every run sees the same examples.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    assert_same,
    duval_least_rotation,
    random_surface_word,
)

from goldman_forge.goldman import (
    CONVENTIONS,
    LoopSum,
    PathPairSum,
    PathSum,
    _surgeries,
    bi_pairing,
    goldman_bracket,
    kk_action,
)
from goldman_forge.magnus import NecklaceWord
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    Path,
    SurfaceSpec,
    _reduce_letters,
    cyclic_normal_form,
    key_letters,
    least_rotation,
    letter_key,
    parse_word,
    reduced_product,
    splice_normal_form,
    word_key,
)

SWEEP_SEED = 20240
SWEEP_WORDS = 20_000
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


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


def old_canonical_word(letters, keys):
    p, q = 0, len(keys) - 1
    while p < q and keys[p] == keys[q] ^ 1:
        p, q = p + 1, q - 1
    if p:
        letters, keys = letters[p:q + 1], keys[p:q + 1]
    start = duval_least_rotation(keys)
    return letters[start:] + letters[:start]


def old_reduced_product(lx, kx, ly, ky):
    t, m, most = 0, len(kx), min(len(kx), len(ky))
    while t < most and kx[m - 1 - t] == ky[t] ^ 1:
        t += 1
    if not t:
        return lx + ly, kx + ky
    return lx[:m - t] + ly[t:], kx[:m - t] + ky[t:]


def old_splice_normal_form(la, ka, lb, kb, i, j):
    return old_canonical_word(*old_reduced_product(
        la[i:] + la[:i], ka[i:] + ka[:i], lb[j:] + lb[:j], kb[j:] + kb[:j]))


def duval_rotation(seq):
    """The rotation of seq that starts at Duval's index."""
    start = duval_least_rotation(seq)
    return seq[start:] + seq[:start]


def old_coded_splice(ca, cb, i, j):
    """The coded splice before the per-pair splicer: rotate both words,
    cancel the first junction with reduced_product, strip the ends, and
    rotate at the index of the least rotation (Duval's here)."""
    w = reduced_product(ca[i:] + ca[:i], cb[j:] + cb[:j])
    p, q = 0, len(w) - 1
    while p < q and w[p] == w[q] ^ 1:
        p, q = p + 1, q - 1
    return duval_rotation(w[p:q + 1])


def keys_of(letters):
    return list(map(letter_key, letters))


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
        assert least_rotation(()) == ()
        assert least_rotation((1, 0) * 3) == (0, 1) * 3
        assert least_rotation((0, 0, 0)) == (0, 0, 0)
        assert cyclic_normal_form(FreeWord()).word == ()
        assert NecklaceWord(()).word == ()
        assert NecklaceWord(("y1", "x1") * 3).word == ("x1", "y1") * 3


# -- the least rotation against Duval's ------------------------------------

ROTATION_SEED = 4343


def rotation_forms(seq):
    """One int sequence as bytes, a tuple, a list, and a tuple of tensor
    letters (string order: x10 < x2, so not the int order)."""
    return (bytes(seq), tuple(seq), list(seq),
            tuple(TENSOR_LETTERS[v] for v in seq))


def rotation_cases():
    """(shape, int sequence) pairs up to 2,000 items, the structured
    shapes also rotated and with their alphabet permuted, so that the
    least item moves."""
    rng = random.Random(ROTATION_SEED)
    cases = [("empty", [])]
    cases += [("one", [v]) for v in (0, 1, 14)]
    cases += [("constant", [v] * n) for v in (0, 7) for n in (2, 3, 11, 2000)]
    for n in (*range(1, 25), 999, 1999):
        cases.append(("a^n b", [0] * n + [1]))
    for m in (*range(1, 25), 665):
        cases.append(("(aab)^m aac", [0, 0, 1] * m + [0, 0, 2]))
    for _ in range(80):
        p = [rng.randrange(4) for _ in range(rng.randint(1, 8))]
        cases.append(("power", p * rng.randint(2, 6)))
    cases += [("power", [rng.randrange(3) for _ in range(20)] * 100),
              ("power", [0, 1] * 1000)]
    for _ in range(400):
        alphabet = rng.randint(1, 6)
        cases.append(("plain", [rng.randrange(alphabet)
                                for _ in range(rng.randint(2, 40))]))
    cases += [("plain", [rng.randrange(3) for _ in range(2000)])
              for _ in range(3)]
    out = []
    for shape, seq in cases:
        out.append((shape, seq))
        if len(seq) > 1:
            k = rng.randrange(len(seq))
            image = rng.sample(range(6), 6)
            out.append((shape, [image[v] if v < 6 else v
                                for v in seq[k:] + seq[:k]]))
    return out


class TestLeastRotation:
    def test_matches_duval(self):
        cases = rotation_cases()
        shapes = {}
        moved = 0
        for shape, seq in cases:
            for form in rotation_forms(seq):
                got = least_rotation(form)
                assert type(got) is type(form), (shape, form)
                assert got == duval_rotation(form), (shape, form)
            shapes[shape] = shapes.get(shape, 0) + 1
            moved += duval_least_rotation(seq) > 0
        assert max(len(seq) for _, seq in cases) == 2000
        assert len(shapes) == 7, shapes
        assert moved >= 100, moved

    def test_run_starts(self):
        # the least rotation starts at 0 only because the last item is not
        # the least; a later run of the least item starts at 2
        assert least_rotation((0, 1, 0, 2)) == (0, 1, 0, 2)
        assert least_rotation(b"\x00\x01\x00\x02") == b"\x00\x01\x00\x02"
        # a run that wraps round the end starts at the last index
        assert least_rotation((0, 1, 2, 0)) == (0, 0, 1, 2)
        # periodic words: every least rotation is the same sequence
        assert least_rotation((1, 0) * 3) == (0, 1) * 3
        assert least_rotation(b"ab" * 4) == b"ab" * 4
        assert least_rotation(("x2", "x10") * 2) == ("x10", "x2") * 2

    @PROPERTY
    @given(st.lists(st.integers(0, 3), max_size=30), st.integers(1, 5),
           st.integers(0, 500))
    def test_property_matches_duval(self, base, k, shift):
        seq = base * k
        if seq:
            shift %= len(seq)
            seq = seq[shift:] + seq[:shift]
        for form in rotation_forms(seq):
            assert least_rotation(form) == duval_rotation(form), form

    @PROPERTY
    @example([], 1, 0, bytes)
    @example([2], 5, 0, list)
    @example([0, 1, 1], 3, 4, tuple)
    @given(st.integers(1, 4).flatmap(
               lambda k: st.lists(st.integers(0, k - 1), max_size=10)),
           st.integers(1, 4), st.integers(0, 40),
           st.sampled_from((bytes, tuple, list)))
    def test_returns_the_least_rotation(self, base, k, shift, form):
        """bytes, tuples and lists, empty, constant (alphabet of one) and
        periodic (base repeated k times): the least rotation, of the
        input's type, is the least of all rotations and the one that
        starts at Duval's index."""
        seq = base * k
        if seq:
            shift %= len(seq)
            seq = seq[shift:] + seq[:shift]
        seq = form(seq)
        got = least_rotation(seq)
        assert type(got) is type(seq)
        every = [seq[i:] + seq[:i] for i in range(len(seq))] or [seq]
        assert got == min(every) == duval_rotation(seq)


# -- the splice canonical form -----------------------------------------------

SPLICE_SEED = 1515
# (64, 3) has 260 letters: its words are coded as tuples, not bytes
SPLICE_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 2),
                   SurfaceSpec(11, 1), SurfaceSpec(64, 3))


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


def coder(spec):
    """(encode, decode) in the code the splices use on spec: word_key
    where every letter of spec has a byte key, else the tuple of
    letter_keys."""
    if spec.byte_keyed:
        return word_key, key_letters
    return (lambda word: tuple(map(letter_key, word)), key_letters)


class TestSplice:
    def test_splice_matches_cyclic_normal_form(self):
        rng = random.Random(SPLICE_SEED)
        shapes = {"none": 0, "first": 0, "second": 0, "both": 0, "long": 0,
                  "whole": 0, "trivial": 0, "tuple": 0}
        for spec in SPLICE_SURFACES:
            encode, decode = coder(spec)
            for a, b in splice_pairs(rng, spec, 60):
                ka, kb = keys_of(a), keys_of(b)
                ca, cb = encode(a), encode(b)
                splice = splice_normal_form(ca, cb)
                for i in range(len(a)):
                    for j in range(len(b)):
                        x, y = a[i:] + a[:i], b[j:] + b[:j]
                        coded = splice(i, j)
                        assert type(coded) is type(ca), (x, y)
                        assert coded == old_coded_splice(ca, cb, i, j)
                        got = decode(coded)
                        assert got == cyclic_normal_form(x + y).word, (x, y)
                        assert got == old_cyclic_normal_form(
                            FreeWord(x + y)), (x, y)
                        assert got == old_splice_normal_form(
                            a, ka, b, kb, i, j), (x, y)
                        first, second = _junction(x, y), _junction(y, x)
                        shapes["none"] += not first and not second
                        shapes["first"] += first and not second
                        shapes["second"] += second and not first
                        shapes["both"] += first and second
                        shapes["long"] += first >= 2
                        shapes["whole"] += first == min(len(x), len(y))
                        shapes["trivial"] += not got
                        shapes["tuple"] += isinstance(coded, tuple)
        assert min(shapes.values()) >= 20, shapes

    def test_reduced_product_matches_free_reduction(self):
        """The junction-only product of the path splices against the
        FreeWord product, which reduces the whole concatenation; the
        pieces are cut from one word and its inverse, so cancelling
        through the whole of x or y is common."""
        rng = random.Random(SPLICE_SEED + 1)
        shapes = {"none": 0, "some": 0, "whole x": 0, "whole y": 0,
                  "empty": 0, "tuple": 0}
        for spec in SPLICE_SURFACES:
            encode, decode = coder(spec)
            for _ in range(600):
                w = random_surface_word(rng, spec, 7).letters
                x = w[:rng.randint(0, len(w))]
                y = tuple(_inverse(w[rng.randint(0, len(w)):]))
                y += random_surface_word(rng, spec, 3).letters
                y = FreeWord(y).reduce().letters
                if rng.random() < 0.5:
                    x, y = y, x
                coded = reduced_product(encode(x), encode(y))
                got = decode(coded)
                want = (FreeWord(x) * FreeWord(y)).letters
                assert got == want, (x, y)
                assert coded == encode(want), (x, y)
                assert old_reduced_product(x, keys_of(x), y, keys_of(y)) == (
                    want, keys_of(want)), (x, y)
                t = _junction(x, y)
                shapes["none"] += not t
                shapes["some"] += 0 < t < min(len(x), len(y))
                shapes["whole x"] += 0 < t == len(x)
                shapes["whole y"] += 0 < t == len(y)
                shapes["empty"] += not got
                shapes["tuple"] += isinstance(coded, tuple)
        assert min(shapes.values()) >= 20, shapes


# -- surfaces past one byte: tuple-coded words --------------------------------

WIDE = SurfaceSpec(64, 3)
# a44..a64 and b44..b64 have no byte key, so every word of a surgery call
# on WIDE is coded as its tuple of letter_keys; c1 and c2 have byte keys
WIDE_BASES = ("a2", "a10", "a64", "b1", "b64", "c1", "c2")


def oracle_bracket(u, v, convention):
    """The bracket through the letters+keys splice it replaced."""
    out = LoopSum(u.spec, twist=u.twist + v.twist + 1)
    den, records = _surgeries(u, v, convention)
    for n, a, _, b, _, crossings in records:
        ka, kb = keys_of(a.word), keys_of(b.word)
        for sign, (_, _, i), (_, _, j) in crossings:
            out.add_term(LoopClass.of_key(word_key(old_splice_normal_form(
                a.word, ka, b.word, kb, i, j))), Fraction(sign * n, den))
    return out


def oracle_kk_action(u, gamma, convention):
    out = PathSum(gamma.spec, gamma.from_tag, gamma.to_tag,
                  twist=u.twist + gamma.twist + 1)
    den, records = _surgeries(u, gamma, convention)
    for n, a, _, path, _, crossings in records:
        la, w = a.word, path.word.letters
        ka, kw = keys_of(la), keys_of(w)
        for sign, (_, _, i), (_, _, k) in crossings:
            word = old_reduced_product(*old_reduced_product(
                w[:k], kw[:k], la[i:] + la[:i], ka[i:] + ka[:i]),
                w[k:], kw[k:])[0]
            out.add_term(Path(gamma.from_tag, gamma.to_tag,
                              FreeWord.trusted(word)), Fraction(sign * n, den))
    return out


def oracle_bi_pairing(gamma1, gamma2, convention):
    out = PathPairSum(gamma1.spec, twist=gamma1.twist + gamma2.twist + 1)
    den, records = _surgeries(gamma1, gamma2, convention)
    for n, p1, _, p2, _, crossings in records:
        w1, w2 = p1.word.letters, p2.word.letters
        k1, k2 = keys_of(w1), keys_of(w2)
        for sign, (_, _, c1), (_, _, c2) in crossings:
            first = old_reduced_product(w1[:c1], k1[:c1], w2[c2:], k2[c2:])[0]
            second = old_reduced_product(w2[:c2], k2[:c2], w1[c1:], k1[c1:])[0]
            out.add_term((Path(gamma1.from_tag, gamma2.to_tag,
                               FreeWord.trusted(first)),
                          Path(gamma2.from_tag, gamma1.to_tag,
                               FreeWord.trusted(second))),
                         Fraction(sign * n, den))
    return out


def wide_word(rng, max_len):
    letters = [(rng.choice(WIDE_BASES), rng.choice((1, -1)))
               for _ in range(rng.randint(1, max_len))]
    return FreeWord(letters).reduce()


def wide_loop_sum(rng):
    out = LoopSum(WIDE)
    for _ in range(rng.randint(1, 3)):
        out.add_term(cyclic_normal_form(wide_word(rng, 6)),
                     Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 3)))
    return out


def wide_path_sum(rng, from_tag, to_tag):
    out = PathSum(WIDE, from_tag, to_tag)
    for _ in range(rng.randint(1, 3)):
        out.add_term(Path(from_tag, to_tag, wide_word(rng, 6)),
                     Fraction(rng.choice((1, -1, 2)), rng.randint(1, 2)))
    return out


def _high(letters):
    """Whether a letter tuple holds a letter with no byte key."""
    return any(int(base[1:]) > 43 for base, _ in letters)


# (44, 1): a44 has no byte key, a1 and b1 have one.  The bracket below
# puts |b1'| on two pairs of terms, (|a1 a44'|, |a1' a44 b1'|) and
# (|a1 b1'|, |a1'|), with opposite signs; it cancels only if the words
# of both pairs are in one code.
PINNED = SurfaceSpec(44, 1)
PINNED_BRACKET = ((("a1 a44'", 1), ("a1 b1'", -1)),
                  (("a1'", 1), ("a1' a44 b1'", 1)))
# the sha256 of the JSON of every joint bracket of the sweep below, as
# the code before one word code per surgery call gave it
PINNED_SWEEP_DIGEST = (
    "feb2daf869498f04ebd612fc8cde41c1325724bbe54becd959406ee754c7aa27")
PINNED_COEFFS = (1, -1, 2, -3)


def pinned_letters(rng, bases, lo, hi):
    return [(rng.choice(bases), rng.choice((1, -1)))
            for _ in range(rng.randint(lo, hi))]


def pinned_loop_sum(rng, words):
    return LoopSum(PINNED, [(cyclic_normal_form(w), rng.choice(PINNED_COEFFS))
                            for w in words])


def pinned_operands(rng, echo):
    """Two loop sums on PINNED over a1, b1 and a44: random, or (echo) of
    the pinned bracket's shape |x a44'|, |x y| against |x'|, |x' a44 y|
    for byte words x and y, whose two pairs of terms share |y|."""
    if not echo:
        return tuple(pinned_loop_sum(rng, [
            pinned_letters(rng, ("a1", "b1", "a44"), 1, 4)
            for _ in range(rng.randint(1, 3))]) for _ in range(2))
    x = pinned_letters(rng, ("a1", "b1"), 1, 2)
    y = pinned_letters(rng, ("a1", "b1"), 1, 2)
    xi = list(FreeWord(x).inverse().letters)
    return (pinned_loop_sum(rng, [x + [("a44", -1)], x + y]),
            pinned_loop_sum(rng, [xi, xi + [("a44", 1)] + y]))


def split_bracket(u, v, convention):
    """The sum of the brackets of each pair of terms alone, and the
    classes those pairs give, split by whether the pair has a word with
    no byte key."""
    total, outputs = LoopSum(u.spec, twist=1), {False: set(), True: set()}
    for a, ca in u.terms.items():
        for b, cb in v.terms.items():
            part = goldman_bracket(LoopSum(u.spec, [(a, ca)]),
                                   LoopSum(v.spec, [(b, cb)]), convention)
            total = total + part
            outputs[tuple in (type(a.key), type(b.key))].update(part.terms)
    return total, outputs


class TestWideSurface:
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_operations_match_oracle_splices(self, convention):
        assert not WIDE.byte_keyed
        rng = random.Random(6403 + len(convention))
        shapes = {"bracket": 0, "kk": 0, "bipair": 0, "high": 0}
        for _ in range(60):
            u, v = wide_loop_sum(rng), wide_loop_sum(rng)
            new = goldman_bracket(u, v, convention)
            assert_same(new, oracle_bracket(u, v, convention), (u, v))
            shapes["bracket"] += not new.is_zero()
            shapes["high"] += any(_high(c.word) for c in new.terms)

            gamma = wide_path_sum(rng, rng.randrange(3), rng.randrange(3))
            new = kk_action(u, gamma, convention)
            assert_same(new, oracle_kk_action(u, gamma, convention),
                        (u, gamma))
            shapes["kk"] += not new.is_zero()
            shapes["high"] += any(_high(p.word.letters) for p in new.terms)

            g1 = wide_path_sum(rng, 0, rng.choice((0, 1)))
            g2 = wide_path_sum(rng, 2, 2)
            if rng.random() < 0.5:
                g1, g2 = g2, g1
            new = bi_pairing(g1, g2, convention)
            assert_same(new, oracle_bi_pairing(g1, g2, convention), (g1, g2))
            shapes["bipair"] += not new.is_zero()
            shapes["high"] += any(_high(p.word.letters)
                                  for pair in new.terms for p in pair)
        assert min(shapes.values()) >= 20, shapes

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_pinned_bracket_cancels_across_codes(self, convention):
        u, v = (LoopSum(PINNED, [(cyclic_normal_form(parse_word(text)), c)
                                 for text, c in terms])
                for terms in PINNED_BRACKET)
        joint = goldman_bracket(u, v, convention)
        total, outputs = split_bracket(u, v, convention)
        b1 = cyclic_normal_form(parse_word("b1'"))
        assert b1 in outputs[False] and b1 in outputs[True]
        assert b1 not in joint.terms and not joint.is_zero()
        assert_same(joint, total, convention)

    def test_joint_bracket_is_the_sum_of_split_ones(self):
        """Brackets on PINNED whose pairs of terms mix words with and
        without a byte-less letter equal the sum of their pairs' brackets,
        and give what the code before one word code per call gave."""
        rng = random.Random(4401)
        digest = hashlib.sha256()
        shapes = {"nonzero": 0, "shared": 0}
        for case in range(1000):
            convention = CONVENTIONS[case % 2]
            u, v = pinned_operands(rng, echo=case % 4 >= 2)
            joint = goldman_bracket(u, v, convention)
            total, outputs = split_bracket(u, v, convention)
            assert_same(joint, total, (u, v, convention))
            digest.update(json.dumps(joint.to_json()).encode())
            shapes["nonzero"] += not joint.is_zero()
            # one output word from pairs in both codes: one totals key
            shapes["shared"] += bool(outputs[False] & outputs[True])
        assert digest.hexdigest() == PINNED_SWEEP_DIGEST
        assert shapes["nonzero"] >= 600 and shapes["shared"] >= 100, shapes


# -- hypothesis properties ------------------------------------------------

letters_st = st.tuples(st.sampled_from(BASES), st.sampled_from((1, -1)))
words_st = st.lists(letters_st, max_size=14).map(FreeWord)


class TestProperties:
    @PROPERTY
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=24))
    def test_least_rotation_is_argmin(self, seq):
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
        assert least_rotation(seq) == min(rotations)

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

    def paths(self, from_tag, to_tag, spec=None):
        spec = spec or self.spec
        zero = PathSum(spec, from_tag, to_tag)
        one = PathSum.of(spec, Path(from_tag, to_tag, FreeWord([("b1", 1)])))
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
        # disjoint tags 0, 1 and 2, 3 need four boundaries
        four = SurfaceSpec(1, 4)
        left_zero, left_one = self.paths(0, 1, four)
        right_zero, right_one = self.paths(2, 3, four)
        g1, g2 = (left_zero, right_one) if zero_left else (left_one,
                                                           right_zero)
        assert bi_pairing(g1, g2).is_zero()
        with pytest.raises(ValueError, match="convention"):
            bi_pairing(g1, g2, convention="bogus")
