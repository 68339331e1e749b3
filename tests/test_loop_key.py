"""Loop classes keyed by their code, against the letter-tuple class.

A LoopClass holds ``key``, its canonical word coded independently of
the surface: one byte per letter for the 256 letters a1..a43, b1..b43,
c1..c42 and their inverses, the tuple of letter_keys once a letter is
past them.  __eq__ and __hash__ read only the key, ``word`` is decoded
on its first read, and the bracket splices keys as they stand and builds
its outputs from them, decoding no letters.  The class it replaced
(equal and hashed by its letter tuple), its cyclic normal form, its sort
key and JSON, and the letters-decoding tally are kept here as oracles,
and a seeded sweep and a derandomized hypothesis property compare the
two.  The regex generator check that SurfaceSpec.has_generator replaced
is kept as an oracle too.  The key function's own tests check what the
splices rely on: the inverse of code k is k ^ 1, codes keep letter_key
order, and a word falls back to a tuple past a43, b43 and c42.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import duval_least_rotation, random_surface_word

from goldman_forge.goldman import (
    LoopSum,
    _surgeries,
    goldman_bracket,
)
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    SurfaceSpec,
    _reduce_letters,
    cyclic_normal_form,
    key_letters,
    letter_key,
    render_word,
    splice_normal_form,
    word_key,
)

SWEEP_SEED = 3301
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
SURGERY_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 3),
                    SurfaceSpec(0, 4))
# the tuple fallback: a44/b44 and c43 are the first letters past a byte;
# (43, 1) has only byte letters, (44, 1) and (64, 3) have both kinds
WIDE_BASES = {
    (43, 1): ("a1", "b2", "a43", "b43"),
    (44, 1): ("a1", "b43", "a44", "b44"),
    (64, 3): ("a2", "a43", "a64", "b64", "c1", "c2"),
}
COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))


# -- the replaced code, kept as oracles -----------------------------------

class OldLoopClass:
    """The letter-tuple class: equal and hashed by its canonical word."""

    __slots__ = ("word",)

    def __init__(self, letters):
        self.word = letters

    def __eq__(self, other):
        return isinstance(other, OldLoopClass) and self.word == other.word

    def __hash__(self):
        return hash(self.word)


def old_cyclic_normal_form(word):
    """Letter keys, end cancellation, Duval's least rotation, letters
    mapped back through a dict."""
    letters = _reduce_letters(word)
    keys = tuple(map(letter_key, letters))
    p, q = 0, len(keys) - 1
    while p < q and keys[p] == keys[q] ^ 1:
        p, q = p + 1, q - 1
    keys = keys[p:q + 1]
    start = duval_least_rotation(keys) if keys else 0
    back = dict(zip(map(letter_key, letters), letters))
    return OldLoopClass(tuple(map(back.__getitem__,
                                  keys[start:] + keys[:start])))


def old_sort_key(cls):
    return (len(cls.word), tuple(letter_key(l) for l in cls.word))


def old_to_json(spec, twist, terms):
    return {
        "surface": {"genus": spec.genus, "boundary": spec.boundary},
        "twist": twist,
        "terms": [{"word": render_word(FreeWord(cls.word)), "coeff": str(c)}
                  for cls, c in sorted(terms.items(),
                                       key=lambda kv: old_sort_key(kv[0]))],
    }


def old_bracket(u, v, convention="default"):
    """The bracket's tally before keys: words coded as tuples of
    letter_keys, every output decoded to letters through a dict and made
    a letter-tuple class; {OldLoopClass: Fraction}."""
    letters = {letter_key((base, e)): (base, e)
               for base in u.spec.generators() for e in (1, -1)}
    den, records = _surgeries(u, v, convention)
    totals = {}
    for n, a, _, b, _, crossings in records:
        term = splice_normal_form(tuple(map(letter_key, a.word)),
                                  tuple(map(letter_key, b.word)))
        for sign, (_, _, i), (_, _, j) in crossings:
            key = term(i, j)
            totals[key] = totals.get(key, 0) + sign * n
    return {OldLoopClass(tuple(map(letters.__getitem__, key))):
            Fraction(total, den)
            for key, total in totals.items() if total}


def old_has_generator(spec, base):
    m = re.fullmatch(r"([abc])([1-9][0-9]*)", base)
    if not m:
        return False
    kind, index = m.groups()
    return int(index) <= (spec.punctures if kind == "c" else spec.genus)


# -- comparisons ------------------------------------------------------------

def as_old(terms):
    return {OldLoopClass(cls.word): c for cls, c in terms.items()}


def as_sum(spec, old_terms, twist):
    """An oracle result as a LoopSum, each class rebuilt from its letters."""
    return LoopSum(spec, [(cyclic_normal_form(cls.word), c)
                          for cls, c in old_terms.items()], twist=twist)


def assert_matches(new, old_terms, case):
    assert as_old(new.terms) == old_terms, case
    assert new.to_json() == old_to_json(new.spec, new.twist, old_terms), case
    assert [cls.word for cls, _ in new.sorted_terms()] == [
        cls.word for cls in sorted(old_terms, key=old_sort_key)], case


def has_byte(letter):
    """Whether letter is one of a1..a43, b1..b43, c1..c42 or an inverse."""
    base, _ = letter
    return int(base[1:]) <= (42 if base[0] == "c" else 43)


def assert_keyed(cls, old):
    """cls is the class of old: same word, key of the right type, and
    the key, decoded and re-encoded, is itself."""
    assert cls.word == old.word
    assert type(cls.key) is (bytes if all(map(has_byte, old.word))
                             else tuple), old.word
    again = LoopClass.of_key(cls.key)
    assert again.word == cls.word and again == cls
    assert word_key(cls.word) == cls.key
    assert hash(again) == hash(cls)


def wide_word(rng, spec, max_len):
    bases = WIDE_BASES[(spec.genus, spec.boundary)]
    return FreeWord([(rng.choice(bases), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, max_len))]).reduce()


def loop_sum(rng, spec, terms, max_len, word=random_surface_word):
    out = LoopSum(spec)
    for _ in range(terms):
        out = out + LoopSum.of(spec, word(rng, spec, max_len),
                               rng.choice(COEFFS))
    return out


# -- the sweep ----------------------------------------------------------------

class TestKeyedClass:
    def test_normal_forms_match_the_letter_class(self):
        rng = random.Random(SWEEP_SEED)
        shapes = {"bytes": 0, "tuple": 0, "trivial": 0, "cancelled": 0}
        specs = [*SURGERY_SURFACES, *map(lambda gb: SurfaceSpec(*gb),
                                         WIDE_BASES)]
        for _ in range(400):
            for spec in specs:
                if (spec.genus, spec.boundary) in WIDE_BASES:
                    word = wide_word(rng, spec, 9)
                else:
                    word = random_surface_word(rng, spec, 9)
                new, old = cyclic_normal_form(word), old_cyclic_normal_form(
                    word)
                assert_keyed(new, old)
                shapes[type(new.key).__name__] += 1
                shapes["trivial"] += not old.word
                shapes["cancelled"] += len(old.word) < len(word.letters)
        assert min(shapes.values()) >= 20, shapes

    def test_equal_and_hashed_alike_on_two_surfaces(self):
        """A class made on one surface, from letters, from its key, and
        as a bracket output on another surface, is one dict key."""
        rng = random.Random(SWEEP_SEED + 1)
        small, big = SurfaceSpec(1, 1), SurfaceSpec(2, 3)
        outputs = 0
        for _ in range(60):
            u, v = (loop_sum(rng, small, 2, 6) for _ in range(2))
            for cls in goldman_bracket(u, v).terms:
                on_big = LoopSum.of(big, cls.free_word())
                (other,) = on_big.terms
                assert other == cls and hash(other) == hash(cls)
                assert {cls: 1}[other] == 1
                assert word_key(key_letters(cls.key)) == cls.key
                outputs += 1
        assert outputs >= 200

    def test_equality_follows_the_letter_class(self):
        rng = random.Random(SWEEP_SEED + 2)
        spec = SurfaceSpec(1, 2)
        classes = [cyclic_normal_form(random_surface_word(rng, spec, 4))
                   for _ in range(300)]
        equal = 0
        for a, b in zip(classes, classes[1:]):
            old_a, old_b = OldLoopClass(a.word), OldLoopClass(b.word)
            assert (a == b) == (old_a == old_b)
            assert (hash(a) == hash(b)) >= (a == b)
            equal += a == b
        assert equal >= 10
        assert LoopClass(()) == cyclic_normal_form(FreeWord())
        assert LoopClass(()).key == b""

    @pytest.mark.parametrize("spec", SURGERY_SURFACES, ids=repr)
    def test_bracket_and_jacobi_match_the_letter_tally(self, spec):
        rng = random.Random(SWEEP_SEED + spec.genus * 10 + spec.boundary)
        nonzero = 0
        for _ in range(25):
            u, v = loop_sum(rng, spec, 2, 6), loop_sum(rng, spec, 2, 6)
            new = goldman_bracket(u, v)
            assert_matches(new, old_bracket(u, v), (u, v))
            new = goldman_bracket(u, v, "reversed")
            assert_matches(new, old_bracket(u, v, "reversed"), (u, v))
            nonzero += not new.is_zero()
        for _ in range(8):
            u, v, w = (loop_sum(rng, spec, 1, 4) for _ in range(3))
            inner = old_bracket(v, w)
            old = old_bracket(u, as_sum(spec, inner, 1))
            new = goldman_bracket(u, goldman_bracket(v, w))
            assert_matches(new, old, (u, v, w))
            for cls in new.terms:
                assert_keyed(cls, OldLoopClass(cls.word))
            nonzero += not new.is_zero()
        assert nonzero >= 10

    @pytest.mark.parametrize("genus,boundary", sorted(WIDE_BASES))
    def test_tuple_fallback(self, genus, boundary):
        spec = SurfaceSpec(genus, boundary)
        rng = random.Random(SWEEP_SEED + genus + boundary)
        assert spec.byte_keyed == (genus == 43)
        kinds = set()
        for _ in range(40):
            u = loop_sum(rng, spec, 2, 5, wide_word)
            v = loop_sum(rng, spec, 2, 5, wide_word)
            new = goldman_bracket(u, v)
            assert_matches(new, old_bracket(u, v), (u, v))
            for cls in [*u.terms, *v.terms, *new.terms]:
                assert_keyed(cls, OldLoopClass(cls.word))
                kinds.add(type(cls.key))
        assert kinds == ({bytes} if genus == 43 else {bytes, tuple})


# -- the key function ---------------------------------------------------------

def every_letter(spec):
    return [(base, e) for base in spec.generators() for e in (1, -1)]


class TestWordKey:
    @pytest.mark.parametrize("genus,boundary,kind", [
        (1, 1, bytes), (0, 3, bytes), (11, 1, bytes), (43, 43, bytes),
        (43, 44, tuple), (44, 1, tuple), (64, 1, tuple), (64, 2, tuple),
        (64, 3, tuple)])
    def test_tuple_past_a43_b43_c42(self, genus, boundary, kind):
        spec = SurfaceSpec(genus, boundary)
        letters = every_letter(spec)
        assert type(word_key(letters)) is kind
        assert spec.byte_keyed == (kind is bytes)
        assert all(type(word_key([x])) is bytes for x in letters
                   if has_byte(x))
        assert key_letters(word_key(letters)) == tuple(letters)

    @pytest.mark.parametrize("genus,boundary", [(43, 43), (64, 3)])
    def test_inverse_is_code_xor_one(self, genus, boundary):
        letters = every_letter(SurfaceSpec(genus, boundary))
        for code in (word_key, lambda w: tuple(map(letter_key, w))):
            for base, e in letters:
                (k,), (inverse,) = code([(base, e)]), code([(base, -e)])
                assert inverse == k ^ 1, (base, e)

    @pytest.mark.parametrize("genus,boundary", [(43, 43), (64, 3)])
    def test_codes_keep_the_letter_key_order(self, genus, boundary):
        letters = sorted(every_letter(SurfaceSpec(genus, boundary)),
                         key=letter_key)
        codes = list(word_key(letters))
        assert codes == sorted(set(codes))
        # the letters with a byte key take the bytes from 0 up, in order;
        # on (43, 43) they are all 256
        codes = list(word_key([x for x in letters if has_byte(x)]))
        assert codes == list(range(len(codes)))
        assert (len(codes) == 256) == (genus == 43)


# -- the property ---------------------------------------------------------

@st.composite
def surface_words(draw):
    genus, boundary = draw(st.sampled_from(
        [(1, 1), (2, 1), (0, 4), *WIDE_BASES]))
    spec = SurfaceSpec(genus, boundary)
    bases = WIDE_BASES.get((genus, boundary), spec.generators())
    letters = st.tuples(st.sampled_from(bases), st.sampled_from((1, -1)))
    return spec, draw(st.lists(letters, max_size=12).map(FreeWord))


@PROPERTY
@given(surface_words(), surface_words())
def test_keyed_class_agrees_with_the_letter_class(first, second):
    (_, x), (spec, y) = first, second
    new, old = cyclic_normal_form(x), old_cyclic_normal_form(x)
    assert_keyed(new, old)
    other, old_other = cyclic_normal_form(y), old_cyclic_normal_form(y)
    assert (new == other) == (old == old_other)
    assert (hash(new) == hash(other)) >= (new == other)
    conjugated = cyclic_normal_form(y * x * y.inverse())
    assert conjugated == new and hash(conjugated) == hash(new)
    assert word_key(key_letters(other.key)) == other.key


# -- SurfaceSpec: names built once, a set lookup in place of the regex -------

class TestGeneratorSet:
    def test_same_strings_as_the_regex(self):
        rng = random.Random(SWEEP_SEED + 3)
        pieces = ["a", "b", "c", "t", "A", "0", "1", "2", "9", "10", "01",
                  "44", "١", "²", " ", "'", "+"]
        accepted = 0
        for genus, boundary in [(1, 1), (2, 3), (0, 4), (12, 11)]:
            spec = SurfaceSpec(genus, boundary)
            for _ in range(3000):
                base = "".join(rng.choice(pieces)
                               for _ in range(rng.randint(0, 3)))
                if rng.random() < 0.3:
                    base = rng.choice("abc") + str(rng.randint(1, 14))
                assert spec.has_generator(base) == old_has_generator(
                    spec, base), base
                accepted += spec.has_generator(base)
            assert all(spec.has_generator(base) for base in spec.generators())
        assert accepted >= 100

    def test_generators_built_once(self):
        spec = SurfaceSpec(3, 2)
        assert spec.generators() is spec.generators()
        assert spec.generators() == ("a1", "a2", "a3", "b1", "b2", "b3",
                                     "c1")

    @pytest.mark.parametrize("base", [1, None, 1.5, b"a1", ("a", 1), [1]])
    def test_non_str_base_is_a_value_error(self, base):
        spec = SurfaceSpec(1, 1)
        word = FreeWord(((base, 1),))
        assert not spec.has_generator(base)
        with pytest.raises(ValueError, match="not a generator"):
            spec.validate_word(word)
        with pytest.raises(ValueError, match="not a generator"):
            LoopSum.of(spec, word)
