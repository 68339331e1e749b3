"""Surgery layer: per-pair integer crossing counts against per-crossing code.

The bracket, the loop action and the two-path pairing sum, per output
term and over every pair of terms, the crossing signs times int
coefficient numerators, and divide by one denominator per call.  The
code they replaced added one Fraction term per crossing, with a tuple letter order and a FreeWord-validated cyclic
normal form; it is kept here as the oracle, built from ``_crossings``
and an uncached ``ribbon_structure`` directly.
"""

import random
from fractions import Fraction

from helpers import random_surface_word

from goldman_forge.goldman import (
    LoopSum,
    PathPairSum,
    PathSum,
    _crossings,
    bi_pairing,
    goldman_bracket,
    kk_action,
)
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    Path,
    SurfaceSpec,
    _reduce_letters,
    least_rotation,
    letter_key,
    parse_word,
    ribbon_structure,
)

SWEEP_SEED = 1212
SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 2),
            SurfaceSpec(0, 3), SurfaceSpec(1, 3), SurfaceSpec(0, 4),
            SurfaceSpec(11, 1))
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-2, 3), Fraction(5, 4))
CONVENTIONS = ("default", "reversed")


# -- the replaced code, kept as oracles -----------------------------------

_OLD_ORDER = {"a": 0, "b": 1, "c": 2, "t": 3}


def old_letter_key(letter):
    base, e = letter
    return (_OLD_ORDER[base[0]], int(base[1:] or 0), 0 if e > 0 else 1)


def old_cyclic_normal_form(word):
    letters = _reduce_letters(FreeWord(word).letters)
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == (letters[j][0], -letters[j][1]):
        i, j = i + 1, j - 1
    letters = letters[i:j + 1]
    start = least_rotation([old_letter_key(l) for l in letters])
    cls = object.__new__(LoopClass)
    cls.word = letters[start:] + letters[:start]
    return cls


def old_surgeries(u, v, convention):
    if convention not in CONVENTIONS:
        raise ValueError("unknown perturbation convention %r" % (convention,))
    if u.spec != v.spec:
        raise ValueError("operands live on different surfaces")
    ribbon = ribbon_structure.__wrapped__(u.spec)
    return ((coeff_a * coeff_b * sign, a, b, pa.split, pb.split)
            for a, coeff_a in u.terms.items()
            for b, coeff_b in v.terms.items()
            for sign, pa, pb in _crossings(ribbon, a, b, convention))


def old_goldman_bracket(u, v, convention="default"):
    out = LoopSum(u.spec, twist=u.twist + v.twist + 1)
    for coeff, a, b, i, j in old_surgeries(u, v, convention):
        spliced = a.word[i:] + a.word[:i] + b.word[j:] + b.word[:j]
        out.add_term(old_cyclic_normal_form(FreeWord(spliced)), coeff)
    return out


def old_kk_action(u, gamma, convention="default"):
    out = PathSum(gamma.spec, gamma.from_tag, gamma.to_tag,
                  twist=u.twist + gamma.twist + 1)
    for coeff, a, path, i, k in old_surgeries(u, gamma, convention):
        w = path.word.letters
        inserted = w[:k] + a.word[i:] + a.word[:i] + w[k:]
        out.add_term(Path(path.from_tag, path.to_tag, FreeWord(inserted)),
                     coeff)
    return out


def old_bi_pairing(gamma1, gamma2, convention="default"):
    out = PathPairSum(gamma1.spec, twist=gamma1.twist + gamma2.twist + 1)
    for coeff, p1, p2, k1, k2 in old_surgeries(gamma1, gamma2, convention):
        w1, w2 = p1.word.letters, p2.word.letters
        first = Path(p1.from_tag, p2.to_tag, FreeWord(w1[:k1] + w2[k2:]))
        second = Path(p2.from_tag, p1.to_tag, FreeWord(w2[:k2] + w1[k1:]))
        out.add_term((first, second), coeff)
    return out


def splice_counts(u, v, convention):
    """Per pair of terms, the crossings and the signed count of each
    spliced class, by the per-crossing code."""
    ribbon = ribbon_structure.__wrapped__(u.spec)
    for a in u.terms:
        for b in v.terms:
            counts, crossings = {}, 0
            for sign, pa, pb in _crossings(ribbon, a, b, convention):
                i, j = pa.split, pb.split
                cls = old_cyclic_normal_form(
                    a.word[i:] + a.word[:i] + b.word[j:] + b.word[:j])
                counts[cls] = counts.get(cls, 0) + sign
                crossings += 1
            yield crossings, counts


# -- seeded inputs ----------------------------------------------------------

def random_loop_sum(rng, spec, nterms, max_len):
    out = LoopSum(spec)
    for _ in range(nterms):
        word = random_surface_word(rng, spec, max_len)
        out.add_term(old_cyclic_normal_form(word), rng.choice(COEFFS))
    return out


def periodic_loop_sum(rng, spec, max_len):
    """Powers x^k of one primitive-looking word: the splices of two
    powers collide, and their counts cancel."""
    word = FreeWord()
    while not word.letters:
        word = random_surface_word(rng, spec, max_len)
    out = LoopSum(spec)
    for k in rng.sample((1, 2, 3), rng.randint(1, 2)):
        out.add_term(old_cyclic_normal_form(word.letters * k),
                     rng.choice(COEFFS))
    return out


def random_path_sum(rng, spec, from_tag, to_tag, nterms, max_len):
    out = PathSum(spec, from_tag, to_tag)
    for _ in range(nterms):
        path = Path(from_tag, to_tag, random_surface_word(rng, spec, max_len))
        out.add_term(path, rng.choice(COEFFS))
    return out


def disjoint_tags(rng, spec):
    """Two (from, to) tag pairs with disjoint tag sets, or None."""
    tags = list(spec.tags)
    if len(tags) < 2:
        return None
    rng.shuffle(tags)
    split = rng.randint(1, len(tags) - 1)
    left, right = tags[:split], tags[split:]
    return ((rng.choice(left), rng.choice(left)),
            (rng.choice(right), rng.choice(right)))


def assert_same(new, old, case):
    assert new.terms == old.terms, case
    assert new.sorted_terms() == old.sorted_terms(), case
    assert new.twist == old.twist, case


# a fixed bracket on (1,1) whose two pairs of terms, (|a1 a1|, |b1|) and
# (|a1 b1 a1 b1'|, |b1|), put opposite amounts on |a1 a1 b1|; the other
# classes survive.  (surface, u terms, v terms, cancelled class)
FIXED_CASES = (
    (SurfaceSpec(1, 1),
     (("a1 a1", Fraction(1, 2)), ("a1 b1 a1 b1'", Fraction(-1))),
     (("b1", Fraction(2, 3)),),
     "a1 a1 b1"),
)


def fixed_loop_sum(spec, terms):
    return LoopSum(spec, [(old_cyclic_normal_form(parse_word(text)), coeff)
                          for text, coeff in terms])


# -- the sweep --------------------------------------------------------------

def test_surgeries_match_per_crossing_code():
    rng = random.Random(SWEEP_SEED)
    shapes = {"bracket": 0, "periodic": 0, "jacobi": 0, "kk": 0,
              "bipair": 0, "collided": 0, "cancelled": 0, "genus11": 0,
              "fraction": 0, "reversed": 0}
    cases = 0
    while cases < 2400:
        spec = SURFACES[cases % len(SURFACES)]
        convention = CONVENTIONS[(cases // len(SURFACES)) % 2]
        kind = rng.choice(("bracket", "bracket", "periodic", "kk", "kk",
                           "bipair", "jacobi"))
        max_len = 4 if spec.genus > 2 else 5
        if kind in ("bracket", "periodic"):
            if kind == "periodic":
                u = periodic_loop_sum(rng, spec, 3)
                v = (periodic_loop_sum(rng, spec, 3) if rng.random() < 0.3
                     else u.copy())
            else:
                u = random_loop_sum(rng, spec, rng.randint(1, 3), max_len)
                v = random_loop_sum(rng, spec, rng.randint(1, 3), max_len)
            new = goldman_bracket(u, v, convention)
            assert_same(new, old_goldman_bracket(u, v, convention),
                        (spec, convention, u, v))
            for crossings, counts in splice_counts(u, v, convention):
                shapes["collided"] += crossings > len(counts)
                shapes["cancelled"] += 0 in counts.values()
            terms = [c for s in (u, v) for c in s.terms.values()]
        elif kind == "jacobi":
            u, v, w = (random_loop_sum(rng, spec, rng.randint(1, 2), 3)
                       for _ in range(3))
            inner = goldman_bracket(v, w, convention)
            assert_same(inner, old_goldman_bracket(v, w, convention),
                        (spec, convention, v, w))
            new = goldman_bracket(u, inner, convention)
            assert_same(new, old_goldman_bracket(u, inner, convention),
                        (spec, convention, u, inner))
            terms = [c for s in (u, inner) for c in s.terms.values()]
        elif kind == "kk":
            tags = spec.tags
            u = (random_loop_sum(rng, spec, rng.randint(1, 3), max_len)
                 if rng.random() < 0.8 else periodic_loop_sum(rng, spec, 3))
            gamma = random_path_sum(rng, spec, rng.choice(tags),
                                    rng.choice(tags), rng.randint(1, 3),
                                    max_len)
            new = kk_action(u, gamma, convention)
            assert_same(new, old_kk_action(u, gamma, convention),
                        (spec, convention, u, gamma))
            terms = [c for s in (u, gamma) for c in s.terms.values()]
        else:
            pair = disjoint_tags(rng, spec)
            if pair is None:
                continue
            (f1, t1), (f2, t2) = pair
            g1 = random_path_sum(rng, spec, f1, t1, rng.randint(1, 3), max_len)
            g2 = random_path_sum(rng, spec, f2, t2, rng.randint(1, 3), max_len)
            new = bi_pairing(g1, g2, convention)
            assert_same(new, old_bi_pairing(g1, g2, convention),
                        (spec, convention, g1, g2))
            terms = [c for s in (g1, g2) for c in s.terms.values()]
        cases += 1
        shapes[kind] += not new.is_zero()
        shapes["genus11"] += spec.genus == 11 and not new.is_zero()
        shapes["fraction"] += any(c.denominator > 1 for c in terms)
        shapes["reversed"] += convention == "reversed"
    assert min(shapes.values()) >= 20, shapes
    for spec, u_terms, v_terms, text in FIXED_CASES:
        u, v = fixed_loop_sum(spec, u_terms), fixed_loop_sum(spec, v_terms)
        cancelled = old_cyclic_normal_form(parse_word(text))
        for convention in CONVENTIONS:
            new = goldman_bracket(u, v, convention)
            assert_same(new, old_goldman_bracket(u, v, convention),
                        (spec, convention, u, v))
            # absent, not kept with coefficient 0, though every pair of
            # terms alone produces it
            assert cancelled not in new.terms and not new.is_zero()
            for a, coeff in u.terms.items():
                alone = goldman_bracket(LoopSum(spec, [(a, coeff)]), v,
                                        convention)
                assert alone.terms[cancelled], (a, convention)


# -- the letter order --------------------------------------------------------

def test_int_letter_key_keeps_the_tuple_order():
    letters = [(kind + str(i), e) for kind in "abc" for i in range(1, 13)
               for e in (1, -1)]
    letters += [("t%d" % k, 0) for k in range(13)]
    for x in letters:
        assert isinstance(letter_key(x), int)
        for y in letters:
            assert ((letter_key(x) < letter_key(y))
                    == (old_letter_key(x) < old_letter_key(y))), (x, y)
            assert ((letter_key(x) == letter_key(y))
                    == (old_letter_key(x) == old_letter_key(y))), (x, y)
    assert letter_key(("a2", 1)) < letter_key(("a10", 1))
