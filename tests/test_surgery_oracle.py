"""Surgery layer: per-pair integer crossing counts against per-crossing code.

The bracket, the loop action and the two-path pairing sum, per output
term and over every pair of terms, the crossing signs times int
coefficient numerators, and divide by one denominator per call.  The
code they replaced added one Fraction term per crossing, with a tuple letter order and a FreeWord-validated cyclic
normal form; it is kept here as the oracle, built from the chords of
``helpers._draw``, the crossings of ``_crossings`` and an uncached
``ribbon_structure`` directly.  Its rotation is Duval's
(helpers.duval_least_rotation), not the engine's, so the oracle does
not check the engine's rotation against itself.  The oracle draws each
pair of terms alone; the engine draws nothing, reading each chord end
from one table per surface and convention (``_chord_ends``), and the
joint-drawing sweep and property check that this changes no crossing,
no crossing order and no output.

Two identities tie the three surgeries together, on the surfaces above
and on a surface with letters past a byte key: closing a path from a
tag back to itself into its loop class takes the action to the bracket
(trace), and the action of the class of a path alpha from tag s back to
s on a path gamma off s is the pairing of alpha with gamma, each pair
(p, q) composed as q then p (composition).
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _draw,
    assert_same,
    duval_least_rotation,
    random_surface_word,
)

from goldman_forge import goldman
from goldman_forge.goldman import (
    LoopSum,
    PathPairSum,
    PathSum,
    _crossings,
    _surgeries,
    bi_pairing,
    crossing_trace,
    goldman_bracket,
    kk_action,
)
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    Path,
    SurfaceSpec,
    _reduce_letters,
    cyclic_normal_form,
    letter_key,
    parse_word,
    reduced_product,
    ribbon_structure,
    splice_normal_form,
    word_key,
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
    start = duval_least_rotation([old_letter_key(l) for l in letters])
    return LoopClass.of_key(word_key(letters[start:] + letters[:start]))


def old_surgeries(u, v, convention):
    if convention not in CONVENTIONS:
        raise ValueError("unknown perturbation convention %r" % (convention,))
    if u.spec != v.spec:
        raise ValueError("operands live on different surfaces")
    slot = ribbon_structure.__wrapped__(u.spec)
    return ((coeff_a * coeff_b * sign, a, b, i, j)
            for a, coeff_a in u.terms.items()
            for b, coeff_b in v.terms.items()
            for sign, (_, _, i), (_, _, j) in _crossings(
                *_draw(slot, (a, b), convention)[1]))


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
    slot = ribbon_structure.__wrapped__(u.spec)
    for a in u.terms:
        for b in v.terms:
            counts, crossings = {}, 0
            chords = _draw(slot, (a, b), convention)[1]
            for sign, (_, _, i), (_, _, j) in _crossings(*chords):
                cls = old_cyclic_normal_form(
                    a.word[i:] + a.word[:i] + b.word[j:] + b.word[:j])
                counts[cls] = counts.get(cls, 0) + sign
                crossings += 1
            yield crossings, counts


# -- seeded inputs ----------------------------------------------------------

def surface_word(rng, spec, max_len):
    """random_surface_word, in run_bases(spec) letters on the wide
    surfaces."""
    if (spec.genus, spec.boundary) not in RUN_BASES:
        return random_surface_word(rng, spec, max_len)
    return FreeWord([(rng.choice(run_bases(spec)), rng.choice((1, -1)))
                     for _ in range(rng.randrange(max_len + 1))]).reduce()


def random_loop_sum(rng, spec, nterms, max_len):
    out = LoopSum(spec)
    for _ in range(nterms):
        word = surface_word(rng, spec, max_len)
        out.add_term(old_cyclic_normal_form(word), rng.choice(COEFFS))
    return out


def periodic_loop_sum(rng, spec, max_len):
    """Powers x^k of one primitive-looking word: the splices of two
    powers collide, and their counts cancel."""
    word = FreeWord()
    while not word.letters:
        word = surface_word(rng, spec, max_len)
    out = LoopSum(spec)
    for k in rng.sample((1, 2, 3), rng.randint(1, 2)):
        out.add_term(old_cyclic_normal_form(word.letters * k),
                     rng.choice(COEFFS))
    return out


def random_path_sum(rng, spec, from_tag, to_tag, nterms, max_len):
    out = PathSum(spec, from_tag, to_tag)
    for _ in range(nterms):
        path = Path(from_tag, to_tag, surface_word(rng, spec, max_len))
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


# -- shared runs ------------------------------------------------------------

# The bracket sums the crossing signs of a pair of terms per start of the
# run their words share before splicing (pairs with len(x) * len(y) >= 12);
# the path surgeries splice each crossing.  Words of four or more letters
# related by rotation, inversion, powers or a common run share long runs.
RUN_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 3),
                SurfaceSpec(0, 4), SurfaceSpec(44, 1), SurfaceSpec(64, 3))
# on the wide surfaces a few letters, with and without a byte key
RUN_BASES = {(44, 1): ("a1", "a44", "b1", "b44"),
             (64, 3): ("a1", "a43", "a44", "b1", "b64", "c1", "c2")}
RUN_KINDS = ("rotation", "inverse", "power", "run", "inverse run", "same")


def run_bases(spec):
    return RUN_BASES.get((spec.genus, spec.boundary), spec.generators())


def cyclic_letters(rng, spec, length):
    """A reduced, cyclically reduced letter list of the given length."""
    bases = run_bases(spec)
    while True:
        letters = []
        while len(letters) < length:
            letter = (rng.choice(bases), rng.choice((1, -1)))
            if not letters or letters[-1] != (letter[0], -letter[1]):
                letters.append(letter)
        if letters[0] != (letters[-1][0], -letters[-1][1]):
            return letters


def inverse_letters(letters):
    return [(base, -e) for base, e in reversed(letters)]


def related_letters(kind, letters, r, k, tail):
    """A word sharing runs with letters: its rotation by r, its inverse,
    its k-th power, itself, or a run of k letters of its rotation by r
    (of its inverse's, for "inverse run") followed by tail."""
    if kind == "rotation":
        return letters[r:] + letters[:r]
    if kind == "inverse":
        return inverse_letters(letters)
    if kind == "power":
        return letters * k
    if kind == "same":
        return list(letters)
    source = inverse_letters(letters) if kind == "inverse run" else letters
    return (source[r:] + source[:r])[:k] + list(tail)


def run_operands(spec, x, y, coeffs):
    """Loop sums of the classes of x and y, the path along y from tag 0
    to tag 1 (to 0 on one boundary), and, with three tags, a path along x
    from the last tag to itself and the empty path from 1 to 0."""
    u = LoopSum(spec, [(old_cyclic_normal_form(x), coeffs[0])])
    v = LoopSum(spec, [(old_cyclic_normal_form(y), coeffs[1])])
    to = min(1, spec.boundary - 1)
    gamma = PathSum(spec, 0, to, [(Path(0, to, FreeWord(y)), coeffs[2])])
    if spec.boundary < 3:
        return u, v, gamma, None, None
    last = spec.boundary - 1
    alpha = PathSum(spec, last, last,
                    [(Path(last, last, FreeWord(x)), coeffs[0])])
    return u, v, gamma, alpha, PathSum(spec, 1, 0, [(Path(1, 0), coeffs[1])])


def check_run_operands(u, v, gamma, alpha, empty, convention):
    """Every surgery of the operands equals the per-crossing code: the
    bracket both ways and of u with itself, the action on gamma and on
    the empty path, and the pairing of alpha with each, both ways."""
    case = (convention, u, v, gamma, alpha)
    for left, right in ((u, v), (v, u), (u, u)):
        assert_same(goldman_bracket(left, right, convention),
                    old_goldman_bracket(left, right, convention), case)
    paths = [gamma] if empty is None else [gamma, empty]
    for path in paths:
        assert_same(kk_action(u, path, convention),
                    old_kk_action(u, path, convention), case)
    if alpha is not None:
        for path in paths:
            for left, right in ((alpha, path), (path, alpha)):
                assert_same(bi_pairing(left, right, convention),
                            old_bi_pairing(left, right, convention), case)


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
    # words sharing long runs, on byte-keyed and tuple-keyed surfaces
    runs = dict.fromkeys(RUN_KINDS, 0)
    runs.update({"cancelled": 0, "wide": 0, "bipair": 0, "empty path": 0,
                 "path start": 0, "path end": 0, "reversed": 0})
    for case in range(240):
        spec = RUN_SURFACES[case % len(RUN_SURFACES)]
        convention = CONVENTIONS[(case // len(RUN_SURFACES)) % 2]
        kind = RUN_KINDS[(case // 12) % len(RUN_KINDS)]
        x = cyclic_letters(rng, spec, rng.randint(4, 6))
        y = related_letters(kind, x, rng.randrange(len(x)),
                            rng.randint(2, len(x) if "run" in kind else 3),
                            cyclic_letters(rng, spec, rng.randint(1, 4)))
        u, v, gamma, alpha, empty = run_operands(
            spec, x, y, [rng.choice(COEFFS) for _ in range(3)])
        check_run_operands(u, v, gamma, alpha, empty, convention)
        runs[kind] += 1
        runs["cancelled"] += any(0 in counts.values() for _, counts in
                                 splice_counts(u, v, convention))
        runs["wide"] += spec.genus > 43
        runs["bipair"] += alpha is not None
        runs["empty path"] += empty is not None
        runs["reversed"] += convention == "reversed"
        for _, _, path, crossings in per_pair_crossings(
                u, gamma, convention)[1]:
            splits = {k for _, _, k in crossings}
            runs["path start"] += 0 in splits
            runs["path end"] += len(path.word.letters) in splits
    assert min(runs.values()) >= 30 and runs["cancelled"] >= 150, runs


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


# -- chord ends from one table ---------------------------------------------

JOINT_SEED = 3030
JOINT_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 3),
                  SurfaceSpec(0, 4))
# the sweep adds a surface whose words are coded as tuples of letter_keys
JOINT_SWEEP = JOINT_SURFACES + (SurfaceSpec(64, 3),)
JOINT_PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
JOINT_PROPERTY_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(0, 3),
                           SurfaceSpec(1, 2))


def chord_splits(item):
    """The splits of item's chords, in the order they are listed: a
    loop's 1..n-1, 0; a path's from tail to tail; none for the identity
    path."""
    if isinstance(item, LoopClass):
        n = len(item.word)
        return [*range(1, n), 0] if n else []
    return [] if item.is_identity() else [*range(len(item.word.letters) + 1)]


def pair_drawing(slot, a, b, convention):
    """The chords of a drawing of a and b alone, in chord_splits order."""
    chords = _draw(slot, (a, b), convention)[1]
    for item, item_chords in zip((a, b), chords):
        assert [split for *_, split in item_chords] == chord_splits(item)
    return chords


def per_pair_crossings(u, v, convention):
    """Per pair of terms, in the engine's pair order: the int numerator
    product and the (sign, split of a, split of b) of each crossing of a
    drawing of the two terms alone."""
    slot = ribbon_structure.__wrapped__(u.spec)
    den_u, num_u = u.numerators()
    den_v, num_v = v.numerators()
    return den_u * den_v, [
        (na * nb, a, b, [(sign, pu[2], pv[2]) for sign, pu, pv in
                         _crossings(*pair_drawing(slot, a, b, convention))])
        for a, na in num_u for b, nb in num_v]


def joint_crossings(u, v, convention):
    """The same lists from the engine's chords, built from _chord_ends;
    each record carries the coded words of its own two terms."""
    den, records = _surgeries(u, v, convention)
    out = []
    for n, a, x, b, y, crossings in records:
        assert (x, y) == (goldman._codes(a, u.spec.byte_keyed),
                          goldman._codes(b, u.spec.byte_keyed))
        out.append((n, a, b, [(sign, pu[2], pv[2])
                              for sign, pu, pv in crossings]))
    return den, out


def mixed_path_sum(rng, spec, from_tag, to_tag, nterms, max_len):
    """The empty path plus other paths from from_tag to to_tag: the
    identity path on one tag, one chord from tail to tail between two."""
    out = random_path_sum(rng, spec, from_tag, to_tag, nterms, max_len)
    out.add_term(Path(from_tag, to_tag), rng.choice(COEFFS))
    return out


def tail_to_tail(records):
    """Whether an empty path between two tags crosses in records."""
    return any(isinstance(t, Path) and t.from_tag != t.to_tag
               and not t.word.letters and crossings
               for _, a, b, crossings in records for t in (a, b))


def test_joint_drawing_matches_per_pair_drawing():
    """Sums of 3-5 terms, a class in both operands, periodic classes and
    path sums that mix the empty path with others (the identity path, or
    one chord from tail to tail), under both conventions and on a
    surface past a byte key: every pair of terms has the crossings, in
    the same order, that a drawing of the pair alone gives, and the
    outputs equal the per-pair oracle's."""
    rng = random.Random(JOINT_SEED)
    shapes = {"bracket": 0, "shared": 0, "periodic": 0, "kk": 0,
              "bipair": 0, "in_both": 0, "power": 0, "identity": 0,
              "tail_to_tail": 0, "wide": 0, "three_plus": 0, "reversed": 0}
    for case in range(600):
        spec = JOINT_SWEEP[case % len(JOINT_SWEEP)]
        convention = CONVENTIONS[(case // len(JOINT_SWEEP)) % 2]
        kind = ("bracket", "shared", "periodic", "kk", "bipair")[
            case // len(JOINT_SWEEP) % 5]
        max_len = 4 if spec.genus > 1 else 5
        if kind in ("bracket", "shared", "periodic"):
            if kind == "periodic":
                u = periodic_loop_sum(rng, spec, 3)
                u += random_loop_sum(rng, spec, rng.randint(1, 3), max_len)
            else:
                u = random_loop_sum(rng, spec, rng.randint(3, 5), max_len)
            v = random_loop_sum(rng, spec, rng.randint(3, 5), max_len)
            if kind == "shared" and not u.is_zero():
                v.add_term(rng.choice(list(u.terms)), rng.choice(COEFFS))
                shapes["in_both"] += bool(set(u.terms) & set(v.terms))
            new = goldman_bracket(u, v, convention)
            assert_same(new, old_goldman_bracket(u, v, convention),
                        (spec, convention, u, v))
            shapes["power"] += kind == "periodic" and any(
                len(c.word) % 2 == 0 and c.word[:len(c.word) // 2]
                == c.word[len(c.word) // 2:] for c in u.terms if c.word)
        elif kind == "kk":
            u = random_loop_sum(rng, spec, rng.randint(3, 5), max_len)
            v = mixed_path_sum(rng, spec, rng.choice(spec.tags),
                               rng.choice(spec.tags), rng.randint(2, 4),
                               max_len)
            new = kk_action(u, v, convention)
            assert_same(new, old_kk_action(u, v, convention),
                        (spec, convention, u, v))
        else:
            pair = disjoint_tags(rng, spec)
            if pair is None:
                continue
            (f1, t1), (f2, t2) = pair
            u = mixed_path_sum(rng, spec, f1, f1, rng.randint(2, 4), max_len)
            v = mixed_path_sum(rng, spec, f2, t2, rng.randint(3, 5), max_len)
            if rng.random() < 0.5:
                u, v = v, u
            new = bi_pairing(u, v, convention)
            assert_same(new, old_bi_pairing(u, v, convention),
                        (spec, convention, u, v))
        oracle = per_pair_crossings(u, v, convention)
        assert joint_crossings(u, v, convention) == oracle, (
            spec, convention, u, v)
        shapes[kind] += not new.is_zero()
        shapes["identity"] += any(
            p.is_identity() for s in (u, v) if isinstance(s, PathSum)
            for p in s.terms) and not new.is_zero()
        shapes["tail_to_tail"] += tail_to_tail(oracle[1])
        shapes["wide"] += not spec.byte_keyed and not new.is_zero()
        shapes["three_plus"] += min(len(u.terms), len(v.terms)) >= 3
        shapes["reversed"] += convention == "reversed"
    assert min(shapes.values()) >= 20, shapes


class CountedTable:
    """_chord_ends, counting its calls (hits of its cache included)."""

    def __init__(self, table):
        self.table, self.calls = table, 0

    def __call__(self, *args):
        self.calls += 1
        return self.table(*args)


@pytest.fixture
def counted(monkeypatch):
    table = CountedTable(goldman._chord_ends)
    monkeypatch.setattr(goldman, "_chord_ends", table)
    return table


def surgery_calls(spec):
    """(name, call) pairs: each surgery on nonzero operands of spec."""
    rng = random.Random(JOINT_SEED + spec.boundary)
    u, inner = random_loop_sum(rng, spec, 3, 4), LoopSum(spec)
    while len(inner.terms) < 3:
        inner = goldman_bracket(random_loop_sum(rng, spec, 3, 5),
                                random_loop_sum(rng, spec, 3, 5))
    gamma = mixed_path_sum(rng, spec, 0, 0, 3, 4)
    calls = [("bracket", lambda: goldman_bracket(u, u)),
             ("jacobi outer", lambda: goldman_bracket(u, inner)),
             ("kk", lambda: kk_action(u, gamma))]
    if spec.boundary >= 3:
        other = random_path_sum(rng, spec, 1, 2, 3, 4)
        calls.append(("bipair", lambda: bi_pairing(gamma, other)))
    return calls, (u, inner, gamma)


@pytest.mark.parametrize("spec", JOINT_SURFACES, ids=str)
def test_no_surgery_draws(spec, counted):
    """The engine has no per-pair drawing left (it lives on as the tests'
    helpers._draw), and each surgery reads the chord-end table once per
    call, not once per pair of terms."""
    assert not hasattr(goldman, "_draw") and not hasattr(goldman, "_stops")
    calls, operands = surgery_calls(spec)
    assert all(len(s.terms) >= 3 for s in operands), operands
    for name, call in calls:
        before = counted.calls
        call()
        assert counted.calls == before + 1, name


@st.composite
def joint_operands(draw):
    """Two sums on (1,1), (0,3) or (1,2) that some surgery takes: loops
    and loops, loops and paths, or paths on disjoint tags; path words
    may be empty."""
    spec = draw(st.sampled_from(JOINT_PROPERTY_SURFACES))
    letters = st.tuples(st.sampled_from(spec.generators()),
                        st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=5).map(lambda w: FreeWord(w).reduce())
    sizes, coeffs = st.integers(1, 4), st.sampled_from(COEFFS)

    def loops():
        return LoopSum(spec, [(old_cyclic_normal_form(draw(words)),
                               draw(coeffs)) for _ in range(draw(sizes))])

    def paths(tags):
        from_tag, to_tag = draw(st.sampled_from(tags)), draw(
            st.sampled_from(tags))
        return PathSum(spec, from_tag, to_tag, [
            (Path(from_tag, to_tag, draw(words)), draw(coeffs))
            for _ in range(draw(sizes))])

    kind = draw(st.sampled_from(("bracket", "kk", "bipair")))
    if kind == "bracket":
        return loops(), loops()
    if kind == "kk" or spec.boundary == 1:
        return loops(), paths(spec.tags)
    tags = draw(st.permutations(spec.tags))
    split = draw(st.integers(1, len(tags) - 1))
    return paths(tags[:split]), paths(tags[split:])


@JOINT_PROPERTY
@given(joint_operands())
def test_joint_drawing_property(operands):
    u, v = operands
    for convention in CONVENTIONS:
        assert joint_crossings(u, v, convention) == per_pair_crossings(
            u, v, convention), convention


@pytest.mark.parametrize("spec", JOINT_SURFACES, ids=str)
def test_no_drawing_with_a_zero_operand(spec, counted):
    rng = random.Random(JOINT_SEED)
    loops = random_loop_sum(rng, spec, 3, 4)
    path = mixed_path_sum(rng, spec, 0, 0, 3, 4)
    zero_loops, zero_path = LoopSum(spec), PathSum(spec, 0, 0)
    for out in (goldman_bracket(zero_loops, loops),
                goldman_bracket(loops, zero_loops),
                kk_action(zero_loops, path), kk_action(loops, zero_path)):
        assert out.is_zero()
    if spec.boundary >= 3:
        other = random_path_sum(rng, spec, 1, 2, 3, 4)
        assert bi_pairing(zero_path, other).is_zero()
        assert bi_pairing(other, zero_path).is_zero()
    assert counted.calls == 0


def test_bi_pairing_rejects_overlapping_tags_before_drawing(counted):
    spec = SurfaceSpec(0, 4)
    rng = random.Random(JOINT_SEED)
    for (f1, t1), (f2, t2) in (((0, 1), (1, 2)), ((0, 0), (0, 3)),
                               ((2, 3), (3, 2)), ((1, 1), (1, 1))):
        g1 = random_path_sum(rng, spec, f1, t1, 3, 4)
        g2 = random_path_sum(rng, spec, f2, t2, 3, 4)
        assert not (g1.is_zero() or g2.is_zero())
        with pytest.raises(ValueError, match="disjoint"):
            bi_pairing(g1, g2)
    assert counted.calls == 0


# -- trace and composition identities ---------------------------------------

IDENTITY_SEED = 1710
IDENTITY_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 2),
                     SurfaceSpec(1, 3), SurfaceSpec(0, 3), SurfaceSpec(0, 4),
                     SurfaceSpec(2, 2))
IDENTITY_PROPERTY = settings(derandomize=True, max_examples=150,
                             deadline=None)
WIDE = SurfaceSpec(64, 3)
# a44, b64 have no byte key; a1, a43, b1, c1, c2 have one
WIDE_BASES = ("a1", "a43", "a44", "b1", "b64", "c1", "c2")


def closure(gamma):
    """|gamma|: each path of a sum from a tag back to itself, closed into
    its free loop class."""
    out = LoopSum(gamma.spec)
    for path, coeff in gamma.terms.items():
        out.add_term(cyclic_normal_form(path.word), coeff)
    return out


def trace_sides(u, gamma, convention):
    """|kk_action(u, gamma)| and goldman_bracket(u, |gamma|), gamma from
    a tag back to itself, as term dicts."""
    return (closure(kk_action(u, gamma, convention)).terms,
            goldman_bracket(u, closure(gamma), convention).terms)


def composition_sides(alpha, gamma, convention):
    """kk_action(|alpha|, gamma) and the sum of q.p over the terms (p, q)
    of bi_pairing(alpha, gamma), alpha from a tag s back to s and gamma
    off s, as term dicts."""
    composed = PathSum(gamma.spec, gamma.from_tag, gamma.to_tag)
    for (p, q), coeff in bi_pairing(alpha, gamma, convention).terms.items():
        composed.add_term(q.compose(p), coeff)
    return (kk_action(closure(alpha), gamma, convention).terms,
            composed.terms)


def identity_tags(rng, spec):
    """A tag s and, if the surface has another, two tags off s."""
    s = rng.choice(spec.tags)
    others = [t for t in spec.tags if t != s]
    return s, (rng.choice(others), rng.choice(others)) if others else None


def wide_path_sum(rng, from_tag, to_tag):
    out = PathSum(WIDE, from_tag, to_tag)
    for _ in range(rng.randint(1, 2)):
        word = FreeWord([(rng.choice(WIDE_BASES), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 5))]).reduce()
        out.add_term(Path(from_tag, to_tag, word), rng.choice(COEFFS))
    return out


def test_trace_and_composition_identities():
    rng = random.Random(IDENTITY_SEED)
    counts = {"trace": 0, "trace nonzero": 0, "composition": 0,
              "composition nonzero": 0}
    for spec in IDENTITY_SURFACES:
        for convention in CONVENTIONS:
            for _ in range(60):
                s, off = identity_tags(rng, spec)
                u = random_loop_sum(rng, spec, rng.randint(1, 2), 4)
                gamma = random_path_sum(rng, spec, s, s, rng.randint(1, 2), 4)
                left, right = trace_sides(u, gamma, convention)
                assert left == right, (spec, convention, u, gamma)
                counts["trace"] += 1
                counts["trace nonzero"] += bool(right)
                if off is None:
                    continue
                alpha = random_path_sum(rng, spec, s, s, rng.randint(1, 2), 4)
                gamma = random_path_sum(rng, spec, *off, rng.randint(1, 2), 4)
                left, right = composition_sides(alpha, gamma, convention)
                assert left == right, (spec, convention, alpha, gamma)
                counts["composition"] += 1
                counts["composition nonzero"] += bool(right)
    assert counts["trace"] == 840 and counts["composition"] == 600, counts
    assert (counts["trace nonzero"] >= 300
            and counts["composition nonzero"] >= 250), counts


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_trace_and_composition_identities_past_a_byte(convention):
    """On (64, 3) every word of a call is coded as its tuple of
    letter_keys, and a path with a byte-less letter at both ends closes
    into a class whose key is bytes once those ends cancel."""
    rng = random.Random(IDENTITY_SEED + len(convention))
    counts = {"trace nonzero": 0, "composition nonzero": 0, "bytes": 0}
    for _ in range(750):
        s, (t1, t2) = identity_tags(rng, WIDE)
        u = closure(wide_path_sum(rng, s, s))
        gamma = wide_path_sum(rng, s, s)
        left, right = trace_sides(u, gamma, convention)
        assert left == right, (convention, u, gamma)
        counts["trace nonzero"] += bool(right)
        counts["bytes"] += any(type(c.key) is bytes for c in right) and any(
            type(word_key(p.word.letters)) is tuple for p in gamma.terms)
        alpha, gamma = wide_path_sum(rng, s, s), wide_path_sum(rng, t1, t2)
        left, right = composition_sides(alpha, gamma, convention)
        assert left == right, (convention, alpha, gamma)
        counts["composition nonzero"] += bool(right)
    assert (counts["trace nonzero"] >= 300
            and counts["composition nonzero"] >= 400
            and counts["bytes"] >= 30), counts


@st.composite
def identity_operands(draw):
    spec = draw(st.sampled_from(IDENTITY_SURFACES))
    letters = st.tuples(st.sampled_from(spec.generators()),
                        st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=5).map(
        lambda w: FreeWord(w).reduce())

    def path_sum(from_tag, to_tag):
        return PathSum(spec, from_tag, to_tag, [
            (Path(from_tag, to_tag, draw(words)), draw(st.sampled_from(
                COEFFS))) for _ in range(draw(st.integers(1, 2)))])

    s = draw(st.sampled_from(spec.tags))
    others = [t for t in spec.tags if t != s]
    off = (draw(st.sampled_from(others)), draw(st.sampled_from(others))
           ) if others else None
    return (draw(st.sampled_from(CONVENTIONS)), closure(path_sum(s, s)),
            path_sum(s, s), path_sum(s, s), off and path_sum(*off))


@IDENTITY_PROPERTY
@given(identity_operands())
def test_trace_and_composition_property(operands):
    convention, u, gamma, alpha, off_gamma = operands
    left, right = trace_sides(u, gamma, convention)
    assert left == right
    if off_gamma is not None:
        left, right = composition_sides(alpha, off_gamma, convention)
        assert left == right


# -- grouped crossings -------------------------------------------------------

RUN_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def shared_run_operands(draw):
    """A surface, a convention and two words sharing runs (see
    related_letters), drawn letter by letter."""
    spec = draw(st.sampled_from(RUN_SURFACES))
    letters = st.tuples(st.sampled_from(run_bases(spec)),
                        st.sampled_from((1, -1)))
    x = old_cyclic_normal_form(draw(st.lists(letters, min_size=3,
                                             max_size=7))).word
    if not x:
        x = (draw(letters),)
    kind = draw(st.sampled_from(RUN_KINDS))
    y = related_letters(kind, list(x), draw(st.integers(0, len(x) - 1)),
                        draw(st.integers(2, max(2, len(x)))),
                        draw(st.lists(letters, max_size=4)))
    coeffs = [draw(st.sampled_from(COEFFS)) for _ in range(3)]
    return draw(st.sampled_from(CONVENTIONS)), run_operands(spec, list(x),
                                                            y, coeffs)


@RUN_PROPERTY
@given(shared_run_operands())
def test_shared_runs_match_per_crossing_code(operands):
    convention, (u, v, gamma, alpha, empty) = operands
    check_run_operands(u, v, gamma, alpha, empty, convention)


GROUPING_SEED = 3535
# the benchmark's bracket shape: two-term sums of six-letter classes
GROUPING_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 2),
                     SurfaceSpec(0, 3), SurfaceSpec(1, 3), SurfaceSpec(0, 4))


class Splices:
    """The splices the surgeries make: every call of a bracket term, and
    every reduced_product, two per splice of the action or the pairing."""

    def __init__(self):
        self.bracket = self.products = 0

    def splicer(self, a, b):
        term = splice_normal_form(a, b)

        def counted(i, j):
            self.bracket += 1
            return term(i, j)
        return counted

    def product(self, x, y):
        self.products += 1
        return reduced_product(x, y)


@pytest.fixture
def splices(monkeypatch):
    counter = Splices()
    monkeypatch.setattr(goldman, "splice_normal_form", counter.splicer)
    monkeypatch.setattr(goldman, "reduced_product", counter.product)
    return counter


def six_letter_sum(rng, spec):
    return LoopSum(spec, [(old_cyclic_normal_form(
        cyclic_letters(rng, spec, 6)), rng.choice(COEFFS)) for _ in range(2)])


def test_bracket_splices_each_run_start_once(splices):
    """Grouping by shared runs is not a no-op: over seeded brackets the
    bracket splices at most 70% as often as its pairs of terms cross,
    while the action and the pairing splice once per crossing."""
    rng = random.Random(GROUPING_SEED)
    crossings = 0
    for case in range(60):
        spec = GROUPING_SURFACES[case % len(GROUPING_SURFACES)]
        u, v = six_letter_sum(rng, spec), six_letter_sum(rng, spec)
        crossings += sum(c for c, _ in splice_counts(u, v, "default"))
        goldman_bracket(u, v)
    assert crossings >= 3000 and splices.bracket <= 0.7 * crossings, (
        splices.bracket, crossings)
    path_crossings = 0
    for case in range(60):
        spec = GROUPING_SURFACES[case % len(GROUPING_SURFACES)]
        x = cyclic_letters(rng, spec, 6)
        u = LoopSum(spec, [(old_cyclic_normal_form(x), 1)])
        gamma = PathSum(spec, 0, 0, [(Path(0, 0, FreeWord(x[1:] + x)), 1)])
        operands = [(kk_action, u, gamma)]
        if spec.boundary >= 3:
            operands.append((bi_pairing, gamma, PathSum(spec, 1, 2, [
                (Path(1, 2, FreeWord(x + x[:3])), 1)])))
        for surgery, left, right in operands:
            path_crossings += sum(len(c) for *_, c in per_pair_crossings(
                left, right, "default")[1])
            surgery(left, right)
    assert splices.products == 2 * path_crossings >= 6000


def test_trace_lists_both_crossings_of_a_bigon():
    """crossing_trace reports every raw crossing, the two of each bigon
    pair too, while the bracket keeps none of the classes they cancel."""
    spec = SurfaceSpec(1, 1)
    a = old_cyclic_normal_form(parse_word("a1 b1 a1' b1'"))
    b = old_cyclic_normal_form(parse_word("a1 a1 b1 b1"))
    u, v = LoopSum(spec, [(a, 1)]), LoopSum(spec, [(b, 1)])
    trace = crossing_trace(spec, a, b)
    (crossings, counts), = splice_counts(u, v, "default")
    bracket = goldman_bracket(u, v)
    assert len(trace) == crossings == 6 > len(bracket.terms)
    assert sorted(record["sign"] for record in trace) == [-1] * 3 + [1] * 3
    cancelled = {cls for cls, count in counts.items() if count == 0}
    assert len(cancelled) == 3 and not cancelled & set(bracket.terms)


SURGERY_COUNTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "surgery_counts.py")


def test_surgery_counts_tool():
    """tools/surgery_counts.py on the seed-1 surgery round (run apart: it
    re-imports the engine): the bracket keeps its 19,092 output terms and
    splices at most 70% as often as it crosses; the action and the
    pairing splice once per crossing."""
    out = subprocess.run([sys.executable, SURGERY_COUNTS, "--seed", "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = {cells[0]: [int(c) for c in cells[1:]] for cells in (
        [c.strip() for c in line.strip("|").split("|")]
        for line in out.splitlines() if line.startswith("| ")
        and not line.startswith("| surgery"))}
    calls, crossings, splices, terms = rows["goldman_bracket"]
    assert (calls, terms) == (648, 19092) and splices <= 0.7 * crossings
    for name in ("kk_action", "bi_pairing"):
        calls, crossings, splices, terms = rows[name]
        assert calls and splices == crossings, (name, rows[name])
    assert rows["all"] == [sum(r[k] for n, r in rows.items() if n != "all")
                           for k in range(4)]
