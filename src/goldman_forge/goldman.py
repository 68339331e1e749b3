"""Loop surgery on a one-vertex ribbon model: bracket, action, pairings.

Free homotopy classes and boundary-to-boundary paths are drawn as taut
chord families inside the single vertex disk; where the two operands
pass one edge their strands take its two sides, crossings are read off
from endpoint alternation around the disk, and each crossing contributes
one surgered term with an orientation sign.  A chord is a tuple of two
int end keys and a split (see _chords).  Everything downstream (Goldman
bracket, loop action on paths, the two-path pairing, induced
derivations, Dehn-twist certificates) is a bilinear wrapper over that
one enumeration, ``_surgeries``, which reads chord ends from one table
per surface and convention (_chord_ends, as crossing_trace does); each
sums the crossing signs times int coefficient numerators per coded
output word (each term coded once per call, _codes, so a class enters
as its key) over one denominator, and builds each output term once.
In the bracket, crossings along a run both loops share splice alike
(s the shared letter: s P s Q ~ P s Q s, P s s^-1 R = P R ~ s P R s^-1),
so _tally sums their signs first, and the bigon pairs of inessential
crossings (Goldman 1986) cancel unspliced.
"""

import functools
from fractions import Fraction
from math import comb, factorial

from .magnus import default_expansion, necklace_project, tensor_letter
from .surface import (
    FreeWord,
    LoopClass,
    Path,
    cyclic_normal_form,
    key_letters,
    letter_key,
    reduced_product,
    render_word,
    ribbon_structure,
    splice_normal_form,
    tail_dart,
    word_key,
)
from .tensoralg import Derivation, TensorSeries, TermSum, lie_bracket

__all__ = [
    "LoopSum",
    "PathSum",
    "PathPairSum",
    "sum_text",
    "goldman_bracket",
    "kk_action",
    "bi_pairing",
    "kk_derivation",
    "adams",
    "expand_loop_sum",
    "expand_path_sum",
    "dehn_twist",
    "twist_curve_names",
    "twist_derivation",
    "crossing_trace",
    "CONVENTIONS",
]

CONVENTIONS = ("default", "reversed")


class LoopSum(TermSum):
    """Rational combination of free loop classes, with a twist counter."""

    __slots__ = ("spec", "twist")

    def __init__(self, spec, terms=None, twist=0):
        self.spec = spec
        self.twist = twist
        super().__init__(terms)

    @classmethod
    def of(cls, spec, word, coeff=1):
        """Single class from a FreeWord of spec's letters (normalized here)."""
        spec.validate_word(word)
        return cls(spec, [(cyclic_normal_form(word), coeff)])

    def _sort_key(self, loop_class):
        return _word_key_letters(loop_class.word)

    def augmentation(self):
        """The sum of the coefficients, the augmentation of Q[pi]."""
        return sum(self.terms.values(), Fraction(0))

    def reduced(self):
        """Subtract the augmentation multiple of the trivial class."""
        out = self.copy()
        out.add_term(LoopClass(()), -self.augmentation())
        return out

    def to_json(self):
        return {
            "surface": {"genus": self.spec.genus, "boundary": self.spec.boundary},
            "twist": self.twist,
            "terms": [{"word": str(cls), "coeff": str(coeff)}
                      for cls, coeff in self.sorted_terms()],
        }

    def _spell(self, loop_class):
        return "|%s|" % (loop_class,)

    def __repr__(self):
        return "<LoopSum tw=%d: %s>" % (self.twist, sum_text(self, 6))


class PathSum(TermSum):
    """Rational combination of paths sharing endpoint tags of spec."""

    __slots__ = ("spec", "from_tag", "to_tag", "twist")

    def __init__(self, spec, from_tag, to_tag, terms=None, twist=0):
        if not {from_tag, to_tag} <= set(spec.tags):
            raise ValueError("path tags %r->%r are not boundary tags 0..%d"
                             % (from_tag, to_tag, spec.boundary - 1))
        self.spec = spec
        self.from_tag = from_tag
        self.to_tag = to_tag
        self.twist = twist
        super().__init__(terms)

    @classmethod
    def of(cls, spec, path, coeff=1):
        spec.validate_word(path.word)
        return cls(spec, path.from_tag, path.to_tag, [(path, coeff)])

    def add_term(self, path, coeff):
        if path.from_tag != self.from_tag or path.to_tag != self.to_tag:
            raise ValueError("path endpoints %s->%s do not match sum %s->%s"
                             % (path.from_tag, path.to_tag,
                                self.from_tag, self.to_tag))
        TermSum.add_term(self, path, coeff)

    def _sort_key(self, path):
        return _word_key_letters(path.word.letters)

    def to_json(self):
        return {
            "surface": {"genus": self.spec.genus, "boundary": self.spec.boundary},
            "from": self.from_tag,
            "to": self.to_tag,
            "twist": self.twist,
            "terms": [{"word": render_word(p.word), "coeff": str(c)}
                      for p, c in self.sorted_terms()],
        }

    def _spell(self, path):
        return "(%s)" % render_word(path.word)

    def __repr__(self):
        return "<PathSum %s->%s tw=%d: %s>" % (self.from_tag, self.to_tag,
                                               self.twist, sum_text(self, 6))


class PathPairSum(TermSum):
    """Rational combination of ordered path pairs (the two-path pairing)."""

    __slots__ = ("spec", "twist")

    def __init__(self, spec, twist=0):
        self.spec = spec
        self.twist = twist
        super().__init__()

    def _sort_key(self, pair):
        return (_word_key_letters(pair[0].word.letters),
                _word_key_letters(pair[1].word.letters))

    def to_json(self):
        return {
            "surface": {"genus": self.spec.genus, "boundary": self.spec.boundary},
            "twist": self.twist,
            "terms": [{
                "left": {"from": l.from_tag, "to": l.to_tag,
                         "word": render_word(l.word)},
                "right": {"from": r.from_tag, "to": r.to_tag,
                          "word": render_word(r.word)},
                "coeff": str(c),
            } for (l, r), c in self.sorted_terms()],
        }

    def _spell(self, pair):
        return "x".join("(%d->%d: %s)" % (p.from_tag, p.to_tag,
                                          render_word(p.word)) for p in pair)

    def __repr__(self):
        return "<PathPairSum tw=%d: %s>" % (self.twist, sum_text(self, 4))


def sum_text(s, limit=None):
    """'coeff term + ...' over the first limit sorted terms of a loop,
    path or path-pair sum, each term spelled by its class; "0" if none."""
    return " + ".join("%s %s" % (c, s._spell(key))
                      for key, c in s.sorted_terms()[:limit]) or "0"


def _word_key_letters(letters):
    return (len(letters), tuple(letter_key(l) for l in letters))


# -- the chord ends ------------------------------------------------------

def _dart_name(dart):
    base, e = dart
    return base if base[0] == "t" else base + ("+" if e > 0 else "-")


def _chords(item, ins, outs):
    """item's chords from the keys where it enters each stop (ins, at the
    dart's reverse) and leaves it (outs).  Chord j, (in key, out key,
    split), runs from stop j to stop j+1, cyclically for a loop, and
    splits the word there: a loop's splits 1..n-1, 0; tail to tail on a
    path; none on the identity path."""
    if isinstance(item, LoopClass):
        return [*zip(ins, outs[1:], range(1, len(outs))),
                (ins[-1], outs[0], 0)] if ins else []
    if item.is_identity():
        return []
    return [*zip(ins, outs[1:], range(len(outs) - 1))]


def _codes(item, byte_keyed):
    """The coded word of a LoopClass or Path, one code per surface: if
    byte_keyed, a class's key as it stands and a path's word_key, else
    the tuple of letter_keys."""
    if not byte_keyed:
        return tuple(map(letter_key, item.word))
    if item.__class__ is LoopClass:
        return item.key
    return word_key(item.word.letters)


def _coded_chords(item, byte_keyed, ends):
    """(its _codes word, its _chords keyed by ends, one operand's maps of
    _chord_ends) of a LoopClass or Path; a path also stops at its tails."""
    x = stops = _codes(item, byte_keyed)
    if item.__class__ is not LoopClass:
        stops = (letter_key(tail_dart(item.from_tag)), *x,
                 letter_key(tail_dart(item.to_tag)))
    ins, outs = ends
    return x, _chords(item, [*map(ins.__getitem__, stops)],
                      [*map(outs.__getitem__, stops)])


@functools.lru_cache(maxsize=64)
def _chord_ends(spec, convention):
    """Per operand, the maps from the code of a stop (a letter, or a
    tail as _coded_chords codes it) to the key of a chord end entering
    it (at its dart's reverse) and leaving it; cached per (spec,
    convention), never mutated.  Key 2 * slot + side.  Side rule: at a
    dart both operands pass, strands keep their order through the edge,
    seen the opposite way round from its other end, so the first
    operand's is the lower (side 0) at a positive dart or a tail and the
    upper at a negative one; "reversed" swaps them.  Exact: _crossings
    reads only the order of the four ends of one chord of each operand,
    which the slots and the side rule fix (ends of different operands
    never tie, nor do both ends of a chord share a dart: words are
    reduced), so how one operand's own strands rank never enters.
    Oracle: tests/helpers._draw, which ranks every strand."""
    slot, flip = ribbon_structure(spec), convention == "reversed"
    code = ((lambda dart: word_key((dart,))[0]) if spec.byte_keyed
            else letter_key)            # a tail's code is its letter_key
    keys = [{(base, e): 2 * s + (side ^ (e < 0) ^ flip)
             for (base, e), s in slot.items()} for side in (False, True)]
    return [({code(d): key[(d[0], -d[1])] for d in key},
             {code(d): k for d, k in key.items()}) for key in keys]


def _crossings(left_chords, right_chords):
    """(sign, left chord, right chord) at every crossing of two chord
    lists keyed by one _chord_ends table.

    Sign rule, with disk positions increasing counterclockwise: a right
    chord crosses the left chord from a to b when exactly one of its
    ends lies on the open counterclockwise arc from a to b, with sign +1
    when that end is where the right chord enters and -1 otherwise.
    Crossings come in list order, left chord major."""
    for pu in left_chords:
        a, b, _ = pu
        if a < b:
            for pv in right_chords:
                sign = (a < pv[0] < b) - (a < pv[1] < b)
                if sign:
                    yield sign, pu, pv
        else:
            for pv in right_chords:
                sign = (b < pv[1] < a) - (b < pv[0] < a)
                if sign:
                    yield sign, pu, pv


# -- the surgeries -------------------------------------------------------

def _surgeries(u, v, convention):
    """Every pair of terms of two sums on one surface, with its crossings.

    Checks the surfaces and the convention first, so that a zero sum
    raises too, then codes each term once and builds the chords of u's
    terms and of v's from _chord_ends (_coded_chords; not at all if
    either sum is zero).  Returns (den, records): den is the lcm of u's
    coefficient denominators times the lcm of v's, and records yields
    one record per pair of terms, (n, a, x, b, y, crossings), where n is
    the int with coeff_a * coeff_b == n / den, x and y are the coded
    words of a and b, and crossings iterates the (sign, chord of a,
    chord of b) of ``_crossings``, as crossing_trace(spec, a, b) lists
    them under the default convention.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown perturbation convention %r" % (convention,))
    if u.spec != v.spec:
        raise ValueError("operands live on different surfaces")
    den_u, num_u = u.numerators()
    den_v, num_v = v.numerators()
    if not (num_u and num_v):
        return den_u * den_v, ()
    byte_keyed = u.spec.byte_keyed
    left, right = [[_coded_chords(t, byte_keyed, ends) for t, _ in nums]
                   for nums, ends in zip((num_u, num_v),
                                         _chord_ends(u.spec, convention))]
    records = ((na * nb, a, x, b, y, _crossings(ca, cb))
               for (a, na), (x, ca) in zip(num_u, left)
               for (b, nb), (y, cb) in zip(num_v, right))
    return den_u * den_v, records


def _tally(like, surgeries, splice, build):
    """The surgered terms of (den, records) from _surgeries, as a sum of
    the empty sum like's fields.

    splice(x, y) gets the coded words of a pair of terms, as the records
    carry them, so that one output word is one totals key.  It returns
    the map (split i of x, split j of y) -> coded output word or pair.
    In the bracket, with s the letter before split i of x, (i, j) splices
    as (i-1, j-1) if s also precedes split j of y (s P s Q ~ P s Q s), and
    as (i-1, j+1) if s^-1 follows it (P s s^-1 R = P R ~ s P R s^-1):
    signs summed per run start (at most len(x) steps back, cyclically)
    are exact, and a bigon's cancel unspliced.  Pairs with len(x) * len(y)
    under 12, and the path surgeries, whose splices cost less, splice each
    crossing: there grouping costs more than it saves.
    build(outs) makes the terms of the outputs with a nonzero total, in
    order, once each; with_totals keeps the totals over den, unchecked:
    terms carry the operands' tags."""
    loops = like.__class__ is LoopSum
    den, records = surgeries
    totals = {}
    for n, _, x, _, y, crossings in records:
        term, lx, ly = splice(x, y), len(x), len(y)
        if not loops or lx * ly < 12:
            for sign, (_, _, i), (_, _, j) in crossings:
                w = term(i, j)
                totals[w] = totals.get(w, 0) + sign * n
            continue
        starts = {}
        for sign, (_, _, i), (_, _, j) in crossings:
            t = lx
            while t and (d := -1 if x[i - 1] == y[j - 1] else
                         1 if x[i - 1] == y[j] ^ 1 else 0):
                i, j, t = (i - 1) % lx, (j + d) % ly, t - 1
            key = i * ly + j
            starts[key] = starts.get(key, 0) + sign
        for key, sign in starts.items():
            if sign:
                w = term(*divmod(key, ly))
                totals[w] = totals.get(w, 0) + sign * n
    outs = [w for w, total in totals.items() if total]
    return like.with_totals(den, zip(build(outs),
                                     map(totals.__getitem__, outs)))


def goldman_bracket(u, v, convention="default"):
    """Bilinear loop bracket: signed resmoothings at each crossing."""
    out = LoopSum(u.spec, twist=u.twist + v.twist + 1)
    # a tuple of letter_keys is re-keyed: bytes where its letters allow
    return _tally(out, _surgeries(u, v, convention), splice_normal_form,
                  lambda outs: map(LoopClass.of_key, outs if u.spec.byte_keyed
                                   else map(word_key, map(key_letters, outs))))


def kk_action(u, gamma, convention="default"):
    """Loop sum acting on a path sum: insert the rebased loop at each
    crossing between the loop and the path."""
    def splice(x, w):
        m, x = len(x), x + x
        return lambda i, k: reduced_product(
            reduced_product(w[:k], x[i:i + m]), w[k:])

    def build(outs):
        return (Path(gamma.from_tag, gamma.to_tag,
                     FreeWord.trusted(key_letters(w))) for w in outs)
    out = PathSum(gamma.spec, gamma.from_tag, gamma.to_tag,
                  twist=u.twist + gamma.twist + 1)
    return _tally(out, _surgeries(u, gamma, convention), splice, build)


def bi_pairing(gamma1, gamma2, convention="default"):
    """Signed exchange pairing of two path sums with disjoint endpoints."""
    tags1 = {gamma1.from_tag, gamma1.to_tag}
    tags2 = {gamma2.from_tag, gamma2.to_tag}
    if tags1 & tags2:
        raise ValueError("path endpoint tags must be disjoint, got %s and %s"
                         % (sorted(tags1), sorted(tags2)))
    surgeries = _surgeries(gamma1, gamma2, convention)
    def splice(w1, w2):
        return lambda c1, c2: (reduced_product(w1[:c1], w2[c2:]),
                               reduced_product(w2[:c2], w1[c1:]))
    out = PathPairSum(gamma1.spec, twist=gamma1.twist + gamma2.twist + 1)
    return _tally(out, surgeries, splice, lambda outs: (tuple(
        Path(s, t, FreeWord.trusted(key_letters(w)))
        for s, t, w in ((gamma1.from_tag, gamma2.to_tag, words[0]),
                        (gamma2.from_tag, gamma1.to_tag, words[1])))
        for words in outs))


def crossing_trace(spec, left, right):
    """Debug view: every default-convention crossing, sign and chords.

    left and right are LoopClass or Path values; the trace lists the raw
    crossings of the chords the surgeries read (_coded_chords), before
    any normalization collapses terms.  A chord shows its owner (operand
    tag, chord index) and [dart, side] at each end, divmod(key, 2): side
    0 is the lower strand through the dart and 1 the upper.
    """
    if not all(isinstance(item, (LoopClass, Path)) for item in (left, right)):
        raise TypeError("surgery operands must be LoopClass or Path values")
    slot = ribbon_structure(spec)
    darts = sorted(slot, key=slot.get)
    chords = [_coded_chords(item, spec.byte_keyed, ends)[1] for item, ends
              in zip((left, right), _chord_ends(spec, "default"))]
    index = [{chord: j for j, chord in enumerate(cs)} for cs in chords]

    def passage(tag, chord):
        (i, si), (o, so) = divmod(chord[0], 2), divmod(chord[1], 2)
        return {"owner": [tag, index[tag][chord]],
                "in": [_dart_name(darts[i]), si],
                "out": [_dart_name(darts[o]), so]}
    return [{"sign": sign, "left": passage(0, pu), "right": passage(1, pv)}
            for sign, pu, pv in _crossings(*chords)]


# -- classes, powers, logarithms ----------------------------------------

def adams(n, u):
    """n-th power map on classes, extended linearly; n=0 hits the unit."""
    if n < 0:
        raise ValueError("power maps are indexed by n >= 0")
    out = LoopSum(u.spec, twist=u.twist)
    for cls, coeff in u.terms.items():
        # w^n is canonical if w is; b"" keys the trivial class
        out.add_term(LoopClass.of_key(cls.key * n if n else b""), coeff)
    return out


def expand_loop_sum(u, theta):
    """Necklace expansion of a loop sum (twist carried over).

    The trace projection is linear, so projecting the one combination
    sum_c coeff_c theta(c) of the expanded class words is exact: it
    equals the sum of the projected expansions, and each distinct word
    is rotated once however many classes produce it.
    """
    return necklace_project(TensorSeries.combination(
        theta.sig, theta.trunc,
        ((coeff, theta.expand_word(cls.free_word()))
         for cls, coeff in u.terms.items())), twist=u.twist)


def expand_path_sum(gamma, theta):
    """Tensor-series expansion of a path sum through the fixed rails,
    as one combination."""
    return TensorSeries.combination(
        theta.sig, theta.trunc,
        ((coeff, theta.expand_word(path.word))
         for path, coeff in gamma.terms.items()))


# -- induced derivations -------------------------------------------------

def _dexp_inverse(x, y):
    """D(x) from y = e^(-x) D(e^x), as sum_n a_n ad_x^n (y): a_n = B_n^+ / n!
    (1, 1/2, 1/12, 0, ...) inverts (1 - e^(-z))/z = sum_k (-z)^k/(k+1)!
    term by term.  x has no constant term, so the brackets run out."""
    coeffs, parts, term = [], [], y
    while not term.is_zero():
        n = len(coeffs)
        coeffs.append(int(n == 0) - sum(
            Fraction((-1) ** k, factorial(k + 1)) * coeffs[n - k]
            for k in range(1, n + 1)))
        parts.append((coeffs[n], term))
        term = lie_bracket(x, term)
    return TensorSeries.combination(y.sig, y.trunc, parts)


def kk_derivation(u, trunc):
    """The derivation a loop sum induces on the truncated tensor algebra.

    Generator images are chosen so that on group-likes the derivation
    reproduces the expanded action: D(theta(g)) = theta(kk_action(u, g))
    for every surface generator g based at boundary tag 0.  With
    x = log theta(g), y = e^(-x) D(e^x) is one combination of theta(g^-1 p)
    over the paths p of kk_action(u, g); D(x) is the Bernoulli series of
    ad_x on y, exactly: dexp_X(Y) = e^X ((1 - e^(-ad X))/ad X)(Y) for all Y
    in the completed algebra, ad_x raises weighted degree (so terms past
    n = trunc vanish even when y has a constant term, which makes D lower
    degree: see the Derivation notes), and truncation is a ring map.
    """
    spec = u.spec
    theta = default_expansion(spec, trunc)
    images = {}
    for base in spec.generators():
        gen = FreeWord(((base, 1),))
        acted = kk_action(u, PathSum.of(spec, Path(0, 0, gen)))
        y = TensorSeries.combination(theta.sig, trunc, (
            (coeff, theta.expand_word(gen.inverse() * path.word))
            for path, coeff in acted.terms.items()))
        images[tensor_letter(base)] = _dexp_inverse(theta.logs[base], y)
    return Derivation(theta.sig, trunc, images)


# -- Dehn twist fixtures -------------------------------------------------

# moved -> moved * companion^eps, identity elsewhere: a twist about companion
_TWIST_TABLES = {
    (1, 1): {
        "ta": ("b1", "a1", 1),
        "tb": ("a1", "b1", -1),
    },
    (2, 1): {
        "ta1": ("b1", "a1", 1),
        "tb1": ("a1", "b1", -1),
        "ta2": ("b2", "a2", 1),
        "tb2": ("a2", "b2", -1),
    },
}


def twist_curve_names(spec):
    table = _TWIST_TABLES.get((spec.genus, spec.boundary))
    return sorted(table) if table else []


def _twist_entry(spec, curve):
    table = _TWIST_TABLES.get((spec.genus, spec.boundary))
    if not table or curve not in table:
        raise ValueError("no twist fixture %r on genus %d with %d boundary "
                         "components" % (curve, spec.genus, spec.boundary))
    return table[curve]


def dehn_twist(spec, curve, word, power=1):
    """Image of a word under a tabulated twist automorphism."""
    moved, companion, eps = _twist_entry(spec, curve)
    if power < 0:
        eps = -eps
    image = {1: ((moved, 1), (companion, eps)),
             -1: ((companion, -eps), (moved, -1))}
    out = word
    for _ in range(abs(power)):
        letters = []
        for base, e in out.letters:
            if base == moved:
                letters.extend(image[e])
            else:
                letters.append((base, e))
        out = FreeWord(letters).reduce()
    return out


def twist_derivation(spec, curve, trunc):
    """Square-of-logarithm lift of a twist curve, as a derivation.

    The class-level lift of half the squared log of alpha, the companion:
      L = 1/2 sum_{r>=2} (-1)^r h_r sum_k C(r,k) (-1)^(r-k) |alpha^k|,
      h_r = sum_{n=1}^{r-1} 1/(n(r-n)),
    truncated at r = trunc+2 (the action shifts degree by two), then
    pushed through kk_derivation.  The exponential of the result must
    reproduce the tabulated twist automorphism on generator images.
    """
    alpha = (_twist_entry(spec, curve)[1], 1)
    lift = LoopSum(spec)
    for r in range(2, trunc + 3):
        h_r = sum(Fraction(1, n * (r - n)) for n in range(1, r))
        for k in range(r + 1):
            coeff = Fraction((-1) ** r * comb(r, k) * (-1) ** (r - k), 2)
            lift.add_term(cyclic_normal_form((alpha,) * k), coeff * h_r)
    return kk_derivation(lift, trunc)
