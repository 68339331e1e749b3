"""Loop surgery on a one-vertex ribbon model: bracket, action, pairings.

Free homotopy classes and boundary-to-boundary paths are drawn as taut
chord families inside the single vertex disk; parallel strands through
an edge are separated by a deterministic rule, crossings are read off
from endpoint alternation around the disk, and each crossing contributes
one surgered term with an orientation sign.  Everything downstream
(Goldman bracket, loop action on paths, the two-path pairing, induced
derivations, Dehn-twist certificates) is a bilinear wrapper over that
one enumeration, ``_surgeries``; each sums the crossing signs times int
coefficient numerators per output term, over one denominator per call.
"""

from fractions import Fraction
from functools import partial
from math import comb, factorial

from .magnus import default_expansion, necklace_project, tensor_letter
from .surface import (
    FreeWord,
    LoopClass,
    Path,
    cyclic_normal_form,
    letter_key,
    render_word,
    ribbon_structure,
    splice_normal_form,
)
from .tensoralg import Derivation, TensorSeries, TermSum, lie_bracket

__all__ = [
    "LoopSum",
    "PathSum",
    "PathPairSum",
    "Passage",
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

    _FIELDS = ("spec", "twist")

    def __init__(self, spec, terms=None, twist=0):
        self.spec = spec
        self.twist = twist
        super().__init__(terms)

    @classmethod
    def of(cls, spec, word, coeff=1):
        """Single class from a FreeWord (normalized here)."""
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

    def __repr__(self):
        body = " + ".join("%s |%s|" % (coeff, cls)
                          for cls, coeff in self.sorted_terms()[:6]) or "0"
        return "<LoopSum tw=%d: %s>" % (self.twist, body)


class PathSum(TermSum):
    """Rational combination of paths sharing endpoint tags."""

    __slots__ = ("spec", "from_tag", "to_tag", "twist")

    _FIELDS = ("spec", "from_tag", "to_tag", "twist")

    def __init__(self, spec, from_tag, to_tag, terms=None, twist=0):
        self.spec = spec
        self.from_tag = from_tag
        self.to_tag = to_tag
        self.twist = twist
        super().__init__(terms)

    @classmethod
    def of(cls, spec, path, coeff=1):
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
            "terms": [{"word": render_word(p.word) or "1", "coeff": str(c)}
                      for p, c in self.sorted_terms()],
        }

    def __repr__(self):
        body = " + ".join("%s (%s)" % (c, render_word(p.word) or "1")
                          for p, c in self.sorted_terms()[:6]) or "0"
        return "<PathSum %s->%s tw=%d: %s>" % (self.from_tag, self.to_tag,
                                               self.twist, body)


class PathPairSum(TermSum):
    """Rational combination of ordered path pairs (the two-path pairing)."""

    __slots__ = ("spec", "twist")

    _FIELDS = ("spec", "twist")

    def __init__(self, spec, terms=None, twist=0):
        self.spec = spec
        self.twist = twist
        super().__init__(terms)

    def _sort_key(self, pair):
        return (_word_key_letters(pair[0].word.letters),
                _word_key_letters(pair[1].word.letters))

    def to_json(self):
        return {
            "surface": {"genus": self.spec.genus, "boundary": self.spec.boundary},
            "twist": self.twist,
            "terms": [{
                "left": {"from": l.from_tag, "to": l.to_tag,
                         "word": render_word(l.word) or "1"},
                "right": {"from": r.from_tag, "to": r.to_tag,
                          "word": render_word(r.word) or "1"},
                "coeff": str(c),
            } for (l, r), c in self.sorted_terms()],
        }

    def __repr__(self):
        body = " + ".join(
            "%s (%s)x(%s)" % (c, render_word(l.word) or "1",
                              render_word(r.word) or "1")
            for (l, r), c in self.sorted_terms()[:4]) or "0"
        return "<PathPairSum tw=%d: %s>" % (self.twist, body)


def _word_key_letters(letters):
    return (len(letters), tuple(letter_key(l) for l in letters))


# -- the chord drawing ---------------------------------------------------

class Passage:
    """One traversal of the vertex disk by a drawn curve."""

    __slots__ = ("owner", "split", "in_dart", "in_sub", "in_key",
                 "out_dart", "out_sub", "out_key")

    def __init__(self, owner, split, in_end, out_end):
        self.owner = owner          # (operand tag, chord index)
        self.split = split          # surgery datum: rotation or cut index
        # each end is (dart, offset within the dart, position around the disk)
        self.in_dart, self.in_sub, self.in_key = in_end
        self.out_dart, self.out_sub, self.out_key = out_end

    def to_json(self):
        return {
            "owner": list(self.owner),
            "in": [_dart_name(self.in_dart), self.in_sub],
            "out": [_dart_name(self.out_dart), self.out_sub],
        }


def _dart_name(dart):
    base, e = dart
    if base[0] == "t":
        return base
    return base + ("+" if e > 0 else "-")


def _stops(ribbon, item):
    """(dart, position) stops of a LoopClass or Path, in traversal order.

    A loop stops at each letter; a path also starts and ends at the tails
    of its two tags, at positions -1 and len(word).
    """
    if isinstance(item, LoopClass):
        return [(letter, i) for i, letter in enumerate(item.word)]
    if isinstance(item, Path):
        letters = item.word.letters
        return ([(ribbon.tail(item.from_tag), -1)]
                + [(letter, k) for k, letter in enumerate(letters)]
                + [(ribbon.tail(item.to_tag), len(letters))])
    raise TypeError("surgery operands must be LoopClass or Path values")


def _draw(ribbon, items, convention):
    """One chord list per operand, under one perturbation rule.

    Strands through one edge or tail are ranked by (operand tag, stop
    position); the rank is the offset from the edge's left side seen
    from the positive dart, so the offset reverses at the negative dart.
    The "reversed" convention ranks in the opposite order; outputs of
    the surgeries must not depend on the choice.  Chord j of an operand
    runs from its stop j to its stop j+1 (cyclically for a loop) and
    splits the word at the position of that second stop.
    """
    stops = [_stops(ribbon, item) for item in items]
    visits = {}
    for tag, item_stops in enumerate(stops):
        for (base, _e), pos in item_stops:
            visits.setdefault(base, []).append((tag, pos))
    offset = {}
    for base, strands in visits.items():
        strands.sort(reverse=convention == "reversed")
        last = len(strands) - 1
        for r, (tag, pos) in enumerate(strands):
            offset[(base, tag, pos)] = (r, last - r)
    slot = ribbon.slot

    def end(dart, tag, pos):
        sub = offset[(dart[0], tag, pos)][dart[1] < 0]
        return dart, sub, (slot[dart], sub)

    chords = []
    for tag, (item, item_stops) in enumerate(zip(items, stops)):
        if isinstance(item, LoopClass):
            legs = zip(item_stops, item_stops[1:] + item_stops[:1])
        elif item.is_identity():
            legs = ()                   # identity path draws nothing
        else:
            legs = zip(item_stops, item_stops[1:])
        # a strand enters the disk at the reverse of the dart it left by
        chords.append([
            Passage((tag, j), out_pos,
                    end((in_dart[0], -in_dart[1]), tag, in_pos),
                    end(out_dart, tag, out_pos))
            for j, ((in_dart, in_pos), (out_dart, out_pos)) in enumerate(legs)])
    return chords


def _crossings(ribbon, left, right, convention):
    """(sign, left passage, right passage) at every crossing of two items.

    Sign rule, with disk positions increasing counterclockwise: a right
    chord crosses the left chord from a to b when exactly one of its
    ends lies on the open counterclockwise arc from a to b, with sign +1
    when that end is where the right chord enters and -1 otherwise."""
    left_chords, right_chords = _draw(ribbon, (left, right), convention)
    ends = [(pv.in_key, pv.out_key, pv) for pv in right_chords]
    for pu in left_chords:
        a, b = pu.in_key, pu.out_key
        if a < b:
            for vin, vout, pv in ends:
                sign = (a < vin < b) - (a < vout < b)
                if sign:
                    yield sign, pu, pv
        else:
            for vin, vout, pv in ends:
                sign = (b < vout < a) - (b < vin < a)
                if sign:
                    yield sign, pu, pv


# -- the surgeries -------------------------------------------------------

def _surgeries(u, v, convention):
    """Every pair of terms of two sums on one surface, with its crossings.

    Checks the surfaces and the convention now, so that a zero sum
    raises too, and builds the ribbon once.  Returns (den, records):
    den is the lcm of u's coefficient denominators times the lcm of
    v's, and records yields one record per pair of terms,
    (n, a, b, crossings), where n is the int with
    coeff_a * coeff_b == n / den and crossings iterates the
    (sign, passage of a, passage of b) of ``_crossings``.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown perturbation convention %r" % (convention,))
    if u.spec != v.spec:
        raise ValueError("operands live on different surfaces")
    ribbon = ribbon_structure(u.spec)
    den_u, num_u = u.numerators()
    den_v, num_v = v.numerators()
    records = ((na * nb, a, b, _crossings(ribbon, a, b, convention))
               for a, na in num_u for b, nb in num_v)
    return den_u * den_v, records


def _tally(like, surgeries, splice):
    """The surgered terms of (den, records) from _surgeries, as a sum of
    the empty sum like's fields.

    splice(a, b) is called once per pair of terms and returns the map
    (split of a, split of b) -> output term, so per-pair data such as
    letter keys is computed once, not at each crossing.  One int dict
    sums sign * n per output term over every pair; with_totals keeps
    the nonzero totals over den, unchecked: the terms carry the
    operands' own endpoint tags."""
    den, records = surgeries
    totals = {}
    for n, a, b, crossings in records:
        term = splice(a, b)
        for sign, pa, pb in crossings:
            key = term(pa.split, pb.split)
            totals[key] = totals.get(key, 0) + sign * n
    return like.with_totals(den, totals)


def goldman_bracket(u, v, convention="default"):
    """Bilinear loop bracket: signed resmoothings at each crossing."""
    def splice(a, b):
        la, lb = a.word, b.word
        return partial(splice_normal_form, la, list(map(letter_key, la)),
                       lb, list(map(letter_key, lb)))
    out = LoopSum(u.spec, twist=u.twist + v.twist + 1)
    return _tally(out, _surgeries(u, v, convention), splice)


def kk_action(u, gamma, convention="default"):
    """Loop sum acting on a path sum: insert the rebased loop at each
    crossing between the loop and the path."""
    def splice(a, path):
        w, wa = path.word.letters, a.word
        return lambda i, k: Path(gamma.from_tag, gamma.to_tag,
                                 FreeWord(w[:k] + wa[i:] + wa[:i] + w[k:]))
    out = PathSum(gamma.spec, gamma.from_tag, gamma.to_tag,
                  twist=u.twist + gamma.twist + 1)
    return _tally(out, _surgeries(u, gamma, convention), splice)


def bi_pairing(gamma1, gamma2, convention="default"):
    """Signed exchange pairing of two path sums with disjoint endpoints."""
    surgeries = _surgeries(gamma1, gamma2, convention)
    tags1 = {gamma1.from_tag, gamma1.to_tag}
    tags2 = {gamma2.from_tag, gamma2.to_tag}
    if tags1 & tags2:
        raise ValueError("path endpoint tags must be disjoint, got %s and %s"
                         % (sorted(tags1), sorted(tags2)))
    def splice(p1, p2):
        w1, w2 = p1.word.letters, p2.word.letters
        return lambda k1, k2: (
            Path(p1.from_tag, p2.to_tag, FreeWord(w1[:k1] + w2[k2:])),
            Path(p2.from_tag, p1.to_tag, FreeWord(w2[:k2] + w1[k1:])))
    out = PathPairSum(gamma1.spec, twist=gamma1.twist + gamma2.twist + 1)
    return _tally(out, surgeries, splice)


def crossing_trace(spec, left, right):
    """Debug view: every default-convention crossing, sign and passages.

    left and right are LoopClass or Path values; the trace lists the
    raw crossings before any normalization collapses terms.
    """
    return [{"sign": sign, "left": pu.to_json(), "right": pv.to_json()}
            for sign, pu, pv in _crossings(ribbon_structure(spec), left, right,
                                           "default")]


# -- classes, powers, logarithms ----------------------------------------

def adams(n, u):
    """n-th power map on classes, extended linearly; n=0 hits the unit."""
    if n < 0:
        raise ValueError("power maps are indexed by n >= 0")
    out = LoopSum(u.spec, twist=u.twist)
    for cls, coeff in u.terms.items():
        out.add_term(cyclic_normal_form(cls.word * n), coeff)
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
        images[tensor_letter(base)] = _dexp_inverse(theta.log_image(base), y)
    return Derivation(theta.sig, trunc, images)


# -- Dehn twist fixtures -------------------------------------------------

# image = generator * companion^eps; identity on everything else
_TWIST_TABLES = {
    (1, 1): {
        "ta": ("b1", "a1", 1, "a1"),
        "tb": ("a1", "b1", -1, "b1"),
    },
    (2, 1): {
        "ta1": ("b1", "a1", 1, "a1"),
        "tb1": ("a1", "b1", -1, "b1"),
        "ta2": ("b2", "a2", 1, "a2"),
        "tb2": ("a2", "b2", -1, "b2"),
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
    moved, companion, eps, _core = _twist_entry(spec, curve)
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

    The class-level lift of half the squared logarithm of the curve:
      L = 1/2 sum_{r>=2} (-1)^r h_r sum_k C(r,k) (-1)^(r-k) |alpha^k|,
      h_r = sum_{n=1}^{r-1} 1/(n(r-n)),
    truncated at r = trunc+2 (the action shifts degree by two), then
    pushed through kk_derivation.  The exponential of the result must
    reproduce the tabulated twist automorphism on generator images.
    """
    _moved, _companion, _eps, core = _twist_entry(spec, curve)
    alpha = (core, 1)
    lift = LoopSum(spec)
    for r in range(2, trunc + 3):
        h_r = sum(Fraction(1, n * (r - n)) for n in range(1, r))
        for k in range(r + 1):
            coeff = Fraction((-1) ** r * comb(r, k) * (-1) ** (r - k), 2)
            lift.add_term(cyclic_normal_form((alpha,) * k), coeff * h_r)
    return kk_derivation(lift, trunc)
