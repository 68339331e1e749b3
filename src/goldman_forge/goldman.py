"""Loop surgery on a one-vertex ribbon model: bracket, action, pairings.

Free homotopy classes and boundary-to-boundary paths are drawn as taut
chord families inside the single vertex disk; parallel strands through
an edge are separated by a deterministic rule, crossings are read off
from endpoint alternation around the disk, and each crossing contributes
one surgered term with an orientation sign.  A chord is a tuple of two
int end keys and a split (see _draw).  Everything downstream (Goldman
bracket, loop action on paths, the two-path pairing, induced
derivations, Dehn-twist certificates) is a bilinear wrapper over that
one enumeration, ``_surgeries``, which draws the terms of both operands
once per call; each sums the crossing signs times int coefficient
numerators per coded output word (one code per call, surface.word_key's
wherever the surface allows it, so a class enters as its key) over one
denominator, and builds each output term once, a loop class from its key.
In the bracket, crossings along a run both loops share splice alike
(s the shared letter: s P s Q ~ P s Q s, P s s^-1 R = P R ~ s P R s^-1),
so _tally sums their signs first, and the bigon pairs of inessential
crossings (Goldman 1986) cancel unspliced.
"""

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


# -- the chord drawing ---------------------------------------------------

def _dart_name(dart):
    base, e = dart
    return base if base[0] == "t" else base + ("+" if e > 0 else "-")


def _stops(item):
    """The darts a LoopClass or Path stops at, in traversal order: a
    loop's letters, a path's letters between the tails of its two tags."""
    if isinstance(item, LoopClass):
        return list(item.word)
    if isinstance(item, Path):
        return ([tail_dart(item.from_tag)] + list(item.word.letters)
                + [tail_dart(item.to_tag)])
    raise TypeError("surgery operands must be LoopClass or Path values")


def _draw(slot, items, convention):
    """(width, one chord list per operand), under one perturbation rule;
    slot is the dart-position map of ribbon_structure.

    Strands through one edge or tail are ranked by (operand tag, stop
    position); the rank is the offset from the edge's left side seen
    from the positive dart, so the offset reverses at the negative dart.
    Any two items' ends thus keep the order a drawing of those two alone
    gives them, and _crossings compares nothing else: one drawing of
    many items has the crossings of every pair.
    The "reversed" convention ranks in the opposite order; outputs of
    the surgeries must not depend on the choice.  The end at a dart
    with an offset has the int key slot[dart] * width + offset; width,
    the number of stops, exceeds every offset, so keys order the ends
    as the pairs (slot[dart], offset) do.  Chord j of an operand is
    (in key, out key, split): it runs from stop j, entering at the
    reverse of that stop's dart, to stop j+1 (cyclically for a loop),
    and splits the word at the position of that second stop.
    """
    stops = [_stops(item) for item in items]
    darts = [dart for item_stops in stops for dart in item_stops]
    width = len(darts)
    strands = {}
    for g, (base, _e) in enumerate(darts):
        strands.setdefault(base, []).append(g)
    ins, outs = [0] * width, [0] * width
    for base, through in strands.items():
        # g runs over the stops in (tag, position) order: ranked already
        if convention == "reversed":
            through.reverse()
        last = len(through) - 1
        for r, g in enumerate(through):
            e = darts[g][1]
            # a tail (e == 0) is its own reverse, at offset r both ways
            outs[g] = slot[(base, e)] * width + (r if e >= 0 else last - r)
            ins[g] = slot[(base, -e)] * width + (r if e <= 0 else last - r)
    chords, end = [], 0
    for item, item_stops in zip(items, stops):
        start, end = end, end + len(item_stops)
        starts, ends = ins[start:end], outs[start:end]
        if isinstance(item, LoopClass):
            legs = zip(starts, ends[1:] + ends[:1], [*range(1, len(ends)), 0])
        elif item.is_identity():
            legs = ()                   # identity path draws nothing
        else:
            legs = zip(starts[:-1], ends[1:], range(len(ends) - 1))
        chords.append(list(legs))
    return width, chords


def _crossings(left_chords, right_chords):
    """(sign, left chord, right chord) at every crossing of two chord
    lists of one _draw.

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
    raises too, then draws the terms of u and then of v as one item list,
    once (not at all if either sum is zero; exact, see _draw).  Returns
    (den, records): den is the lcm of u's coefficient denominators times
    the lcm of v's, and records yields one record per pair of terms,
    (n, a, b, crossings), where n is the int with
    coeff_a * coeff_b == n / den and crossings iterates the
    (sign, chord of a, chord of b) of ``_crossings``.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown perturbation convention %r" % (convention,))
    if u.spec != v.spec:
        raise ValueError("operands live on different surfaces")
    den_u, num_u = u.numerators()
    den_v, num_v = v.numerators()
    if not (num_u and num_v):
        return den_u * den_v, ()
    chords = _draw(ribbon_structure(u.spec), [*u.terms, *v.terms],
                   convention)[1]
    left, right = chords[:len(num_u)], chords[len(num_u):]
    records = ((na * nb, a, b, _crossings(ca, cb))
               for (a, na), ca in zip(num_u, left)
               for (b, nb), cb in zip(num_v, right))
    return den_u * den_v, records


def _tally(like, surgeries, splice, build):
    """The surgered terms of (den, records) from _surgeries, as a sum of
    the empty sum like's fields.

    splice(x, y) gets the words of a pair of terms in one code, chosen
    once per call so that one output word is one totals key: where every
    letter of the surface has a byte key, a class's key as it stands and
    a path's word_key, else each word's tuple of letter_keys.  It returns
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
    byte_keyed, loops = like.spec.byte_keyed, like.__class__ is LoopSum
    den, records = surgeries
    totals = {}
    for n, a, b, crossings in records:
        x, y = [(t.key if t.__class__ is LoopClass
                 else word_key(t.word.letters)) if byte_keyed
                else tuple(map(letter_key, t.word)) for t in (a, b)]
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

    left and right are LoopClass or Path values; the trace lists the
    raw crossings before any normalization collapses terms.  A chord
    shows its owner (operand tag, chord index) and, at each end, the
    dart and offset that divmod(key, width) gives back.
    """
    slot = ribbon_structure(spec)
    darts = sorted(slot, key=slot.get)
    width, chords = _draw(slot, (left, right), "default")
    index = [{chord: j for j, chord in enumerate(cs)} for cs in chords]

    def passage(tag, chord):
        (i, di), (o, do) = divmod(chord[0], width), divmod(chord[1], width)
        return {"owner": [tag, index[tag][chord]],
                "in": [_dart_name(darts[i]), di],
                "out": [_dart_name(darts[o]), do]}
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
