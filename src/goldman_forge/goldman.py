"""Loop surgery on a one-vertex ribbon model: bracket, action, pairings.

Free homotopy classes and boundary-to-boundary paths are drawn as taut
chord families inside the single vertex disk; parallel strands through
an edge are separated by a deterministic rule, crossings are read off
from endpoint alternation around the disk, and each crossing contributes
one surgered term with an orientation sign.  Everything downstream
(Goldman bracket, loop action on paths, the two-path pairing, induced
derivations, Dehn-twist certificates) is a bilinear wrapper over that
one enumeration.
"""

from fractions import Fraction
from math import comb

from .magnus import (
    CyclicSeries,
    NecklaceWord,
    default_expansion,
    necklace_project,
    tensor_letter,
)
from .surface import (
    FreeWord,
    LoopClass,
    Path,
    boundary_word,
    cyclic_normal_form,
    letter_key,
    render_word,
    ribbon_structure,
)
from .tensoralg import Derivation, TensorSeries, TermSum, log

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
    "log_class",
    "expand_loop_sum",
    "expand_path_sum",
    "boundary_class",
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
    def of(cls, spec, word, coeff=1, twist=0):
        """Single class from a FreeWord (normalized here)."""
        return cls(spec, [(cyclic_normal_form(word), coeff)], twist)

    def _sort_key(self, loop_class):
        return _word_key_letters(loop_class.word)

    def augmentation(self):
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
    def of(cls, spec, path, coeff=1, twist=0):
        return cls(spec, path.from_tag, path.to_tag, [(path, coeff)], twist)

    def add_term(self, path, coeff):
        if path.from_tag != self.from_tag or path.to_tag != self.to_tag:
            raise ValueError("path endpoints %s->%s do not match sum %s->%s"
                             % (path.from_tag, path.to_tag,
                                self.from_tag, self.to_tag))
        TermSum.add_term(self, path, coeff)

    def _sort_key(self, path):
        return _word_key_letters(path.word.letters)

    def augmentation(self):
        return sum(self.terms.values(), Fraction(0))

    def reduced(self):
        """Subtract the augmentation multiple of the bare connecting path."""
        out = self.copy()
        out.add_term(Path(self.from_tag, self.to_tag), -self.augmentation())
        return out

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

    __slots__ = ("owner", "in_dart", "in_sub", "out_dart", "out_sub", "split")

    def __init__(self, owner, in_dart, in_sub, out_dart, out_sub, split):
        self.owner = owner          # (operand tag, chord index)
        self.in_dart = in_dart      # dart or tail dart where the strand enters
        self.in_sub = in_sub
        self.out_dart = out_dart
        self.out_sub = out_sub
        self.split = split          # surgery datum: rotation or cut index

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


class _Operand:
    __slots__ = ("tag", "letters", "is_loop", "start", "end")

    def __init__(self, tag, letters, is_loop, start=None, end=None):
        self.tag = tag
        self.letters = tuple(letters)
        self.is_loop = is_loop
        self.start = start
        self.end = end


class _Chord:
    __slots__ = ("tag", "index", "in_key", "out_key", "split", "passage")

    def __init__(self, tag, index, in_key, out_key, split, passage):
        self.tag = tag
        self.index = index
        self.in_key = in_key
        self.out_key = out_key
        self.split = split
        self.passage = passage


def _draw(ribbon, operands, convention):
    """Chord families for the operands, under one perturbation rule.

    Strands of one edge are ranked by (operand tag, chord position);
    the rank is the offset from the edge's left side seen from the
    positive dart, so the offset reverses at the negative dart.  The
    "reversed" convention ranks in the opposite order; outputs of the
    surgeries must not depend on the choice.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown perturbation convention %r" % (convention,))
    slot = ribbon.slot

    edge_visits = {}
    tail_visits = {}
    for op in operands:
        for pos, (base, _e) in enumerate(op.letters):
            edge_visits.setdefault(base, []).append((op.tag, 0, pos))
        if not op.is_loop:
            tail_visits.setdefault(op.start, []).append((op.tag, 0, -1))
            tail_visits.setdefault(op.end, []).append(
                (op.tag, 0, len(op.letters)))

    reverse = convention == "reversed"
    rank = {}
    width = {}
    for base, visits in edge_visits.items():
        visits.sort(reverse=reverse)
        width[base] = len(visits)
        for r, (tag, occ, pos) in enumerate(visits):
            rank[(base, tag, pos)] = r
    tail_rank = {}
    for tag_point, visits in tail_visits.items():
        visits.sort(reverse=reverse)
        for r, (tag, occ, pos) in enumerate(visits):
            tail_rank[(tag_point, tag, pos)] = r

    def edge_key(base, dart_sign, tag, pos):
        r = rank[(base, tag, pos)]
        sub = r if dart_sign > 0 else width[base] - 1 - r
        return (slot[(base, dart_sign)], sub), (base, dart_sign), sub

    def tail_key(tag_point, tag, pos):
        dart = ribbon.tail(tag_point)
        sub = tail_rank[(tag_point, tag, pos)]
        return (slot[dart], sub), dart, sub

    chords = []
    for op in operands:
        letters = op.letters
        m = len(letters)
        if op.is_loop:
            for i in range(m):
                base_i, e_i = letters[i]
                base_j, e_j = letters[(i + 1) % m]
                in_key, in_dart, in_sub = edge_key(base_i, -e_i, op.tag, i)
                out_key, out_dart, out_sub = edge_key(
                    base_j, e_j, op.tag, (i + 1) % m)
                split = (i + 1) % m     # rebased loop starts at this letter
                passage = Passage((op.tag, i), in_dart, in_sub,
                                  out_dart, out_sub, split)
                chords.append(_Chord(op.tag, i, in_key, out_key, split,
                                     passage))
        else:
            if m == 0 and op.start == op.end:
                continue                # identity path draws nothing
            for k in range(m + 1):
                if k == 0:
                    in_key, in_dart, in_sub = tail_key(op.start, op.tag, -1)
                else:
                    base, e = letters[k - 1]
                    in_key, in_dart, in_sub = edge_key(base, -e, op.tag, k - 1)
                if k == m:
                    out_key, out_dart, out_sub = tail_key(op.end, op.tag, m)
                else:
                    base, e = letters[k]
                    out_key, out_dart, out_sub = edge_key(base, e, op.tag, k)
                passage = Passage((op.tag, k), in_dart, in_sub,
                                  out_dart, out_sub, k)
                chords.append(_Chord(op.tag, k, in_key, out_key, k, passage))
    return chords


def _cross_sign(u_chord, v_chord):
    """+1/-1 when the chords cross (ccw frame rule), 0 otherwise."""
    e1, e2 = u_chord.in_key, u_chord.out_key
    lo, hi = (e1, e2) if e1 < e2 else (e2, e1)
    vin, vout = v_chord.in_key, v_chord.out_key
    if (lo < vin < hi) == (lo < vout < hi):
        return 0
    start = u_chord.in_key
    rest = sorted([vin, u_chord.out_key, vout],
                  key=lambda p: (p < start, p))
    if rest == [vin, u_chord.out_key, vout]:
        return 1
    if rest == [vout, u_chord.out_key, vin]:
        return -1
    raise AssertionError("crossing chords with unreadable endpoint order")


def _crossings(ribbon, left, right, convention):
    chords = _draw(ribbon, [left, right], convention)
    left_chords = [c for c in chords if c.tag == 0]
    right_chords = [c for c in chords if c.tag == 1]
    for cu in left_chords:
        for cv in right_chords:
            sign = _cross_sign(cu, cv)
            if sign:
                yield sign, cu, cv


def _loop_operand(tag, loop_class):
    return _Operand(tag, loop_class.word, True)


def _path_operand(tag, path):
    return _Operand(tag, path.word.letters, False, path.from_tag, path.to_tag)


def _rotated(word, start):
    return word[start:] + word[:start]


# -- the surgeries -------------------------------------------------------

def goldman_bracket(u, v, convention="default"):
    """Bilinear loop bracket: signed resmoothings at each crossing."""
    if u.spec != v.spec:
        raise ValueError("operands live on different surfaces")
    ribbon = ribbon_structure(u.spec)
    out = LoopSum(u.spec, twist=u.twist + v.twist + 1)
    for cu, coeff_u in u.terms.items():
        if not cu.word:
            continue
        for cv, coeff_v in v.terms.items():
            if not cv.word:
                continue
            coeff = coeff_u * coeff_v
            left = _loop_operand(0, cu)
            right = _loop_operand(1, cv)
            for sign, chord_u, chord_v in _crossings(ribbon, left, right,
                                                     convention):
                spliced = (_rotated(cu.word, chord_u.split)
                           + _rotated(cv.word, chord_v.split))
                out.add_term(cyclic_normal_form(FreeWord(spliced)),
                             coeff * sign)
    return out


def kk_action(u, gamma, convention="default"):
    """Loop sum acting on a path sum: insert the rebased loop at each
    crossing between the loop and the path."""
    if u.spec != gamma.spec:
        raise ValueError("operands live on different surfaces")
    ribbon = ribbon_structure(u.spec)
    out = PathSum(gamma.spec, gamma.from_tag, gamma.to_tag,
                  twist=u.twist + gamma.twist + 1)
    for cu, coeff_u in u.terms.items():
        if not cu.word:
            continue
        for path, coeff_p in gamma.terms.items():
            coeff = coeff_u * coeff_p
            left = _loop_operand(0, cu)
            right = _path_operand(1, path)
            w = path.word.letters
            for sign, chord_u, chord_v in _crossings(ribbon, left, right,
                                                     convention):
                k = chord_v.split
                inserted = w[:k] + _rotated(cu.word, chord_u.split) + w[k:]
                out.add_term(Path(path.from_tag, path.to_tag,
                                  FreeWord(inserted)),
                             coeff * sign)
    return out


def bi_pairing(gamma1, gamma2, convention="default"):
    """Signed exchange pairing of two path sums with disjoint endpoints."""
    if gamma1.spec != gamma2.spec:
        raise ValueError("operands live on different surfaces")
    tags1 = {gamma1.from_tag, gamma1.to_tag}
    tags2 = {gamma2.from_tag, gamma2.to_tag}
    if tags1 & tags2:
        raise ValueError("path endpoint tags must be disjoint, got %s and %s"
                         % (sorted(tags1), sorted(tags2)))
    ribbon = ribbon_structure(gamma1.spec)
    out = PathPairSum(gamma1.spec, twist=gamma1.twist + gamma2.twist + 1)
    for p1, c1 in gamma1.terms.items():
        for p2, c2 in gamma2.terms.items():
            coeff = c1 * c2
            left = _path_operand(0, p1)
            right = _path_operand(1, p2)
            w1 = p1.word.letters
            w2 = p2.word.letters
            for sign, chord_u, chord_v in _crossings(ribbon, left, right,
                                                     convention):
                k1, k2 = chord_u.split, chord_v.split
                first = Path(p1.from_tag, p2.to_tag,
                             FreeWord(w1[:k1] + w2[k2:]))
                second = Path(p2.from_tag, p1.to_tag,
                              FreeWord(w2[:k2] + w1[k1:]))
                out.add_term((first, second), coeff * sign)
    return out


def crossing_trace(spec, left, right, convention="default"):
    """Debug view: every crossing with its sign and both passages.

    left and right are LoopClass or Path values; the trace lists the
    raw crossings before any normalization collapses terms.
    """
    ops = []
    for tag, item in enumerate((left, right)):
        if isinstance(item, LoopClass):
            ops.append(_loop_operand(tag, item))
        elif isinstance(item, Path):
            ops.append(_path_operand(tag, item))
        else:
            raise TypeError("trace operands must be LoopClass or Path")
    return [{
        "sign": sign,
        "left": chord_u.passage.to_json(),
        "right": chord_v.passage.to_json(),
    } for sign, chord_u, chord_v in _crossings(ribbon_structure(spec), ops[0],
                                               ops[1], convention)]


# -- classes, powers, logarithms ----------------------------------------

def adams(n, u):
    """n-th power map on classes, extended linearly; n=0 hits the unit."""
    if n < 0:
        raise ValueError("power maps are indexed by n >= 0")
    out = LoopSum(u.spec, twist=u.twist)
    for cls, coeff in u.terms.items():
        out.add_term(cyclic_normal_form(FreeWord(cls.word * n)), coeff)
    return out


def boundary_class(spec):
    return cyclic_normal_form(boundary_word(spec))


def expand_loop_sum(u, theta):
    """Necklace expansion of a loop sum (twist carried over)."""
    out = CyclicSeries(theta.sig, theta.trunc, twist=u.twist)
    for cls, coeff in u.terms.items():
        series = theta.expand_word(cls.free_word())
        for word, c in series.items():
            out.add_term(NecklaceWord(word), coeff * c)
    return out


def expand_path_sum(gamma, theta):
    """Tensor-series expansion of a path sum through the fixed rails."""
    total = TensorSeries.zero(theta.sig, theta.trunc)
    for path, coeff in gamma.terms.items():
        total = total + theta.expand_word(path.word).scaled(coeff)
    return total


def log_class(spec, loop_class, trunc):
    """Necklace logarithm of a class through the default expansion."""
    theta = default_expansion(spec, trunc)
    value = theta.expand_word(loop_class.free_word())
    return necklace_project(log(value))


# -- induced derivations -------------------------------------------------

def _transport_log(s, t):
    """D(log s) given D(s) = t, for group-like s.

    Expand log s = sum (-1)^(k+1) (s-1)^k / k and apply the product rule
    termwise; exact at the truncation because every factor here only
    raises degree.
    """
    sig, trunc = s.sig, s.trunc
    one = TensorSeries.unit(sig, trunc)
    sm1 = s - one
    powers = [one]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * sm1)
    right = [t * p for p in powers]
    total = TensorSeries.zero(sig, trunc)
    for k in range(1, len(powers)):
        coeff = Fraction((-1) ** (k + 1), k)
        for i in range(k):
            total = total + (powers[i] * right[k - 1 - i]).scaled(coeff)
    return total


def kk_derivation(u, trunc, tag=0):
    """The derivation a loop sum induces on the truncated tensor algebra.

    Generator images are chosen so that on group-likes the derivation
    reproduces the expanded action: D(theta(g)) = theta(kk_action(u, g))
    for every surface generator g based at the given boundary tag.
    Images may carry constant terms, so the derivation can lower degree;
    see the Derivation notes on what the truncated product rule then
    guarantees.
    """
    spec = u.spec
    theta = default_expansion(spec, trunc)
    images = {}
    for base in spec.generators():
        gen_path = PathSum.of(spec, Path(tag, tag, FreeWord(((base, 1),))))
        acted = kk_action(u, gen_path)
        t_series = expand_path_sum(acted, theta)
        images[tensor_letter(base)] = _transport_log(theta.image(base),
                                                     t_series)
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
            lift.add_term(cyclic_normal_form(FreeWord((alpha,) * k)),
                          coeff * h_r)
    return kk_derivation(lift, trunc)
