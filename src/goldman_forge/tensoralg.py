"""Truncated tensor algebra over Q with weighted generators.

Everything downstream (Magnus expansions, necklace brackets, the bar
pairings) lives inside the completed tensor algebra
Q<<x1..xg, y1..yg, z1..zn>> truncated at a weighted degree: x and y
letters weigh 1, z letters weigh 2.  Coefficients are
fractions.Fraction at the API; there is no floating point anywhere in
this package.

A series stores int numerators over one common denominator, bucketed
by weighted degree so truncated products only visit compatible degree
pairs: the coefficient of a word is _buckets[d][code] / _den, code the
word as a str of chr(position) per letter in GenSignature.gens order
(products concatenate strs; sorted() is the letter order).  At the API
words are tuples of names such as ("x1", "y1").  All operations return
fresh objects; nothing mutates a series after construction.

Series invariant: every bucket key is the weighted degree of its words
and at most the truncation, the truncation is at least 1, no numerator
is zero and no bucket empty, _den > 0, and gcd(_den, all numerators)
is 1 (so the zero series has _den 1).  The form is unique, so == is a
plain comparison.  from_terms checks each input word; the kernels that
sum or rescale terms (from_terms, combination, *, truncated,
homogeneous_component, Derivation.apply) accumulate ints into degree
buckets over one denominator and finish through TensorSeries._settled,
the one place that drops zero numerators and empty buckets and divides
out the gcd.  combination sums coeff * series over a stream of parts
over the lcm of their denominators (a part's is its series' times its
coefficient's); + and - (a series, int or Fraction on the right),
scaled, AlgebraMap.apply, exp, log and derivation_exp are combinations
of iterates; exp_sum, the one k!-weighted sum, reads exp(m*s) for every
m off one power list powers(s) = [1, s, s^2, ...].  is_primitive runs
the Dynkin test on int numerators; no predicate reads coproduct, which
returns a plain {(left, right): Fraction} dict.  Denominators: *
multiplies them, combination and from_terms take their lcm.
numerators() is the int view of a series, TermSum.numerators() that of
a Fraction sum, whose subclasses share the fields in their __slots__.
Outside this module nothing reads _buckets, _den or coded words or
calls the bucket constructor (tests/test_hygiene.py).
"""

from fractions import Fraction
from math import factorial, gcd, lcm

__all__ = [
    "GenSignature",
    "TensorSeries",
    "TermSum",
    "Derivation",
    "AlgebraMap",
    "powers",
    "exp_sum",
    "exp",
    "log",
    "lie_bracket",
    "right_normed_words",
    "coproduct",
    "is_primitive",
    "is_group_like",
    "derivation_exp",
    "linear_solve",
    "matrix_rank",
]


def as_coeff(value):
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("coefficient must be an integer or Fraction, got %r"
                    % type(value).__name__)


# n / 1 for 0 < |n| <= 64, built once and never grown; sums share them
_SMALL_INTS = {n: Fraction(n) for n in range(-64, 65) if n}


class TermSum:
    """Sparse exact combination: terms[key] is a nonzero Fraction.

    A subclass's __slots__ are the data two sums must share to be
    added (surface, twist, truncation, ...); it gives _sort_key for the
    serialized term order, and overrides add_term when incoming keys
    need a check or a rewrite.  Sums built from admitted terms (copy,
    scaled, +, -, with_totals) take them over without checking them
    again.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                self.add_term(key, coeff)

    def add_term(self, key, coeff):
        """Add coeff * key; a key whose coefficient reaches 0 is removed."""
        if coeff.__class__ is not Fraction:
            coeff = as_coeff(coeff)
        if coeff:
            terms = self.terms
            old = terms.get(key)
            c = coeff if old is None else old + coeff
            if c:
                terms[key] = c
            else:
                del terms[key]

    def _with_terms(self, terms):
        out = object.__new__(self.__class__)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def with_totals(self, den, totals):
        """Same fields; n / den per key of the (key, int total n) pairs
        totals with nonzero n, unchecked; if den == 1, an n in _SMALL_INTS
        (crossing counts mostly are) takes the shared Fraction found there."""
        small = _SMALL_INTS if den == 1 else {}
        return self._with_terms({key: small[n] if n in small
                                 else Fraction(n, den)
                                 for key, n in totals if n})

    def _fields(self):
        return [getattr(self, name) for name in self.__slots__]

    def is_zero(self):
        return not self.terms

    def numerators(self):
        """(L, [(key, coeff * L), ...]), L the lcm of the denominators."""
        dens = [c.denominator for c in self.terms.values()]
        if dens.count(1) == len(dens):      # all ints: no lcm to take
            return 1, [(key, c.numerator) for key, c in self.terms.items()]
        den = lcm(*dens)
        return den, [(key, c.numerator * (den // d))
                     for (key, c), d in zip(self.terms.items(), dens)]

    def copy(self):
        return self._with_terms(dict(self.terms))

    def scaled(self, scalar):
        scalar = as_coeff(scalar)
        if not scalar:
            return self._with_terms({})
        return self._with_terms({k: c * scalar for k, c in self.terms.items()})

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._fields() != other._fields():
            raise ValueError("cannot add %s values with different %s"
                             % (self.__class__.__name__,
                                "/".join(self.__slots__)))
        out = self.copy()
        for key, coeff in other.terms.items():
            TermSum.add_term(out, key, coeff)
        return out

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self + other.scaled(-1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields() and self.terms == other.terms

    def sorted_terms(self):
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))


class GenSignature:
    """Weighted alphabet x1..xg, y1..yg (weight 1) and z1..zn (weight 2).

    The canonical generator order is x1 < ... < xg < y1 < ... < yg <
    z1 < ... < zn; series iteration and serialization sort by weighted
    degree first and this letter order second.
    """

    __slots__ = ("genus", "punctures", "gens", "_weights", "_codes", "_names")

    def __init__(self, genus, punctures):
        if genus < 0 or punctures < 0:
            raise ValueError("genus and puncture count must be nonnegative")
        self.genus = genus
        self.punctures = punctures
        gens = ["x%d" % j for j in range(1, genus + 1)]
        gens += ["y%d" % j for j in range(1, genus + 1)]
        gens += ["z%d" % k for k in range(1, punctures + 1)]
        self.gens = tuple(gens)
        self._weights = {name: (2 if name[0] == "z" else 1) for name in gens}
        self._codes = {name: chr(i) for i, name in enumerate(gens)}
        self._names = {chr(i): name for i, name in enumerate(gens)}

    def weight(self, name):
        try:
            return self._weights[name]
        except KeyError:
            raise ValueError("unknown generator %r" % (name,)) from None

    def degree(self, word):
        w = self._weights
        try:
            return sum(w[letter] for letter in word)
        except KeyError as bad:
            raise ValueError("unknown generator %s in word" % (bad,)) from None

    def sort_key(self, word):
        return (self.degree(word), self._encode(word))

    def _encode(self, word):
        """The coded word, one character chr(position) per letter."""
        return "".join(map(self._codes.__getitem__, word))

    def _decode(self, code):
        return tuple(map(self._names.__getitem__, code))

    def __eq__(self, other):
        return (isinstance(other, GenSignature)
                and self.genus == other.genus
                and self.punctures == other.punctures)

    def __hash__(self):
        return hash((self.genus, self.punctures))

    def __repr__(self):
        return "GenSignature(genus=%d, punctures=%d)" % (self.genus, self.punctures)


def _check_compat(sig, trunc, s):
    if s.trunc != trunc or (s.sig is not sig and s.sig != sig):
        raise ValueError("signature/truncation mismatch: %r/%d vs %r/%d"
                         % (sig, trunc, s.sig, s.trunc))


class TensorSeries:
    """Sparse truncated series sum_w c_w * w.

    Storage: _buckets[d][code] == n, a nonzero int, with d the weighted
    degree of the coded word and c_w == n / _den; _den > 0 and the gcd of
    _den and all numerators is 1, no empty buckets (see the module
    docstring for where that is enforced).  Coefficients leave as Fractions.
    """

    __slots__ = ("sig", "trunc", "_buckets", "_den")

    def __init__(self, sig, trunc, buckets, den=1):
        # internal constructor; use the classmethods below
        self.sig = sig
        self.trunc = trunc
        self._buckets = buckets
        self._den = den

    @classmethod
    def zero(cls, sig, trunc):
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        return cls(sig, trunc, {})

    @classmethod
    def unit(cls, sig, trunc):
        return cls.from_terms(sig, trunc, [((), 1)])

    @classmethod
    def generator(cls, sig, trunc, name):
        sig.weight(name)  # validates
        return cls.from_terms(sig, trunc, [((name,), 1)])

    @classmethod
    def from_terms(cls, sig, trunc, terms):
        """Build from (word, coeff) pairs; words past the truncation are dropped.

        Every word and coefficient is checked, including those that are
        then dropped for a zero coefficient or the truncation.
        """
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        kept = []
        for word, coeff in terms:
            word = tuple(word)
            coeff = as_coeff(coeff)
            d = sig.degree(word)
            if d <= trunc:
                kept.append((d, sig._encode(word), coeff))
        den = lcm(*{coeff.denominator for _, _, coeff in kept})
        buckets = {}
        for d, word, coeff in kept:
            num = coeff.numerator * (den // coeff.denominator)
            bucket = buckets.setdefault(d, {})
            old = bucket.get(word)
            bucket[word] = num if old is None else old + num
        return cls._settled(sig, trunc, buckets, den)

    @classmethod
    def combination(cls, sig, trunc, parts):
        """sum coeff * series over (coeff, series) parts at (sig, trunc),
        coeff an int or Fraction, read once so a generator streams them:
        ints summed in one dict over the lcm of the parts' denominators
        so far, settled once."""
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        den, out = 1, {}
        for coeff, s in parts:
            _check_compat(sig, trunc, s)
            if coeff.__class__ is int:
                p, part = coeff, s._den
            else:
                coeff = as_coeff(coeff)
                p, part = coeff.numerator, s._den * coeff.denominator
            if not p:
                continue
            if den % part:
                grow = lcm(den, part) // den
                for bucket in out.values():
                    for w in bucket:
                        bucket[w] *= grow
                den *= grow
            k = p * (den // part)
            for d, bucket in s._buckets.items():
                tgt = out.get(d)
                if tgt is None:
                    out[d] = ({w: k * c for w, c in bucket.items()} if k != 1
                              else dict(bucket))
                else:
                    for w, c in bucket.items():
                        tgt[w] = tgt.get(w, 0) + k * c
        return cls._settled(sig, trunc, out, den)

    @classmethod
    def _settled(cls, sig, trunc, buckets, den):
        """The series of raw int degree buckets over den, zero numerators
        and empty buckets dropped and the common gcd divided out: the one
        normaliser behind every kernel.  It may keep the bucket dicts it
        is given; no series is mutated after construction."""
        out = {}
        g = den
        for d, bucket in buckets.items():
            if 0 in bucket.values():
                bucket = {w: c for w, c in bucket.items() if c}
            if bucket:
                out[d] = bucket
                if g != 1:
                    g = gcd(g, *bucket.values())
        if g != 1:
            out = {d: {w: c // g for w, c in b.items()} for d, b in out.items()}
        return cls(sig, trunc, out, den // g)

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self._buckets

    def coefficient(self, word):
        word = tuple(word)
        bucket = self._buckets.get(self.sig.degree(word), {})
        return Fraction(bucket.get(self.sig._encode(word), 0), self._den)

    def constant_term(self):
        return Fraction(self._buckets.get(0, {}).get("", 0), self._den)

    def valuation(self):
        """Smallest weighted degree carrying a term, or None for the zero series."""
        if not self._buckets:
            return None
        return min(self._buckets)

    def homogeneous_component(self, d):
        bucket = self._buckets.get(d, {})
        return TensorSeries._settled(self.sig, self.trunc, {d: bucket}, self._den)

    def items(self):
        """Unordered (word, coeff) pairs; use terms() when order matters."""
        den, decode = self._den, self.sig._decode
        for bucket in self._buckets.values():
            for code, c in bucket.items():
                yield decode(code), Fraction(c, den)

    def terms(self):
        """(word, coeff) pairs in degree-lexicographic order."""
        den, decode = self._den, self.sig._decode
        for d in sorted(self._buckets):
            bucket = self._buckets[d]
            for code in sorted(bucket):
                yield decode(code), Fraction(bucket[code], den)

    def numerators(self):
        """(den, [(word, n), ...]): the int view, coefficient n / den."""
        decode = self.sig._decode
        return self._den, [(decode(code), n) for bucket in self._buckets.values()
                           for code, n in bucket.items()]

    def term_count(self):
        return sum(len(b) for b in self._buckets.values())

    def truncated(self, new_trunc):
        """The same series at a lower (or equal) truncation, at least 1."""
        if new_trunc < 1:
            raise ValueError("truncation must be >= 1")
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation from %d to %d"
                             % (self.trunc, new_trunc))
        buckets = {d: b for d, b in self._buckets.items() if d <= new_trunc}
        return TensorSeries._settled(self.sig, new_trunc, buckets, self._den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TensorSeries.from_terms(self.sig, self.trunc, [((), other)])
        return TensorSeries.combination(self.sig, self.trunc,
                                        ((1, self), (1, other)))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return TensorSeries.combination(self.sig, self.trunc,
                                        ((1, self), (-1, other)))

    def scaled(self, scalar):
        return TensorSeries.combination(self.sig, self.trunc, ((scalar, self),))

    def __mul__(self, other):
        _check_compat(self.sig, self.trunc, other)
        trunc = self.trunc
        right = [(d2, list(b2.items())) for d2, b2 in other._buckets.items()]
        out = {}
        for d1, b1 in self._buckets.items():
            for d2, items2 in right:
                d = d1 + d2
                if d > trunc:
                    continue
                tgt = out.setdefault(d, {})
                get = tgt.get
                for w1, c1 in b1.items():
                    for w2, c2 in items2:
                        w = w1 + w2
                        tgt[w] = get(w, 0) + c1 * c2
        return TensorSeries._settled(self.sig, self.trunc, out,
                                     self._den * other._den)

    def __eq__(self, other):
        if not isinstance(other, TensorSeries):
            return NotImplemented
        return (self.sig == other.sig and self.trunc == other.trunc
                and self._den == other._den and self._buckets == other._buckets)

    def __repr__(self):
        """The first six terms, then "..." if there are more."""
        parts = []
        for word, coeff in self.terms():
            if len(parts) == 6:
                parts.append("...")
                break
            name = " ".join(word) if word else "1"
            if coeff == 1 and word:
                parts.append(name)
            elif coeff == -1 and word:
                parts.append("-" + name)
            elif word:
                parts.append("%s %s" % (coeff, name))
            else:
                parts.append(str(coeff))
        text = parts[0] if parts else "0"
        for p in parts[1:]:
            text += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return "<TensorSeries %s N=%d: %s>" % (self.sig, self.trunc, text)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "signature": {"g": self.sig.genus, "n": self.sig.punctures},
            "truncation": self.trunc,
            "terms": [{"word": list(word), "coeff": str(coeff)}
                      for word, coeff in self.terms()],
        }

    @classmethod
    def from_json(cls, data):
        sig = GenSignature(data["signature"]["g"], data["signature"]["n"])
        terms = [(tuple(t["word"]), Fraction(t["coeff"])) for t in data["terms"]]
        return cls.from_terms(sig, data["truncation"], terms)


def _iterates(first, step):
    """[first, step(first), step^2(first), ...] through the first zero
    term; a term past (N+2)^2, N the truncation, still nonzero is a
    domain error (step is not locally nilpotent) instead of a hang."""
    cap = (first.trunc + 2) * (first.trunc + 2)
    out = [first]
    while not out[-1].is_zero():
        if len(out) > cap + 1:
            raise ValueError("exponential did not terminate; the step "
                             "is not locally nilpotent")
        out.append(step(out[-1]))
    return out


def powers(s):
    """[1, s, s^2, ...] through the first zero power, the list every
    exponential of s is read off; needs vanishing constant term."""
    if s.constant_term() != 0:
        raise ValueError("exp needs a series with zero constant term")
    return _iterates(TensorSeries.unit(s.sig, s.trunc), lambda t: t * s)


def exp_sum(terms, scale=1):
    """sum_k scale^k / k! terms[k] as one combination: exp(scale * s) on
    powers(s), whose products every scale shares."""
    return TensorSeries.combination(
        terms[0].sig, terms[0].trunc,
        ((Fraction(scale ** k, factorial(k)), t) for k, t in enumerate(terms)))


def exp(s):
    """Truncated exponential, sum_k s^k / k!; needs vanishing constant term."""
    return exp_sum(powers(s))


def log(s):
    """Truncated logarithm, sum_k (-1)^(k+1) (s-1)^k / k for k >= 1;
    needs constant term 1."""
    if s.constant_term() != 1:
        raise ValueError("log needs a series with constant term 1")
    return TensorSeries.combination(
        s.sig, s.trunc, ((Fraction((-1) ** (k + 1), k), t)
                         for k, t in enumerate(powers(s - 1)) if k))


def lie_bracket(u, v):
    return u * v - v * u


def coproduct(s):
    """Deconcatenation-style coproduct with every generator primitive.

    On a word the coproduct distributes each letter to the left or the
    right factor, keeping relative order: Delta(w) = sum over subsets S
    of positions of w_S tensor w_{S complement}.  A split keeps its
    word's degree, so none is dropped.  Returns {(left, right):
    Fraction} over the nonzero splits; int numerators are summed per
    split and only the nonzero sums become Fractions.
    """
    sums = {}
    for bucket in s._buckets.values():
        for word, num in bucket.items():
            splits = [("", "")]
            for a in word:
                splits = ([(left + a, right) for left, right in splits]
                          + [(left, right + a) for left, right in splits])
            for split in splits:
                sums[split] = sums.get(split, 0) + num
    decode = s.sig._decode
    return {(decode(left), decode(right)): Fraction(n, s._den)
            for (left, right), n in sums.items() if n}


def right_normed_words(word, memo=None):
    """[w1,[w2,[...,wn]]] of a nonempty word as a word -> nonzero int
    dict; memo, scoped to one caller's computation, keeps every suffix's."""
    memo = {} if memo is None else memo
    found = memo.get(word)
    if found is None:
        if len(word) < 2:
            if not word:
                raise ValueError("a right-normed bracket needs a nonempty word")
            found = {word: 1}
        else:
            head, found = word[:1], {}
            for w, c in right_normed_words(word[1:], memo).items():
                found[head + w] = found.get(head + w, 0) + c
                found[w + head] = found.get(w + head, 0) - c
            found = {w: c for w, c in found.items() if c}
        memo[word] = found
    return found


def is_primitive(s):
    """Delta(s) == s (x) 1 + 1 (x) s, by Dynkin-Specht-Wever (Reutenauer,
    Free Lie Algebras, 1993, Thm 1.4): s is primitive (Lie) iff its
    constant term is 0 and D(s_n) == n s_n on each word-length component
    s_n, D the right-normed bracketing.  n is the word length, not the
    weighted degree (z weighs 2).  D permutes letters, so each degree
    bucket is checked alone, lowest first, on int numerators with one
    tail memo per call."""
    if s.constant_term():
        return False
    memo = {}
    for d in sorted(s._buckets):
        diff = {}
        for word, num in s._buckets[d].items():
            if len(word) > 1:   # D(w) == w on a letter
                diff[word] = diff.get(word, 0) - len(word) * num
                head = word[:1]
                for w, c in right_normed_words(word[1:], memo).items():
                    diff[head + w] = diff.get(head + w, 0) + num * c
                    diff[w + head] = diff.get(w + head, 0) - num * c
        if any(diff.values()):
            return False
    return True


def is_group_like(s):
    """Delta(s) == s (x) s, i.e. constant term 1 and log(s) primitive:
    Delta is an algebra map that keeps weighted degree, so it commutes
    with truncation, exp and log, and log(s (x) s) == log(s) (x) 1 +
    1 (x) log(s) because s (x) 1 and 1 (x) s commute."""
    return s.constant_term() == 1 and is_primitive(log(s))


class Derivation:
    """Derivation of the truncated algebra, given by generator images.

    Missing generators map to zero.  Images need not raise the weighted
    degree; see derivation_exp for the termination contract.  Truncated
    application satisfies the Leibniz rule d(st) = d(s)t + s d(t)
    exactly when no image lowers weighted degree; a degree-lowering
    derivation (the loop actions produce those) is still applied
    term by term, but its top truncation degree is then only determined
    when the input is known one degree higher.
    """

    __slots__ = ("sig", "trunc", "images")

    def __init__(self, sig, trunc, images):
        self.sig = sig
        self.trunc = trunc
        self.images = {}
        for name, image in images.items():
            sig.weight(name)
            _check_compat(self.sig, self.trunc, image)
            if not image.is_zero():
                self.images[name] = image

    def image(self, name):
        img = self.images.get(name)
        if img is None:
            return TensorSeries.zero(self.sig, self.trunc)
        return img

    def apply(self, s):
        """Leibniz extension: d(w) = sum_i w[:i] d(w_i) w[i+1:]."""
        _check_compat(self.sig, self.trunc, s)
        sig = self.sig
        trunc = self.trunc
        images = self.images
        den = lcm(*[img._den for img in images.values()])
        coded = {sig._codes[name]: (img, den // img._den, sig.weight(name))
                 for name, img in images.items()}
        out = {}
        for wdeg, words in s._buckets.items():
            for word, coeff in words.items():
                for i, letter in enumerate(word):
                    found = coded.get(letter)
                    if found is None:
                        continue
                    img, scale, weight = found
                    k, base = coeff * scale, wdeg - weight
                    head, tail = word[:i], word[i + 1:]
                    for d_img, bucket in img._buckets.items():
                        d = base + d_img
                        if d > trunc:
                            continue
                        tgt = out.setdefault(d, {})
                        for mid, c in bucket.items():
                            w = head + mid + tail
                            old = tgt.get(w)
                            tgt[w] = k * c if old is None else old + k * c
        return TensorSeries._settled(sig, trunc, out, s._den * den)

    __call__ = apply


class AlgebraMap:
    """Algebra endomorphism given by generator images (substitution).

    Generators without an explicit image map to themselves.  apply() is
    the multiplicative extension; word products are memoized by prefix
    so repeated substitution into big series stays affordable.
    """

    __slots__ = ("sig", "trunc", "images", "_memo")

    def __init__(self, sig, trunc, images):
        self.sig = sig
        self.trunc = trunc
        self.images = {}
        for name, image in images.items():
            sig.weight(name)
            _check_compat(self.sig, self.trunc, image)
            self.images[name] = image
        self._memo = {"": TensorSeries.unit(sig, trunc)}  # by coded word

    def image(self, name):
        img = self.images.get(name)
        if img is None:
            return TensorSeries.generator(self.sig, self.trunc, name)
        return img

    def _word_image(self, word):
        memo = self._memo
        found = memo.get(word)
        if found is not None:
            return found
        # walk back to the longest cached prefix, then extend forward
        k = len(word) - 1
        while k > 0 and word[:k] not in memo:
            k -= 1
        product = memo[word[:k]]
        for i in range(k, len(word)):
            product = product * self.image(self.sig._names[word[i]])
            memo[word[:i + 1]] = product
        return product

    def apply(self, s):
        """The word images combined by s's int numerators, over s's den."""
        _check_compat(self.sig, self.trunc, s)
        out = TensorSeries.combination(self.sig, self.trunc, (
            (c, self._word_image(word))
            for words in s._buckets.values() for word, c in words.items()))
        return TensorSeries._settled(self.sig, self.trunc, out._buckets,
                                     out._den * s._den)

    __call__ = apply


def derivation_exp(d):
    """exp of a derivation as an algebra endomorphism.

    Works whenever iterated application eventually vanishes on every
    generator at the truncation.  Degree-raising images guarantee that;
    degree-preserving parts are fine too as long as they act nilpotently
    (the Dehn-twist derivations are the motivating case).  The cap of
    the shared exponential loop turns a non-terminating exponential into
    a domain error instead of a hang.
    """
    images = {name: exp_sum(_iterates(
        TensorSeries.generator(d.sig, d.trunc, name), d.apply))
        for name in d.sig.gens}
    return AlgebraMap(d.sig, d.trunc, images)


def _int_rows(rows, ncols):
    """Integer copies of rows, each scaled by the lcm of its denominators.

    Entries must be ints or Fractions (an int has denominator 1); a row
    of type-int entries only is copied as it is, with no check or lcm,
    and only a row with other entry types is checked entry by entry.
    """
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        types = set(map(type, row))
        if types <= {int}:
            out.append(list(row))
            continue
        if not types <= {int, bool, Fraction}:
            for x in row:
                if not isinstance(x, (int, Fraction)):
                    raise TypeError("coefficient must be an integer or "
                                    "Fraction, got %r" % type(x).__name__)
        scale = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _eliminate(rows, ncols, reduced):
    """Reduce integer rows in place over ncols columns; return the pivots.

    Pivoting is deterministic: leftmost pivot column, smallest row
    index.  Clearing column col of row i against pivot row r with
    entries p and f sets r_i to (p/g) r_i - (f/g) r_r, g = gcd(p, f),
    then divides r_i by the gcd of its entries, so no row leaves the
    integers.  Each pivot clears the rows below it (echelon form, all a
    rank needs), and when reduced the rows above it too.  Pivot columns
    and rank are those of elimination over Q.  Invariant when reduced:
    every row is a nonzero integer multiple of the matching row of the
    rational reduced row echelon form, so consistency is that of
    elimination over Q, and row i's RREF entry in column j is
    rows[i][j] / rows[i][pivots[i]].
    """
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        pivot_row = None
        for i in range(r, m):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[col]
        for i in range(0 if reduced else r + 1, m):
            f = rows[i][col]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], pivot)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        r += 1
    return pivots


def matrix_rank(rows):
    """Exact rank over Q of a list of rows of ints/Fractions."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    return len(_eliminate(_int_rows(rows, ncols), ncols, reduced=False))


def linear_solve(matrix, rhs):
    """Exact Gaussian elimination over Q.

    matrix is a list of rows of ints/Fractions, rhs the right-hand
    column.  Returns the solution as Fractions with every free variable
    set to 0, or None when the system is inconsistent.
    """
    m = len(matrix)
    if m != len(rhs):
        raise ValueError("matrix and rhs row counts differ")
    if m == 0:
        return []
    ncols = len(matrix[0])
    rows = _int_rows([[*row, b] for row, b in zip(matrix, rhs)], ncols + 1)
    pivots = _eliminate(rows, ncols, reduced=True)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = Fraction(row[ncols], row[col])
    return solution
