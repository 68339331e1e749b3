"""Differential tests of the integer-numerator TensorSeries.

The oracle below is the Fraction-coefficient series the engine used
before it stored int numerators over one common denominator: the same
degree buckets and kernels, with a Fraction per word.  Every kernel of
the engine's series, the summing kernel TensorSeries.combination
among them, is compared with it on seeded inputs over six
signatures and truncations 1-6, 360 cases per kernel (5,400 in all):
values, the Fraction type of every accessor, the serialized JSON
string, and the storage invariant (nonzero int numerators, a positive
denominator coprime to them, and denominator 1 for the zero series).
The inputs include sums that cancel to zero, integral series, scalars
that share factors with the denominator, and denominators above 10**9.

The engine keys its buckets by coded words, one character per letter in
generator position order, while the oracle keeps tuples of names.  On
genus 10 the two orders differ ("x10" < "x2" as names, x2 before x10 by
position), so the (10, 1) signature checks that terms(), to_json, the
necklace projection and the products of coded words come out as the
oracle's.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from goldman_forge.magnus import CyclicSeries, necklace_project
from goldman_forge.tensoralg import (
    AlgebraMap,
    Derivation,
    GenSignature,
    TensorSeries,
    derivation_exp,
    exp,
    log,
)
from helpers import bch, compose, random_word

SIGNATURES = ((1, 0), (1, 1), (2, 0), (2, 1), (1, 2), (10, 1))
CASES_PER_KERNEL = 360


# -- the oracle: Fraction coefficients in degree buckets ------------------

class OracleSeries:
    def __init__(self, sig, trunc, buckets):
        self.sig = sig
        self.trunc = trunc
        self.buckets = buckets

    @classmethod
    def from_terms(cls, sig, trunc, terms):
        buckets = {}
        for word, coeff in terms:
            word = tuple(word)
            coeff = Fraction(coeff)
            d = sig.degree(word)
            if d <= trunc:
                bucket = buckets.setdefault(d, {})
                old = bucket.get(word)
                bucket[word] = coeff if old is None else old + coeff
        return cls.settled(sig, trunc, buckets)

    @classmethod
    def settled(cls, sig, trunc, buckets):
        out = {}
        for d, bucket in buckets.items():
            bucket = {w: c for w, c in bucket.items() if c}
            if bucket:
                out[d] = bucket
        return cls(sig, trunc, out)

    def is_zero(self):
        return not self.buckets

    def constant_term(self):
        return self.buckets.get(0, {}).get((), Fraction(0))

    def items(self):
        for bucket in self.buckets.values():
            yield from bucket.items()

    def terms(self):
        pos = {name: i for i, name in enumerate(self.sig.gens)}
        for d in sorted(self.buckets):
            bucket = self.buckets[d]
            for word in sorted(bucket, key=lambda w: tuple(pos[l] for l in w)):
                yield word, bucket[word]

    def truncated(self, new_trunc):
        return OracleSeries(self.sig, new_trunc,
                            {d: dict(b) for d, b in self.buckets.items()
                             if d <= new_trunc})

    def homogeneous_component(self, d):
        bucket = self.buckets.get(d)
        return OracleSeries(self.sig, self.trunc, {d: dict(bucket)} if bucket else {})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = OracleSeries.from_terms(self.sig, self.trunc, [((), other)])
        buckets = {d: dict(b) for d, b in self.buckets.items()}
        for d, bucket in other.buckets.items():
            mine = buckets.setdefault(d, {})
            for word, coeff in bucket.items():
                old = mine.get(word)
                mine[word] = coeff if old is None else old + coeff
        return OracleSeries.settled(self.sig, self.trunc, buckets)

    def __neg__(self):
        return OracleSeries(self.sig, self.trunc,
                            {d: {w: -c for w, c in b.items()}
                             for d, b in self.buckets.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return OracleSeries(self.sig, self.trunc, {})
        return OracleSeries(self.sig, self.trunc,
                            {d: {w: c * scalar for w, c in b.items()}
                             for d, b in self.buckets.items()})

    def __mul__(self, other):
        out = {}
        for d1, b1 in self.buckets.items():
            for d2, b2 in other.buckets.items():
                d = d1 + d2
                if d > self.trunc:
                    continue
                tgt = out.setdefault(d, {})
                for w1, c1 in b1.items():
                    for w2, c2 in b2.items():
                        w = w1 + w2
                        old = tgt.get(w)
                        tgt[w] = c1 * c2 if old is None else old + c1 * c2
        return OracleSeries.settled(self.sig, self.trunc, out)

    def __eq__(self, other):
        return (self.sig == other.sig and self.trunc == other.trunc
                and self.buckets == other.buckets)

    def to_json(self):
        return {
            "signature": {"g": self.sig.genus, "n": self.sig.punctures},
            "truncation": self.trunc,
            "terms": [{"word": list(word), "coeff": str(coeff)}
                      for word, coeff in self.terms()],
        }


def oracle_unit(sig, trunc):
    return OracleSeries.from_terms(sig, trunc, [((), 1)])


def oracle_generator(sig, trunc, name):
    return OracleSeries.from_terms(sig, trunc, [((name,), 1)])


def oracle_exp_sum(first, step):
    total = term = first
    k = 1
    while True:
        term = step(term).scaled(Fraction(1, k))
        if term.is_zero():
            return total
        total = total + term
        k += 1


def oracle_exp(s):
    return oracle_exp_sum(oracle_unit(s.sig, s.trunc), lambda t: t * s)


def oracle_log(s):
    u = s - oracle_unit(s.sig, s.trunc)
    result = OracleSeries(s.sig, s.trunc, {})
    power = oracle_unit(s.sig, s.trunc)
    for k in range(1, s.trunc + 1):
        power = power * u
        if power.is_zero():
            break
        result = result + power.scaled(Fraction((-1) ** (k + 1), k))
    return result


def oracle_bch(u, v):
    return oracle_log(oracle_exp(u) * oracle_exp(v))


class OracleDerivation:
    def __init__(self, sig, trunc, images):
        self.sig = sig
        self.trunc = trunc
        self.images = {name: img for name, img in images.items() if not img.is_zero()}

    def apply(self, s):
        sig = self.sig
        out = {}
        for word, coeff in s.items():
            wdeg = sig.degree(word)
            for i, letter in enumerate(word):
                img = self.images.get(letter)
                if img is None:
                    continue
                base = wdeg - sig.weight(letter)
                head, tail = word[:i], word[i + 1:]
                for d_img, bucket in img.buckets.items():
                    d = base + d_img
                    if d > self.trunc:
                        continue
                    tgt = out.setdefault(d, {})
                    for mid, c in bucket.items():
                        w = head + mid + tail
                        old = tgt.get(w)
                        tgt[w] = coeff * c if old is None else old + coeff * c
        return OracleSeries.settled(sig, self.trunc, out)


class OracleAlgebraMap:
    def __init__(self, sig, trunc, images):
        self.sig = sig
        self.trunc = trunc
        self.images = dict(images)
        self.memo = {(): oracle_unit(sig, trunc)}

    def image(self, name):
        img = self.images.get(name)
        if img is None:
            return oracle_generator(self.sig, self.trunc, name)
        return img

    def word_image(self, word):
        memo = self.memo
        if word in memo:
            return memo[word]
        k = len(word) - 1
        while k > 0 and word[:k] not in memo:
            k -= 1
        product = memo[word[:k]]
        for i in range(k, len(word)):
            product = product * self.image(word[i])
            memo[word[:i + 1]] = product
        return product

    def apply(self, s):
        out = {}
        for word, coeff in s.items():
            for d, bucket in self.word_image(word).buckets.items():
                tgt = out.setdefault(d, {})
                for w, c in bucket.items():
                    old = tgt.get(w)
                    tgt[w] = coeff * c if old is None else old + coeff * c
        return OracleSeries.settled(self.sig, self.trunc, out)

    def compose(self, other):
        return OracleAlgebraMap(self.sig, self.trunc,
                                {name: self.apply(other.image(name))
                                 for name in self.sig.gens})


def oracle_derivation_exp(d):
    return OracleAlgebraMap(d.sig, d.trunc, {
        name: oracle_exp_sum(oracle_generator(d.sig, d.trunc, name), d.apply)
        for name in d.sig.gens})


# -- seeded inputs ---------------------------------------------------------

def _coeff(rng, style):
    if style == "integral":
        return rng.choice((-3, -2, -1, 1, 2, 4, 6))
    if style == "huge":
        num = rng.choice((-1, 1)) * rng.randint(1, 10 ** 12)
        return Fraction(num, rng.randint(10 ** 9 + 1, 10 ** 13))
    num = rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
    return Fraction(num, rng.choice((1, 2, 3, 4, 6, 9, 12)))


def _terms(rng, sig, trunc, nterms=4, constant=True, style=None):
    """Terms of a seeded series; some words repeat or pass the truncation."""
    style = style or rng.choice(("small", "small", "integral", "huge"))
    terms = []
    for _ in range(rng.randint(0, nterms)):
        word = random_word(rng, sig, 3, trunc + 1)
        if word or constant:
            terms.append((word, _coeff(rng, style)))
    if terms and rng.random() < 0.3:
        word, coeff = rng.choice(terms)
        terms.append((word, -coeff))
    return terms


def _pair(rng, sig, trunc, **kw):
    terms = _terms(rng, sig, trunc, **kw)
    return (TensorSeries.from_terms(sig, trunc, terms),
            OracleSeries.from_terms(sig, trunc, terms))


def _opposite(rng, sig, trunc, new, old):
    """Something that cancels part or all of (new, old) when added."""
    mode = rng.randrange(3)
    if mode == 0:
        return new.scaled(-1), -old
    if mode == 1:
        terms = [(w, -c) for w, c in old.items() if rng.random() < 0.5]
        terms += _terms(rng, sig, trunc, nterms=2)
        return (TensorSeries.from_terms(sig, trunc, terms),
                OracleSeries.from_terms(sig, trunc, terms))
    return _pair(rng, sig, trunc)


def _scalar(rng, new):
    """A scalar that often shares factors with the series' coefficients."""
    dens = [c.denominator for _, c in new.items()] or [1]
    nums = [c.numerator for _, c in new.items()] or [1]
    mode = rng.randrange(5)
    if mode == 0:
        return Fraction(rng.choice(dens) * rng.choice((-2, 1, 3)),
                        rng.choice((1, 2, 5)))
    if mode == 1:
        return Fraction(rng.choice((-1, 1, 2)), abs(rng.choice(nums)) * rng.choice((1, 3)))
    if mode == 2:
        return rng.choice((0, 1, -1, 2, -6))
    if mode == 3:
        return Fraction(rng.choice(nums), rng.choice(dens) * rng.choice((1, 7)))
    return _coeff(rng, rng.choice(("small", "huge")))


def _images(rng, sig, trunc, raising):
    """Seeded generator images; raising ones lift each letter's weight."""
    new, old = {}, {}
    for name in sig.gens:
        if rng.random() < 0.3:
            continue
        terms = _terms(rng, sig, trunc, constant=not raising)
        if raising:
            terms = [(w, c) for w, c in terms
                     if sig.degree(w) > sig.weight(name)]
        new[name] = TensorSeries.from_terms(sig, trunc, terms)
        old[name] = OracleSeries.from_terms(sig, trunc, terms)
    return new, old


# -- comparison --------------------------------------------------------------

def assert_same(new, old):
    assert (new.sig, new.trunc) == (old.sig, old.trunc)
    items = dict(new.items())
    assert items == dict(old.items())
    assert all(type(c) is Fraction for c in items.values())
    assert all(type(c) is Fraction for _, c in new.terms())
    assert type(new.constant_term()) is Fraction
    assert new.constant_term() == old.constant_term()
    for word, coeff in items.items():
        assert new.coefficient(word) == coeff
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())
    # the necklace projection of the coded series, against the necklaces
    # of the oracle's name tuples summed one Fraction at a time
    assert json.dumps(necklace_project(new).to_json()) == json.dumps(
        CyclicSeries(old.sig, old.trunc, old.items()).to_json())
    # storage invariant: nonzero int numerators over a coprime positive
    # denominator, keyed by coded words (one character per letter) under
    # the bucket of their degree; the zero series has 1
    den = new._den
    nums = [c for b in new._buckets.values() for c in b.values()]
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums)
    assert gcd(den, *nums) == 1
    assert all(type(w) is str and new.sig.degree(new.sig._decode(w)) == d
               for d, b in new._buckets.items() for w in b)
    assert new == TensorSeries.from_terms(new.sig, new.trunc, items.items())


def assert_same_map(new, old):
    for name in new.sig.gens:
        assert_same(new.image(name), old.image(name))


def _kernel_from_terms(rng, sig, trunc):
    terms = _terms(rng, sig, trunc, nterms=7)
    assert_same(TensorSeries.from_terms(sig, trunc, terms),
                OracleSeries.from_terms(sig, trunc, terms))


def _kernel_add(rng, sig, trunc):
    a, oa = _pair(rng, sig, trunc)
    if rng.random() < 0.2:
        c = _coeff(rng, rng.choice(("small", "integral", "huge")))
        assert_same(a + c, oa + c)
        assert_same(TensorSeries.from_terms(sig, trunc, [((), c)]) + a,
                    oa + c)
        return
    b, ob = _opposite(rng, sig, trunc, a, oa)
    assert_same(a + b, oa + ob)


def _kernel_sub(rng, sig, trunc):
    a, oa = _pair(rng, sig, trunc)
    if rng.random() < 0.3:
        assert_same(a - a, oa - oa)
        return
    b, ob = _pair(rng, sig, trunc)
    assert_same(a - b, oa - ob)
    assert_same(a.scaled(-1), -oa)


def _kernel_combination(rng, sig, trunc):
    """No parts, coefficient 0, parts that cancel in part or in full,
    and huge denominators, streamed through a generator."""
    mode = rng.randrange(4)
    parts = []
    for _ in range(0 if mode == 0 else rng.randint(1, 5)):
        new, old = _pair(rng, sig, trunc)
        c = 0 if rng.random() < 0.15 else _scalar(rng, new)
        parts.append((c, new, old))
    if mode >= 2 and parts:
        # a rescaled copy of a part whose coefficient cancels it, or of
        # every part (mode 3: the whole sum is zero)
        for c, new, old in (parts[:] if mode == 3 else parts[:1]):
            k = _coeff(rng, rng.choice(("small", "huge")))
            copy = [(w, coeff * k) for w, coeff in old.items()]
            parts.append((-Fraction(c) / k,
                          TensorSeries.from_terms(sig, trunc, copy),
                          OracleSeries.from_terms(sig, trunc, copy)))
        rng.shuffle(parts)
    expect = OracleSeries(sig, trunc, {})
    for c, _, old in parts:
        expect = expect + old.scaled(c)
    got = TensorSeries.combination(sig, trunc,
                                   ((c, new) for c, new, _ in parts))
    assert_same(got, expect)
    if mode == 3:
        assert got.is_zero()


def _kernel_mul(rng, sig, trunc):
    a, oa = _pair(rng, sig, trunc)
    b, ob = _pair(rng, sig, trunc)
    assert_same(a * b, oa * ob)


def _kernel_scaled(rng, sig, trunc):
    a, oa = _pair(rng, sig, trunc)
    s = _scalar(rng, a)
    assert_same(a.scaled(s), oa.scaled(s))
    constant = TensorSeries.from_terms(sig, trunc, [((), s)])
    assert_same(a * constant, oa.scaled(s))
    assert_same(constant * a, oa.scaled(s))


def _kernel_truncated(rng, sig, trunc):
    a, oa = _pair(rng, sig, trunc, nterms=6)
    k = rng.randint(1, trunc)
    assert_same(a.truncated(k), oa.truncated(k))


def _kernel_homogeneous(rng, sig, trunc):
    a, oa = _pair(rng, sig, trunc, nterms=6)
    d = rng.randint(0, trunc)
    assert_same(a.homogeneous_component(d), oa.homogeneous_component(d))


def _kernel_exp(rng, sig, trunc):
    u, ou = _pair(rng, sig, trunc, nterms=3, constant=False)
    assert_same(exp(u), oracle_exp(ou))


def _kernel_log(rng, sig, trunc):
    u, ou = _pair(rng, sig, trunc, nterms=3, constant=False)
    assert_same(log(u + 1), oracle_log(ou + 1))


def _kernel_bch(rng, sig, trunc):
    u, ou = _pair(rng, sig, trunc, nterms=2, constant=False)
    v, ov = _pair(rng, sig, trunc, nterms=2, constant=False)
    assert_same(bch(u, v), oracle_bch(ou, ov))


def _kernel_derivation(rng, sig, trunc):
    images, oimages = _images(rng, sig, trunc, raising=rng.random() < 0.5)
    a, oa = _pair(rng, sig, trunc, nterms=5)
    assert_same(Derivation(sig, trunc, images).apply(a),
                OracleDerivation(sig, trunc, oimages).apply(oa))


def _kernel_algebra_map(rng, sig, trunc):
    images, oimages = _images(rng, sig, trunc, raising=False)
    a, oa = _pair(rng, sig, trunc, nterms=5)
    assert_same(AlgebraMap(sig, trunc, images).apply(a),
                OracleAlgebraMap(sig, trunc, oimages).apply(oa))


def _kernel_compose(rng, sig, trunc):
    phi, ophi = _images(rng, sig, trunc, raising=False)
    psi, opsi = _images(rng, sig, trunc, raising=False)
    assert_same_map(compose(AlgebraMap(sig, trunc, phi), AlgebraMap(sig, trunc, psi)),
                    OracleAlgebraMap(sig, trunc, ophi).compose(
                        OracleAlgebraMap(sig, trunc, opsi)))


def _kernel_derivation_exp(rng, sig, trunc):
    images, oimages = _images(rng, sig, trunc, raising=True)
    assert_same_map(derivation_exp(Derivation(sig, trunc, images)),
                    oracle_derivation_exp(OracleDerivation(sig, trunc, oimages)))


KERNELS = {
    "from_terms": _kernel_from_terms,
    "add": _kernel_add,
    "sub": _kernel_sub,
    "combination": _kernel_combination,
    "mul": _kernel_mul,
    "scaled": _kernel_scaled,
    "truncated": _kernel_truncated,
    "homogeneous_component": _kernel_homogeneous,
    "exp": _kernel_exp,
    "log": _kernel_log,
    "bch": _kernel_bch,
    "derivation_apply": _kernel_derivation,
    "algebra_map_apply": _kernel_algebra_map,
    "algebra_map_compose": _kernel_compose,
    "derivation_exp": _kernel_derivation_exp,
}


def _sweep(name):
    rng = random.Random("oracle-" + name)
    kernel = KERNELS[name]
    for case in range(CASES_PER_KERNEL):
        genus, punctures = SIGNATURES[case % len(SIGNATURES)]
        trunc = 1 + case // len(SIGNATURES) % 6
        try:
            kernel(rng, GenSignature(genus, punctures), trunc)
        except AssertionError as err:
            raise AssertionError("%s case %d on (%d,%d) N=%d: %s"
                                 % (name, case, genus, punctures, trunc, err)) from None


def test_from_terms_matches_oracle():
    _sweep("from_terms")


def test_add_matches_oracle():
    _sweep("add")


def test_sub_matches_oracle():
    _sweep("sub")


def test_combination_matches_oracle():
    _sweep("combination")


def test_combination_edge_cases():
    sig = GenSignature(1, 1)
    x = TensorSeries.generator(sig, 3, "x1")
    for parts in ([], [(0, x)], [(2, x), (Fraction(-4, 2), x)]):
        zero = TensorSeries.combination(sig, 3, parts)
        assert zero.is_zero() and zero._den == 1
        assert zero == TensorSeries.zero(sig, 3)
    with pytest.raises(ValueError, match="mismatch"):
        TensorSeries.combination(sig, 2, [(1, x)])
    with pytest.raises(ValueError, match="mismatch"):
        TensorSeries.combination(GenSignature(1, 0), 3, [(1, x)])
    with pytest.raises(ValueError, match="truncation"):
        TensorSeries.combination(sig, 0, [])
    with pytest.raises(TypeError):
        TensorSeries.combination(sig, 3, [(0.5, x)])
    # the lcm of the parts' denominators, reduced once at the end
    half = x.scaled(Fraction(1, 2))
    got = TensorSeries.combination(
        sig, 3, iter([(Fraction(1, 3), half), (Fraction(1, 3), half),
                      (Fraction(2, 3), x)]))
    assert got == x
    assert got._den == 1 and got._buckets == {1: {sig._encode(("x1",)): 1}}


def test_mul_matches_oracle():
    _sweep("mul")


def test_scaled_matches_oracle():
    _sweep("scaled")


def test_truncated_matches_oracle():
    _sweep("truncated")


def test_homogeneous_component_matches_oracle():
    _sweep("homogeneous_component")


def test_exp_matches_oracle():
    _sweep("exp")


def test_log_matches_oracle():
    _sweep("log")


def test_bch_matches_oracle():
    _sweep("bch")


def test_derivation_apply_matches_oracle():
    _sweep("derivation_apply")


def test_algebra_map_apply_matches_oracle():
    _sweep("algebra_map_apply")


def test_algebra_map_compose_matches_oracle():
    _sweep("algebra_map_compose")


def test_derivation_exp_matches_oracle():
    _sweep("derivation_exp")


def test_accessors_return_fractions_on_integral_and_zero_series():
    sig = GenSignature(1, 1)
    s = TensorSeries.from_terms(sig, 3, [(("x1",), 2), ((), 4)])
    assert type(s.coefficient(("x1",))) is Fraction
    assert type(s.coefficient(("y1",))) is Fraction
    assert type(s.constant_term()) is Fraction
    zero = s - s
    assert zero.is_zero() and zero._den == 1
    assert type(zero.constant_term()) is Fraction
    assert repr(zero) == "<TensorSeries %s N=3: 0>" % (sig,)
    halves = TensorSeries.from_terms(sig, 3, [(("x1",), Fraction(1, 2)),
                                              (("y1",), Fraction(-3, 2))])
    assert repr(halves) == "<TensorSeries %s N=3: 1/2 x1 - 3/2 y1>" % (sig,)


# -- == agrees with the oracle's == -------------------------------------------

_SIG = GenSignature(1, 1)
_WORDS = ((), ("x1",), ("y1",), ("x1", "y1"), ("z1",))
_COEFFS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
           Fraction(2, 3), Fraction(3), Fraction(1, 10 ** 10 + 1))
_term_lists = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_COEFFS)),
                       max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_term_lists, _term_lists, st.sampled_from(_COEFFS), st.integers(1, 3))
def test_equality_agrees_with_oracle(a_terms, b_terms, scalar, trunc):
    a = TensorSeries.from_terms(_SIG, trunc, a_terms)
    b = TensorSeries.from_terms(_SIG, trunc, b_terms)
    oa = OracleSeries.from_terms(_SIG, trunc, a_terms)
    ob = OracleSeries.from_terms(_SIG, trunc, b_terms)
    assert (a == b) == (oa == ob)
    # a detour through a scalar and back, or through b, must compare equal
    # exactly when the oracle's values do
    a2 = a.scaled(scalar).scaled(1 / scalar)
    assert (a2 == b) == (oa == ob)
    assert ((a + b) - b == a) == ((oa + ob) - ob == oa)
    assert ((a * b) == (b * a)) == ((oa * ob) == (ob * oa))


# -- coded products against the oracle on a genus-10 alphabet -----------------

_SIG10 = GenSignature(10, 1)
# name order and position order disagree on these: "x10" < "x2" as
# strings, while x2 comes before x10 (and every y after every x)
_LETTERS10 = ("x1", "x2", "x10", "y2", "y10", "z1")
_FRACTIONS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
              Fraction(-2, 3), Fraction(5, 6), Fraction(-7, 4),
              Fraction(1, 10 ** 10 + 1))
_words10 = st.lists(st.sampled_from(_LETTERS10), max_size=4).map(tuple)
_terms10 = st.lists(st.tuples(_words10, st.sampled_from(_FRACTIONS)),
                    max_size=5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_terms10, _terms10, st.integers(1, 4), st.booleans())
def test_coded_mul_matches_oracle(a_terms, b_terms, trunc, inverse):
    """a * b, b * a and b * b against the oracle's products, with
    denominators > 1 and z letters.  With inverse, b is a's inverse (its
    geometric series), so every bucket of a * b but the constant one
    cancels to zero; and a power of a's positive part whose degree
    passes the truncation is the zero series."""
    a = TensorSeries.from_terms(_SIG10, trunc, a_terms)
    b = TensorSeries.from_terms(_SIG10, trunc, b_terms)
    if inverse:
        a = a - a.constant_term() + 1
        minus = (a - 1).scaled(-1)
        b = TensorSeries.unit(_SIG10, trunc)
        for _ in range(trunc):
            b = b * minus + 1
    oa = OracleSeries.from_terms(_SIG10, trunc, a.items())
    ob = OracleSeries.from_terms(_SIG10, trunc, b.items())
    for left, right, oleft, oright in ((a, b, oa, ob), (b, a, ob, oa),
                                       (b, b, ob, ob)):
        assert_same(left * right, oleft * oright)
    if inverse:
        assert a * b == TensorSeries.unit(_SIG10, trunc) == b * a
    high = a - a.constant_term()
    if not high.is_zero():
        # valuation v and v * k > trunc: a zero product, all truncated
        k = trunc // high.valuation() + 1
        power = TensorSeries.unit(_SIG10, trunc)
        for _ in range(k):
            power = power * high
        assert_same(power, OracleSeries(_SIG10, trunc, {}))


def test_coded_order_is_position_order_on_genus_10():
    words = [("x10",), ("x2",), ("y1",), ("x1", "z1"), ("z1", "x1"),
             ("x10", "x2"), ("x2", "x10"), ("y10", "x1"), ()]
    s = TensorSeries.from_terms(_SIG10, 3, [(w, 1) for w in words])
    order = [w for w, _ in s.terms()]
    pos = {name: i for i, name in enumerate(_SIG10.gens)}
    assert order == sorted(words, key=lambda w: (_SIG10.degree(w),
                                                 [pos[l] for l in w]))
    assert order[:4] == [(), ("x2",), ("x10",), ("y1",)]
    assert [t["word"] for t in s.to_json()["terms"]] == [list(w) for w in order]
    assert json.dumps(s.to_json()) == json.dumps(
        OracleSeries.from_terms(_SIG10, 3, [(w, 1) for w in words]).to_json())
