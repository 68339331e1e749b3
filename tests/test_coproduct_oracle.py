"""Differential tests of the coproduct and the primitive/group-like tests.

is_primitive is the Dynkin-Specht-Wever test (constant term 0 and
D(s_n) == n s_n on every word-length component) and is_group_like is
"constant term 1 and log primitive"; neither reads the coproduct.  The
oracle below decides both from the coproduct, as the engine once did:
a coproduct that adds every split of every word through
TensorSquare.add_term, oracle_pair for a tensor b, and the two
predicates as differences of tensor squares,

    primitive:   Delta(s) - s (x) 1 - 1 (x) s == 0,
    group-like:  constant term 1 and Delta(s) - s (x) s == 0.

TensorSquare, the doubled algebra these differences live in, is the
oracle's own type: the engine's coproduct returns a plain
{(left, right): Fraction} dict of its nonzero splits.

The engine's coproduct and predicates are compared with it on 5,000
seeded cases over five signatures and truncations 1-6: Lie brackets
with z letters, their exponentials and products of those, the same
series plus a non-Lie word or a constant term 0, 1 or 2, and the zero
series, with coefficients whose denominators exceed 10**9.  Both
outcomes of both predicates occur.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from goldman_forge.tensoralg import (
    GenSignature,
    TensorSeries,
    TermSum,
    as_coeff,
    coproduct,
    exp,
    is_group_like,
    is_primitive,
    lie_bracket,
)

SIGNATURES = ((1, 0), (1, 1), (2, 0), (2, 1), (1, 2))
CASES_PER_SIGNATURE = 1000


# -- the oracle: tensor-square differences --------------------------------

class TensorSquare(TermSum):
    """Sparse element of the doubled algebra.

    Terms are (left word, right word) -> coefficient with total weighted
    degree at most the truncation; * concatenates componentwise.
    """

    __slots__ = ("sig", "trunc")

    def __init__(self, sig, trunc, terms=None):
        self.sig = sig
        self.trunc = trunc
        super().__init__(terms)

    def add_term(self, pair, coeff):
        """Add coeff * (left, right); pairs past the truncation are dropped."""
        left, right = tuple(pair[0]), tuple(pair[1])
        if self.sig.degree(left) + self.sig.degree(right) <= self.trunc:
            TermSum.add_term(self, (left, right), coeff)
        else:
            as_coeff(coeff)     # inexact input is an error even when dropped

    def _sort_key(self, pair):
        return self.sig.sort_key(pair[0]), self.sig.sort_key(pair[1])

    def __mul__(self, other):
        # componentwise concatenation; add_term applies the truncation
        out = TensorSquare(self.sig, self.trunc)
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                out.add_term((l1 + l2, r1 + r2), c1 * c2)
        return out


def oracle_coproduct(s):
    out = TensorSquare(s.sig, s.trunc)
    for word, coeff in s.items():
        k = len(word)
        for mask in range(1 << k):
            left = tuple(word[i] for i in range(k) if (mask >> i) & 1)
            right = tuple(word[i] for i in range(k) if not (mask >> i) & 1)
            out.add_term((left, right), coeff)
    return out


def oracle_pair(a, b):
    assert a.sig == b.sig and a.trunc == b.trunc
    out = TensorSquare(a.sig, a.trunc)
    right = list(b.items())
    for w1, c1 in a.items():
        for w2, c2 in right:
            out.add_term((w1, w2), c1 * c2)
    return out


# both take delta == oracle_coproduct(s), so a case builds it once

def oracle_is_primitive(s, delta):
    one = TensorSeries.unit(s.sig, s.trunc)
    return (delta - oracle_pair(s, one) - oracle_pair(one, s)).is_zero()


def oracle_is_group_like(s, delta):
    if s.constant_term() != 1:
        return False
    return (delta - oracle_pair(s, s)).is_zero()


# -- seeded cases ----------------------------------------------------------

def _coeff(rng):
    if rng.random() < 0.25:
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6),
                        rng.randrange(10 ** 9 + 1, 10 ** 10))
    return Fraction(rng.randrange(1, 5) * rng.choice((-1, 1)),
                    rng.randrange(1, 4))


def _lie(rng, sig, trunc):
    """A combination of one or two nested brackets of two or three
    generators; the innermost letter is a z letter half the time when
    there is one."""
    zs = [name for name in sig.gens if name[0] == "z"]
    total = TensorSeries.zero(sig, trunc)
    for _ in range(rng.randrange(1, 3)):
        first = rng.choice(zs if zs and rng.random() < 0.5 else sig.gens)
        elem = TensorSeries.generator(sig, trunc, first)
        for _ in range(rng.randrange(1, 3)):
            other = TensorSeries.generator(sig, trunc, rng.choice(sig.gens))
            elem = (lie_bracket(elem, other) if rng.random() < 0.5
                    else lie_bracket(other, elem))
        total = total + elem.scaled(_coeff(rng))
    return total


def _non_lie_word(rng, sig, trunc):
    """c * w for a word w of two or more letters; a nonzero multiple of
    one such word is never primitive, though it may pass the truncation."""
    word = tuple(rng.choice(sig.gens) for _ in range(rng.randrange(2, 4)))
    return TensorSeries.from_terms(sig, trunc, [(word, _coeff(rng))])


def _case(rng, sig, trunc, kind):
    if kind == 0:
        return _lie(rng, sig, trunc)
    if kind == 1:
        return exp(_lie(rng, sig, trunc))
    if kind == 2:
        return exp(_lie(rng, sig, trunc)) * exp(_lie(rng, sig, trunc))
    if kind == 3:
        return _lie(rng, sig, trunc) + _non_lie_word(rng, sig, trunc)
    if kind == 4:
        return exp(_lie(rng, sig, trunc)) + _non_lie_word(rng, sig, trunc)
    if kind == 5:
        return _lie(rng, sig, trunc) + rng.choice((0, 1, 2))
    if kind == 6:
        return exp(_lie(rng, sig, trunc)) + (rng.choice((0, 1, 2)) - 1)
    return TensorSeries.zero(sig, trunc)


KINDS = 8


def _assert_matches_oracle(s):
    delta = oracle_coproduct(s)
    mine = coproduct(s)
    assert type(mine) is dict and mine == delta.terms
    assert all(type(c) is Fraction for c in mine.values())
    primitive = is_primitive(s)
    group_like = is_group_like(s)
    assert primitive == oracle_is_primitive(s, delta)
    assert group_like == oracle_is_group_like(s, delta)
    return primitive, group_like


def test_predicates_and_coproduct_match_oracle():
    outcomes = set()
    for genus, punctures in SIGNATURES:
        sig = GenSignature(genus, punctures)
        rng = random.Random("coproduct-oracle-%d-%d" % (genus, punctures))
        for case in range(CASES_PER_SIGNATURE):
            trunc = 1 + case % 6
            s = _case(rng, sig, trunc, case % KINDS)
            try:
                primitive, group_like = _assert_matches_oracle(s)
            except AssertionError:
                raise AssertionError("case %d on (%d,%d) N=%d: %r"
                                     % (case, genus, punctures, trunc, s)) from None
            outcomes.add(("primitive", primitive))
            outcomes.add(("group_like", group_like))
    assert outcomes == {("primitive", True), ("primitive", False),
                        ("group_like", True), ("group_like", False)}


def test_constant_terms_decide_the_low_cases():
    sig = GenSignature(1, 1)
    for trunc in range(1, 5):
        one = TensorSeries.unit(sig, trunc)
        assert not is_primitive(one) and not is_primitive(one.scaled(2))
        assert is_group_like(one) and not is_group_like(one.scaled(2))
        zero = TensorSeries.zero(sig, trunc)
        assert is_primitive(zero) and not is_group_like(zero)
        x = TensorSeries.generator(sig, trunc, "x1")
        assert not is_primitive(x + 1) and not is_group_like(x)
        for s in (one, one.scaled(2), zero, x, x + 1, x + 2):
            _assert_matches_oracle(s)


# -- a derandomized property over small term lists -------------------------

_SIG = GenSignature(1, 1)
_WORDS = ((), ("x1",), ("y1",), ("z1",), ("x1", "y1"), ("y1", "x1"),
          ("x1", "z1"), ("z1", "x1"), ("x1", "x1"))
_COEFFS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2),
           Fraction(1, 10 ** 10 + 1))
_term_lists = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_COEFFS)),
                       max_size=5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_term_lists, st.integers(1, 4), st.booleans())
def test_property_matches_oracle(terms, trunc, exponentiate):
    s = TensorSeries.from_terms(_SIG, trunc, terms)
    if exponentiate:
        s = exp(s - s.constant_term())
    _assert_matches_oracle(s)
