"""The filtration shift rule shared by gr-bracket and bipair.

The pairing's valuation is checked against the int-accumulator code it
replaced, kept here as old_pair_valuation.  The shift rule itself is
watched through suites._shift_failure: every case's bound must be one a
truncation-N expansion can decide, and every check must have a case
that meets its bound exactly, so that none passes vacuously.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from goldman_forge import suites
from goldman_forge.goldman import PathPairSum, PathSum, bi_pairing
from goldman_forge.magnus import default_expansion
from goldman_forge.surface import FreeWord, Path, SurfaceSpec


def old_pair_valuation(pairs, theta):
    # weight of the expanded output in the untruncated tensor square;
    # the terms are summed first, so cross-term cancellation counts:
    # int numerators over the lcm of the pairs' denominators
    _, terms = pairs.numerators()
    expanded, total = {}, {}
    for (p1, p2), _ in terms:
        for word in (p1.word, p2.word):
            if word not in expanded:
                expanded[word] = theta.expand_word(word).numerators()
    den = lcm(*(expanded[p1.word][0] * expanded[p2.word][0]
                for (p1, p2), _ in terms))
    for (p1, p2), n in terms:
        (d1, e1), (d2, e2) = expanded[p1.word], expanded[p2.word]
        k = n * (den // (d1 * d2))
        for w1, n1 in e1:
            for w2, n2 in e2:
                total[w1, w2] = total.get((w1, w2), 0) + k * n1 * n2
    degree = theta.sig.degree
    return min((degree(w1) + degree(w2) for (w1, w2), c in total.items()
                if c), default=float("inf"))


def _agrees(pairs, theta):
    new = suites._pair_valuation(pairs, theta)
    old = old_pair_valuation(pairs, theta)
    return (float("inf") if new is None else new) == old, new


# (surface, truncation, left tags, right tags)
SETTINGS = [
    ((1, 3), 5, (0, 1), (2, 2)),
    ((1, 3), 3, (0, 1), (2, 2)),
    ((0, 4), 6, (0, 2), (1, 3)),
    ((2, 3), 4, (0, 1), (2, 2)),
]


@pytest.mark.parametrize("surface, trunc, tags1, tags2", SETTINGS)
def test_seeded_pairings_match_the_old_valuation(surface, trunc, tags1,
                                                 tags2):
    spec = SurfaceSpec(*surface)
    theta = default_expansion(spec, trunc)
    rng = random.Random(sum(surface) * 10 + trunc)

    def path_sum(tags):
        coeff = rng.choice((1, -1, 2, Fraction(1, 3)))
        g = PathSum.of(spec, Path(*tags, suites._random_word(
            rng, spec, 3, min_len=0)), coeff)
        if rng.random() < 0.7:
            g = g - PathSum.of(spec, Path(*tags, suites._random_word(
                rng, spec, 3, min_len=0)))
        return g

    vanishing = 0
    for _ in range(60):
        ok, value = _agrees(bi_pairing(path_sum(tags1), path_sum(tags2)),
                            theta)
        assert ok
        vanishing += value is None
    assert vanishing  # zero pairings are among the draws


def _pairs(spec, entries):
    """A path-pair sum on tags 0->1 x 2->2 from (left word, right word,
    coeff) entries."""
    out = PathPairSum(spec)
    for w1, w2, c in entries:
        out.add_term((Path(0, 1, w1), Path(2, 2, w2)), c)
    return out


ONE, A, B = FreeWord(), FreeWord((("a1", 1),)), FreeWord((("b1", 1),))
COMM = A * B * A.inverse() * B.inverse()
DEEP = COMM * A * COMM.inverse() * A.inverse()
DEEP_B = COMM * B * COMM.inverse() * B.inverse()
# a commutator of two weight-3 commutators: theta(SIX) - 1 starts at 6
SIX = DEEP * DEEP_B * DEEP.inverse() * DEEP_B.inverse()


def _product(left, right, scale=1):
    """(left[0] - left[1]) x (right[0] - right[1]), the cross terms
    cancelling the constant terms of both sides."""
    return [(left[0], right[0], scale), (left[1], right[1], scale),
            (left[0], right[1], -scale), (left[1], right[0], -scale)]


HAND_BUILT = [
    # (entries, valuation at truncation 5, why)
    ([], None, "zero sum"),
    ([(A, B, 1), (A, B, -1)], None, "terms cancel in the sum"),
    ([(A, B, 3)], 0, "constant terms"),
    (_product((A, ONE), (COMM, ONE)), 3, "constants cancel across pairs"),
    (_product((A, ONE), (COMM, ONE), Fraction(2, 3))
     + [(B, B, Fraction(-1, 6)), (B, B, Fraction(1, 6))], 3,
     "Fraction coefficients"),
    ([(A * A, ONE, 1), (A, ONE, -2), (ONE, ONE, 1)], 2,
     "the weight-1 row cancels only under w1's coefficient"),
    (_product((COMM, ONE), (DEEP, ONE)), 5, "weight N exactly"),
    (_product((DEEP, ONE), (DEEP, ONE)), 6, "past N: both sides at 3"),
    (_product((SIX, ONE), (COMM, ONE)), None,
     "left difference vanishes through N"),
]


@pytest.mark.parametrize("entries, expected, why", HAND_BUILT,
                         ids=[h[2] for h in HAND_BUILT])
def test_hand_built_sums_match_the_old_valuation(entries, expected, why):
    spec = SurfaceSpec(1, 3)
    ok, value = _agrees(_pairs(spec, entries), default_expansion(spec, 5))
    assert ok
    assert value == expected


def _record(monkeypatch, suite, trunc):
    """Run a suite at truncation trunc with every shift case recorded
    as (operation, bound va + vb - 2, output valuation)."""
    cases = []
    rule = suites._shift_failure

    def recorder(name, operands, expansions, out):
        va, vb = (trunc + 1 if e.valuation() is None else e.valuation()
                  for e in expansions)
        cases.append((name, va + vb - 2, out))
        return rule(name, operands, expansions, out)

    monkeypatch.setattr(suites, "_shift_failure", recorder)
    assert suites.run_suite(suite, trunc=trunc)["passed"]
    return cases


# per operation: cases, outputs that vanish, outputs that meet the
# bound, and bounds of at least 1 (an output's valuation is never
# negative, so a case with a bound of 0 or less cannot fail)
@pytest.mark.parametrize("suite, trunc, expected", [
    ("gr-bracket", 6, {"bracket": (200, 20, 172, 11),
                       "action": (200, 32, 154, 26)}),
    ("bipair", 5, {"pairing": (60, 6, 41, 25)}),
])
def test_every_shift_case_is_decided_and_none_is_vacuous(monkeypatch, suite,
                                                         trunc, expected):
    cases = _record(monkeypatch, suite, trunc)
    # a bound past N + 1 would let an output vanishing through N pass
    # without certifying its case
    assert max(bound for _, bound, _ in cases) <= trunc + 1
    counts = {}
    for name, bound, out in cases:
        total, vanishing, attained, live = counts.get(name, (0, 0, 0, 0))
        counts[name] = (total + 1, vanishing + (out is None),
                        attained + (out == bound), live + (bound >= 1))
    assert counts == expected
    # some case meets a bound that could fail
    for name in counts:
        assert any(n == name and bound >= 1 and out == bound
                   for n, bound, out in cases), name
