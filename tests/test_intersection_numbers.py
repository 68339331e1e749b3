"""Intersection numbers read off the bracket of simple classes.

For a class alpha with a simple representative and any class beta on an
oriented surface, [alpha, beta] = 0 exactly when alpha and beta have
disjoint representatives (Goldman, "Invariant functions on Lie groups
and Hamiltonian flows of surface group representations", Invent. Math.
85, 1986), and more: the number of terms of [alpha, beta], counted with
multiplicity, is the minimal intersection number i(alpha, beta) (M.
Chas, "Minimal intersection of curves on surfaces", Geom. Dedicata 144,
2010).  The engine's bracket is reduced, so that count is the sum of
the absolute values of its coefficients.

On the one-holed torus (1,1) the simple classes are the primitive ones,
the cyclic Christoffel words of test_simple_curves up to inverting a1
or b1, and the two orientations of the boundary.  Two of them with
exponent sums (p, q) and (r, s) of a1 and b1 meet i = |ps - qr| times,
as on the closed torus; the boundary has sums (0, 0) and misses every
curve.  The sums are read from the words as they are built here, never
from engine output.  For powers the sweep checks that [alpha^m, beta^k]
has mk |ps - qr| terms: the m- and k-fold curves drawn along alpha and
beta meet mk times as often, and no two terms cancel.  That is the
identity checked, at small m and k, not a restatement of the statements
on powers in the literature (M. Chas and S. Gadgil, "The extended
Goldman bracket determines intersection numbers for surfaces and
orbifolds", Algebr. Geom. Topol. 16, 2016).
"""

from itertools import product
from math import gcd

import pytest

from goldman_forge.goldman import LoopSum, adams, goldman_bracket
from goldman_forge.surface import (
    SurfaceSpec,
    cyclic_normal_form,
    parse_word,
)
from test_simple_curves import christoffel, torus_simple_classes

TORUS = SurfaceSpec(1, 1)


def exponent_sums(word):
    """(p, q): the exponent sums of a1 and b1 in a letter tuple."""
    return (sum(e for base, e in word if base == "a1"),
            sum(e for base, e in word if base == "b1"))


def simple_torus_classes(max_length):
    """{class: (p, q)} over the simple classes of (1,1) of length 1 to
    max_length: each slope's Christoffel word under the four sign
    choices, and the boundary at length 4, with the sums of the word
    built (a class met twice must bring the same sums)."""
    out = {}
    for n in range(1, max_length + 1):
        words = [tuple((base, sign[base]) for base, _ in christoffel(p, n - p))
                 for p in range(n + 1) if gcd(p, n - p) == 1
                 for signs in product((1, -1), repeat=2)
                 for sign in [dict(zip(("a1", "b1"), signs))]]
        if n == 4:
            words += [tuple(parse_word("a1 b1 a1' b1'").letters),
                      tuple(parse_word("b1 a1 b1' a1'").letters)]
        found = set()
        for word in words:
            cls = cyclic_normal_form(word)
            assert out.setdefault(cls, exponent_sums(word)) == \
                exponent_sums(word), word
            found.add(cls)
        assert found == torus_simple_classes(n), n
    return out


def terms(bracket):
    """The number of terms of a loop sum, counted with multiplicity."""
    return sum(abs(c) for c in bracket.terms.values())


def bracket_terms(spec, alpha, beta, m=1, k=1):
    u = adams(m, LoopSum(spec, [(alpha, 1)]))
    v = adams(k, LoopSum(spec, [(beta, 1)]))
    return terms(goldman_bracket(u, v))


def test_simple_pairs_meet_as_their_slopes():
    simple = simple_torus_classes(7)
    assert len(simple) == 74
    pairs = crossing = 0
    for (alpha, (p, q)), (beta, (r, s)) in product(simple.items(),
                                                   repeat=2):
        assert bracket_terms(TORUS, alpha, beta) == abs(p * s - q * r), (
            str(alpha), str(beta))
        pairs += 1
        crossing += p * s != q * r
    assert pairs == 5476 and crossing > pairs // 2


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_powers_meet_mk_times(m, k):
    simple = simple_torus_classes(5)
    assert len(simple) == 42
    for (alpha, (p, q)), (beta, (r, s)) in product(simple.items(),
                                                   repeat=2):
        assert bracket_terms(TORUS, alpha, beta, m, k) == (
            m * k * abs(p * s - q * r)), (str(alpha), str(beta))


# (alpha, beta, i(alpha, beta)) on (2,1), alpha simple in each
GENUS_TWO_CASES = [
    # a1 and b1 are the two curves of one handle, dual to each other:
    # they meet once
    ("a1", "b1", 1),
    ("b1", "a1", 1),
    # curves in different handles are disjoint
    ("a1", "a2", 0),
    ("a1", "b2", 0),
    ("b1", "b2", 0),
    # the separating a1 b1 a1' b1' bounds the first handle, so it misses
    # every generator, inside that handle or outside it
    ("a1 b1 a1' b1'", "a1", 0),
    ("a1 b1 a1' b1'", "b1", 0),
    ("a1 b1 a1' b1'", "a2", 0),
    ("a1 b1 a1' b1'", "b2", 0),
    # a1 b2 and a1 a2 run through both sides of it and are homotopic into
    # neither (their homology has parts in both handles), so they cross
    # it at least twice, and their band-sum curves cross it twice
    ("a1 b1 a1' b1'", "a1 b2", 2),
    ("a1 b1 a1' b1'", "a1 a2", 2),
]


@pytest.mark.parametrize("alpha,beta,want", GENUS_TWO_CASES)
def test_genus_two_spot_checks(alpha, beta, want):
    spec = SurfaceSpec(2, 1)
    a, b = (cyclic_normal_form(parse_word(w)) for w in (alpha, beta))
    assert bracket_terms(spec, a, b) == want
