"""Simple closed curves detected by the bracket: [V, V^3] = 0.

On a surface with boundary, a free homotopy class V that is not a
proper power has a simple representative exactly when the Goldman
bracket of V with its cube vanishes (Chas and Krongold, "An algebraic
characterization of simple closed curves on surfaces with boundary",
J. Topol. Anal. 2, 2010).  The theorem's exact hypotheses are not
restated here; what is checked is the identity itself, computed with
goldman_bracket and adams, over every class of length 1 to 7 that is
not a proper power, against the classes known to be simple:

- on the one-holed torus (1,1), the simple classes are the primitive
  ones and the two orientations of the boundary.  A primitive class of
  F(a, b) is, up to a1 -> a1^-1 and b1 -> b1^-1, the cyclic Christoffel
  word of a coprime slope (p, q) (Osborne and Zieschang, "Primitives
  in the free group on two generators", Invent. Math. 63, 1981), so
  there are 4 phi(n) of length n, and 2 more at length 4;
- on the pair of pants (0,3), the simple classes are the three
  boundaries c1, c2 and c1 c2, each in both orientations;
- on (2,1) and (1,2), spot checks known by construction: the edges of
  any subset of the ribbon graph's edges thicken to a subsurface, whose
  boundary curves, the faces of that sub-ribbon graph, are simple.
  They include the generators, the boundary words and the separating
  commutator a1 b1 a1^-1 b1^-1.

The classes are enumerated here as necklaces of cyclically reduced
words, and their number is checked against Moebius inversion, so the
sweep cannot thin out unnoticed.
"""

from itertools import combinations, product
from math import gcd

import pytest

from goldman_forge.goldman import LoopSum, adams, goldman_bracket
from goldman_forge.surface import (
    FreeWord,
    SurfaceSpec,
    boundary_word,
    cyclic_normal_form,
    ribbon_structure,
)
from helpers import faces

MAX_LENGTH = 7


def _is_power(word):
    n = len(word)
    return any(word == word[d:] + word[:d] for d in range(1, n) if n % d == 0)


def classes(spec, length):
    """One cyclically reduced word per class of the given length that is
    not a proper power: the least rotation of each necklace."""
    letters = [(base, e) for base in spec.generators() for e in (1, -1)]
    out = set()
    for word in product(letters, repeat=length):
        if any(x[0] == y[0] and x[1] == -y[1]
               for x, y in zip(word, word[1:] + word[:1])):
            continue
        if not _is_power(word):
            out.add(min(word[i:] + word[:i] for i in range(length)))
    return sorted(out)


def necklace_count(rank, n):
    """Classes of length n in the free group of the given rank that are
    not proper powers: Moebius inversion of the count of cyclically
    reduced words, (2r-1)^n + 1 + (r-1)(1 + (-1)^n)."""
    def mobius(m):
        sign, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if m > 1 else sign

    def cyclically_reduced(d):
        return (2 * rank - 1) ** d + 1 + (rank - 1) * (1 + (-1) ** d)
    return sum(mobius(n // d) * cyclically_reduced(d)
               for d in range(1, n + 1) if n % d == 0) // n


def bracket_with_cube_vanishes(spec, word):
    v = LoopSum.of(spec, FreeWord(word))
    return goldman_bracket(v, adams(3, v)).is_zero()


def passing(spec, length):
    return {cyclic_normal_form(word) for word in classes(spec, length)
            if bracket_with_cube_vanishes(spec, word)}


def christoffel(p, q):
    """The Christoffel word of slope q/p, with p letters a1 and q letters
    b1: letter i is b1 where floor(i q / (p + q)) steps."""
    n = p + q
    return tuple(("b1", 1) if i * q // n > (i - 1) * q // n else ("a1", 1)
                 for i in range(1, n + 1))


def torus_simple_classes(n):
    out = set()
    for p in range(n + 1):
        if gcd(p, n - p) != 1:
            continue
        for ea, eb in product((1, -1), repeat=2):
            sign = {"a1": ea, "b1": eb}
            out.add(cyclic_normal_form(tuple(
                (base, sign[base]) for base, _ in christoffel(p, n - p))))
    if n == 4:
        for word in ((("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)),
                     (("b1", 1), ("a1", 1), ("b1", -1), ("a1", -1))):
            out.add(cyclic_normal_form(word))
    return out


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("gb", [(1, 1), (0, 3)], ids=["torus", "pants"])
def test_class_enumeration_is_complete(gb):
    spec = SurfaceSpec(*gb)
    counts = [len(classes(spec, n)) for n in range(1, MAX_LENGTH + 1)]
    assert counts == [necklace_count(2, n) for n in range(1, MAX_LENGTH + 1)]
    assert sum(counts) == 510


# simple classes of each length on (1,1): 4 phi(n), and the two
# boundary classes at length 4
TORUS_COUNTS = {1: 4, 2: 4, 3: 8, 4: 10, 5: 16, 6: 8, 7: 24}


@pytest.mark.parametrize("n", range(1, MAX_LENGTH + 1))
def test_one_holed_torus(n):
    got = passing(SurfaceSpec(1, 1), n)
    assert len(got) == TORUS_COUNTS[n] == 4 * euler_phi(n) + 2 * (n == 4)
    assert got == torus_simple_classes(n)


def test_pair_of_pants():
    spec = SurfaceSpec(0, 3)
    got = set()
    for n in range(1, MAX_LENGTH + 1):
        got |= passing(spec, n)
    boundaries = [(("c1", 1),), (("c2", 1),), (("c1", 1), ("c2", 1))]
    want = {cyclic_normal_form(w) for w in boundaries}
    want |= {cyclic_normal_form(FreeWord(w).inverse()) for w in boundaries}
    assert len(want) == 6
    assert got == want


@pytest.mark.parametrize("gb", [(2, 1), (1, 2)], ids=["g2b1", "g1b2"])
def test_faces_of_sub_ribbon_graphs(gb):
    spec = SurfaceSpec(*gb)
    slot = ribbon_structure(spec)
    edges = spec.generators()
    simple = set()
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            sub = {d: i for d, i in slot.items() if d[0] in subset}
            simple.update(cyclic_normal_form(w) for w in faces(sub))
    for base in edges:
        assert cyclic_normal_form(((base, 1),)) in simple
    assert cyclic_normal_form(boundary_word(spec)) in simple
    commutator = (("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1))
    assert cyclic_normal_form(commutator) in simple
    for v in simple:
        assert bracket_with_cube_vanishes(spec, v.word), str(v)
