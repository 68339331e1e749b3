"""Shared helpers for the test suite: seeded random algebra elements.

Sweeps are hand-rolled with random.Random so failures replay exactly;
every test passes its own seed.
"""

from fractions import Fraction

from goldman_forge.surface import FreeWord
from goldman_forge.tensoralg import TensorSeries, lie_bracket


def random_surface_word(rng, spec, max_len):
    """A random reduced word in the surface generators."""
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.choice(spec.generators()),
                        rng.choice((1, -1))))
    return FreeWord(letters).reduce()


def random_word(rng, sig, max_len, max_degree):
    """A random generator word of weighted degree <= max_degree."""
    word = []
    degree = 0
    for _ in range(rng.randrange(max_len + 1)):
        letter = rng.choice(sig.gens)
        if degree + sig.weight(letter) > max_degree:
            break
        word.append(letter)
        degree += sig.weight(letter)
    return tuple(word)


def random_coeff(rng, span=3, denom=4):
    num = rng.randint(-span, span)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, denom))


def random_series(rng, sig, trunc, nterms=6, max_len=4, with_constant=True):
    terms = []
    for _ in range(nterms):
        word = random_word(rng, sig, max_len, trunc)
        if not with_constant and not word:
            continue
        terms.append((word, random_coeff(rng)))
    return TensorSeries.from_terms(sig, trunc, terms)


def random_primitive(rng, sig, trunc, nterms=3, max_depth=3):
    """Random Q-combination of left-normed brackets of generators."""
    total = TensorSeries.zero(sig, trunc)
    for _ in range(nterms):
        depth = rng.randint(1, max_depth)
        letters = [rng.choice(sig.gens) for _ in range(depth)]
        elem = TensorSeries.generator(sig, trunc, letters[0])
        for letter in letters[1:]:
            elem = lie_bracket(elem, TensorSeries.generator(sig, trunc, letter))
        total = total + elem.scaled(random_coeff(rng))
    return total


# The one-character encoding of the resolution rewriting, written out:
# a_i and b_i take consecutive characters in the order a1, b1, a2, b2, ...
RESOLUTION_CHAR = {"a1": "A", "b1": "B", "a2": "C", "b2": "D",
                   "a3": "E", "b3": "F"}
RESOLUTION_NAME = {c: name for name, c in RESOLUTION_CHAR.items()}


def encode_word(names):
    """Tuple of generator names -> the str word the rewriting works on."""
    return "".join(RESOLUTION_CHAR[name] for name in names)


def decode_word(chars):
    """str word of the rewriting -> tuple of generator names."""
    return tuple(RESOLUTION_NAME[c] for c in chars)
