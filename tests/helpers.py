"""Shared helpers for the test suite: seeded random algebra elements.

Sweeps are hand-rolled with random.Random so failures replay exactly;
every test passes its own seed.
"""

from fractions import Fraction

from goldman_forge.goldman import _crossings, _dart_name, _draw
from goldman_forge.magnus import (
    MagnusExpansion,
    default_expansion,
    necklace_project,
)
from goldman_forge.surface import (
    FreeWord,
    dart_rev,
    letter_key,
    ribbon_structure,
)
from goldman_forge.tensoralg import (
    AlgebraMap,
    TensorSeries,
    exp,
    is_primitive,
    lie_bracket,
    log,
)


def duval_least_rotation(seq):
    """Start index of the least rotation of seq, in O(n): Duval's Lyndon
    factorisation of seq + seq (J.-P. Duval, J. Algorithms 4, 1983).
    Among equal least rotations the smallest start index is returned.
    The engine's least_rotation before slice comparisons, kept as the
    oracle of every rotation check."""
    n, s = len(seq), list(seq) * 2
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def assert_same(new, old, case):
    """Two loop, path or path-pair sums agree term by term, in sorted
    order and in twist."""
    assert new.terms == old.terms, case
    assert new.sorted_terms() == old.sorted_terms(), case
    assert new.twist == old.twist, case


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


def bch(u, v):
    """log(exp(u) exp(v)) at the shared truncation; exp and the product
    reject a constant term and a signature/truncation mismatch."""
    return log(exp(u) * exp(v))


def log_class(spec, loop_class, trunc):
    """Necklace logarithm of a class through the default expansion."""
    theta = default_expansion(spec, trunc)
    value = theta.expand_word(loop_class.free_word())
    return necklace_project(log(value))


def compose_automorphism(auto, theta):
    """New expansion auto after theta; auto must preserve primitives.

    Composing with an algebra automorphism that fixes the symplectic
    element and is the identity on the graded quotient moves one
    symplectic expansion to another: the solution set is a torsor.
    """
    logs = {}
    for base in theta.spec.generators():
        image = auto.apply(theta.logs[base])
        if not is_primitive(image):
            raise ValueError("automorphism does not preserve primitives")
        logs[base] = image
    return MagnusExpansion(theta.spec, theta.trunc, logs)


def weight_split(series):
    """Weighted-degree decomposition; reassembly is the identity."""
    degrees = {series.sig.degree(word) for word, _ in series.items()}
    return {d: series.homogeneous_component(d) for d in sorted(degrees)}


def compose(phi, psi):
    """The algebra map phi after psi, on their shared signature."""
    return AlgebraMap(phi.sig, phi.trunc,
                      {name: phi.apply(psi.image(name)) for name in phi.sig.gens})


def real_darts_ccw(slot):
    """The vertex order of a ribbon's dart-position map, without the
    basepoint tails."""
    return tuple(d for d in sorted(slot, key=slot.get) if d[1] != 0)


def faces(slot):
    """Face words of the thickened graph, one per boundary.

    Recomputed from the vertex order (the prescribed faces are not
    returned): the face permutation sends a dart d to the
    counterclockwise predecessor of its reversal, and a face's word is
    the letter sequence of its dart cycle.  Deterministic: each cycle
    starts at its least dart, faces sorted by starting dart.
    """
    real = real_darts_ccw(slot)
    position = {d: i for i, d in enumerate(real)}
    phi = {d: real[position[dart_rev(d)] - 1] for d in real}
    seen = set()
    cycles = []
    for start in sorted(real, key=letter_key):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        d = phi[start]
        while d != start:
            cycle.append(d)
            seen.add(d)
            d = phi[d]
        cycles.append(tuple(cycle))
    return [FreeWord(cycle) for cycle in cycles]


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


def trace_records(spec, left, right, convention):
    """goldman.crossing_trace's records under either convention: the
    trace draws under the default one only."""
    slot = ribbon_structure(spec)
    darts = sorted(slot, key=slot.get)
    width, chords = _draw(slot, (left, right), convention)
    index = [{chord: j for j, chord in enumerate(cs)} for cs in chords]

    def end(key):
        at, offset = divmod(key, width)
        return [_dart_name(darts[at]), offset]

    def passage(tag, chord):
        return {"owner": [tag, index[tag][chord]],
                "in": end(chord[0]), "out": end(chord[1])}
    return [{"sign": sign, "left": passage(0, pu), "right": passage(1, pv)}
            for sign, pu, pv in _crossings(*chords)]
