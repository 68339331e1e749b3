"""Combinatorial model of a compact oriented surface with boundary.

The surface of genus g with b = n+1 boundary components is carried by a
one-vertex ribbon graph: one vertex, an edge for each free-group
generator a1..ag, b1..bg, c1..cn, and a counterclockwise cyclic order
of half-edges at the vertex.  Boundary faces of the thickened graph
realize the boundary words; a marked tail half-edge in each boundary
face realizes the tangential basepoint of that boundary component.
The vertex order is stated in closed form (ribbon_structure); the tests
walk its faces and check them against the prescribed ones.

Letters of free-group words are pairs (base, exp) with base a generator
name such as "a1" and exp +1 or -1.  The token syntax is "a1" for the
generator and "a1'" for its inverse, whitespace separated.

Words are coded by word_key, on no surface: a byte per letter up to a43,
b43 and c42, else the tuple of letter_keys.  Either code keeps letter_key
order and codes the inverse of code k as k ^ 1.  A loop class is keyed by
its canonical word's code, and the splices take those keys as they stand
on a surface whose letters all have a byte key (SurfaceSpec.byte_keyed).
"""

import functools
import re

__all__ = [
    "SurfaceSpec",
    "FreeWord",
    "LoopClass",
    "Path",
    "cyclic_normal_form",
    "splice_normal_form",
    "reduced_product",
    "least_rotation",
    "word_key",
    "key_letters",
    "boundary_word",
    "ribbon_structure",
    "tail_dart",
    "parse_word",
    "render_word",
]


class SurfaceSpec:
    """Genus and boundary count, with one basepoint tag per boundary.

    Tags are 0..n with 0 on the distinguished boundary carrying the
    surface relation word; the remaining boundaries correspond to the
    c-generators.  Rejected: closed surfaces (no boundary) and the
    disk (0,1); every other (g, b>=1) has chi <= 0 and is allowed.
    """

    __slots__ = ("genus", "boundary", "punctures", "byte_keyed", "_gens",
                 "_gen_set")

    def __init__(self, genus, boundary):
        if genus < 0 or boundary < 0:
            raise ValueError("genus and boundary count must be nonnegative")
        if boundary == 0:
            raise ValueError("closed surfaces are not modeled; need boundary")
        if genus == 0 and boundary == 1:
            raise ValueError("the disk has no interesting loops; rejected")
        self.genus = genus
        self.boundary = boundary
        self.punctures = boundary - 1
        names = ["a%d" % j for j in range(1, genus + 1)]
        names += ["b%d" % j for j in range(1, genus + 1)]
        names += ["c%d" % k for k in range(1, self.punctures + 1)]
        self._gens, self._gen_set = tuple(names), frozenset(names)
        # every letter has a byte key, so every word's key is bytes
        self.byte_keyed = all((base, 1) in _BYTE_KEY for base in names)

    @property
    def tags(self):
        return tuple(range(self.boundary))

    def generators(self):
        return self._gens

    def has_generator(self, base):
        """Whether base is one of generators(), spelled canonically."""
        return isinstance(base, str) and base in self._gen_set

    def validate_word(self, word):
        for base, _ in word.letters:
            if not self.has_generator(base):
                raise ValueError("letter %s is not a generator of this surface"
                                 % (base,))

    def __eq__(self, other):
        return (isinstance(other, SurfaceSpec)
                and self.genus == other.genus
                and self.boundary == other.boundary)

    def __hash__(self):
        return hash((self.genus, self.boundary))

    def __repr__(self):
        return "SurfaceSpec(genus=%d, boundary=%d)" % (self.genus, self.boundary)


_LETTER_ORDER = {"a": 0, "b": 1, "c": 2, "t": 3}


@functools.lru_cache(maxsize=1024)
def letter_key(letter):
    """Fixed total order on letters, as one int (indices below 2**39): kind
    a < b < c < t, then index as an int (a2 < a10), then plain < inverse,
    so the key of a letter's inverse is its key ^ 1."""
    base, e = letter
    if base[:1] not in _LETTER_ORDER:
        raise ValueError("bad letter %r; want kind a, b, c or t" % (base,))
    return _LETTER_ORDER[base[0]] << 40 | int(base[1:] or 0) << 1 | (e <= 0)


def _reduce_letters(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class FreeWord:
    """Word in the free group; kept as a tuple of (base, exp) letters.

    Construction does not reduce; call reduce() for the normal form.
    The * operator is group multiplication (concatenate and reduce).
    The constructor checks each letter; trusted does not, and reduce,
    inverse and * build their results from checked letters with it.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for letter in letters:
            if (not isinstance(letter, tuple) or len(letter) != 2
                    or letter[1] not in (1, -1)):
                raise ValueError("bad letter %r; want (base, +1/-1)" % (letter,))
        self.letters = letters

    @classmethod
    def trusted(cls, letters):
        """The word on checked letters (a tuple), not checked again."""
        word = object.__new__(cls)
        word.letters = letters
        return word

    def reduce(self):
        """Free reduction: cancel adjacent inverse pairs until none remain."""
        reduced = _reduce_letters(self.letters)
        return self if reduced == self.letters else FreeWord.trusted(reduced)

    def inverse(self):
        return FreeWord.trusted(tuple((base, -e)
                                      for base, e in reversed(self.letters)))

    def __mul__(self, other):
        return FreeWord.trusted(_reduce_letters(self.letters + other.letters))

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "FreeWord(%s)" % render_word(self)


class LoopClass:
    """Conjugacy class of a free-group word.

    Stored cyclically reduced in the canonical rotation: the
    lexicographically least rotation under the fixed letter order, coded
    as key (all __eq__ and __hash__ read), and decoded into word at its
    first read.  The constructor rejects any other word; cyclic_normal_form
    skips the check.
    """

    __slots__ = ("key", "word")

    def __init__(self, word):
        letters = FreeWord(word).letters
        self.key = cyclic_normal_form(letters).key
        if key_letters(self.key) != letters:
            raise ValueError("not a cyclic normal form: %r" % (letters,))

    @classmethod
    def of_key(cls, key):
        """The class whose key is key, unchecked."""
        out = object.__new__(cls)
        out.key = key
        return out

    def __getattr__(self, name):    # only while a slot is unset
        if name != "word":
            raise AttributeError(name)
        self.word = word = key_letters(self.key)
        return word

    def free_word(self):
        return FreeWord(self.word)

    def __eq__(self, other):
        return isinstance(other, LoopClass) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "LoopClass(%s)" % render_word(FreeWord(self.word))

    def __str__(self):
        return render_word(FreeWord(self.word))


# the letters with a byte key, by byte (a dict: map() reads it fastest)
_BYTE_LETTERS = dict(enumerate(
    ("%s%d" % (kind, i), e) for kind, top in (("a", 43), ("b", 43), ("c", 42))
    for i in range(1, top + 1) for e in (1, -1)))
_BYTE_KEY = {letter: k for k, letter in _BYTE_LETTERS.items()}


def word_key(letters):
    """The key of a sequence of letters: a byte per letter, its rank in
    letter_key order among a1..a43, b1..b43, c1..c42 and their inverses,
    else the tuple of letter_keys."""
    try:
        return bytes(map(_BYTE_KEY.__getitem__, letters))
    except KeyError:
        return tuple(map(letter_key, letters))


def key_letters(key):
    """The letter tuple of a key (bytes or a tuple of letter_keys)."""
    if key.__class__ is bytes:
        return tuple(map(_BYTE_LETTERS.__getitem__, key))
    return tuple(("abct"[k >> 40] + str(k >> 1 & (1 << 39) - 1),
                  1 - 2 * (k & 1)) for k in key)


def least_rotation(seq):
    """The least rotation of seq (bytes, tuple or list), as seq's type.
    Unless seq is constant (then it is seq), one starts only where a run of
    the least item starts, cyclically (one step earlier is smaller); those
    are compared as slices of seq + seq by a strict <, stopping at one equal
    to the best (seq is periodic from there): O(n) steps, O(r n) C compares
    for r runs."""
    n = len(seq)
    if n < 2:
        return seq
    double, low, best = seq + seq, min(seq), None
    i = seq.index(low)
    while i < n:
        if seq[i - 1] != low:
            rotation = double[i:i + n]
            if best is None or rotation < best:
                best = rotation
            elif rotation == best:
                break
        i = double.index(low, i + 1)
    return seq if best is None else best


def cyclic_normal_form(word):
    """Cyclic reduction plus the least rotation under letter_key; conjugation
    invariant.  word is any sequence of letters (a FreeWord or a tuple) and
    is trusted: letters are checked where they enter (FreeWord, parse_word).
    The ends cancel on letters, before coding, so a class whose byte-less
    letters all cancel there is keyed as bytes."""
    letters = _reduce_letters(word)
    p, q = 0, len(letters) - 1
    while p < q and letters[p] == (letters[q][0], -letters[q][1]):
        p, q = p + 1, q - 1
    return LoopClass.of_key(least_rotation(word_key(letters[p:q + 1])))


def reduced_product(x, y):
    """The free reduction of x y, for freely reduced coded words x and y:
    they cancel only where x ends and y begins, so only there is compared."""
    t, m, n = 0, len(x), len(y)
    while t < m and t < n and x[m - 1 - t] == y[t] ^ 1:
        t += 1
    return x[:m - t] + y[t:] if t else x + y


def splice_normal_form(a, b):
    """The splicer of canonical coded words a and b: (i, j) -> the
    canonical coded word of the class of a[i:] + a[:i] + b[j:] + b[:j],
    each rotation a slice of a + a or b + b, built once per pair.  The
    rotations are freely and cyclically reduced, so their product cancels
    only at its two junctions: where a's rotation ends and b's begins,
    possibly through all of either, then at the ends of what is left;
    least_rotation then fixes the rotation."""
    m, n, aa, bb = len(a), len(b), a + a, b + b
    def splice(i, j):
        t = 0
        while t < m and t < n and aa[i + m - 1 - t] == bb[j + t] ^ 1:
            t += 1
        w = aa[i:i + m - t] + bb[j + t:j + n]
        p, q = 0, len(w) - 1
        while p < q and w[p] == w[q] ^ 1:
            p, q = p + 1, q - 1
        return least_rotation(w[p:q + 1] if p else w)
    return splice


class Path:
    """Homotopy class of a path between tangential basepoints.

    The word expresses the path through the fixed connecting paths, so
    composition of matching tags is word concatenation.  Words are
    stored reduced.
    """

    __slots__ = ("from_tag", "to_tag", "word")

    def __init__(self, from_tag, to_tag, word=FreeWord()):
        self.from_tag = from_tag
        self.to_tag = to_tag
        self.word = word.reduce()

    def is_identity(self):
        return self.from_tag == self.to_tag and not self.word.letters

    def compose(self, other):
        if self.to_tag != other.from_tag:
            raise ValueError("cannot compose: path ends at tag %s, next "
                             "starts at %s" % (self.to_tag, other.from_tag))
        return Path(self.from_tag, other.to_tag, self.word * other.word)

    def __eq__(self, other):
        return (isinstance(other, Path)
                and self.from_tag == other.from_tag
                and self.to_tag == other.to_tag
                and self.word == other.word)

    def __hash__(self):
        return hash((self.from_tag, self.to_tag, self.word.letters))

    def __repr__(self):
        return "Path(%s -> %s: %s)" % (self.from_tag, self.to_tag,
                                       render_word(self.word))


def boundary_word(spec):
    """The surface relation word prod [a_j, b_j] prod c_k, literally."""
    letters = []
    for j in range(1, spec.genus + 1):
        a, b = "a%d" % j, "b%d" % j
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    for k in range(1, spec.punctures + 1):
        letters.append(("c%d" % k, 1))
    return FreeWord(letters)


def tail_dart(tag):
    """The tail dart marking the basepoint of boundary tag."""
    return ("t%d" % tag, 0)


@functools.lru_cache(maxsize=64)
def ribbon_structure(spec):
    """The canonical ribbon graph for a surface spec, as the map from
    each dart to its position in the counterclockwise order at the one
    vertex; sorted(slot, key=slot.get) is that order.

    Real darts are (base, +1/-1): the +1 dart is where the edge leaves
    the vertex when the generator is traversed positively, the -1 dart
    where it returns.  Tails tail_dart(k) = ("t<k>", 0) are dangling
    marks for the basepoints and never take part in face traversal.
    The order, in closed form: t0, the blocks c_k^-1 t_k c_k (k = n..1)
    and b_j a_j^-1 b_j^-1 a_j (j = g..1), then the last dart moved to
    the front.  A face steps from a real dart to the real dart before
    its reversal: a_j, b_j, a_j^-1 go to b_j, a_j^-1, b_j^-1, and b_j^-1
    and c_k to the last real dart before their block (a_(j+1), c_1,
    c_(k+1) or the front dart); so face 0 spells the relation word, and
    face k is the monogon c_k^-1 holding tail k.
    Cached per spec: every caller shares one result, never mutated.
    """
    order = [tail_dart(0)]
    for k in range(spec.punctures, 0, -1):
        order += [("c%d" % k, -1), tail_dart(k), ("c%d" % k, 1)]
    for j in range(spec.genus, 0, -1):
        a, b = "a%d" % j, "b%d" % j
        order += [(b, 1), (a, -1), (b, -1), (a, 1)]
    order.insert(0, order.pop())
    return {dart: i for i, dart in enumerate(order)}


# a generator (its index in ASCII digits, no leading 0), ' for the inverse
_TOKEN = re.compile(r"([abc])([1-9][0-9]*)(')?")


def parse_word(text):
    """Parse whitespace-separated tokens like "a1 b1 a1' b1'".

    The empty string and the token "1" both denote the identity word.
    Raises ValueError naming the character position of the bad token.
    """
    tokens = [(match.group(), match.start())
              for match in re.finditer(r"\S+", text)]
    letters = []
    for token, pos in tokens:
        if token == "1" and len(tokens) == 1:
            return FreeWord()
        m = _TOKEN.fullmatch(token)
        if not m:
            raise ValueError("bad token %r at position %d; want e.g. a1 or "
                             "a1'" % (token, pos))
        kind, index, prime = m.groups()
        letters.append((kind + index, -1 if prime else 1))
    return FreeWord(letters)


def render_word(word):
    """The token spelling of word, read back by parse_word; the identity
    is "1"."""
    return " ".join(base + ("" if e > 0 else "'")
                    for base, e in word.letters) or "1"
