"""Combinatorial model of a compact oriented surface with boundary.

The surface of genus g with b = n+1 boundary components is carried by a
one-vertex ribbon graph: one vertex, an edge for each free-group
generator a1..ag, b1..bg, c1..cn, and a counterclockwise cyclic order
of half-edges at the vertex.  Boundary faces of the thickened graph
realize the boundary words; a marked tail half-edge in each boundary
face realizes the tangential basepoint of that boundary component.

Letters of free-group words are pairs (base, exp) with base a generator
name such as "a1" and exp +1 or -1.  The token syntax is "a1" for the
generator and "a1'" for its inverse, whitespace separated.
"""

import functools
import re

__all__ = [
    "SurfaceSpec",
    "FreeWord",
    "LoopClass",
    "Path",
    "RibbonStructure",
    "ParseError",
    "cyclic_normal_form",
    "splice_normal_form",
    "least_rotation",
    "boundary_word",
    "ribbon_structure",
    "parse_word",
    "render_word",
]


class ParseError(ValueError):
    """Malformed word input; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


# a generator name: kind, then an index in ASCII digits with no leading 0
_GENERATOR = re.compile(r"([abc])([1-9][0-9]*)")


class SurfaceSpec:
    """Genus and boundary count, with one basepoint tag per boundary.

    Tags are 0..n with 0 on the distinguished boundary carrying the
    surface relation word; the remaining boundaries correspond to the
    c-generators.  Rejected: closed surfaces (no boundary) and the
    disk (0,1); every other (g, b>=1) has chi <= 0 and is allowed.
    """

    __slots__ = ("genus", "boundary", "punctures")

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

    @property
    def tags(self):
        return tuple(range(self.boundary))

    def generators(self):
        g, n = self.genus, self.punctures
        names = ["a%d" % j for j in range(1, g + 1)]
        names += ["b%d" % j for j in range(1, g + 1)]
        names += ["c%d" % k for k in range(1, n + 1)]
        return tuple(names)

    def has_generator(self, base):
        """Whether base is one of generators(), spelled canonically."""
        m = _GENERATOR.fullmatch(base)
        if not m:
            return False
        kind, index = m.groups()
        return int(index) <= (self.punctures if kind == "c" else self.genus)

    def validate_word(self, word):
        for base, _ in word.letters:
            if not self.has_generator(base):
                raise ValueError("letter %s is not a generator of this surface"
                                 % base)

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


def _trusted_word(letters):
    """A FreeWord on letters that already came from a FreeWord: no check."""
    word = object.__new__(FreeWord)
    word.letters = letters
    return word


class FreeWord:
    """Word in the free group; kept as a tuple of (base, exp) letters.

    Construction does not reduce; call reduce() for the normal form.
    The * operator is group multiplication (concatenate and reduce).
    The constructor checks each letter; reduce, inverse and * build
    their results from checked letters without checking them again.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for letter in letters:
            if (not isinstance(letter, tuple) or len(letter) != 2
                    or letter[1] not in (1, -1)):
                raise ValueError("bad letter %r; want (base, +1/-1)" % (letter,))
        self.letters = letters

    def reduce(self):
        """Free reduction: cancel adjacent inverse pairs until none remain."""
        reduced = _reduce_letters(self.letters)
        return self if reduced == self.letters else _trusted_word(reduced)

    def inverse(self):
        return _trusted_word(tuple((base, -e)
                                   for base, e in reversed(self.letters)))

    def __mul__(self, other):
        return _trusted_word(_reduce_letters(self.letters + other.letters))

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "FreeWord(%s)" % (render_word(self) or "1")


class LoopClass:
    """Conjugacy class of a free-group word.

    Stored cyclically reduced in the canonical rotation: the
    lexicographically least rotation under the fixed letter order.  The
    constructor rejects any other word; cyclic_normal_form skips the check.
    """

    __slots__ = ("word",)

    def __init__(self, word):
        letters = FreeWord(word).letters
        if cyclic_normal_form(letters).word != letters:
            raise ValueError("not a cyclic normal form: %r" % (letters,))
        self.word = letters

    def free_word(self):
        return FreeWord(self.word)

    def __eq__(self, other):
        return isinstance(other, LoopClass) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return "LoopClass(%s)" % (render_word(FreeWord(self.word)) or "1")

    def __str__(self):
        return render_word(FreeWord(self.word)) or "1"


def least_rotation(seq):
    """Start index of the least rotation of seq, in O(n): Duval's Lyndon
    factorisation of seq + seq (J.-P. Duval, J. Algorithms 4, 1983).
    Among equal least rotations the smallest start index is returned."""
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


def _canonical_class(letters, keys):
    """The class of a freely reduced word, given with its letter keys:
    strip matching ends (key k ^ 1 is the inverse of the letter keyed k),
    then rotate to the least rotation under letter_key.  Both normal
    forms end here, so this is the one place that fixes the rotation."""
    p, q = 0, len(keys) - 1
    while p < q and keys[p] == keys[q] ^ 1:
        p, q = p + 1, q - 1
    if p:
        letters, keys = letters[p:q + 1], keys[p:q + 1]
    start = least_rotation(keys)
    cls = object.__new__(LoopClass)
    cls.word = letters[start:] + letters[:start]
    return cls


def cyclic_normal_form(word):
    """Cyclic reduction plus the least rotation under letter_key; conjugation
    invariant.  word is any sequence of letters (a FreeWord or a tuple) and
    is trusted: letters are checked where they enter (FreeWord, parse_word)."""
    letters = _reduce_letters(word)
    return _canonical_class(letters, list(map(letter_key, letters)))


def splice_normal_form(la, ka, lb, kb, i, j):
    """cyclic_normal_form(la[i:] + la[:i] + lb[j:] + lb[:j]), cancelling
    only at the two junctions.

    la and lb are the words of two LoopClass values, ka and kb lists of
    their letter keys (lists: tuples of keys would crowd the interpreter's
    tuple free lists and raise peak memory).  A canonical word is
    cyclically reduced, so each of its rotations is freely reduced and
    cyclically reduced.  The concatenation x y of two such rotations can
    therefore cancel only where x ends and y begins, and, cyclically,
    where y ends and x begins.  Cancelling at the first junction,
    possibly through the whole of x or y, leaves a freely reduced word;
    stripping its matching ends then cancels at the second junction, and
    past it into what is left of the other rotation.  That is the cyclic
    reduction, so the strip-and-rotate tail shared with
    cyclic_normal_form gives the same class.
    """
    m = len(ka)
    keys = ka[i:] + ka[:i] + kb[j:] + kb[:j]
    letters = la[i:] + la[:i] + lb[j:] + lb[:j]
    t, most = 0, min(m, len(kb))
    while t < most and keys[m - 1 - t] == keys[m + t] ^ 1:
        t += 1
    if t:
        keys = keys[:m - t] + keys[m + t:]
        letters = letters[:m - t] + letters[m + t:]
    return _canonical_class(letters, keys)


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
                                       render_word(self.word) or "1")


def boundary_word(spec):
    """The surface relation word prod [a_j, b_j] prod c_k, literally."""
    letters = []
    for j in range(1, spec.genus + 1):
        a, b = "a%d" % j, "b%d" % j
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    for k in range(1, spec.punctures + 1):
        letters.append(("c%d" % k, 1))
    return FreeWord(letters)


def dart_rev(dart):
    base, e = dart
    return (base, -e)


def _tail(tag):
    return ("t%d" % tag, 0)


class RibbonStructure:
    """One-vertex ribbon graph plus basepoint tails.

    order is the counterclockwise cyclic sequence of half-edge darts at
    the vertex.  Real darts are (base, +1/-1): the +1 dart is where the
    edge leaves the vertex when the generator is traversed positively,
    the -1 dart where it returns.  Tails ("t<k>", 0) are dangling marks
    for the basepoints and never take part in face traversal.
    """

    __slots__ = ("spec", "order", "slot")

    def __init__(self, spec, order):
        self.spec = spec
        self.order = tuple(order)
        self.slot = {dart: i for i, dart in enumerate(self.order)}

    def tail(self, tag):
        return _tail(tag)

    def __repr__(self):
        return "RibbonStructure(%r, %d darts)" % (self.spec, len(self.order))


@functools.lru_cache(maxsize=64)
def ribbon_structure(spec):
    """The canonical ribbon graph for a surface spec.

    Faces are prescribed: face 0 spells the surface relation word as its
    dart cycle and face k is the monogon reading c_k inverse; the vertex
    order is derived from them.  The derived order must be a single
    cycle (one vertex) or the model is inconsistent for this spec.
    Cached per spec: every caller shares one result, never mutated.
    """
    gamma0 = boundary_word(spec)
    cycles = [tuple(gamma0.letters)]
    for k in range(1, spec.punctures + 1):
        cycles.append((("c%d" % k, -1),))
    phi_inv = {}
    for cycle in cycles:
        for i, d in enumerate(cycle):
            phi_inv[cycle[(i + 1) % len(cycle)]] = d
    darts = set(phi_inv)
    sigma = {d: dart_rev(phi_inv[d]) for d in darts}
    start = cycles[0][0]
    walk = [start]
    d = sigma[start]
    while d != start:
        walk.append(d)
        d = sigma[d]
    if len(walk) != len(darts):
        raise ValueError("derived vertex order is not a single cycle for %r"
                         % (spec,))
    insert_after = {start: [_tail(0)]}
    for k in range(1, spec.punctures + 1):
        insert_after.setdefault(("c%d" % k, -1), []).append(_tail(k))
    order = []
    for d in walk:
        order.append(d)
        order.extend(insert_after.get(d, ()))
    return RibbonStructure(spec, order)


_TOKEN = re.compile(_GENERATOR.pattern + "(')?")


def parse_word(text):
    """Parse whitespace-separated tokens like "a1 b1 a1' b1'".

    The empty string and the token "1" both denote the identity word.
    Raises ParseError with the character position of the bad token.
    """
    tokens = [(match.group(), match.start())
              for match in re.finditer(r"\S+", text)]
    letters = []
    for token, pos in tokens:
        if token == "1" and len(tokens) == 1:
            return FreeWord()
        m = _TOKEN.fullmatch(token)
        if not m:
            raise ParseError("bad token %r at position %d; want e.g. a1 or "
                             "a1'" % (token, pos), position=pos)
        kind, index, prime = m.groups()
        letters.append((kind + index, -1 if prime else 1))
    return FreeWord(letters)


def render_word(word):
    return " ".join(base + ("" if e > 0 else "'") for base, e in word.letters)
