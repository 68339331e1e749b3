"""Bar constructions over two finite surface models.

The models are cohomology-sized: an open-surface model whose letters all
sit in degree 1 with every product zero, and a closed-surface model where
dual degree-1 letters multiply to a top class. Both carry the zero
differential, so the bar differential reduces to the wedge-merge terms;
the end terms of the general formula die under the augmentation because
bar letters live in positive degree.

"Integration" of a bar word against a loop or path is Chen's iterated
integral: the coefficient of the generator monomial in the default
expansion of the word, which Chen's product formula reads off the
letters by one integer recurrence (`chen_pairing`). The moving
basepoint evaluations (`eval_hat_cs`, `eval_hat_kk`) integrate the
partial-edge transport exactly: each edge contributes ordered-simplex
volumes, so every identity tested downstream holds in exact rational
arithmetic.
"""

import functools
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .magnus import tensor_letter
from .surface import FreeWord, LoopClass, SurfaceSpec
from .tensoralg import TermSum

_LETTER_PREFIX = {"xi": "x", "eta": "y", "zeta": "z"}


@functools.lru_cache(maxsize=None)
def _tensor_name(letter):
    """Map a degree-1 model letter to its expansion generator."""
    for prefix, gen in _LETTER_PREFIX.items():
        if letter.startswith(prefix) and letter[len(prefix):].isdigit():
            return gen + letter[len(prefix):]
    raise ValueError(f"letter {letter!r} does not pair with a generator")


class DgaModel:
    """Finite graded-commutative model with zero differential.

    `degrees` lists the positive-degree basis letters; `products` maps an
    ordered letter pair to its wedge, sparse. Wedges of total degree past
    the top are genuinely zero for a surface, not an overflow.
    """

    def __init__(self, name, degrees, products, surface=None):
        self.name = name
        self.degrees = dict(degrees)
        for letter, deg in self.degrees.items():
            if deg not in (1, 2):
                raise ValueError(f"letter {letter!r} has degree {deg}")
        self.products = {pair: dict(vals) for pair, vals in products.items()}
        self.surface = surface
        self._order = {letter: i for i, letter in enumerate(self.degrees)}

    def degree(self, letter):
        if letter not in self.degrees:
            raise ValueError(f"unknown model letter {letter!r}")
        return self.degrees[letter]

    def wedge(self, a, b):
        self.degree(a)
        self.degree(b)
        return self.products.get((a, b), {})

    @property
    def letters(self):
        return list(self.degrees)

    def sort_key(self, word):
        return (len(word), tuple(self._order[letter] for letter in word))

    def __eq__(self, other):
        return (isinstance(other, DgaModel) and self.name == other.name
                and self.degrees == other.degrees
                and self.products == other.products
                and self.surface == other.surface)

    def __repr__(self):
        return f"DgaModel({self.name}, {len(self.degrees)} letters)"


def open_model(spec):
    """Degree-1 letters of a surface with boundary; all wedges vanish."""
    if not isinstance(spec, SurfaceSpec):
        raise TypeError("open_model wants a SurfaceSpec")
    degrees = {}
    for j in range(1, spec.genus + 1):
        degrees[f"xi{j}"] = 1
    for j in range(1, spec.genus + 1):
        degrees[f"eta{j}"] = 1
    for k in range(1, spec.boundary):
        degrees[f"zeta{k}"] = 1
    return DgaModel("open", degrees, {}, surface=spec)


def closed_model(genus):
    """Letters of a closed surface: dual pairs wedge to the top class."""
    if genus < 1:
        raise ValueError("closed model needs genus >= 1")
    degrees = {}
    for j in range(1, genus + 1):
        degrees[f"xi{j}"] = 1
    for j in range(1, genus + 1):
        degrees[f"eta{j}"] = 1
    degrees["omega"] = 2
    products = {}
    for j in range(1, genus + 1):
        products[(f"xi{j}", f"eta{j}")] = {"omega": Fraction(1)}
        products[(f"eta{j}", f"xi{j}")] = {"omega": Fraction(-1)}
    return DgaModel("closed", degrees, products)


class BarElement(TermSum):
    """Rational combination of bar words over a fixed model."""

    __slots__ = ("model",)

    _FIELDS = ("model",)

    def __init__(self, model, terms=None):
        self.model = model
        super().__init__(terms)

    @classmethod
    def word(cls, model, letters, coeff=1):
        return cls(model, [(tuple(letters), coeff)])

    def add_term(self, word, coeff):
        """Add coeff * word; every letter must belong to the model."""
        word = tuple(word)
        for letter in word:
            self.model.degree(letter)
        TermSum.add_term(self, word, coeff)

    def _sort_key(self, word):
        return self.model.sort_key(word)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            body = "[" + "|".join(word) + "]"
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff} {body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<BarElement {self.render()}>"


def parse_bar(text, model):
    """Parse "[xi1|eta1]" into a one-word bar element."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"bar word must be bracketed, got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        return BarElement.word(model, ())
    letters = tuple(part.strip() for part in inner.split("|"))
    if any(not letter for letter in letters):
        raise ValueError(f"empty slot in bar word {text!r}")
    return BarElement.word(model, letters)


def bar_differential(e):
    """Wedge-merge differential of a bar combination.

    Merging positions carry the sign (-1)^i times the parity of the total
    degree left of and including the merge; with every letter in degree 1
    this is the constant -1. Internal differential terms vanish (d = 0 on
    both shipped models) and the end terms die under the augmentation.
    """
    model = e.model
    out = BarElement(model)
    for word, coeff in e.terms.items():
        degsum = 0
        for i in range(len(word) - 1):
            degsum += model.degree(word[i])
            sign = (-1) ** i * (-1) ** degsum
            for merged, value in model.wedge(word[i], word[i + 1]).items():
                out.add_term(word[:i] + (merged,) + word[i + 2:],
                             coeff * sign * value)
    return out


def shuffle_product(e1, e2):
    """Signed shuffle; Koszul signs ride on the shifted degrees."""
    if e1.model != e2.model:
        raise ValueError("bar elements live over different models")
    model = e1.model
    out = BarElement(model)
    for w1, c1 in e1.terms.items():
        sh1 = [model.degree(letter) - 1 for letter in w1]
        for w2, c2 in e2.terms.items():
            sh2 = [model.degree(letter) - 1 for letter in w2]
            p, q = len(w1), len(w2)
            for slots in combinations(range(p + q), p):
                merged = [None] * (p + q)
                sign = 1
                for idx, slot in enumerate(slots):
                    merged[slot] = w1[idx]
                    # w2 letters already placed before this slot
                    crossed = slot - idx
                    if sh1[idx] and sum(sh2[:crossed]) % 2:
                        sign = -sign
                rest = iter(w2)
                for slot in range(p + q):
                    if merged[slot] is None:
                        merged[slot] = next(rest)
                out.add_term(tuple(merged), c1 * c2 * sign)
    return out


def _open_letters(model, gamma):
    """gamma's letters as (generator, sign), checked against the surface."""
    if model.surface is None:
        raise ValueError("pairing needs the open-surface model")
    if isinstance(gamma, LoopClass):
        gamma = gamma.free_word()
    elif not isinstance(gamma, FreeWord):
        raise TypeError(f"cannot pair against {type(gamma).__name__}")
    model.surface.validate_word(gamma)
    return [(tensor_letter(base), e) for base, e in gamma.letters]


def _chen_row(letters, mono, start):
    """S[c] = c! times the coefficient of mono[start:start + c] in the
    default expansion of `letters`, for every c (see chen_pairing).

    A letter (g, eps) adds S[c] eps^k C(c+k, k) to S[c+k] while the
    monomial runs on g from c to c+k; c runs downward, so the update is
    in place.
    """
    tail = mono[start:]
    n = len(tail)
    row = [1] + [0] * n
    for gen, eps in letters:
        for c in range(n - 1, -1, -1):
            step, k = row[c], c
            while step and k < n and tail[k] == gen:
                k += 1
                step = step * eps * k // (k - c)
                row[k] += step
    return row


def _run(mono, gen):
    """Length of the run of gen that opens mono."""
    return next((i for i, g in enumerate(mono) if g != gen), len(mono))


def chen_pairing(e, gamma):
    """Pair a bar combination against a loop or path word.

    The value of [w_1|...|w_r] is the coefficient of its generator
    monomial in the default expansion of the word, the product of the
    exp(eps g) over its letters g^eps. By Chen's product formula that is
    a sum over the cuts of the monomial into runs, one per letter in
    order, where a run of k copies of the letter's own generator weighs
    eps^k/k! and any other run 0. Times c!, each cut of a length-c
    monomial weighs a signed multinomial, so `_chen_row` runs on ints
    and the sum over e divides once. Linear in e and multiplicative
    under the shuffle product.
    """
    letters = _open_letters(e.model, gamma)
    den, nums = e.numerators()
    top = factorial(max(map(len, e.terms), default=0))
    total = 0
    for word, n in nums:
        mono = tuple(map(_tensor_name, word))
        total += (n * _chen_row(letters, mono, 0)[-1]
                  * (top // factorial(len(mono))))
    return Fraction(total, den * top)


def dual_cs(e, w):
    """Cyclic insertion of a degree-1 letter into a bar combination.

    Every rotation of the combined word appears once, which is what makes
    its chen_pairing a class function of the loop; the tests verify this
    rather than assuming it.
    """
    model = e.model
    if model.degree(w) != 1:
        raise ValueError(f"inserted letter {w!r} must have degree 1")
    out = BarElement(model)
    for word, coeff in e.terms.items():
        for j in range(len(word) + 1):
            out.add_term(word[j:] + (w,) + word[:j], coeff)
    return out


def eval_hat_cs(e, w, gamma):
    """Moving-basepoint evaluation integrated exactly edge by edge.

    At a point of the p-th edge the rebased loop transports as
    exp((1-s)v) (rest of the word) exp(sv); pairing the bar word against
    that product and integrating s over [0,1] turns each split into an
    ordered-simplex volume 1/(partial+1)!. Against the c!-scaled middle
    coefficient S of `_chen_row` (c + partial + 1 = r + 1) a split is
    S C(r+1, c) / (r+1)!, so the sum runs on ints. Must agree with the
    chen_pairing of dual_cs(e, w), and the tests hold it to that exactly.
    """
    model = e.model
    if model.degree(w) != 1:
        raise ValueError(f"integrand letter {w!r} must have degree 1")
    letters = _open_letters(model, gamma)
    w_gen = _tensor_name(w)
    den, nums = e.numerators()
    top = factorial(max(map(len, e.terms), default=0) + 1)
    total = 0
    for word, n in nums:
        mono = tuple(map(_tensor_name, word))
        r = len(mono)
        pmax, smin = _run(mono, w_gen), r - _run(mono[::-1], w_gen)
        acc = 0
        for p, (gen, eps) in enumerate(letters):
            if gen != w_gen:
                continue
            rest = letters[p + 1:] + letters[:p]
            for j in range(pmax + 1):
                row = _chen_row(rest, mono, j)
                for k in range(max(j, smin), r + 1):
                    acc += (eps ** (j + r - k + 1) * row[k - j]
                            * comb(r + 1, k - j))
        total += n * acc * (top // factorial(r + 1))
    return Fraction(total, den * top)


def eval_hat_kk(middle, gamma, model):
    """Path evaluation of a middle triple, integrated exactly per edge.

    The left factor pairs with the path so far, the right factor with the
    path still to come; partial letters on the crossing edge integrate to
    the same ordered-simplex volumes as in eval_hat_cs, here multinomials
    over (r+1)! against the c!-scaled rows of `_chen_row`. Agrees with
    the chen_pairing of the concatenated word.
    """
    left, w, right = middle
    if model.degree(w) != 1:
        raise ValueError(f"integrand letter {w!r} must have degree 1")
    for letter in (*left, *right):
        model.degree(letter)
    letters = _open_letters(model, gamma)
    w_gen = _tensor_name(w)
    mono_left = tuple(map(_tensor_name, left))
    mono_right = tuple(map(_tensor_name, right))
    j, r = len(mono_left), len(mono_left) + len(mono_right)
    imin = j - _run(mono_left[::-1], w_gen)
    kmax = j + _run(mono_right, w_gen)
    total = 0
    for p, (gen, eps) in enumerate(letters):
        if gen != w_gen:
            continue
        pre = _chen_row(letters[:p], mono_left, 0)
        sufs = [(k, _chen_row(letters[p + 1:], mono_right, k - j)[-1])
                for k in range(j, kmax + 1)]
        for i in range(imin, j + 1):
            for k, suf in sufs:
                total += (eps ** (k - i + 1) * pre[i] * suf
                          * comb(r + 1, i) * comb(r + 1 - i, k - i + 1))
    return Fraction(total, factorial(r + 1))
