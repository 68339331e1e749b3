"""Differential test of the Chen pairings read off the word.

`chen_pairing`, `eval_hat_cs` and `eval_hat_kk` used to build the whole
truncated default expansion of the loop or path word, one series
product per letter, and read a few coefficients from it.  They now run
Chen's product formula as one integer recurrence over the letters
(`barcx._chen_row`).  The expansion-based functions are kept below,
verbatim but for their names, as ``old_*`` oracles, and a seeded sweep
over five surfaces compares the two exactly: words of 0-6 letters with
both signs, often repeating a letter so that one letter feeds a run of
two or more monomial letters, against multi-term bar elements of 0-4
letters (boundary letters included) with Fraction coefficients.
"""

import random
from fractions import Fraction
from math import factorial

from goldman_forge.barcx import (
    BarElement,
    chen_pairing,
    eval_hat_cs,
    eval_hat_kk,
    open_model,
)
from goldman_forge.magnus import default_expansion, tensor_letter
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    SurfaceSpec,
    cyclic_normal_form,
)
from goldman_forge.tensoralg import GenSignature

_LETTER_PREFIX = {"xi": "x", "eta": "y", "zeta": "z"}


def _tensor_name(letter):
    """Map a degree-1 model letter to its expansion generator."""
    for prefix, gen in _LETTER_PREFIX.items():
        if letter.startswith(prefix) and letter[len(prefix):].isdigit():
            return gen + letter[len(prefix):]
    raise ValueError(f"letter {letter!r} does not pair with a generator")


def _word_weight(word, sig):
    return sum(sig.weight(_tensor_name(letter)) for letter in word)


def _as_word(gamma):
    if isinstance(gamma, LoopClass):
        return FreeWord(gamma.word)
    if isinstance(gamma, FreeWord):
        return gamma
    raise TypeError(f"cannot pair against {type(gamma).__name__}")


def _open_setup(e):
    model = e.model
    if model.surface is None:
        raise ValueError("pairing needs the open-surface model")
    spec = model.surface
    sig = GenSignature(spec.genus, spec.punctures)
    needed = max((_word_weight(w, sig) for w in e.terms), default=0)
    return default_expansion(spec, max(needed, 1))


def old_chen_pairing(e, gamma):
    """Pair a bar combination against a loop or path word.

    The value of [w_1|...|w_r] is the coefficient of the corresponding
    generator monomial in the expansion of the word; linear in e and
    multiplicative under the shuffle product.
    """
    theta = _open_setup(e)
    series = theta.expand_word(_as_word(gamma))
    total = Fraction(0)
    for word, coeff in e.terms.items():
        mono = tuple(_tensor_name(letter) for letter in word)
        total += coeff * series.coefficient(mono)
    return total


def old_eval_hat_cs(e, w, gamma):
    """Moving-basepoint evaluation integrated exactly edge by edge.

    At a point of the p-th edge the rebased loop transports as
    exp((1-s)v) (rest of the word) exp(sv); pairing the bar word against
    that product and integrating s over [0,1] turns each split into an
    ordered-simplex volume 1/(partial+1)!. Must agree with the dual_cs
    evaluation, and the tests hold it to that exactly.
    """
    model = e.model
    if model.degree(w) != 1:
        raise ValueError(f"integrand letter {w!r} must have degree 1")
    theta = _open_setup(e)
    gamma = _as_word(gamma)
    letters = gamma.letters
    w_gen = _tensor_name(w)
    total = Fraction(0)
    for p, (base, eps) in enumerate(letters):
        if tensor_letter(base) != w_gen:
            continue
        rest = theta.expand_word(FreeWord(letters[p + 1:] + letters[:p]))
        for word, coeff in e.terms.items():
            mono = tuple(_tensor_name(letter) for letter in word)
            r = len(mono)
            pmax = 0
            while pmax < r and mono[pmax] == w_gen:
                pmax += 1
            smin = r
            while smin > 0 and mono[smin - 1] == w_gen:
                smin -= 1
            for j in range(pmax + 1):
                for k in range(max(j, smin), r + 1):
                    mid = rest.coefficient(mono[j:k])
                    if not mid:
                        continue
                    partial = j + (r - k)
                    total += (coeff * eps * (eps ** partial) * mid
                              * Fraction(1, factorial(partial + 1)))
    return total


def old_eval_hat_kk(middle, gamma, model):
    """Path evaluation of a middle triple, integrated exactly per edge.

    The left factor pairs with the path so far, the right factor with the
    path still to come; partial letters on the crossing edge integrate to
    the same ordered-simplex volumes as in eval_hat_cs. Agrees with the
    chen_pairing of the concatenated word.
    """
    left, w, right = middle
    if model.degree(w) != 1:
        raise ValueError(f"integrand letter {w!r} must have degree 1")
    probe = BarElement.word(model, tuple(left) + tuple(right))
    theta = _open_setup(probe)
    gamma = _as_word(gamma)
    letters = gamma.letters
    w_gen = _tensor_name(w)
    mono_left = tuple(_tensor_name(letter) for letter in left)
    mono_right = tuple(_tensor_name(letter) for letter in right)
    j, r = len(mono_left), len(mono_left) + len(mono_right)
    imin = j
    while imin > 0 and mono_left[imin - 1] == w_gen:
        imin -= 1
    kmax = j
    while kmax < r and mono_right[kmax - j] == w_gen:
        kmax += 1
    total = Fraction(0)
    for p, (base, eps) in enumerate(letters):
        if tensor_letter(base) != w_gen:
            continue
        pre = theta.expand_word(FreeWord(letters[:p]))
        suf = theta.expand_word(FreeWord(letters[p + 1:]))
        for i in range(imin, j + 1):
            c_pre = pre.coefficient(mono_left[:i])
            if not c_pre:
                continue
            for k in range(j, kmax + 1):
                c_suf = suf.coefficient(mono_right[k - j:])
                if not c_suf:
                    continue
                total += (eps * (eps ** (k - i)) * c_pre * c_suf
                          * Fraction(1, factorial(k - i + 1)))
    return total


# -- the sweep ----------------------------------------------------------

SURFACES = [SurfaceSpec(1, 1), SurfaceSpec(1, 2), SurfaceSpec(2, 1),
            SurfaceSpec(0, 3), SurfaceSpec(2, 2)]
CASES_PER_SURFACE = 300
_MODEL_LETTER = {"a": "xi", "b": "eta", "c": "zeta"}


def _loop_word(rng, spec):
    """0-6 letters of both signs, often in runs of one repeated letter."""
    gens = spec.generators()
    size = rng.randint(0, 6)
    letters = []
    while len(letters) < size:
        letter = (rng.choice(gens), rng.choice((1, -1)))
        run = rng.choice((1, 1, 2, 3))
        letters.extend([letter] * min(run, size - len(letters)))
    return FreeWord(letters)


def _model_letter(rng, model, word):
    """A model letter, mostly one dual to a letter of the word."""
    if word.letters and rng.random() < 0.75:
        base = rng.choice(word.letters)[0]
        return _MODEL_LETTER[base[0]] + base[1:]
    return rng.choice(model.letters)


def _bar_word(rng, model, word, size):
    out = []
    while len(out) < size:
        letter = _model_letter(rng, model, word)
        out.extend([letter] * min(rng.choice((1, 1, 2)), size - len(out)))
    return tuple(out)


def _coeff(rng):
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                    rng.randint(1, 5))


def _bar_element(rng, model, word):
    terms = [(_bar_word(rng, model, word, rng.randint(0, 4)), _coeff(rng))
             for _ in range(rng.randint(1, 3))]
    return BarElement(model, terms)


def _loop_or_path(rng, word):
    """The word itself, or now and then its class as a LoopClass."""
    if word.letters and rng.random() < 0.25:
        return cyclic_normal_form(word.reduce().letters)
    return word


def _has_run(word):
    return any(a == b for a, b in zip(word, word[1:]))


def test_sweep_matches_expansion_oracle():
    rng = random.Random(17)
    nonzero = {"chen": 0, "cs": 0, "kk": 0}
    runs = 0
    cases = 0
    for spec in SURFACES:
        model = open_model(spec)
        for _ in range(CASES_PER_SURFACE):
            word = _loop_word(rng, spec)
            gamma = _loop_or_path(rng, word)
            e = _bar_element(rng, model, word)
            w = _model_letter(rng, model, word)
            middle = (_bar_word(rng, model, word, rng.randint(0, 2)), w,
                      _bar_word(rng, model, word, rng.randint(0, 1)))
            got = {"chen": chen_pairing(e, gamma),
                   "cs": eval_hat_cs(e, w, gamma),
                   "kk": eval_hat_kk(middle, gamma, model)}
            want = {"chen": old_chen_pairing(e, gamma),
                    "cs": old_eval_hat_cs(e, w, gamma),
                    "kk": old_eval_hat_kk(middle, gamma, model)}
            for name, value in got.items():
                assert type(value) is Fraction
                assert value == want[name], (name, spec, e, w, middle, gamma)
                nonzero[name] += value != 0
            runs += bool(got["chen"]) and any(map(_has_run, e.terms))
            cases += 1
    assert cases >= 1500
    assert sum(nonzero.values()) >= 900, nonzero
    assert min(nonzero.values()) >= 500, nonzero
    # a bar word with a repeated letter paired to a nonzero value: one
    # loop letter fed a run of k >= 2 monomial letters
    assert runs >= 400, runs

