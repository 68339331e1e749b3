"""Differential test of Magnus images read off one power list per log.

`MagnusExpansion.image(base, e)` used to run its own exponential
power sum, exp(L.scaled(e)), for every exponent, and `expand_word`
multiplied once per letter.  Each expansion now keeps the power list
[1, L, L^2, ...] of a log, reads every image exp(mL) off it with
`tensoralg.exp_sum`, and `expand_word` multiplies once per maximal run
of a base by the image of the run's exponent sum.  `ad_exp` reads
exp(h) and exp(-h) off one power list of h.  The replaced code is kept
below, verbatim but for its names, as ``old_*`` oracles (the old
exponential included, so that the oracle shares no code with the new
sum), and a seeded sweep compares the two exactly on default,
symplectic and drifted expansions of four surfaces at every
truncation: words made of runs of one letter of both signs, c-letter
runs, unreduced words whose runs cancel, and the empty word.
"""

import functools
import random
from fractions import Fraction
from math import factorial

import pytest

from goldman_forge import magnus
from goldman_forge.magnus import (
    MagnusExpansion,
    NecklaceWord,
    _bracket_preimage,
    ad_exp,
    default_expansion,
    invert_expansion,
    kvi_check,
    solve_symplectic,
)
from goldman_forge.surface import FreeWord, SurfaceSpec
from goldman_forge.tensoralg import (
    Derivation,
    TensorSeries,
    derivation_exp,
    lie_bracket,
    powers,
)
from helpers import compose_automorphism, random_primitive, random_series

# (genus, boundary) -> the truncations swept; genus 2 stops at N = 5
SURFACES = {(1, 1): range(1, 7), (2, 1): range(1, 6),
            (1, 2): range(1, 7), (0, 3): range(1, 7)}


# -- the replaced code -------------------------------------------------------

def old_power_sum(first, step, weight):
    cap = (first.trunc + 2) * (first.trunc + 2)

    def parts():
        term, k = first, 0
        while not term.is_zero():
            if k > cap:
                raise ValueError("exponential did not terminate; the step "
                                 "is not locally nilpotent")
            yield weight(k), term
            term, k = step(term), k + 1
    return TensorSeries.combination(first.sig, first.trunc, parts())


def old_inverse_factorial(k):
    return Fraction(1, factorial(k))


def old_exp(s):
    if s.constant_term() != 0:
        raise ValueError("exp needs a series with zero constant term")
    return old_power_sum(TensorSeries.unit(s.sig, s.trunc), lambda t: t * s,
                         old_inverse_factorial)


@functools.lru_cache(maxsize=None)
def old_image(theta, base, exponent=1):
    return old_exp(theta.logs[base].scaled(exponent))


def old_expand_word(theta, word):
    result = TensorSeries.unit(theta.sig, theta.trunc)
    for base, e in word.letters:
        result = result * old_image(theta, base, e)
    return result


def old_ad_exp(h, target):
    return old_exp(h) * target * old_exp(h.scaled(-1))


def old_truncated(theta, trunc):
    return MagnusExpansion(theta.spec, trunc, {
        base: s.truncated(trunc) for base, s in theta.logs.items()})


def old_with_logs(theta, new_logs):
    merged = dict(theta.logs)
    merged.update(new_logs)
    return MagnusExpansion(theta.spec, theta.trunc, merged)


def old_extract_conjugator(phi, k):
    sig, trunc = phi.sig, phi.trunc
    name = "z%d" % k
    z = TensorSeries.generator(sig, trunc, name)
    target = phi.image(name)
    if target.homogeneous_component(2) != z:
        return None
    h = TensorSeries.zero(sig, trunc)
    while True:
        diff = target - old_ad_exp(h, z)
        if diff.is_zero():
            return old_exp(h)
        block = _bracket_preimage(diff.homogeneous_component(diff.valuation()),
                                  name)
        if block is None:
            return None
        h = h + block


# -- inputs ------------------------------------------------------------------

def _drift(theta):
    """theta after exp of the derivation g -> [g, g'], g' the next
    generator: an automorphism that keeps primitives and lengthens every
    log."""
    sig, trunc = theta.sig, theta.trunc
    gens = sig.gens
    images = {}
    for i, name in enumerate(gens):
        other = gens[(i + 1) % len(gens)]
        images[name] = lie_bracket(TensorSeries.generator(sig, trunc, name),
                                   TensorSeries.generator(sig, trunc, other))
    return compose_automorphism(derivation_exp(Derivation(sig, trunc, images)),
                                theta)


def _expansions(genus, boundary, trunc):
    spec = SurfaceSpec(genus, boundary)
    symplectic = solve_symplectic(genus, boundary - 1, trunc)
    return {"default": default_expansion(spec, trunc),
            "symplectic": symplectic,
            "drifted": _drift(symplectic)}


def _run(base, sign, length):
    return [(base, sign)] * length


def _words(rng, spec, trunc):
    """Run-heavy words: runs up to N+2 letters of both signs, c-letter
    runs, runs of one base with mixed signs, cancelling runs (g g' and
    g' g for every generator g among them) and the empty word."""
    gens = spec.generators()
    c_letters = [g for g in gens if g.startswith("c")]
    words = [FreeWord(())]
    words += [FreeWord(((g, e), (g, -e))) for g in gens for e in (1, -1)]
    for _ in range(7):
        letters = []
        for _ in range(rng.randint(1, 4)):
            letters += _run(rng.choice(gens), rng.choice((1, -1)),
                            rng.randint(1, trunc + 2))
        words.append(FreeWord(letters))
    base, k = rng.choice(gens), rng.randint(1, trunc + 2)
    words.append(FreeWord(_run(base, 1, k) + _run(base, -1, k)))
    outer, inner = rng.choice(gens), rng.choice(gens)
    words.append(FreeWord(_run(outer, 1, 2) + _run(inner, -1, k)
                          + _run(inner, 1, k) + _run(outer, -1, 2)))
    mixed = [(base, rng.choice((1, -1))) for _ in range(trunc + 2)]
    words.append(FreeWord(mixed + _run(rng.choice(gens), 1, 3)))
    if c_letters:
        letters = []
        for _ in range(3):
            letters += _run(rng.choice(c_letters), rng.choice((1, -1)),
                            rng.randint(2, trunc + 2))
        words.append(FreeWord(letters))
    return words


def _longest_run(word):
    best = run = 0
    previous = None
    for base, _ in word.letters:
        run = run + 1 if base == previous else 1
        previous = base
        best = max(best, run)
    return best


# -- the comparisons -----------------------------------------------------------

def test_expand_word_and_images_match_the_replaced_code():
    rng = random.Random("expansion-oracle")
    compared = long_runs = cancelled = 0
    for (genus, boundary), truncs in SURFACES.items():
        spec = SurfaceSpec(genus, boundary)
        for trunc in truncs:
            for kind, theta in _expansions(genus, boundary, trunc).items():
                for base in spec.generators():
                    for m in range(-4, 5):
                        assert theta.image(base, m) == old_image(
                            theta, base, m), (genus, boundary, trunc, kind,
                                              base, m)
                for word in _words(rng, spec, trunc):
                    got = theta.expand_word(word)
                    assert got == old_expand_word(theta, word), (
                        genus, boundary, trunc, kind, word.letters)
                    compared += 1
                    long_runs += _longest_run(word) >= 3
                    if word.letters and not word.reduce().letters:
                        assert got == TensorSeries.unit(theta.sig, trunc)
                        cancelled += 1
    old_image.cache_clear()
    assert compared >= 1100
    assert long_runs >= 200
    assert cancelled >= 500


def test_a_log_with_a_constant_term_has_no_image():
    spec = SurfaceSpec(1, 1)
    theta = default_expansion(spec, 3)
    shifted = theta.with_logs({"a1": theta.logs["a1"] + 1})
    with pytest.raises(ValueError, match="zero constant term"):
        shifted.image("a1", -1)
    with pytest.raises(ValueError, match="zero constant term"):
        shifted.expand_word(FreeWord((("b1", 1), ("a1", 1))))


def test_ad_exp_matches_the_conjugation_by_the_replaced_exponential():
    rng = random.Random("expansion-oracle-ad")
    for (genus, boundary), truncs in SURFACES.items():
        spec = SurfaceSpec(genus, boundary)
        for trunc in truncs:
            sig = default_expansion(spec, trunc).sig
            for _ in range(4):
                h = random_primitive(rng, sig, trunc)
                target = random_series(rng, sig, trunc)
                assert ad_exp(powers(h), target) == old_ad_exp(h, target)
            zero = TensorSeries.zero(sig, trunc)
            assert ad_exp(powers(zero), target) == target


# -- expansions that keep what they computed -----------------------------------

def test_truncated_at_its_own_truncation_is_the_expansion():
    for (genus, boundary), truncs in SURFACES.items():
        for trunc in truncs:
            for theta in _expansions(genus, boundary, trunc).values():
                assert theta.truncated(trunc) is theta
                for low in range(1, trunc):
                    assert theta.truncated(low).logs == \
                        old_truncated(theta, low).logs


def test_with_logs_shares_the_images_of_untouched_bases():
    rng = random.Random("expansion-oracle-logs")
    for (genus, boundary), truncs in SURFACES.items():
        spec = SurfaceSpec(genus, boundary)
        for trunc in truncs:
            theta = _expansions(genus, boundary, trunc)["symplectic"]
            for base in spec.generators():
                for m in (-2, -1, 1, 3):
                    theta.image(base, m)
            replaced = spec.generators()[0]
            new = random_primitive(rng, theta.sig, trunc)
            moved = theta.with_logs({replaced: new})
            for base in spec.generators():
                if base == replaced:
                    assert moved.logs[base] is new
                    assert moved.image(base, -1) == old_exp(new.scaled(-1))
                    assert theta.image(base, -1) == old_image(theta, base, -1)
                    continue
                assert moved.logs[base] is theta.logs[base]
                assert moved._powers[base] is theta._powers[base]
                for m in (-2, -1, 1, 3):
                    assert moved.image(base, m) is theta.image(base, m)
            for word in _words(rng, spec, trunc):
                assert moved.expand_word(word) == old_with_logs(
                    theta, {replaced: new}).expand_word(word)
    old_image.cache_clear()


def _solve_and_certify():
    """Logs of solve_symplectic and kvi_check reports, conjugators
    included, on the kvi suite's surfaces and (1, 3), N <= 5."""
    out = []
    for genus, boundary in ((1, 1), (2, 1), (1, 2), (1, 3)):
        for trunc in range(1, 6):
            theta = solve_symplectic(genus, boundary - 1, trunc)
            out.append((theta.logs, kvi_check(invert_expansion(theta))))
    return out


def test_solver_and_kvi_reports_match_the_replaced_methods(monkeypatch):
    got = _solve_and_certify()
    monkeypatch.setattr(MagnusExpansion, "truncated", old_truncated)
    monkeypatch.setattr(MagnusExpansion, "with_logs", old_with_logs)
    monkeypatch.setattr(magnus, "_extract_conjugator",
                        old_extract_conjugator)
    want = _solve_and_certify()
    assert got == want
    resolved = [z for _, report in got for z in report["zk_conjugators"]]
    assert len(resolved) == 15 and all(z is not None for z in resolved)


def test_necklace_word_hashes_its_word_and_never_equals_a_tuple():
    word = ("x1", "x1", "y1")
    necklace = NecklaceWord(("y1", "x1", "x1"))
    assert necklace.word == word
    assert necklace == NecklaceWord(word)
    assert hash(necklace) == hash(NecklaceWord(word))
    assert necklace != word and word != necklace
    table = {word: 1, necklace: 2}
    assert len(table) == 2
    assert table[NecklaceWord(word)] == 2 and table[word] == 1
