"""Magnus expansions, necklace series, and the expansion solvers.

A Magnus expansion sends each surface generator to a group-like series;
its necklace shadow identifies conjugacy classes with cyclic words.  On
top of them sit the graded action of a necklace series and its trace,
the graded necklace bracket; the symplectic-expansion solver; the
induced tangential automorphism and its certificate checks; Adams-scaling
checks; and the quadratic-algebra resolution certificate.  All exact."""

import re
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice, product
from math import factorial, lcm
from operator import itemgetter

from .surface import SurfaceSpec, boundary_word, least_rotation
from .tensoralg import (
    AlgebraMap,
    Derivation,
    GenSignature,
    TensorSeries,
    TermSum,
    as_coeff,
    exp,
    exp_sum,
    is_group_like,
    is_primitive,
    lie_bracket,
    log,
    matrix_rank,
    powers,
    right_normed_words,
)

__all__ = [
    "MagnusExpansion",
    "NecklaceWord",
    "CyclicSeries",
    "default_expansion",
    "expand_class",
    "necklace_project",
    "gr_action",
    "gr_necklace_bracket",
    "transported_bracket",
    "omega",
    "bch_right_side",
    "solve_symplectic",
    "is_symplectic",
    "invert_expansion",
    "kvi_check",
    "adams_series_check",
    "resolution_check",
]


_GEN_OF_BASE = {"a": "x", "b": "y", "c": "z"}


def tensor_letter(base):
    """Surface generator name -> tensor-algebra letter (a1->x1 etc.)."""
    return _GEN_OF_BASE[base[0]] + base[1:]


class MagnusExpansion:
    """Generator-to-group-like assignment, stored through primitive logs.

    Keeping log images primitive makes every image group-like by
    construction.  The first image of a base computes the power list
    [1, L, L^2, ...] of its log L; every image exp(mL), inverse included,
    is one combination over it.  The default logs are x_j, y_j, z_k.
    """

    __slots__ = ("spec", "sig", "trunc", "logs", "_powers", "_images")

    def __init__(self, spec, trunc, logs):
        self.spec = spec
        self.sig = GenSignature(spec.genus, spec.punctures)
        self.trunc = trunc
        self.logs = {}
        for base in spec.generators():
            series = logs[base]
            if series.sig != self.sig or series.trunc != trunc:
                raise ValueError("log image for %s has wrong signature or "
                                 "truncation" % base)
            self.logs[base] = series
        self._powers = {}
        self._images = {}

    def image(self, base, exponent=1):
        key = (base, exponent)
        found = self._images.get(key)
        if found is None:
            listed = self._powers.get(base)
            if listed is None:
                listed = self._powers[base] = powers(self.logs[base])
            found = self._images[key] = exp_sum(listed, exponent)
        return found

    def expand_word(self, word):
        """theta(word): one product per maximal run of a base, by the image
        of the run's exponent sum (none for a sum of 0, so a a' gives 1).
        Exact: theta is a homomorphism, exp(pL) exp(qL) = exp((p+q)L), and
        truncation is a ring map, so truncated products are exact."""
        result = None
        for base, run in groupby(word.letters, itemgetter(0)):
            m = sum(e for _, e in run)
            if m:
                image = self.image(base, m)
                result = image if result is None else result * image
        if result is None:
            return TensorSeries.unit(self.sig, self.trunc)
        return result

    def truncated(self, trunc):
        """The expansion with its logs truncated at trunc <= self.trunc."""
        if trunc == self.trunc:
            return self
        return MagnusExpansion(self.spec, trunc, {
            base: s.truncated(trunc) for base, s in self.logs.items()})

    def with_logs(self, new_logs):
        """Other bases keep their logs, power lists and images as is."""
        out = MagnusExpansion(self.spec, self.trunc, {**self.logs, **new_logs})
        out._powers = {base: listed for base, listed in self._powers.items()
                       if base not in new_logs}
        out._images = {key: image for key, image in self._images.items()
                       if key[0] not in new_logs}
        return out

    def to_json(self):
        return {
            "signature": {"g": self.spec.genus, "n": self.spec.punctures},
            "truncation": self.trunc,
            "images": {base: self.image(base).to_json()
                       for base in self.spec.generators()},
        }

    def __repr__(self):
        return "MagnusExpansion(%r, N=%d)" % (self.spec, self.trunc)


@lru_cache(maxsize=64)
def default_expansion(spec, trunc):
    """Logs x_j, y_j, z_k; one shared object per (spec, trunc).  Nothing
    mutates an expansion: its power lists and images fill lazily and never
    change once filled, so truncated and with_logs may share them."""
    sig = GenSignature(spec.genus, spec.punctures)
    logs = {base: TensorSeries.generator(sig, trunc, tensor_letter(base))
            for base in spec.generators()}
    return MagnusExpansion(spec, trunc, logs)


class NecklaceWord:
    """Cyclic word stored as its least rotation (surface.least_rotation),
    letters compared as strings, so "x10" < "x2"."""

    __slots__ = ("word",)

    def __init__(self, word):
        self.word = least_rotation(tuple(word))

    def __eq__(self, other):
        return isinstance(other, NecklaceWord) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return "NecklaceWord(%s)" % (" ".join(self.word) or "1")


class CyclicSeries(TermSum):
    """Rational combination of necklace words, truncated by weight.

    The integer twist is pure bookkeeping for the Tate shift carried by
    bracket-like outputs; sums require equal twist, brackets add them.
    """

    __slots__ = ("sig", "trunc", "twist")

    def __init__(self, sig, trunc, terms=None, twist=0):
        self.sig = sig
        self.trunc = trunc
        self.twist = twist
        super().__init__(terms)

    def add_term(self, necklace, coeff):
        """Add coeff * necklace; words past the truncation are dropped."""
        if not isinstance(necklace, NecklaceWord):
            necklace = NecklaceWord(necklace)
        if self.sig.degree(necklace.word) <= self.trunc:
            TermSum.add_term(self, necklace, coeff)
        else:
            as_coeff(coeff)     # inexact input is an error even when dropped

    def _sort_key(self, necklace):
        return self.sig.sort_key(necklace.word)

    def valuation(self):
        if not self.terms:
            return None
        return min(self.sig.degree(n.word) for n in self.terms)

    def homogeneous_component(self, d):
        degree = self.sig.degree
        return self._with_terms({n: c for n, c in self.terms.items()
                                 if degree(n.word) == d})

    def __repr__(self):
        parts = ["%s |%s|" % (c, " ".join(n.word) or "1")
                 for n, c in self.sorted_terms()[:6]]
        if len(self.terms) > 6:
            parts.append("...")
        return "<CyclicSeries tw=%d: %s>" % (self.twist, " + ".join(parts) or "0")

    def to_json(self):
        return {
            "signature": {"g": self.sig.genus, "n": self.sig.punctures},
            "truncation": self.trunc,
            "twist": self.twist,
            "terms": [{"word": list(n.word), "coeff": str(c)}
                      for n, c in self.sorted_terms()],
        }


def necklace_project(series, twist=0):
    """Trace projection: int numerators summed per cyclic rotation class."""
    den, numerators = series.numerators()
    totals = {}
    for word, c in numerators:
        key = NecklaceWord(word)
        totals[key] = totals.get(key, 0) + c
    return CyclicSeries(series.sig, series.trunc,
                        twist=twist).with_totals(den, totals.items())


def expand_class(loop_class, theta):
    """Necklace expansion of a conjugacy class; representative-independent."""
    return necklace_project(theta.expand_word(loop_class.free_word()))


def gr_action(u):
    """The graded (Hamiltonian) derivation of a necklace series u.

    Per letter p_i of a necklace p of u, P_i = p_{i+1} ... p_{i-1}: one
    table gives the partner q of p_i the image <p_i, q> P_i, where
    <x_j, y_j> = 1 = -<y_j, x_j>, and z_k the image z_k P_i - P_i z_k if
    p_i = z_k, times p's coefficient.  That is the graded double bracket
    {{x_j, y_j}} = 1 (x) 1, {{z_k, z_k}} = z_k (x) 1 - 1 (x) z_k, in the
    engine's signs: Kawazumi-Kuno, "The logarithms of Dehn twists" (2014),
    and Alekseev-Kawazumi-Kuno-Naef, "The Goldman-Turaev Lie bialgebra
    and the Kashiwara-Vergne problem in higher genera" (2018)."""
    sig, trunc, g, gens = u.sig, u.trunc, u.sig.genus, u.sig.gens
    table = {z: [(z, 1, (z,), ()), (z, -1, (), (z,))] for z in gens[2 * g:]}
    for x, y in zip(gens, gens[g:2 * g]):
        table[x], table[y] = [(y, 1, (), ())], [(x, -1, (), ())]
    images = {}
    for necklace, c in u.terms.items():
        p = necklace.word
        for i, letter in enumerate(p):
            for q, sign, left, right in table[letter]:
                images.setdefault(q, []).append(
                    (left + p[i + 1:] + p[:i] + right, sign * c))
    return Derivation(sig, trunc, {q: TensorSeries.from_terms(sig, trunc, terms)
                                   for q, terms in images.items()})


def gr_necklace_bracket(u, v):
    """The trace of gr_action(u) on v, |D(q)| summed over v's necklaces q;
    twists add plus 1, and unequal signatures or truncations raise."""
    return necklace_project(gr_action(u).apply(TensorSeries.from_terms(
        v.sig, v.trunc, ((n.word, c) for n, c in v.terms.items()))),
        twist=u.twist + v.twist + 1)


def transported_bracket(u, v, theta):
    """Necklace expansion of the Goldman bracket of two loop sums."""
    # deferred: goldman builds on this module
    from .goldman import expand_loop_sum, goldman_bracket
    return expand_loop_sum(goldman_bracket(u, v), theta)


def omega(sig, trunc):
    """The symplectic element sum [x_j, y_j] + sum z_k."""
    terms = [(("z%d" % k,), 1) for k in range(1, sig.punctures + 1)]
    for j in range(1, sig.genus + 1):
        terms += [(("x%d" % j, "y%d" % j), 1), (("y%d" % j, "x%d" % j), -1)]
    return TensorSeries.from_terms(sig, trunc, terms)


def bch_right_side(sig, trunc):
    """BCH logarithm of the boundary relation under the default expansion.

    log of prod (e^{x_j} e^{y_j} e^{-x_j} e^{-y_j}) prod e^{z_k}: the
    series a tangential automorphism must send the symplectic element to.
    """
    spec = SurfaceSpec(sig.genus, sig.punctures + 1)
    theta = default_expansion(spec, trunc)
    return log(theta.expand_word(boundary_word(spec)))


def ad_exp(listed, target):
    """e^{ad_h}(target) = target + [h,target] + [h,[h,target]]/2 + ...

    Computed as exp(h) target exp(-h), both read off listed = powers(h),
    so h has no constant term.  The identity holds in the completed
    algebra, and truncation at N is a ring map onto its quotient by the
    ideal of weighted degree > N, so the truncated product is exact.
    """
    return exp_sum(listed) * target * exp_sum(listed, -1)


def dynkin_leading_split(series):
    """Write a primitive series R as sum over letters of [letter, T].

    Uses the right-normed Dynkin idempotent: on the length-l component,
    R = (1/l) sum_w c_w [w_1,[w_2,[...]]]; grouping by the leading
    letter gives the tails.  The 1/l factor is per word length, which
    need not match the weighted degree when weight-2 letters appear.
    One right_normed_words memo per call; ints summed over lcm(denoms) *
    lcm(lengths).  Only valid on primitive input (the caller asserts
    primitivity); a word shorter than two letters, the empty word
    included, has no split and is a ValueError.
    """
    den, terms = series.numerators()
    scale = lcm(*(len(word) for word, _ in terms))
    memo, parts = {}, {}
    for word, n in terms:
        if len(word) < 2:
            raise ValueError("the Dynkin split needs words of length >= 2, "
                             "got %r" % (word,))
        num = n * (scale // len(word))
        bucket = parts.setdefault(word[0], {})
        for w, c in right_normed_words(word[1:], memo).items():
            bucket[w] = bucket.get(w, 0) + num * c
    unit = Fraction(1, den * scale)
    return {letter: TensorSeries.from_terms(series.sig, series.trunc,
                                            bucket.items()).scaled(unit)
            for letter, bucket in parts.items()}


def solve_symplectic(genus, punctures, trunc):
    """Expansion with log theta(boundary word) exactly the symplectic element.

    Degree-by-degree: the degree-d defect R_d of log theta(gamma_0) is
    primitive; splitting R_d = sum [letter, T_letter] by leading letter
    lets degree-(d-1) corrections cancel it in closed form:
      a_j log += T_{y_j},   b_j log -= T_{x_j},
    and the z_k images are conjugated by exp(H_k) with H_k += T_{z_k}.
    A degree-d step changes log theta(gamma_0) first in degree d, by
    -R_d, so afterwards every defect of degree <= d vanishes.  Step d
    reads R_d off theta.truncated(d) and lifts it back with from_terms,
    exactly: truncation is a ring map that commutes with exp and log.
    with_logs rebuilds only the logs a split touches.  Each step checks
    the lower degrees and the end the full defect; a surviving defect is
    a fatal internal error.
    """
    if genus < 0 or punctures < 0 or (genus == 0 and punctures == 0):
        raise ValueError("need genus >= 1 or punctures >= 1")
    spec = SurfaceSpec(genus, punctures + 1)
    gamma0 = boundary_word(spec)
    theta = default_expansion(spec, trunc)
    sig = theta.sig
    target = omega(sig, trunc)
    conjugator = {k: TensorSeries.zero(sig, trunc)
                  for k in range(1, punctures + 1)}
    for d in range(3, trunc + 1):
        defect = (log(theta.truncated(d).expand_word(gamma0))
                  - target.truncated(d))
        low = defect.valuation()
        if low is not None and low < d:
            raise AssertionError("solver invariant broken: degree-%d defect "
                                 "survived past its correction step" % low)
        r = defect.homogeneous_component(d)
        if r.is_zero():
            continue
        if not is_primitive(r):
            raise AssertionError("defect at degree %d is not primitive; "
                                 "expansion images lost group-likeness" % d)
        split = dynkin_leading_split(
            TensorSeries.from_terms(sig, trunc, r.items()))
        updates = {}
        for j in range(1, genus + 1):
            t_y = split.get("y%d" % j)
            if t_y is not None:
                updates["a%d" % j] = theta.logs["a%d" % j] + t_y
            t_x = split.get("x%d" % j)
            if t_x is not None:
                updates["b%d" % j] = theta.logs["b%d" % j] - t_x
        for k in range(1, punctures + 1):
            t_z = split.get("z%d" % k)
            if t_z is not None:
                conjugator[k] = conjugator[k] + t_z
                z = TensorSeries.generator(sig, trunc, "z%d" % k)
                updates["c%d" % k] = ad_exp(powers(conjugator[k]), z)
        theta = theta.with_logs(updates)

    final_defect = log(theta.expand_word(gamma0)) - target
    if not final_defect.is_zero():
        raise AssertionError("symplectic solve left a defect of valuation %s"
                             % final_defect.valuation())
    return theta


def is_symplectic(theta):
    """Exact check: boundary image, group-likeness, graded identity."""
    gamma0 = boundary_word(theta.spec)
    if log(theta.expand_word(gamma0)) != omega(theta.sig, theta.trunc):
        return False
    return all(is_primitive(theta.logs[base])
               and _graded_identity(theta.logs[base], tensor_letter(base))
               for base in theta.spec.generators())


def _graded_identity(image, name):
    """Whether image is the generator `name` plus terms of higher weight.

    A generator heavier than the truncation is zero, and so may be its
    image: a zero difference passes.
    """
    sig = image.sig
    low = (image - TensorSeries.generator(sig, image.trunc, name)).valuation()
    return low is None or low > sig.weight(name)


def _substitution_of(theta):
    """The algebra substitution x_j -> log theta(a_j) etc."""
    images = {tensor_letter(base): theta.logs[base]
              for base in theta.spec.generators()}
    return AlgebraMap(theta.sig, theta.trunc, images)


def invert_expansion(theta):
    """Inverse of theta's substitution, as generator images.

    theta induces the algebra map Psi: gen -> log theta(word).  The
    inverse is the Neumann series Phi(g) = sum_k (id - Psi)^k (g): since
    gr(Psi) = id, Psi(w) - w has weighted degree > deg w on every word
    w, so id - Psi raises the valuation, (id - Psi)^k (g) vanishes at
    the truncation for k >= trunc, and the sum up to the first zero
    term, one combination per generator, is exact.
    Every term goes through the one substitution Psi, whose prefix memo
    is shared by all generators.  Both composites are verified on every
    generator before returning.  For a symplectic theta this is the
    tangential automorphism it induces: it carries the symplectic
    element to the BCH logarithm of the surface relation.
    """
    sig, trunc = theta.sig, theta.trunc
    psi = _substitution_of(theta)
    if not all(_graded_identity(psi.image(name), name) for name in sig.gens):
        raise ValueError("expansion is not graded-identity; cannot invert")

    def neumann(term):
        while not term.is_zero():       # (id - Psi)^k (g) == 0 for k >= N
            yield 1, term
            term = term - psi.apply(term)
    phi = AlgebraMap(sig, trunc, {
        name: TensorSeries.combination(
            sig, trunc, neumann(TensorSeries.generator(sig, trunc, name)))
        for name in sig.gens})
    for name in sig.gens:
        gen = TensorSeries.generator(sig, trunc, name)
        if phi.apply(psi.image(name)) != gen or psi.apply(phi.image(name)) != gen:
            raise AssertionError("inverse verification failed on %s" % name)
    return phi


def _extract_conjugator(phi, k):
    """exp(h) with exp(h) z_k exp(-h) = phi(z_k), or None.

    h grows block by block: the lowest block R of phi(z_k) - e^{ad_h}(z_k)
    must be [b, z_k], and _bracket_preimage gives the next block in
    closed form, b = sum_i z_k^i rho^{i+1}(R), unique up to the
    centraliser Q[z_k] of z_k.  b need not be a Lie element, so exp(h)
    need not be group-like; kvi_check decides that with is_group_like.
    """
    sig, trunc = phi.sig, phi.trunc
    name = "z%d" % k
    z = TensorSeries.generator(sig, trunc, name)
    target = phi.image(name)
    if target.homogeneous_component(2) != z:
        return None
    h = TensorSeries.zero(sig, trunc)
    while True:
        listed = powers(h)
        diff = target - ad_exp(listed, z)
        if diff.is_zero():
            return exp_sum(listed)
        block = _bracket_preimage(diff.homogeneous_component(diff.valuation()),
                                  name)
        if block is None:
            return None
        h = h + block


def _bracket_preimage(rhs, name):
    """The h without pure powers of z = name with [h, z] = rhs, or None.

    Let rho keep the words ending in z and strip that z.  For h without
    constant term rho(hz) = h and rho(zh) = z rho(h), so [h, z] = R
    gives h = rho(R) + z rho(h), that is h = sum_i z^i rho^{i+1}(R); on
    a word u z^j of R (u not ending in z) the sum is
    sum_{i<j} z^i u z^{j-1-i}.  The centraliser of z is Q[z], so this is
    the only solution without a pure power of z, and it is returned
    only if it really brackets to R.  It need not be a Lie element.
    """
    sig, trunc = rhs.sig, rhs.trunc
    terms = []
    for word, coeff in rhs.items():
        j = len(word)
        while j and word[j - 1] == name:
            j -= 1
        head, power = word[:j], len(word) - j
        for i in range(power):
            terms.append(((name,) * i + head + (name,) * (power - 1 - i),
                          coeff))
    h = TensorSeries.from_terms(sig, trunc, terms)
    z = TensorSeries.generator(sig, trunc, name)
    return h if lie_bracket(h, z) == rhs else None


def kvi_check(phi):
    """Certificate for the tangential automorphism conditions.

    Checks, exactly at the truncation: the symplectic element maps to
    the BCH logarithm of the surface relation; every z image is a
    group-like conjugate of its generator (the conjugator comes from
    _extract_conjugator's closed-form blocks, h = sum_i z^i rho^{i+1}(R),
    unique up to pure powers of z, and is_group_like alone decides
    group-likeness, so a non-Lie h gives a null conjugator); the
    automorphism preserves primitivity of generators and is the
    identity on the associated graded.
    """
    sig = phi.sig
    omega_ok = phi.apply(omega(sig, phi.trunc)) == bch_right_side(sig, phi.trunc)
    conjugators = []
    for k in range(1, sig.punctures + 1):
        g = _extract_conjugator(phi, k)
        conjugators.append(g if g is not None and is_group_like(g) else None)
    z_ok = all(g is not None for g in conjugators)
    gr_ok = all(is_primitive(phi.image(name))
                and _graded_identity(phi.image(name), name)
                for name in sig.gens)
    return {
        "omega_image_matches": bool(omega_ok),
        "zk_conjugators": [g.to_json() if g is not None else None
                           for g in conjugators],
        "gr_identity": bool(gr_ok),
        "checked_to_degree": phi.trunc,
        "passed": bool(omega_ok and z_ok and gr_ok),
    }


def adams_series_check(n, p, k):
    """Power-map scaling on the symmetric pieces of the necklace space.

    For primitive p, |exp p| decomposes as sum |p^k|/k!; the n-th power
    map replaces p by np and must scale the k-th piece by n^k.  Checks
    the decomposition identity always, and for homogeneous p also the
    weight-component ratio.  The pieces |p^m| come off one power list and
    are summed as int numerators in one tally.
    """
    if not is_primitive(p):
        raise ValueError("adams_series_check needs a primitive series")
    sig, trunc = p.sig, p.trunc
    scaled = necklace_project(exp(p.scaled(n)))
    listed = powers(p)
    pieces = [necklace_project(t).numerators() for t in listed]
    den = lcm(*(factorial(m) * d for m, (d, _) in enumerate(pieces)))
    totals = {}
    for m, (d, numerators) in enumerate(pieces):
        scale = n ** m * den // (factorial(m) * d)
        for necklace, c in numerators:
            totals[necklace] = totals.get(necklace, 0) + scale * c
    if CyclicSeries(sig, trunc).with_totals(den, totals.items()) != scaled:
        return False
    low = p.valuation()
    if low is not None and p.homogeneous_component(low) == p:
        # homogeneous case: the k-th piece sits at weight k*low
        lhs = scaled.homogeneous_component(k * low)
        rhs = necklace_project(exp_sum(listed)).homogeneous_component(
            k * low).scaled(n ** k)
        if lhs != rhs:
            return False
    return True


# -- quadratic surface algebra resolution -------------------------------

def _rewrite_rule(genus):
    """(letters, lead, replacement) for b_g a_g -> a_g b_g + sum_{i<g}
    (a_i b_i - b_i a_i) on str words, one character per generator: a_i is
    chr(63 + 2i) and b_i chr(64 + 2i), so letters = a_1 b_1 a_2 ... =
    "ABC..." (genus <= 557,023)."""
    letters = "".join(chr(65 + h) for h in range(2 * genus))
    replacement = {letters[-2:]: 1}
    for h in range(0, 2 * genus - 2, 2):
        replacement[letters[h:h + 2]] = 1
        replacement[letters[h + 1] + letters[h]] = -1
    return letters, letters[-1] + letters[-2], replacement


def _normal_form(terms, lead, replacement):
    """Normal form of a combination, in place: terms maps str words of one
    length to nonzero int coefficients and is returned rewritten.

    The largest word holding lead, in str order, is replaced at its
    leftmost lead by the terms of the replacement, which merge with the
    words already there (a zero total drops its word).  Every replacement
    word is smaller than b_g a_g, b_g being the largest letter, so each
    rewrite gives words smaller than the one it removes: taking the
    largest first, no word is rewritten twice, and the loop ends.  The
    rule has no critical pairs (b_g a_g does not overlap itself), so the
    rewriting is confluent and the normal form is the one every order of
    rewriting reaches, for a combination as for a word (Bergman's
    diamond lemma).
    """
    pending = [word for word in terms if lead in word]
    if not pending:
        return terms
    pending.sort()
    while pending:
        word = pending.pop()
        coeff = terms.pop(word, 0)
        if not coeff:  # cancelled, or already rewritten
            continue
        p = word.find(lead)
        prefix, suffix = word[:p], word[p + 2:]
        for mid, c in replacement.items():
            w = prefix + mid + suffix
            old = terms.get(w)
            if old is None:
                terms[w] = coeff * c
                if lead in w:
                    insort(pending, w)
            elif old + coeff * c:
                terms[w] = old + coeff * c
            else:
                del terms[w]
    return terms


def _extend(words, letters, lead):
    """Words avoiding lead, one letter longer, lazily and in lex order."""
    after_bg = letters.replace(lead[1], "")
    for w in words:
        yield from map(w.__add__, after_bg if w.endswith(lead[0]) else letters)


def _normal_counts(letters, lead, max_len):
    """dim of each graded piece by a last-letter transfer map."""
    dims = [1]
    by_last = dict.fromkeys(letters, 0)  # the empty word ends in no letter
    for _ in range(max_len):
        by_last = {q: dims[-1] - (by_last[lead[0]] if q == lead[1] else 0)
                   for q in letters}
        dims.append(sum(by_last.values()))
    return dims


# largest degree pieces the explicit surjectivity sweep and the exact
# matrix-rank cross-check of resolution_check still run on
_SWEEP_LIMIT = 150000
_RANK_LIMIT = 400


def resolution_check(genus, n_max):
    """Exactness certificate for 0 -> A -> H tensor A -> A -> Q -> 0.

    A is the tensor algebra on a_1..a_g, b_1..b_g modulo the symplectic
    relator.  The relator's leading word rewrites confluently (the rule
    has no critical pairs), giving a normal basis: words avoiding the
    factor b_g a_g, listed degree by degree (_extend of the one below).
    Dimensions come from a last-letter transfer count and must satisfy
    dim A_m = 2g dim A_{m-1} - dim A_{m-2}; the enumerated bases are
    checked against the counts wherever they are materialized.  The
    boundary maps are certified structurally: the composite vanishes on
    every basis element u (R u = sum_i (a_i b_i - b_i a_i) u, the same
    element of A, is one combination whose like words merge before any
    rewrite, so rewriting b_g a_g u cancels the rest), the second map is
    injective because its b_1-insertion component permutes basis
    monomials, the first is surjective because stripping a leading
    letter keeps words normal (a factor of w[1:] is a factor of w).  The
    surjectivity sweep and the exact matrix-rank cross-checks rerun
    those arguments explicitly on every degree small enough to afford
    it; _SWEEP_LIMIT and _RANK_LIMIT set the cutoffs.  The sweep searches
    the words _extend yields, 4096 joined by NUL at a time, for the lead
    after a letter (str.find(w, lead, 1) >= 0); matrix_rank eliminates
    forward only.  Words are str, one character per generator
    (_rewrite_rule), which the report of dims and flags does not need.
    """
    if genus < 1:
        raise ValueError("resolution needs genus >= 1")
    if genus > 557023:  # the last letter, b_g, would pass chr(0x10FFFF)
        raise ValueError("resolution needs genus <= 557023")
    if n_max < 0:
        raise ValueError("resolution needs max degree >= 0")
    letters, lead, replacement = _rewrite_rule(genus)

    dims = _normal_counts(letters, lead, n_max + 2)
    for m in range(2, n_max + 3):
        if dims[m] != 2 * genus * dims[m - 1] - dims[m - 2]:
            raise AssertionError("dimension recursion failed at degree %d" % m)
    if genus == 1 and any(dims[m] != m + 1 for m in range(n_max + 3)):
        raise AssertionError("genus-1 dimensions are not n+1")

    basis_cache = [[""]]

    def basis(m):
        for k in range(len(basis_cache), m + 1):
            words = list(_extend(basis_cache[-1], letters, lead))
            if len(words) != dims[k]:
                raise AssertionError("enumeration disagrees with the "
                                     "transfer count at degree %d" % k)
            basis_cache.append(words)
        return basis_cache[m]

    relator = {**replacement, lead: -1}  # sum_i (a_i b_i - b_i a_i)
    lead_inside = re.compile("[^\0]" + re.escape(lead)).search
    rows = []
    passed = True
    for n in range(n_max + 1):
        # composite d1 o d2 = (multiply by the relator) = 0 in A
        composite_ok = not any(
            _normal_form({m + u: c for m, c in relator.items()}, lead,
                         replacement) for u in basis(n))
        # injectivity: u -> normal form of b_1 u, the a_1 tensor component,
        # rewriting words with the lead; a break leaves fewer images (a
        # dict, as a set built word by word grows a table twice as large)
        images = dict.fromkeys(map(letters[1].__add__, basis(n)))
        for w in [w for w in images if lead in w]:
            del images[w]
            image = _normal_form({w: 1}, lead, replacement)
            if list(image.values()) != [1]:
                break
            images.update(image)
        injective_ok = len(images) == dims[n]
        # surjectivity: strip the first letter of each target basis word
        surjective_swept = dims[n + 2] <= _SWEEP_LIMIT
        surjective_ok = True
        if surjective_swept:
            words = _extend(basis(n + 1), letters, lead)
            surjective_ok = not any(map(lead_inside, iter(
                lambda: "\0".join(islice(words, 4096)), "")))
        rank_identity = dims[n] + dims[n + 2] == 2 * genus * dims[n + 1]

        cross_checked = False
        middle_dim = 2 * genus * dims[n + 1]
        if middle_dim <= _RANK_LIMIT:
            index_n1 = {w: i for i, w in enumerate(basis(n + 1))}
            index_n2 = {w: i for i, w in enumerate(basis(n + 2))}
            d2_cols = []
            for u in basis(n):
                column = [0] * middle_dim
                for j, letter in enumerate(letters):
                    # b_i u in the a_i block, -a_i u in the b_i block
                    start, sign = (j ^ 1) * dims[n + 1], (-1) ** (j + 1)
                    for w, c in _normal_form({letter + u: 1}, lead,
                                             replacement).items():
                        column[start + index_n1[w]] += sign * c
                d2_cols.append(column)
            d1_cols = []
            for letter, v in product(letters, basis(n + 1)):
                column = [0] * dims[n + 2]
                for w, c in _normal_form({letter + v: 1}, lead,
                                         replacement).items():
                    column[index_n2[w]] += c
                d1_cols.append(column)
            rank_d2 = matrix_rank(d2_cols)  # columns as rows: row rank = rank
            rank_d1 = matrix_rank(d1_cols)
            if rank_d2 != dims[n] or rank_d1 != dims[n + 2]:
                passed = False
            cross_checked = True

        ok = composite_ok and injective_ok and surjective_ok and rank_identity
        passed = passed and ok
        rows.append({
            "n": n,
            "dims": [dims[n], middle_dim, dims[n + 2]],
            "composite_zero": composite_ok,
            "injective": injective_ok,
            "surjective": surjective_ok,
            "surjective_swept": surjective_swept,
            "rank_identity": rank_identity,
            "rank_cross_checked": cross_checked,
        })
    return {"genus": genus, "max_n": n_max, "dims": dims[:n_max + 3],
            "rows": rows, "passed": passed}
