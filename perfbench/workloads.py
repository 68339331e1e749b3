"""The four workloads: seeded rounds of operations, each with a checker.

A workload builder takes the engine namespace (see harness.load_engine)
and a seeded ``random.Random`` and returns one round: a list of Op.
The round's make-up (how many operations of each kind, on which
surfaces, at which sizes) is fixed; the seed draws only the words,
paths, coefficients and matrices.  Every run repeats the same round,
so a run's share of failed operations never depends on its length.

Each ``Op.call`` reaches the engine through module attributes at call
time (``gf.goldman.goldman_bracket(...)``, never a captured function),
so the traced run's wrappers see every call.  Each ``Op.check`` runs
outside the timed region and returns None or a one-line failure; it
compares the output with a computation of the benchmark's own or with
a property the output must have, never with the output itself.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import comb, factorial


class Op:
    """One operation of a round.

    ``kind`` groups operations for warm-up and reporting; ``check(out,
    outs)`` gets the output and a dict from each Op of the round to its
    output;
    ``same(a, b)`` says whether two runs of the operation agree;
    ``known_fault`` marks a request the engine is known to get wrong.
    """

    __slots__ = ("kind", "label", "call", "check", "same", "known_fault")

    def __init__(self, kind, label, call, check, same=None,
                 known_fault=False):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.same = same or _equal
        self.known_fault = known_fault

    def failure(self, out, outs):
        """The check's verdict; a check that cannot read the output fails."""
        try:
            return self.check(out, outs)
        except Exception as err:  # a malformed output, reported as such
            return "check raised %r on output %r" % (err, out)


def _equal(a, b):
    return a == b


# -- words and homology, computed here -------------------------------------

def random_word(gf, rng, spec, length, alternating=False):
    """A cyclically reduced word with exactly ``length`` letters; with
    ``alternating``, no two neighbouring letters share a generator."""
    gens = spec.generators()
    while True:
        letters = []
        while len(letters) < length:
            letter = (rng.choice(gens), rng.choice((1, -1)))
            if letters and (letters[-1] == (letter[0], -letter[1]) or (
                    alternating and letters[-1][0] == letter[0])):
                continue
            letters.append(letter)
        if length < 2 or letters[0] != (letters[-1][0], -letters[-1][1]):
            return gf.surface.FreeWord(letters)


def exponent_sum(letters, base):
    return sum(e for b, e in letters if b == base)


def intersection(genus, left, right):
    """Algebraic intersection of two words' homology classes."""
    total = 0
    for j in range(1, genus + 1):
        a, b = "a%d" % j, "b%d" % j
        total += (exponent_sum(left, a) * exponent_sum(right, b)
                  - exponent_sum(left, b) * exponent_sum(right, a))
    return total


def coefficient_sum(terms):
    return sum(terms.values(), Fraction(0))


def _normal_form_failure(gf, classes, conjugator):
    """cyclic_normal_form is idempotent and conjugation invariant."""
    FreeWord = gf.surface.FreeWord
    cnf = gf.surface.cyclic_normal_form
    g = FreeWord((conjugator,))
    for cls in classes:
        word = FreeWord(cls.word)
        if cnf(word) != cls:
            return "normal form is not idempotent on %s" % cls
        if cnf(g * word * g.inverse()) != cls:
            return "normal form moves under conjugation on %s" % cls
    return None


# -- surgery -----------------------------------------------------------------

SURGERY_SURFACES = ((1, 1), (2, 1), (1, 2), (0, 3), (1, 3), (0, 4))
# per surface; bi_pairing only where three boundaries allow disjoint tags.
# Cheap kinds (kk_action, adams, bi_pairing) fill the lowest three
# tenths of the latency distribution and brackets of two-term sums the
# next six, so op_p50_ref and op_p90_ref are bracket latencies; the few
# Jacobi triples on top carry a sixth of the work.
SURGERY_MIX = {"bracket": 72, "jacobi": 6, "kk_action": 12, "adams": 12,
               "bi_pairing": 16}
BRACKET_LEN, JACOBI_LEN, KK_LOOP_LEN, KK_PATH_LEN = 6, 4, 5, 4
ADAMS_LEN, PAIR_LEN = 4, 3


def surgery(gf, rng):
    """Brackets, Jacobi triples, loop actions, pairings and power maps."""
    ops = []
    for genus, boundary in SURGERY_SURFACES:
        spec = gf.surface.SurfaceSpec(genus, boundary)
        for _ in range(SURGERY_MIX["bracket"]):
            ops.append(_bracket_op(gf, rng, spec))
        for _ in range(SURGERY_MIX["jacobi"]):
            ops.append(_jacobi_op(gf, rng, spec))
        for _ in range(SURGERY_MIX["kk_action"]):
            ops.append(_kk_op(gf, rng, spec))
        for _ in range(SURGERY_MIX["adams"]):
            ops.append(_adams_op(gf, rng, spec))
        if boundary >= 3:
            for _ in range(SURGERY_MIX["bi_pairing"]):
                ops.append(_pairing_op(gf, rng, spec))
    return ops


def _conjugator(rng, spec):
    return (rng.choice(spec.generators()), rng.choice((1, -1)))


def _loop_sum(gf, rng, spec, length):
    """Two seeded classes with small coefficients, and their words."""
    terms = [(random_word(gf, rng, spec, length), rng.choice((1, -1, 2))),
             (random_word(gf, rng, spec, length), rng.choice((1, -2, 3)))]
    total = gf.goldman.LoopSum(spec)
    for word, coeff in terms:
        total = total + gf.goldman.LoopSum.of(spec, word, coeff)
    return total, terms


def _sum_intersection(genus, left, right):
    return sum(c * d * intersection(genus, w.letters, x.letters)
               for w, c in left for x, d in right)


def _bracket_op(gf, rng, spec):
    u, u_terms = _loop_sum(gf, rng, spec, BRACKET_LEN)
    v, v_terms = _loop_sum(gf, rng, spec, BRACKET_LEN)
    conj = _conjugator(rng, spec)

    def call():
        return gf.goldman.goldman_bracket(u, v)

    def check(out, outs):
        want = _sum_intersection(spec.genus, u_terms, v_terms)
        if coefficient_sum(out.terms) != want:
            return "coefficient sum of [u,v] is not the intersection %d" % want
        if not (out + gf.goldman.goldman_bracket(v, u)).is_zero():
            return "bracket is not antisymmetric"
        if gf.goldman.goldman_bracket(u, v, convention="reversed") != out:
            return "bracket depends on the strand convention"
        return _normal_form_failure(gf, out.terms, conj)

    return Op("bracket", "bracket %r" % (spec,), call, check)


def _jacobi_op(gf, rng, spec):
    g = gf.goldman
    words = [random_word(gf, rng, spec, JACOBI_LEN) for _ in range(3)]
    u, v, w = (g.LoopSum.of(spec, word) for word in words)
    conj = _conjugator(rng, spec)

    def call():
        br = gf.goldman.goldman_bracket
        return (br(u, br(v, w)), br(v, br(w, u)), br(w, br(u, v)))

    def check(out, outs):
        if not (out[0] + out[1] + out[2]).is_zero():
            return "Jacobi sum is not zero"
        letters = [word.letters for word in words]
        for k, nested in enumerate(out):
            x, y, z = letters[k], letters[(k + 1) % 3], letters[(k + 2) % 3]
            want = (intersection(spec.genus, x, y + z)
                    * intersection(spec.genus, y, z))
            if coefficient_sum(nested.terms) != want:
                return "coefficient sum of nested bracket %d is not %d" % (
                    k, want)
            failure = _normal_form_failure(gf, nested.terms, conj)
            if failure:
                return failure
        return None

    return Op("jacobi", "jacobi %r" % (spec,), call, check)


def _kk_op(gf, rng, spec):
    g = gf.goldman
    loop = random_word(gf, rng, spec, KK_LOOP_LEN)
    path_word = random_word(gf, rng, spec, KK_PATH_LEN)
    tags = (rng.randrange(spec.boundary), rng.randrange(spec.boundary))
    u = g.LoopSum.of(spec, loop)
    gamma = g.PathSum.of(spec, gf.surface.Path(tags[0], tags[1], path_word))

    def call():
        return gf.goldman.kk_action(u, gamma)

    def check(out, outs):
        if spec.boundary == 1:
            want = intersection(spec.genus, loop.letters, path_word.letters)
            if coefficient_sum(out.terms) != want:
                return "coefficient sum of the action is not %d" % want
        if gf.goldman.kk_action(u, gamma, convention="reversed") != out:
            return "action depends on the strand convention"
        return None

    return Op("kk_action", "kk_action %r" % (spec,), call, check)


def _adams_op(gf, rng, spec):
    g = gf.goldman
    u = g.LoopSum.of(spec, random_word(gf, rng, spec, ADAMS_LEN),
                     rng.choice((1, -1, 2)))
    u = u + g.LoopSum.of(spec, random_word(gf, rng, spec, ADAMS_LEN),
                         rng.choice((1, 3)))
    n, m = rng.choice((2, 3)), rng.choice((2, 3))

    def call():
        return gf.goldman.adams(n, u)

    def check(out, outs):
        if gf.goldman.adams(m, out) != gf.goldman.adams(m * n, u):
            return "adams(%d, adams(%d, u)) != adams(%d, u)" % (m, n, m * n)
        return None

    return Op("adams", "adams %r" % (spec,), call, check)


def _pairing_op(gf, rng, spec):
    g = gf.goldman
    Path = gf.surface.Path
    last = spec.boundary - 1
    g1 = g.PathSum.of(spec, Path(0, 1, random_word(gf, rng, spec, PAIR_LEN)),
                      rng.choice((1, -1, 2)))
    g1 = g1 + g.PathSum.of(spec, Path(0, 1, random_word(gf, rng, spec,
                                                        PAIR_LEN)))
    g2 = g.PathSum.of(spec, Path(2, rng.choice((2, last)),
                                 random_word(gf, rng, spec, PAIR_LEN)))

    def call():
        return gf.goldman.bi_pairing(g1, g2)

    def check(out, outs):
        swapped = {(second, first): -c
                   for (first, second), c in out.terms.items()}
        if gf.goldman.bi_pairing(g2, g1).terms != swapped:
            return "pairing(g2, g1) is not the negated swap of pairing(g1, g2)"
        if gf.goldman.bi_pairing(g1, g2, convention="reversed") != out:
            return "pairing depends on the strand convention"
        return None

    return Op("bi_pairing", "bi_pairing %r" % (spec,), call, check)


# -- series ------------------------------------------------------------------

SERIES_SPECS = ((1, 1, 6), (2, 1, 5), (1, 2, 5))
# (genus, punctures, truncation, bracket length) of the Lie elements fed
# to exp, log and the coproduct checks: every Lyndon basis bracket up to
# that length with a seeded nonzero coefficient.  No two of those
# brackets share a multidegree, so the support, and with it the cost,
# is the same for every seed
LIE_SPECS = ((1, 0, 6, 3), (1, 1, 5, 2), (2, 0, 4, 2))
GROUP_LIKE_SPECS = ((1, 0, 4, 3), (1, 1, 4, 2))
TWIST_SPECS = ((1, 1, 5), (2, 1, 4))
KVI_CASES = ((1, 1, 4), (2, 0, 4), (1, 0, 6))
# the graded bracket as the gr-bracket suite checks it, and necklace
# expansions of classes as the adams suite makes them: (genus, boundary,
# truncation), how many of each per round, and the word length
GR_SPEC, GR_COUNT, GR_LEN = (1, 1, 6), 6, 4


def omega(gf, sig, trunc):
    """sum_j [x_j, y_j] + sum_k z_k, built term by term."""
    terms = []
    for j in range(1, sig.genus + 1):
        x, y = "x%d" % j, "y%d" % j
        terms += [((x, y), 1), ((y, x), -1)]
    terms += [(("z%d" % k,), 1) for k in range(1, sig.punctures + 1)]
    return gf.tensoralg.TensorSeries.from_terms(sig, trunc, terms)


def lyndon_words(alphabet, length):
    """Lyndon words of at most ``length`` letters, by Duval's algorithm."""
    k = len(alphabet)
    word = [-1]
    while word:
        word[-1] += 1
        yield tuple(alphabet[i] for i in word)
        m = len(word)
        while len(word) < length:
            word.append(word[len(word) - m])
        while word and word[-1] == k - 1:
            word.pop()


def _standard_bracket(gf, sig, trunc, word):
    """[std(u), std(v)] for v the longest proper Lyndon suffix of word."""
    t = gf.tensoralg
    if len(word) == 1:
        return t.TensorSeries.generator(sig, trunc, word[0])
    split = next(i for i in range(1, len(word))
                 if all(word[i:] < word[j:] for j in range(i + 1, len(word))))
    return t.lie_bracket(_standard_bracket(gf, sig, trunc, word[:split]),
                         _standard_bracket(gf, sig, trunc, word[split:]))


def lie_element(gf, rng, genus, punctures, trunc, length):
    """Sum of the Lyndon basis brackets of at most ``length`` letters,
    each with a seeded nonzero coefficient: a primitive series."""
    t = gf.tensoralg
    sig = t.GenSignature(genus, punctures)
    total = t.TensorSeries.zero(sig, trunc)
    for word in lyndon_words(sig.gens, length):
        coeff = Fraction(rng.choice((1, -1)) * rng.randint(1, 60),
                         rng.randint(1, 3))
        total = total + _standard_bracket(gf, sig, trunc, word).scaled(coeff)
    return total


def abelianization_failure(gf, log_series, letters):
    """The one-letter terms of log expand(w) are w's exponent sums.

    x and y letters weigh 1, so for them this is the degree-1 part;
    z letters weigh 2 and share their degree with brackets [x, y].
    """
    sig = log_series.sig
    want = gf.tensoralg.TensorSeries.from_terms(
        sig, log_series.trunc,
        [((gf.magnus.tensor_letter(b),), exponent_sum(letters, b))
         for b in sorted({b for b, _ in letters}) if b[0] != "c"])
    if log_series.homogeneous_component(1) != want:
        return "degree-1 part of log expand(w) is not the abelianization"
    for k in range(1, sig.punctures + 1):
        got = log_series.coefficient(("z%d" % k,))
        if got != exponent_sum(letters, "c%d" % k):
            return "coefficient of z%d in log expand(w) is not the exponent " \
                "sum of c%d" % (k, k)
    return None


def series(gf, rng):
    """Expansions, exp/log, coproduct checks, derivations, twist flows,
    the symplectic solver with its certificate, and Chen pairings.

    Chen pairings and the primitive case of is_primitive fill the lowest
    third of the latency distribution and expansions the middle, so
    op_p50_ref is an expansion latency; the fixed-size exp/log, twist,
    coproduct and solver operations fill the top, so op_p90_ref does
    not depend on the seed.
    """
    ops = []
    # the (1,1) expansions of alternating words all have the same support,
    # so their nearly equal costs make the block that holds the median
    for (genus, boundary, trunc), count in zip(SERIES_SPECS, (24, 6, 6)):
        spec = gf.surface.SurfaceSpec(genus, boundary)
        theta = gf.magnus.default_expansion(spec, trunc)
        for _ in range(count):
            ops.append(_expand_op(gf, rng, spec, theta))
        for _ in range(2):
            ops.append(_expand_power_op(gf, rng, spec, theta))
    for case in LIE_SPECS:
        for _ in range(3):
            ops.append(_exp_op(gf, lie_element(gf, rng, *case)))
            ops.append(_log_op(gf, lie_element(gf, rng, *case)))
        for primitive in (True, False, True, False):
            ops.append(_primitive_op(gf, lie_element(gf, rng, *case),
                                     primitive))
    # two more above the fixed-size block that holds the 90th percentile
    for _ in range(2):
        ops.append(_primitive_op(gf, lie_element(gf, rng, *LIE_SPECS[2]),
                                 False))
    for case in GROUP_LIKE_SPECS:
        for group_like in (True, False):
            ops.append(_group_like_op(gf, lie_element(gf, rng, *case),
                                      group_like))
    for genus, boundary, trunc in TWIST_SPECS:
        spec = gf.surface.SurfaceSpec(genus, boundary)
        theta = gf.magnus.default_expansion(spec, trunc)
        for curve in gf.goldman.twist_curve_names(spec):
            ops.append(_twist_op(gf, spec, theta, curve))
        theta = gf.magnus.default_expansion(spec, trunc - 1)
        for _ in range(3):
            ops.append(_derivation_op(gf, rng, spec, theta))
    for genus, punctures, trunc in KVI_CASES:
        ops.append(_kvi_op(gf, genus, punctures, trunc))
    genus, boundary, trunc = GR_SPEC
    spec = gf.surface.SurfaceSpec(genus, boundary)
    theta = gf.magnus.default_expansion(spec, trunc)
    for _ in range(GR_COUNT):
        ops.append(_gr_bracket_op(gf, rng, spec, theta))
        ops.append(_class_op(gf, rng, spec, theta))
    spec = gf.surface.SurfaceSpec(1, 2)
    for _ in range(12):
        ops.append(_chen_op(gf, rng, spec))
        ops.append(_chen_square_op(gf, rng, spec))
    for _ in range(6):
        ops.append(_shuffle_op(gf, rng, spec))
    return ops


def _expand_op(gf, rng, spec, theta):
    word = random_word(gf, rng, spec, 6, alternating=True)

    def call():
        return theta.expand_word(word)

    def check(out, outs):
        if out * theta.expand_word(word.inverse()) != \
                gf.tensoralg.TensorSeries.unit(theta.sig, theta.trunc):
            return "expand(w) * expand(w^-1) is not 1"
        return abelianization_failure(gf, gf.tensoralg.log(out),
                                      word.letters)

    return Op("expand_word", "expand %r" % (spec,), call, check)


def _expand_power_op(gf, rng, spec, theta):
    m = rng.randrange(2, 6)
    word = gf.surface.FreeWord((("a1", 1),) * m)

    def call():
        return theta.expand_word(word)

    def check(out, outs):
        for k in range(theta.trunc + 1):
            want = Fraction(m ** k, factorial(k))
            if out.coefficient(("x1",) * k) != want:
                return "coefficient of x1^%d in expand(a1^%d) is not %s" % (
                    k, m, want)
        if out * theta.expand_word(word.inverse()) != \
                gf.tensoralg.TensorSeries.unit(theta.sig, theta.trunc):
            return "expand(w) * expand(w^-1) is not 1"
        return None

    return Op("expand_word", "expand a1^%d %r" % (m, spec), call, check)


def _exp_op(gf, primitive):
    def call():
        return gf.tensoralg.exp(primitive)

    def check(out, outs):
        if gf.tensoralg.log(out) != primitive:
            return "log(exp(s)) != s"
        return None

    return Op("exp_log", "exp %r" % (primitive.sig,), call, check)


def _log_op(gf, primitive):
    group_like = gf.tensoralg.exp(primitive)

    def call():
        return gf.tensoralg.log(group_like)

    def check(out, outs):
        if out != primitive:
            return "log(exp(s)) != s"
        return None

    return Op("exp_log", "log %r" % (primitive.sig,), call, check)


def _primitive_op(gf, lie, primitive):
    series_ = lie if primitive else lie + lie * lie

    def call():
        return gf.tensoralg.is_primitive(series_)

    def check(out, outs):
        if out is not primitive:
            return "is_primitive says %s on a %sprimitive series" % (
                out, "" if primitive else "non-")
        return None

    return Op("is_primitive", "is_primitive %s %r" % (primitive, lie.sig),
              call, check)


def _group_like_op(gf, lie, group_like):
    t = gf.tensoralg
    series_ = t.exp(lie)
    if not group_like:
        series_ = series_ + t.TensorSeries.generator(
            lie.sig, lie.trunc, "x1") * series_

    def call():
        return gf.tensoralg.is_group_like(series_)

    def check(out, outs):
        if out is not group_like:
            return "is_group_like says %s on a %sgroup-like series" % (
                out, "" if group_like else "non-")
        return None

    return Op("is_group_like", "is_group_like %s %r" % (group_like, lie.sig),
              call, check)


def _derivation_op(gf, rng, spec, theta):
    g = gf.goldman
    u = g.LoopSum.of(spec, random_word(gf, rng, spec, 3))
    gens = spec.generators()

    def call():
        d = gf.goldman.kk_derivation(u, theta.trunc)
        return [d.apply(theta.image(name)) for name in gens]

    def check(out, outs):
        low = theta.trunc - 1
        for name, got in zip(gens, out):
            path = g.PathSum.of(spec, gf.surface.Path(
                0, 0, gf.surface.FreeWord(((name, 1),))))
            want = g.expand_path_sum(g.kk_action(u, path), theta)
            if got.truncated(low) != want.truncated(low):
                return "D_u(theta(%s)) != theta(kk_action(u, %s)) below " \
                    "degree %d" % (name, name, theta.trunc)
        return None

    return Op("kk_derivation", "kk_derivation %r" % (spec,), call, check)


def _twist_op(gf, spec, theta, curve):
    gens = spec.generators()

    def call():
        flow = gf.tensoralg.derivation_exp(
            gf.goldman.twist_derivation(spec, curve, theta.trunc))
        return [flow.apply(theta.image(name)) for name in gens]

    def check(out, outs):
        for name, got in zip(gens, out):
            image = gf.goldman.dehn_twist(spec, curve,
                                          gf.surface.FreeWord(((name, 1),)))
            if got != theta.expand_word(image):
                return "twist flow of %s misses the expansion of %s(%s)" % (
                    curve, curve, name)
        return None

    return Op("twist_flow", "twist %s %r" % (curve, spec), call, check)


def _kvi_op(gf, genus, punctures, trunc):
    spec = gf.surface.SurfaceSpec(genus, punctures + 1)

    def call():
        theta = gf.magnus.solve_symplectic(genus, punctures, trunc)
        return theta, gf.magnus.kvi_check(gf.magnus.invert_expansion(theta))

    def check(out, outs):
        theta, cert = out
        gamma0 = theta.expand_word(gf.surface.boundary_word(spec))
        if gf.tensoralg.log(gamma0) != omega(gf, theta.sig, trunc):
            return "log theta(gamma0) is not sum [x_j, y_j] + sum z_k"
        if not cert["passed"]:
            return "kvi_check certificate fails on %r" % (spec,)
        return None

    def same(a, b):
        return a[0].logs == b[0].logs and a[1] == b[1]

    return Op("solve_kvi", "solve+kvi (%d,%d) N=%d"
              % (genus, punctures + 1, trunc), call, check, same=same)


def _gr_bracket_op(gf, rng, spec, theta):
    """Necklace bracket of the lowest-weight slices of two centred loop
    sums, checked against the same slice of the transported bracket."""
    expand = gf.goldman.expand_loop_sum
    while True:
        u, _ = _loop_sum(gf, rng, spec, GR_LEN)
        v, _ = _loop_sum(gf, rng, spec, GR_LEN)
        m = expand(u.reduced(), theta).valuation()
        n = expand(v.reduced(), theta).valuation()
        if m is not None and n is not None and m + n - 2 <= theta.trunc:
            break

    def call():
        cu = gf.goldman.expand_loop_sum(u.reduced(), theta)
        cv = gf.goldman.expand_loop_sum(v.reduced(), theta)
        return gf.magnus.gr_necklace_bracket(cu.homogeneous_component(m),
                                             cv.homogeneous_component(n))

    def check(out, outs):
        want = gf.magnus.transported_bracket(u, v, theta)
        if out != want.homogeneous_component(m + n - 2):
            return "graded bracket is not the weight-%d slice of the " \
                "transported bracket" % (m + n - 2)
        return None

    return Op("gr_bracket", "gr bracket %r N=%d" % (spec, theta.trunc),
              call, check)


def _class_op(gf, rng, spec, theta):
    """Necklace expansion of a conjugacy class, checked against the
    least rotations of the expansion of a conjugate representative."""
    word = random_word(gf, rng, spec, GR_LEN)
    loop_class = gf.surface.cyclic_normal_form(word)
    g = gf.surface.FreeWord((_conjugator(rng, spec),))
    conjugate = g * word * g.inverse()

    def call():
        return gf.magnus.expand_class(loop_class, theta)

    def check(out, outs):
        want = {}
        for letters, coeff in theta.expand_word(conjugate).items():
            key = min(letters[i:] + letters[:i] for i in range(len(letters))) \
                if letters else letters
            want[key] = want.get(key, 0) + coeff
        want = {key: c for key, c in want.items() if c}
        if {n.word: c for n, c in out.terms.items()} != want:
            return "necklace expansion of the class differs from the least " \
                "rotations of the expansion of a conjugate"
        return None

    return Op("expand_class", "expand_class %r N=%d" % (spec, theta.trunc),
              call, check)


def _chen_op(gf, rng, spec):
    model = gf.barcx.open_model(spec)
    element = gf.barcx.BarElement.word(model, ("xi1",))
    word = random_word(gf, rng, spec, 6)

    def call():
        return gf.barcx.chen_pairing(element, word)

    def check(out, outs):
        want = exponent_sum(word.letters, "a1")
        if out != want:
            return "chen_pairing([xi1], w) = %s, exponent sum is %d" % (
                out, want)
        return None

    return Op("chen_pairing", "chen [xi1]", call, check)


def _chen_square_op(gf, rng, spec):
    model = gf.barcx.open_model(spec)
    element = gf.barcx.BarElement.word(model, ("xi1", "xi1"))
    word = random_word(gf, rng, spec, 6)

    def call():
        return gf.barcx.chen_pairing(element, word)

    def check(out, outs):
        want = Fraction(exponent_sum(word.letters, "a1") ** 2, 2)
        if out != want:
            return "chen_pairing([xi1|xi1], w) = %s, want %s" % (out, want)
        return None

    return Op("chen_pairing", "chen [xi1|xi1]", call, check)


def _shuffle_op(gf, rng, spec):
    model = gf.barcx.open_model(spec)
    letters = model.letters
    w1 = tuple(rng.choice(letters) for _ in range(3))
    w2 = tuple(rng.choice(letters) for _ in range(2))
    e1 = gf.barcx.BarElement.word(model, w1)
    e2 = gf.barcx.BarElement.word(model, w2)
    word = random_word(gf, rng, spec, 5)

    def call():
        product = gf.barcx.shuffle_product(e1, e2)
        return product, gf.barcx.chen_pairing(product, word)

    def check(out, outs):
        product, value = out
        if coefficient_sum(product.terms) != comb(len(w1) + len(w2), len(w1)):
            return "shuffle of %d and %d letters does not have C(%d,%d) " \
                "terms" % (len(w1), len(w2), len(w1) + len(w2), len(w1))
        want = (gf.barcx.chen_pairing(e1, word)
                * gf.barcx.chen_pairing(e2, word))
        if value != want:
            return "Chen pairing is not multiplicative under the shuffle"
        return None

    return Op("shuffle_product", "shuffle", call, check)


# -- resolution --------------------------------------------------------------

RESOLUTION_CASES = ((1, 6), (2, 4), (3, 3), (2, 5), (3, 5))
# (rows, columns) of the bracket-block systems kvi_check solves at N <= 6,
# with how many batches of each, consistent and random right-hand side
# alike; op_p50_ref falls among the 8x2 batches, op_p90_ref among 10x6
SOLVE_MIX = {(2, 1): 8, (4, 2): 8, (6, 2): 8, (8, 2): 16, (8, 4): 8,
             (10, 6): 12}
SOLVE_BATCH = 8
PRIME = (1 << 61) - 1


def resolution_dims(genus, count):
    """Coefficients of 1 / (1 - 2g t + t^2), the algebra's Hilbert series."""
    dims = [1, 2 * genus]
    while len(dims) < count:
        dims.append(2 * genus * dims[-1] - dims[-2])
    return dims[:count]


def rank_mod_p(rows):
    """Rank over GF(PRIME) of a matrix with rational entries."""
    rows = [[x.numerator * pow(x.denominator, -1, PRIME) % PRIME
             for x in map(Fraction, row)] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, PRIME)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % PRIME
                rows[i] = [(a - f * b) % PRIME
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def resolution(gf, rng):
    """Resolution certificates and exact solves of bracket-block size.

    The certificates carry nearly all the work; the solves are 24 in 25
    operations, so op_p50_ref and op_p90_ref are solve latencies.
    """
    solve_ops = [_solve_op(gf, rng, size, consistent)
                 for size, count in SOLVE_MIX.items() for _ in range(count)
                 for consistent in (True, False)]
    rng.shuffle(solve_ops)
    ops = []
    per_case = len(solve_ops) // len(RESOLUTION_CASES)
    for k, (genus, n_max) in enumerate(RESOLUTION_CASES):
        ops.append(_resolution_op(gf, genus, n_max))
        ops.extend(solve_ops[k * per_case:(k + 1) * per_case])
    return ops


def _resolution_op(gf, genus, n_max):
    def call():
        return gf.magnus.resolution_check(genus, n_max)

    def check(out, outs):
        want = resolution_dims(genus, n_max + 3)
        if out["dims"] != want:
            return "dims %s are not %s" % (out["dims"], want)
        if len(out["rows"]) != n_max + 1:
            return "report has %d rows, want %d" % (len(out["rows"]),
                                                   n_max + 1)
        for row in out["rows"]:
            flags = ("composite_zero", "injective", "surjective",
                     "rank_identity")
            if not all(row[f] for f in flags):
                return "row n=%d fails" % row["n"]
            if row["dims"] != [want[row["n"]], 2 * genus * want[row["n"] + 1],
                               want[row["n"] + 2]]:
                return "row n=%d has dims %s" % (row["n"], row["dims"])
        if not out["passed"]:
            return "certificate fails for genus %d" % genus
        return None

    return Op("resolution_check", "resolution g=%d n=%d" % (genus, n_max),
              call, check)


def _solve_op(gf, rng, size, consistent):
    m, n = size
    systems = []
    for _ in range(SOLVE_BATCH):
        matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if consistent:
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(m)]
        systems.append((matrix, rhs))

    def call():
        solve = gf.tensoralg.linear_solve
        return [solve(matrix, rhs) for matrix, rhs in systems]

    def check(out, outs):
        if len(out) != len(systems):
            return "%d solutions for %d systems" % (len(out), len(systems))
        for k, ((matrix, rhs), x) in enumerate(zip(systems, out)):
            if x is None:
                augmented = [row + [b] for row, b in zip(matrix, rhs)]
                if rank_mod_p(matrix) == rank_mod_p(augmented):
                    return "system %d is consistent but got None" % k
                continue
            if len(x) != n:
                return "system %d: %d unknowns, solution has %d" % (k, n,
                                                                   len(x))
            if any(sum(a * b for a, b in zip(row, x)) != b
                   for row, b in zip(matrix, rhs)):
                return "system %d: A x != b" % k
        return None

    return Op("linear_solve", "linear_solve %dx%d %s" % (
        m, n, "consistent" if consistent else "random rhs"), call, check)


# -- queries -----------------------------------------------------------------

# malformed requests the engine is known to mishandle: each should give
# exit 2 and one stderr line, and until it does it counts as failed
KNOWN_FAULTS = (
    ["verify", "jacobi", "--g", "0", "--b", "1"],
    ["bracket", "--g", "1", "--b", "1", "a2", "b1"],
    ["kk", "a1", "0:5:b1"],
    ["expand", "--g", "1", "--b", "1", "c1"],
    ["adams", "--n", "2", "a7"],
)
# malformed requests the engine already rejects properly
USAGE_ERRORS = (
    ["bracket", "a1", "q7"],
    ["expand", "--N", "0", "a1"],
    ["resolution", "--g", "0"],
)


def run_cli(gf, argv):
    """One in-process request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gf.cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _render(word):
    return " ".join(b + ("" if e > 0 else "'") for b, e in word.letters)


def _payload(out, surface=None):
    """Parsed JSON of a successful request, or a failure line.

    ``surface`` is the (genus, boundary) the document must echo.
    """
    code, stdout, _ = out
    if code != 0:
        return None, "exit code %s, want 0" % code
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None, "stdout is not JSON"
    if payload.get("schema") != "v1":
        return None, "JSON lacks \"schema\": \"v1\""
    if surface is not None and payload.get("surface") != list(surface):
        return None, "JSON echoes surface %s, want %s" % (
            payload.get("surface"), list(surface))
    return payload, None


def _json_roundtrip(value):
    return json.loads(json.dumps(value))


def queries(gf, rng):
    """Single CLI requests, cold, with malformed ones mixed in.

    The seed draws words and suite seeds only.  Requests that argument
    parsing dominates (adams, kk, bar-pair, bipair, expand and the
    malformed ones) are two thirds of the round, so op_p50_ref is one
    of them; the heavy requests (certificates, solvers, suites) have
    fixed sizes, and eight identical ``verify kvi`` requests sit at the
    90th percentile.
    """
    specs = [gf.surface.SurfaceSpec(g, b) for g, b in ((1, 1), (2, 1), (1, 2))]
    ops = []
    for spec in specs:
        for _ in range(4):
            ops.append(_q_bracket(gf, rng, spec, trace=False))
            ops.append(_q_kk(gf, rng, spec if spec.boundary == 1
                             else specs[0]))
        ops.append(_q_expand(gf, rng, spec))
        for _ in range(10):
            ops.append(_q_adams(gf, rng, spec))
    for _ in range(2):
        ops.append(_q_bracket(gf, rng, specs[0], trace=True))
    for _ in range(4):
        ops.append(_q_bipair(gf, rng))
    for _ in range(6):
        ops.append(_q_bar_pair(gf, rng))
        ops.append(_q_bar_square(gf, rng))
    ops.append(_q_resolution(gf, 2))
    ops.append(_q_solve(gf, 1, 4))
    ops.append(_q_solve(gf, 1, 5))
    ops.append(_q_kvi(gf, 3))
    ops.append(_q_kvi(gf, 4))
    ops.append(_q_twist(gf))
    ops.append(_q_verify(gf, "twist", ["--N", "3"], trunc=3))
    for _ in range(8):
        ops.append(_q_verify(gf, "kvi", ["--N", "3"], trunc=3))
    for suite in ("bar", "perturbation"):
        seed = rng.randrange(1000)
        ops.append(_q_verify(gf, suite, ["--seed", str(seed)], seed=seed))
    for argv in USAGE_ERRORS:
        ops.append(_q_usage(gf, argv, known_fault=False))
    for argv in KNOWN_FAULTS:
        ops.append(_q_usage(gf, argv, known_fault=True))
    # text twins: the same argv twice in a round must print the same bytes
    for spec in specs:
        w1, w2 = (random_word(gf, rng, spec, 3) for _ in range(2))
        argv = ["bracket", "--g", str(spec.genus), "--b", str(spec.boundary),
                _render(w1), _render(w2)]
        first, second = _q_text_twins(gf, argv)
        ops.insert(rng.randrange(len(ops)), first)
        ops.append(second)
    return ops


def _surface_args(spec):
    return ["--g", str(spec.genus), "--b", str(spec.boundary)]


def _query(gf, kind, label, argv, check, known_fault=False):
    def call():
        return run_cli(gf, argv)
    return Op(kind, label, call, check, known_fault=known_fault)


def _q_bracket(gf, rng, spec, trace):
    w1, w2 = (random_word(gf, rng, spec, 4) for _ in range(2))
    argv = (["bracket", "--json", "--N", "3"] + _surface_args(spec)
            + (["--trace"] if trace else []) + [_render(w1), _render(w2)])

    def check(out, outs):
        payload, failure = _payload(out, (spec.genus, spec.boundary))
        if failure:
            return failure
        g = gf.goldman
        u, v = g.LoopSum.of(spec, w1), g.LoopSum.of(spec, w2)
        bracket = g.goldman_bracket(u, v)
        if payload["bracket"] != bracket.to_json():
            return "bracket differs from goldman_bracket"
        total = sum(Fraction(t["coeff"]) for t in payload["bracket"]["terms"])
        if total != intersection(spec.genus, w1.letters, w2.letters):
            return "coefficient sum is not the intersection number"
        theta = gf.magnus.default_expansion(spec, 3)
        if payload["expansion"] != g.expand_loop_sum(bracket, theta).to_json():
            return "expansion differs from expand_loop_sum"
        if trace:
            cnf = gf.surface.cyclic_normal_form
            records = g.crossing_trace(spec, cnf(w1), cnf(w2))
            if payload.get("trace") != _json_roundtrip(records):
                return "trace differs from crossing_trace"
        return None

    return _query(gf, "cli_bracket", "bracket --json%s" % (
        " --trace" if trace else ""), argv, check)


def _q_kk(gf, rng, spec):
    loop = random_word(gf, rng, spec, 3)
    path_word = random_word(gf, rng, spec, 3)
    argv = ["kk", "--json"] + _surface_args(spec) + [
        _render(loop), "0:0:" + _render(path_word)]

    def check(out, outs):
        payload, failure = _payload(out, (spec.genus, spec.boundary))
        if failure:
            return failure
        g = gf.goldman
        action = g.kk_action(g.LoopSum.of(spec, loop), g.PathSum.of(
            spec, gf.surface.Path(0, 0, path_word)))
        if payload["action"] != action.to_json():
            return "action differs from kk_action"
        total = sum(Fraction(t["coeff"]) for t in payload["action"]["terms"])
        if total != intersection(spec.genus, loop.letters, path_word.letters):
            return "coefficient sum is not the intersection number"
        return None

    return _query(gf, "cli_kk", "kk --json", argv, check)


def _q_bipair(gf, rng):
    spec = gf.surface.SurfaceSpec(0, 4)
    w1, w2 = (random_word(gf, rng, spec, 2) for _ in range(2))
    argv = ["bipair", "--json"] + _surface_args(spec) + [
        "0:2:" + _render(w1), "1:3:" + _render(w2)]

    def check(out, outs):
        payload, failure = _payload(out, (0, 4))
        if failure:
            return failure
        g, Path = gf.goldman, gf.surface.Path
        pairing = g.bi_pairing(g.PathSum.of(spec, Path(0, 2, w1)),
                               g.PathSum.of(spec, Path(1, 3, w2)))
        if payload["pairing"] != pairing.to_json():
            return "pairing differs from bi_pairing"
        return None

    return _query(gf, "cli_bipair", "bipair --json", argv, check)


def _q_expand(gf, rng, spec):
    word = random_word(gf, rng, spec, 4)
    argv = ["expand", "--json", "--N", "3"] + _surface_args(spec) + [
        _render(word)]

    def check(out, outs):
        payload, failure = _payload(out, (spec.genus, spec.boundary))
        if failure:
            return failure
        t = gf.tensoralg
        series_ = t.TensorSeries.from_json(payload["series"])
        theta = gf.magnus.default_expansion(spec, 3)
        if series_ * theta.expand_word(word.inverse()) != \
                t.TensorSeries.unit(theta.sig, 3):
            return "expand(w) * expand(w^-1) is not 1"
        if payload["series"] != theta.expand_word(word).to_json():
            return "series differs from expand_word"
        return None

    return _query(gf, "cli_expand", "expand --json", argv, check)


def _q_adams(gf, rng, spec):
    word = random_word(gf, rng, spec, 3)
    n = rng.choice((2, 3))
    argv = ["adams", "--json", "--n", str(n)] + _surface_args(spec) + [
        _render(word)]

    def check(out, outs):
        payload, failure = _payload(out, (spec.genus, spec.boundary))
        if failure:
            return failure
        power = gf.surface.FreeWord(word.letters * n)
        want = gf.goldman.LoopSum.of(spec, power)
        if payload["image"] != want.to_json():
            return "image is not the class of w^%d" % n
        return None

    return _query(gf, "cli_adams", "adams --json", argv, check)


def _q_bar_pair(gf, rng):
    spec = gf.surface.SurfaceSpec(1, 2)
    word = random_word(gf, rng, spec, 5)
    argv = ["bar-pair", "--json"] + _surface_args(spec) + ["[xi1]",
                                                           _render(word)]

    def check(out, outs):
        payload, failure = _payload(out, (1, 2))
        if failure:
            return failure
        want = exponent_sum(word.letters, "a1")
        if Fraction(payload["value"]) != want:
            return "[xi1] pairs to %s, exponent sum is %d" % (
                payload["value"], want)
        return None

    return _query(gf, "cli_bar_pair", "bar-pair --json [xi1]", argv, check)


def _q_bar_square(gf, rng):
    spec = gf.surface.SurfaceSpec(1, 1)
    word = random_word(gf, rng, spec, 5)
    argv = ["bar-pair", "[xi1|xi1]", _render(word)]

    def check(out, outs):
        code, stdout, _ = out
        if code != 0:
            return "exit code %s, want 0" % code
        want = Fraction(exponent_sum(word.letters, "a1") ** 2, 2)
        if stdout != "%s\n" % want:
            return "[xi1|xi1] printed %r, want %s" % (stdout, want)
        return None

    return _query(gf, "cli_bar_pair", "bar-pair [xi1|xi1]", argv, check)


def _q_resolution(gf, genus):
    argv = ["resolution", "--json", "--g", str(genus), "--max-n", "3"]

    def check(out, outs):
        payload, failure = _payload(out)
        if failure:
            return failure
        report = payload["report"]
        if report["dims"] != resolution_dims(genus, 6):
            return "dims %s are not the Hilbert series" % report["dims"]
        if report != _json_roundtrip(gf.magnus.resolution_check(genus, 3)):
            return "report differs from resolution_check"
        if not report["passed"]:
            return "certificate fails"
        return None

    return _query(gf, "cli_resolution", "resolution --max-n 3", argv, check)


def _q_solve(gf, boundary, trunc):
    argv = ["solve-expansion", "--json", "--N", str(trunc), "--g", "1", "--b",
            str(boundary)]

    def check(out, outs):
        payload, failure = _payload(out, (1, boundary))
        if failure:
            return failure
        theta = gf.magnus.solve_symplectic(1, boundary - 1, trunc)
        if payload["expansion"] != theta.to_json():
            return "expansion differs from solve_symplectic"
        gamma0 = theta.expand_word(gf.surface.boundary_word(theta.spec))
        if gf.tensoralg.log(gamma0) != omega(gf, theta.sig, trunc):
            return "log theta(gamma0) is not sum [x_j, y_j] + sum z_k"
        if payload["symplectic"] is not True:
            return "expansion not reported symplectic"
        return None

    return _query(gf, "cli_solve", "solve-expansion --N %d" % trunc, argv,
                  check)


def _q_kvi(gf, trunc):
    argv = ["kvi-check", "--N", str(trunc), "--g", "1", "--b", "2"]

    def check(out, outs):
        payload, failure = _payload(out, (1, 2))
        if failure:
            return failure
        m = gf.magnus
        cert = m.kvi_check(m.invert_expansion(m.solve_symplectic(1, 1,
                                                                 trunc)))
        if payload["certificate"] != _json_roundtrip(cert):
            return "certificate differs from kvi_check"
        if not cert["passed"]:
            return "certificate fails"
        return None

    return _query(gf, "cli_kvi", "kvi-check --N %d" % trunc, argv, check)


def _q_twist(gf):
    argv = ["twist-check", "--json", "--surface", "1,1", "--N", "3"]

    def check(out, outs):
        payload, failure = _payload(out, (1, 1))
        if failure:
            return failure
        spec = gf.surface.SurfaceSpec(1, 1)
        want = len(gf.goldman.twist_curve_names(spec)) * len(
            spec.generators())
        if len(payload["rows"]) != want:
            return "%d rows, want %d" % (len(payload["rows"]), want)
        if not payload["passed"] or not all(r["matches"]
                                            for r in payload["rows"]):
            return "a twist image misses"
        return None

    return _query(gf, "cli_twist", "twist-check --N 3", argv, check)


def _q_verify(gf, suite, extra, **options):
    argv = ["verify", suite, "--json"] + extra

    def check(out, outs):
        payload, failure = _payload(out)
        if failure:
            return failure
        report = payload["report"]
        if not report["passed"]:
            return "suite %s fails" % suite
        if report != _json_roundtrip(gf.suites.run_suite(suite, **options)):
            return "report differs from run_suite"
        return None

    return _query(gf, "cli_verify", "verify %s" % suite, argv, check)


def _q_usage(gf, argv, known_fault):
    def check(out, outs):
        if not isinstance(out, tuple):
            return "raised %r" % (out,)
        code, _, stderr = out
        if code != 2:
            return "exit code %s, want 2" % code
        lines = stderr.splitlines()
        if len(lines) != 1:
            return "%d stderr lines, want 1" % len(lines)
        if "Traceback" in stderr:
            return "traceback on stderr"
        return None

    return _query(gf, "cli_usage", " ".join(argv), argv, check,
                  known_fault=known_fault)


def _q_text_twins(gf, argv):
    """One text request sent twice; each copy checks against the other."""
    pair = []

    def checker(other):
        def check(out, outs):
            code, stdout, _ = out
            if code != 0:
                return "exit code %s, want 0" % code
            if not stdout.startswith("bracket:"):
                return "text output does not start with \"bracket:\""
            if outs[pair[other]] != out:
                return "repeated request printed different bytes"
            return None
        return check

    pair.append(_query(gf, "cli_text", "bracket text (first)", argv,
                       checker(1)))
    pair.append(_query(gf, "cli_text", "bracket text (second)", argv,
                       checker(0)))
    return pair


WORKLOADS = {
    "surgery": surgery,
    "series": series,
    "resolution": resolution,
    "queries": queries,
}
