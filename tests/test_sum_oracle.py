"""Differential tests of the series sums built on TensorSeries.combination.

exp, log, the derivation transport, the path and loop expansions, the
necklace projection, the Neumann inversion, the graded necklace bracket
and the Adams decomposition each used to sum term by term: a full + (or
a Fraction per word) and a settled series per step.  Each now sums int
numerators once (one combination, or one int tally per necklace).  The
derivation transport is now the Bernoulli series of ad_x on
e^(-x) D(e^x) in place of the product rule on the powers of s - 1, and
kk_derivation reads e^(-x) D(e^x) off the words g^-1 p.  The replaced loops
are kept below, verbatim but for their names, as ``old_*`` oracles, and
every new sum is compared with its oracle on seeded inputs: values,
twists, the serialized JSON and, for the necklace sums, that every
stored coefficient is a nonzero Fraction.  The inputs include zero
sums, sums whose terms cancel, integral coefficients and denominators
above 10**9.  The graded necklace bracket is now the trace of
gr_action, and its oracle, a plain splice loop, has gained the z-z
splices |z P Q| - |P z Q| at p_i = q_j = z_k that the replaced loop
lacked.
"""

import json
import random
from fractions import Fraction
from math import factorial

import pytest

from goldman_forge import goldman
from goldman_forge.goldman import (
    LoopSum,
    PathSum,
    _dexp_inverse,
    expand_loop_sum,
    expand_path_sum,
    kk_action,
    kk_derivation,
    twist_curve_names,
    twist_derivation,
)
from goldman_forge.magnus import (
    CyclicSeries,
    NecklaceWord,
    _graded_identity,
    _substitution_of,
    adams_series_check,
    default_expansion,
    gr_necklace_bracket,
    invert_expansion,
    necklace_project,
    solve_symplectic,
    tensor_letter,
)
from goldman_forge.surface import (
    FreeWord,
    Path,
    SurfaceSpec,
    cyclic_normal_form,
)
from goldman_forge.tensoralg import (
    AlgebraMap,
    Derivation,
    GenSignature,
    TensorSeries,
    TermSum,
    derivation_exp,
    exp,
    is_primitive,
    log,
)
from helpers import random_primitive, random_surface_word, random_word

SIGNATURES = ((1, 0), (1, 1), (2, 0), (2, 1), (1, 2))
# (genus, boundary) of the surface-level sweeps
SURFACES = ((1, 1), (2, 1), (1, 2))
# (genus, boundary) of the derivation sweeps
KK_SURFACES = SURFACES + ((0, 3), (1, 3))


# -- the replaced loops ------------------------------------------------------

def old_exp_sum(first, step):
    cap = (first.trunc + 2) * (first.trunc + 2)
    total = term = first
    k = 1
    while True:
        term = step(term).scaled(Fraction(1, k))
        if term.is_zero():
            return total
        if k > cap:
            raise ValueError("exponential did not terminate; the step is "
                             "not locally nilpotent")
        total = total + term
        k += 1


def old_exp(s):
    return old_exp_sum(TensorSeries.unit(s.sig, s.trunc), lambda t: t * s)


def old_log(s):
    u = s - 1
    result = TensorSeries.zero(s.sig, s.trunc)
    power = TensorSeries.unit(s.sig, s.trunc)
    for k in range(1, s.trunc + 1):
        power = power * u
        if power.is_zero():
            break
        result = result + power.scaled(Fraction((-1) ** (k + 1), k))
    return result


def old_derivation_exp(d):
    images = {name: old_exp_sum(TensorSeries.generator(d.sig, d.trunc, name),
                                d.apply)
              for name in d.sig.gens}
    return AlgebraMap(d.sig, d.trunc, images)


def old_transport_log(s, t):
    sig, trunc = s.sig, s.trunc
    one = TensorSeries.unit(sig, trunc)
    sm1 = s - one
    powers = [one]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * sm1)
    right = [t * p for p in powers]
    total = TensorSeries.zero(sig, trunc)
    for k in range(1, len(powers)):
        coeff = Fraction((-1) ** (k + 1), k)
        for i in range(k):
            total = total + (powers[i] * right[k - 1 - i]).scaled(coeff)
    return total


def old_expand_path_sum(gamma, theta):
    total = TensorSeries.zero(theta.sig, theta.trunc)
    for path, coeff in gamma.terms.items():
        total = total + theta.expand_word(path.word).scaled(coeff)
    return total


def old_expand_loop_sum(u, theta):
    out = CyclicSeries(theta.sig, theta.trunc, twist=u.twist)
    for cls, coeff in u.terms.items():
        series = theta.expand_word(cls.free_word())
        for word, c in series.items():
            out.add_term(NecklaceWord(word), coeff * c)
    return out


def old_necklace_project(series):
    out = CyclicSeries(series.sig, series.trunc)
    for word, coeff in series.items():
        out.add_term(NecklaceWord(word), coeff)
    return out


def old_invert_expansion(theta):
    sig, trunc = theta.sig, theta.trunc
    psi = _substitution_of(theta)
    if not all(_graded_identity(psi.image(name), name) for name in sig.gens):
        raise ValueError("expansion is not graded-identity; cannot invert")
    images = {}
    for name in sig.gens:
        total = term = TensorSeries.generator(sig, trunc, name)
        for _ in range(trunc):
            term = term - psi.apply(term)
            total = total + term
        images[name] = total
    phi = AlgebraMap(sig, trunc, images)
    for name in sig.gens:
        gen = TensorSeries.generator(sig, trunc, name)
        if (phi.apply(psi.image(name)) != gen
                or psi.apply(phi.image(name)) != gen):
            raise AssertionError("inverse verification failed on %s" % name)
    return phi


_PAIRING_SIGN = {("x", "y"): 1, ("y", "x"): -1}


def _letter_pairing(p, q):
    if p[1:] != q[1:]:
        return 0
    return _PAIRING_SIGN.get((p[0], q[0]), 0)


def old_gr_necklace_bracket(u, v):
    if u.sig != v.sig or u.trunc != v.trunc:
        raise ValueError("cyclic series mismatch")
    out = CyclicSeries(u.sig, u.trunc, twist=u.twist + v.twist + 1)
    for np, cp in u.terms.items():
        p = np.word
        for nq, cq in v.terms.items():
            q = nq.word
            for i in range(len(p)):
                for j in range(len(q)):
                    rest_p, rest_q = p[i + 1:] + p[:i], q[j + 1:] + q[:j]
                    if p[i][0] == "z":
                        if p[i] == q[j]:
                            z = (p[i],)
                            out.add_term(NecklaceWord(z + rest_p + rest_q),
                                         cp * cq)
                            out.add_term(NecklaceWord(rest_p + z + rest_q),
                                         -cp * cq)
                        continue
                    sign = _letter_pairing(p[i], q[j])
                    if sign == 0:
                        continue
                    out.add_term(NecklaceWord(rest_p + rest_q), cp * cq * sign)
    return out


def old_adams_series_check(n, p, k):
    if not is_primitive(p):
        raise ValueError("adams_series_check needs a primitive series")
    sig, trunc = p.sig, p.trunc
    scaled = necklace_project(exp(p.scaled(n)))
    total = CyclicSeries(sig, trunc)
    power = TensorSeries.unit(sig, trunc)
    m = 0
    while not power.is_zero():
        total = total + necklace_project(power).scaled(
            Fraction(n ** m, factorial(m)))
        m += 1
        power = power * p
    if total != scaled:
        return False
    low = p.valuation()
    if low is not None and p.homogeneous_component(low) == p:
        # homogeneous case: the k-th piece sits at weight k*low
        lhs = scaled.homogeneous_component(k * low)
        rhs = necklace_project(exp(p)).homogeneous_component(k * low).scaled(n ** k)
        if lhs != rhs:
            return False
    return True


# -- seeded inputs and comparisons -------------------------------------------

def _coeff(rng):
    style = rng.choice(("small", "small", "integral", "huge"))
    if style == "integral":
        return rng.choice((-3, -2, -1, 1, 2, 4))
    if style == "huge":
        num = rng.choice((-1, 1)) * rng.randint(1, 10 ** 12)
        return Fraction(num, rng.randint(10 ** 9 + 1, 10 ** 13))
    return Fraction(rng.choice((-4, -3, -1, 1, 2, 3)),
                    rng.choice((1, 2, 3, 6, 9)))


def _series(rng, sig, trunc, nterms=5, constant=True):
    terms = []
    for _ in range(rng.randint(0, nterms)):
        word = random_word(rng, sig, 4, trunc)
        if word or constant:
            terms.append((word, _coeff(rng)))
    if terms and rng.random() < 0.3:
        word, coeff = rng.choice(terms)
        terms.append((word, -coeff))        # cancels one term
    return TensorSeries.from_terms(sig, trunc, terms)


def _sum(rng, cls, spec, make_term, nterms=4):
    """A seeded LoopSum or PathSum that is sometimes zero, sometimes
    cancels a term and sometimes repeats one."""
    out = cls(spec) if cls is LoopSum else cls(spec, 0, 0)
    for _ in range(rng.randint(0, nterms)):
        out.add_term(make_term(), _coeff(rng))
    if out.terms and rng.random() < 0.3:
        key, coeff = rng.choice(sorted(out.terms.items(), key=repr))
        out.add_term(key, -coeff)
    if rng.random() < 0.2:
        out.twist = rng.randint(-2, 2)
    return out


def _loop_sum(rng, spec, max_len=4):
    return _sum(rng, LoopSum, spec, lambda: cyclic_normal_form(
        random_surface_word(rng, spec, max_len)))


def _path_sum(rng, spec, max_len=4):
    return _sum(rng, PathSum, spec, lambda: Path(
        0, 0, random_surface_word(rng, spec, max_len)))


def assert_same_necklaces(new, old):
    assert (new.sig, new.trunc, new.twist) == (old.sig, old.trunc, old.twist)
    assert new.terms == old.terms
    assert all(type(c) is Fraction and c for c in new.terms.values())
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())


def assert_same_series(new, old):
    assert new == old
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())


def assert_same_map(new, old):
    for name in new.sig.gens:
        assert_same_series(new.image(name), old.image(name))


def _cases():
    for case in range(60):
        genus, punctures = SIGNATURES[case % len(SIGNATURES)]
        yield GenSignature(genus, punctures), 1 + case % 6


# -- tensoralg ---------------------------------------------------------------

def test_exp_and_log_match_the_replaced_loops():
    rng = random.Random("sum-oracle-exp-log")
    for sig, trunc in _cases():
        for _ in range(3):
            u = _series(rng, sig, trunc, constant=False)
            assert_same_series(exp(u), old_exp(u))
            assert_same_series(log(u + 1), old_log(u + 1))
            g = exp(u)
            assert_same_series(log(g), old_log(g))


def test_derivation_exp_matches_the_replaced_loop():
    rng = random.Random("sum-oracle-derivation-exp")
    for sig, trunc in _cases():
        images = {}
        for name in sig.gens:
            if rng.random() < 0.7:
                # degree-raising, so the flow is locally nilpotent
                images[name] = TensorSeries.from_terms(sig, trunc, [
                    (w, c) for w, c in _series(rng, sig, trunc).items()
                    if sig.degree(w) > sig.weight(name)])
        d = Derivation(sig, trunc, images)
        assert_same_map(derivation_exp(d), old_derivation_exp(d))


@pytest.mark.parametrize("genus,boundary,trunc",
                         [(1, 1, 3), (1, 1, 4), (1, 1, 5), (2, 1, 3),
                          (2, 1, 4)])
def test_derivation_exp_of_every_twist_derivation(genus, boundary, trunc):
    spec = SurfaceSpec(genus, boundary)
    curves = twist_curve_names(spec)
    assert curves
    for curve in curves:
        d = twist_derivation(spec, curve, trunc)
        assert_same_map(derivation_exp(d), old_derivation_exp(d))


def test_a_step_that_is_not_locally_nilpotent_raises():
    sig = GenSignature(1, 0)
    for trunc in (1, 3):
        x = TensorSeries.generator(sig, trunc, "x1")
        d = Derivation(sig, trunc, {"x1": x})       # x1 -> x1 forever
        for flow in (derivation_exp, old_derivation_exp):
            with pytest.raises(ValueError, match="did not terminate"):
                flow(d)


# -- goldman -----------------------------------------------------------------

def test_transport_log_matches_the_replaced_loop():
    # D(log s) for s = exp(X) and D(s) = t is the Bernoulli series of
    # ad_X on y = exp(-X) t, for any t: generator images and their
    # inverses, and group-likes with a full primitive log
    rng = random.Random("sum-oracle-transport")
    for genus, boundary in KK_SURFACES:
        spec = SurfaceSpec(genus, boundary)
        for trunc in range(1, 6):
            theta = default_expansion(spec, trunc)
            for base in spec.generators():
                e = rng.choice((1, -1))
                x = theta.logs[base].scaled(e)
                s = theta.image(base, e)
                t = _series(rng, theta.sig, trunc)
                y = exp(x.scaled(-1)) * t
                assert_same_series(_dexp_inverse(x, y),
                                   old_transport_log(s, t))
            x = random_primitive(rng, theta.sig, trunc)
            s, t = exp(x), _series(rng, theta.sig, trunc)
            y = exp(x.scaled(-1)) * t
            assert_same_series(_dexp_inverse(x, y), old_transport_log(s, t))


def old_kk_derivation(u, trunc):
    theta = default_expansion(u.spec, trunc)
    images = {}
    for base in u.spec.generators():
        gen = PathSum.of(u.spec, Path(0, 0, FreeWord(((base, 1),))))
        images[tensor_letter(base)] = old_transport_log(
            theta.image(base),
            old_expand_path_sum(kk_action(u, gen), theta))
    return images


def _assert_kk_derivation(d, u, trunc):
    """Compare every generator image; return (nonzero, with constant)."""
    nonzero = constant = 0
    for name, want in old_kk_derivation(u, trunc).items():
        assert_same_series(d.image(name), want)
        nonzero += not want.is_zero()
        constant += want.constant_term() != 0
    return nonzero, constant


def test_kk_derivation_matches_the_replaced_sums():
    rng = random.Random("sum-oracle-kk")
    derivations = nonzero = constant = 0
    for genus, boundary in KK_SURFACES:
        spec = SurfaceSpec(genus, boundary)
        for trunc in range(1, 6 if genus == 2 else 7):
            for _ in range(8):
                u = _loop_sum(rng, spec, 3)
                counts = _assert_kk_derivation(kk_derivation(u, trunc), u,
                                               trunc)
                derivations += 1
                nonzero += counts[0]
                constant += counts[1]
    assert derivations == 232 and nonzero >= 200 and constant >= 100


def test_kk_derivation_of_every_twist_lift(monkeypatch):
    # twist_derivation pushes its class-level lift through kk_derivation;
    # the lift is caught on its way in and checked against the old sums
    lifts = []
    def caught(u, trunc):
        lifts.append((u, trunc))
        return kk_derivation(u, trunc)
    monkeypatch.setattr(goldman, "kk_derivation", caught)
    nonzero = 0
    for genus, boundary in SURFACES:
        spec = SurfaceSpec(genus, boundary)
        for curve in twist_curve_names(spec):
            for trunc in range(1, 6 if genus == 2 else 7):
                d = twist_derivation(spec, curve, trunc)
                u, caught_trunc = lifts.pop()
                assert caught_trunc == trunc
                nonzero += _assert_kk_derivation(d, u, trunc)[0]
    assert nonzero >= 30 and not lifts


def test_expand_path_sum_matches_the_replaced_loop():
    rng = random.Random("sum-oracle-path")
    zero = 0
    for genus, boundary in SURFACES:
        spec = SurfaceSpec(genus, boundary)
        for trunc in range(1, 6):
            theta = default_expansion(spec, trunc)
            for _ in range(8):
                gamma = _path_sum(rng, spec)
                new = expand_path_sum(gamma, theta)
                assert_same_series(new, old_expand_path_sum(gamma, theta))
                zero += new.is_zero()
    assert zero >= 10


def test_expand_loop_sum_matches_the_replaced_loop():
    rng = random.Random("sum-oracle-loop")
    zero = twisted = 0
    for genus, boundary in SURFACES:
        spec = SurfaceSpec(genus, boundary)
        for trunc in range(1, 6):
            theta = default_expansion(spec, trunc)
            for _ in range(8):
                u = _loop_sum(rng, spec)
                new = expand_loop_sum(u, theta)
                assert_same_necklaces(new, old_expand_loop_sum(u, theta))
                zero += new.is_zero()
                twisted += new.twist != 0
            # a centred sum cancels in degree 0: the reduced expansion
            u = _loop_sum(rng, spec).reduced()
            assert_same_necklaces(expand_loop_sum(u, theta),
                                  old_expand_loop_sum(u, theta))
    assert zero >= 10 and twisted >= 5


def test_expand_loop_sum_cancels_across_classes():
    # |a1 b1| and |b1 a1| are one class; |a1| - |a1| cancels before
    # projection, and inverse classes share their even-degree necklaces
    spec = SurfaceSpec(1, 1)
    theta = default_expansion(spec, 4)
    a = cyclic_normal_form(FreeWord((("a1", 1),)))
    a_inv = cyclic_normal_form(FreeWord((("a1", -1),)))
    u = LoopSum(spec, [(a, Fraction(1, 3)), (a_inv, Fraction(1, 3))])
    new = expand_loop_sum(u, theta)
    assert_same_necklaces(new, old_expand_loop_sum(u, theta))
    assert NecklaceWord(("x1",)) not in new.terms
    assert new.terms[NecklaceWord(("x1", "x1"))] == Fraction(1, 3)


# -- magnus ------------------------------------------------------------------

def test_necklace_project_matches_the_replaced_loop():
    rng = random.Random("sum-oracle-necklace")
    zero = 0
    for sig, trunc in _cases():
        for _ in range(4):
            s = _series(rng, sig, trunc, nterms=8)
            if rng.random() < 0.3:
                # rotations of one word that cancel in the projection
                word = random_word(rng, sig, 4, trunc)
                k = rng.randrange(len(word) + 1)
                s = s + TensorSeries.from_terms(
                    sig, trunc, [(word, 2), (word[k:] + word[:k], -2)])
            new = necklace_project(s)
            assert_same_necklaces(new, old_necklace_project(s))
            zero += new.is_zero()
    assert zero >= 5


def test_invert_expansion_matches_the_replaced_loop():
    rng = random.Random("sum-oracle-invert")
    for genus, boundary in SURFACES + ((0, 3),):
        for trunc in range(1, 6 if genus < 2 else 5):
            solved = solve_symplectic(genus, boundary - 1, trunc)
            drift = {base: solved.logs[base]
                     + _raised(rng, solved.sig, trunc, tensor_letter(base))
                     for base in solved.spec.generators()
                     if rng.random() < 0.6}
            for theta in (solved, solved.with_logs(drift),
                          default_expansion(solved.spec, trunc)):
                assert_same_map(invert_expansion(theta),
                                old_invert_expansion(theta))


def _raised(rng, sig, trunc, name):
    """A random Lie element with every term heavier than `name`."""
    p = random_primitive(rng, sig, trunc, nterms=3, max_depth=4)
    for d in range(1, sig.weight(name) + 1):
        p = p - p.homogeneous_component(d)
    return p


# (0, 11) has z1..z10, where NecklaceWord's string order ("z10" < "z2")
# and the generator order differ; its sparse brackets need more draws
@pytest.mark.parametrize("genus,boundary", SURFACES + ((0, 11),))
def test_gr_necklace_bracket_matches_the_replaced_loop(genus, boundary):
    rng = random.Random("sum-oracle-gr-%d-%d" % (genus, boundary))
    spec = SurfaceSpec(genus, boundary)
    top, draws = (9, 80) if boundary > 10 else (7 if genus == 1 else 6, 12)
    skipped = nonzero = reordered = 0
    for trunc in range(1, top):
        theta = default_expansion(spec, trunc)
        for _ in range(draws):
            cu = expand_loop_sum(_loop_sum(rng, spec, 3), theta)
            cv = expand_loop_sum(_loop_sum(rng, spec, 3), theta)
            if rng.random() < 0.5:
                # the lowest slices, as the gr-bracket suite pairs them
                low_u, low_v = cu.valuation(), cv.valuation()
                if low_u is not None and low_v is not None:
                    cu = cu.homogeneous_component(low_u)
                    cv = cv.homogeneous_component(low_v)
            new = gr_necklace_bracket(cu, cv)
            assert_same_necklaces(new, old_gr_necklace_bracket(cu, cv))
            nonzero += not new.is_zero()
            weights = [cu.sig.degree(n.word) for n in cu.terms]
            weights_v = [cv.sig.degree(n.word) for n in cv.terms]
            skipped += any(a + b - 2 > trunc for a in weights
                           for b in weights_v)
            codes = [tuple(map(cu.sig.gens.index, n.word)) for n in new.terms]
            reordered += any(c != min(c[i:] + c[:i] for i in range(len(c)))
                             for c in codes if c)
    assert nonzero >= 10 and skipped >= 5
    assert reordered >= 5 if boundary > 10 else reordered == 0


def test_adams_series_check_matches_the_replaced_loop(monkeypatch):
    # the check holds for every primitive, so its sums are compared too:
    # each CyclicSeries comparison either side makes is recorded
    compared = []
    def recording(self, other):
        compared.append((self, other))
        return TermSum.__eq__(self, other)
    monkeypatch.setattr(CyclicSeries, "__eq__", recording)
    rng = random.Random("sum-oracle-adams")
    homogeneous = 0
    for sig, trunc in _cases():
        p = random_primitive(rng, sig, trunc, nterms=rng.choice((1, 1, 3)))
        n, k = rng.choice((0, 1, 2, 3, -1)), rng.randint(0, 4)
        want = old_adams_series_check(n, p, k)
        old_compared = list(compared)
        del compared[:]
        assert adams_series_check(n, p, k) is want is True
        assert len(compared) == len(old_compared)
        for new_pair, old_pair in zip(compared, old_compared):
            assert_same_necklaces(new_pair[0], old_pair[0])
            assert_same_necklaces(new_pair[1], old_pair[1])
        homogeneous += len(compared) == 2
        del compared[:]
    assert homogeneous >= 10
