"""Named verification suites behind the command line's `verify`.

Each suite draws its cases from a seeded generator, runs a batch of
exact-arithmetic checks, and returns a JSON-ready report.  A check is
the list of its outcomes, one per case in case order: a failure message,
or None for a pass; its `cases` is their number.  The same functions
back the acceptance tests, so a CLI run and a pytest run see identical
cases for identical parameters.  Failures carry a repr of the offending
input; replaying with the same seed reproduces them.
"""

import inspect
import random
from fractions import Fraction
from itertools import product, starmap

from .barcx import (
    BarElement,
    bar_differential,
    chen_pairing,
    closed_model,
    dual_cs,
    eval_hat_cs,
    eval_hat_kk,
    open_model,
    shuffle_product,
)
from .goldman import (
    LoopSum,
    PathPairSum,
    PathSum,
    adams as adams_operation,
    bi_pairing,
    dehn_twist,
    expand_loop_sum,
    expand_path_sum,
    goldman_bracket,
    kk_action,
    kk_derivation,
    twist_curve_names,
    twist_derivation,
)
from .magnus import (
    adams_series_check,
    bch_right_side,
    default_expansion,
    gr_necklace_bracket,
    invert_expansion,
    is_symplectic,
    kvi_check,
    resolution_check,
    solve_symplectic,
)
from .surface import (
    FreeWord,
    Path,
    SurfaceSpec,
    boundary_word,
    cyclic_normal_form,
)
from .tensoralg import (TensorSeries, derivation_exp, lie_bracket, log,
                        matrix_rank)

DEFAULT_SEED = 7

MAX_REPORTED_FAILURES = 5


def _check(name, outcomes):
    """A check from its cases' outcomes, in case order: a failure
    message, or None for a pass."""
    outcomes = list(outcomes)
    failures = [o for o in outcomes if o is not None]
    return {
        "name": name,
        "cases": len(outcomes),
        "passed": not failures,
        "failures": failures[:MAX_REPORTED_FAILURES],
    }


def _report(suite, checks, **params):
    return {"suite": suite, "params": params, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# -- seeded element builders ---------------------------------------------

def _random_word(rng, spec, max_len, min_len=1):
    gens = spec.generators()
    while True:
        length = rng.randrange(min_len, max_len + 1) if max_len >= min_len \
            else min_len
        letters = tuple((rng.choice(gens), rng.choice((1, -1)))
                        for _ in range(length))
        word = FreeWord(letters).reduce()
        if len(word.letters) >= min_len:
            return word


def _random_loop(rng, spec, max_len):
    return LoopSum.of(spec, _random_word(rng, spec, max_len))


def _random_path_sum(rng, spec, max_len, tags=None):
    """One path of a word of length <= max_len, possibly empty, between
    tags, a pair of boundary tags drawn when not given."""
    if tags is None:
        tags = (rng.randrange(spec.boundary), rng.randrange(spec.boundary))
    return PathSum.of(spec, Path(*tags, _random_word(rng, spec, max_len,
                                                     min_len=0)))


def _random_loop_sum(rng, spec, max_len):
    out = LoopSum.of(spec, _random_word(rng, spec, max_len),
                     rng.choice((1, -1, 2)))
    if rng.random() < 0.5:
        out = out + LoopSum.of(spec, _random_word(rng, spec, max_len),
                               rng.choice((1, -1, 2, -2)))
    return out


def _shift_failure(name, operands, expansions, out):
    """One case of the filtration shift [F_p, F_q] in F_{p+q-2} of the
    bracket, the action and the pairing (Kawazumi-Kuno, "The logarithms
    of Dehn twists", Quantum Topol. 2014): its failure message, or None.
    An operand whose expansion vanishes through the truncation N counts
    as N + 1; an output valuation out of None (it vanishes) shows no
    drop."""
    va, vb = (e.trunc + 1 if e.valuation() is None else e.valuation()
              for e in expansions)
    if out is not None and out < va + vb - 2:
        return "%s drops too far: %r, %r (%s < %s + %s - 2)" % (
            name, *operands, out, va, vb)


def _pair_valuation(pairs, theta):
    """Least weight of a path-pair sum's expansion in the tensor square,
    or None: the least deg w1 + valuation of row w1, the combination of
    the right expansions each weighted by its pair's coefficient times
    w1's in the left one, so cross terms cancel first.  Every term of
    weight <= N = theta.trunc is formed, so a result <= N is exact and a
    larger one (or None) means the expansion vanishes through N; a shift
    bound of at most N + 1 is decided exactly either way."""
    rows = {}
    for (p1, p2), coeff in pairs.terms.items():
        right = theta.expand_word(p2.word)
        for w1, c1 in theta.expand_word(p1.word).items():
            rows.setdefault(w1, []).append((coeff * c1, right))
    values = ((w1, TensorSeries.combination(theta.sig, theta.trunc,
                                            parts).valuation())
              for w1, parts in rows.items())
    return min((theta.sig.degree(w1) + v for w1, v in values
                if v is not None), default=None)


# -- suites ----------------------------------------------------------------

def jacobi(genus=1, boundary=1, seed=DEFAULT_SEED):
    """Lie axioms of the bracket: antisymmetry and the Jacobi identity."""
    count, max_len = 200, 8
    spec = SurfaceSpec(genus, boundary)
    rng = random.Random(seed)
    triples = [tuple(_random_loop(rng, spec, max_len) for _ in range(3))
               for _ in range(count)]

    def antisymmetry(u, v, _):
        if not (goldman_bracket(u, v) + goldman_bracket(v, u)).is_zero():
            return "antisymmetry fails: %r, %r" % (u, v)

    def cyclic_sum(u, v, w):
        total = (goldman_bracket(u, goldman_bracket(v, w))
                 + goldman_bracket(v, goldman_bracket(w, u))
                 + goldman_bracket(w, goldman_bracket(u, v)))
        if not total.is_zero():
            return "jacobi fails: %r, %r, %r" % (u, v, w)

    checks = [
        _check("antisymmetry", starmap(antisymmetry, triples)),
        _check("jacobi", starmap(cyclic_sum, triples)),
    ]
    return _report("jacobi", checks, surface=[genus, boundary], count=count,
                   max_len=max_len, seed=seed)


def perturbation(genus=1, boundary=1, seed=DEFAULT_SEED):
    """Strand-ordering independence of every crossing-based operation."""
    count, max_len = 200, 6
    spec = SurfaceSpec(genus, boundary)
    rng = random.Random(seed)
    cases = [(_random_loop(rng, spec, max_len),
              _random_loop(rng, spec, max_len),
              _random_path_sum(rng, spec, max_len)) for _ in range(count)]

    def bracket_case(u, v, _):
        if goldman_bracket(u, v) != goldman_bracket(u, v, "reversed"):
            return "bracket depends on the ordering: %r, %r" % (u, v)

    def action_case(u, _, g):
        if kk_action(u, g) != kk_action(u, g, "reversed"):
            return "action depends on the ordering: %r, %r" % (u, g)

    checks = [
        _check("bracket", starmap(bracket_case, cases)),
        _check("action", starmap(action_case, cases)),
    ]
    return _report("perturbation", checks, surface=[genus, boundary],
                   count=count, max_len=max_len, seed=seed)


def gr_bracket(genus=1, boundary=1, trunc=6, seed=DEFAULT_SEED):
    """Filtration shift of bracket and action; graded-bracket agreement."""
    count, pairs = 200, 100
    spec = SurfaceSpec(genus, boundary)
    theta = default_expansion(spec, trunc)
    rng = random.Random(seed)

    bracket_cases = [(_random_loop_sum(rng, spec, 4).reduced(),
                      _random_loop_sum(rng, spec, 4).reduced())
                     for _ in range(count)]

    def bracket_shift(u, v):
        return _shift_failure(
            "bracket", (u, v), [expand_loop_sum(w, theta) for w in (u, v)],
            expand_loop_sum(goldman_bracket(u, v), theta).valuation())

    action_cases = []
    for _ in range(count):
        u = _random_loop_sum(rng, spec, 4).reduced()
        g = _random_path_sum(rng, spec, 4)
        action_cases.append((u, g - _random_path_sum(
            rng, spec, 4, (g.from_tag, g.to_tag))))

    def action_shift(u, g):
        return _shift_failure(
            "action", (u, g),
            [expand_loop_sum(u, theta), expand_path_sum(g, theta)],
            expand_path_sum(kk_action(u, g), theta).valuation())

    # graded agreement: the lowest-weight slice of the transported
    # bracket is the necklace bracket of the lowest-weight slices; the
    # draws are capped, since on some surfaces no pair is admissible
    # (genus 0 at truncation 1: every expansion vanishes)
    admissible = []
    for _ in range(10 * pairs):
        if len(admissible) == pairs:
            break
        u = _random_loop_sum(rng, spec, 4)
        v = _random_loop_sum(rng, spec, 4)
        cu = expand_loop_sum(u.reduced(), theta)
        cv = expand_loop_sum(v.reduced(), theta)
        m, n = cu.valuation(), cv.valuation()
        if m is not None and n is not None and m + n - 2 <= trunc:
            admissible.append((u, v, cu, cv))

    def graded_case(u, v, cu, cv):
        m, n = cu.valuation(), cv.valuation()
        lhs = expand_loop_sum(goldman_bracket(u, v),
                              theta).homogeneous_component(m + n - 2)
        rhs = gr_necklace_bracket(cu.homogeneous_component(m),
                                  cv.homogeneous_component(n))
        if lhs.terms != rhs.terms:
            return "graded bracket disagrees: %r, %r" % (u, v)

    graded = _check("graded_agreement", starmap(graded_case, admissible))
    if len(admissible) < pairs:
        graded["passed"] = False
        graded["failures"] = [
            "only %d of %d admissible pairs in %d draws"
            % (len(admissible), pairs, 10 * pairs),
            *graded["failures"]][:MAX_REPORTED_FAILURES]

    checks = [
        _check("bracket_shift", starmap(bracket_shift, bracket_cases)),
        _check("action_shift", starmap(action_shift, action_cases)),
        graded,
    ]
    return _report("gr-bracket", checks, surface=[genus, boundary],
                   trunc=trunc, count=count, pairs=pairs, seed=seed)


def leibniz(genus=1, boundary=1, trunc=5, seed=DEFAULT_SEED):
    """Derivation structure of the loop action.

    Word-level Leibniz rule, the Lie-action identity on expansions, the
    unit acting by zero, the boundary logarithm sitting in every image's
    kernel, and the kernel-rank sampling that pins the kernel of the
    derivation map itself to the span of the unit.
    """
    count = 60
    spec = SurfaceSpec(genus, boundary)
    rng = random.Random(seed)

    word_cases = []
    for _ in range(count):
        u = _random_loop(rng, spec, 4)
        t0, t1, t2 = (rng.randrange(boundary) for _ in range(3))
        g = Path(t0, t1, _random_word(rng, spec, 4, min_len=0))
        m = Path(t1, t2, _random_word(rng, spec, 4, min_len=0))
        word_cases.append((u, g, m))

    def leibniz_case(u, g, m):
        lhs = kk_action(u, PathSum.of(spec, g.compose(m)))
        rhs = PathSum(spec, g.from_tag, m.to_tag, twist=lhs.twist)
        for p, c in kk_action(u, PathSum.of(spec, g)).terms.items():
            rhs.add_term(p.compose(m), c)
        for p, c in kk_action(u, PathSum.of(spec, m)).terms.items():
            rhs.add_term(g.compose(p), c)
        if lhs != rhs:
            return "leibniz fails: %r, %r, %r" % (u, g, m)

    # the derivation drops degree, and the commutator drops it twice,
    # so build two orders high and compare below the starved slots
    theta_hi = default_expansion(spec, trunc + 2)
    lie_cases = [(_random_loop(rng, spec, 3), _random_loop(rng, spec, 3))
                 for _ in range(count // 3)]

    def lie_case(u, v):
        du = kk_derivation(u, trunc + 2)
        dv = kk_derivation(v, trunc + 2)
        db = kk_derivation(goldman_bracket(u, v), trunc + 2)
        for name in spec.generators():
            s = theta_hi.image(name)
            lhs = db.apply(s).truncated(trunc)
            rhs = (du.apply(dv.apply(s))
                   - dv.apply(du.apply(s))).truncated(trunc)
            if lhs != rhs:
                return "bracket action differs from the commutator: " \
                    "%r, %r at %s" % (u, v, name)

    unit = LoopSum.of(spec, FreeWord())
    d_unit = kk_derivation(unit, trunc)
    unit_paths = [PathSum.of(spec, Path(0, 0, _random_word(rng, spec, 4)))
                  for _ in range(10)]

    def unit_image(name):
        if not d_unit.image(name).is_zero():
            return "unit derivation hits %s" % name

    def unit_action(g):
        if not kk_action(unit, g).is_zero():
            return "unit action hits %r" % g

    log_target = bch_right_side(theta_hi.sig, trunc + 1)
    log_cases = [_random_loop_sum(rng, spec, 4)
                 for _ in range(count // 3)]

    def log_case(u):
        d = kk_derivation(u, trunc + 1)
        if not d.apply(log_target).truncated(trunc).is_zero():
            return "boundary logarithm escapes the kernel: %r" % (u,)

    def kernel_case(max_len, n):
        classes, rank = _kernel_rank_sample(max_len, n)
        if rank != classes:
            return ("kernel exceeds the unit span: classes of length <= %d "
                    "at truncation %d give rank %d of %d"
                    % (max_len, n, rank, classes))

    checks = [
        _check("leibniz", starmap(leibniz_case, word_cases)),
        _check("lie_action", starmap(lie_case, lie_cases)),
        _check("unit_acts_by_zero", [*map(unit_image, d_unit.sig.gens),
                                     *map(unit_action, unit_paths)]),
        _check("boundary_log_in_kernel", map(log_case, log_cases)),
        _check("kernel_spanned_by_unit", starmap(kernel_case,
                                                 ((2, 4), (3, 6)))),
    ]
    return _report("leibniz", checks, surface=[genus, boundary], trunc=trunc,
                   count=count, seed=seed)


def _kernel_rank_sample(max_len, trunc):
    """Rank of the derivation map on all short classes of the one-holed
    torus; full rank means only the unit maps to zero.

    Longer windows at lower truncations admit combinations whose class
    expansion starts above the truncation, which the derivation cannot
    see; each window is sized so that cannot happen.
    """
    spec = SurfaceSpec(1, 1)
    theta = default_expansion(spec, trunc)
    sig = theta.sig
    alphabet = [(g, s) for g in spec.generators() for s in (1, -1)]
    seen = {}
    for n in range(1, max_len + 1):
        for combo in product(alphabet, repeat=n):
            cls = cyclic_normal_form(combo)
            if cls.word:
                seen[cls.word] = cls
    classes = list(seen.values())
    monomials = []
    for d in range(trunc + 1):
        monomials.extend(w for w in product(sig.gens, repeat=d)
                         if sig.degree(w) <= trunc)
    index = {w: i for i, w in enumerate(monomials)}
    gens = spec.generators()
    rows = []
    for cls in classes:
        d = kk_derivation(LoopSum.of(spec, cls.free_word()), trunc)
        row = [Fraction(0)] * (len(index) * len(gens))
        for gi, name in enumerate(gens):
            for word, coeff in d.apply(theta.image(name)).items():
                row[gi * len(index) + index[tuple(word)]] = coeff
        rows.append(row)
    return len(classes), matrix_rank(rows)


def adams(trunc=8, seed=DEFAULT_SEED):
    """Power-map laws: composition, filtration, and graded scaling."""
    count = 60
    spec = SurfaceSpec(1, 1)
    theta = default_expansion(spec, trunc)
    rng = random.Random(seed)

    powers = [(_random_word(rng, spec, 4), rng.randrange(2, 5))
              for _ in range(20)]
    u0 = _random_loop_sum(rng, spec, 4)

    def power_case(w, n):
        if adams_operation(n, LoopSum.of(spec, w)) != \
                LoopSum.of(spec, FreeWord(w.letters * n)):
            return "power map misses %r^%d" % (w, n)

    def exponent_case(n, image, name):
        if adams_operation(n, u0) != image:
            return "exponent %d is not the %s" % (n, name)

    composition_cases = []
    for _ in range(count):
        m, n = rng.choice(((2, 2), (2, 3), (3, 2), (2, 4), (5, 3)))
        composition_cases.append((m, n, _random_loop_sum(rng, spec, 4)))

    def composition_case(m, n, u):
        if adams_operation(m, adams_operation(n, u)) != \
                adams_operation(m * n, u):
            return "composition fails: %d, %d, %r" % (m, n, u)

    filtration_cases = [(rng.randrange(2, 5),
                         _random_loop_sum(rng, spec, 4).reduced())
                        for _ in range(count)]

    # (n, u, expansion of u, expansion of its n-th power), each built once
    expanded = [(n, u, expand_loop_sum(u, theta),
                 expand_loop_sum(adams_operation(n, u), theta))
                for n, u in filtration_cases]

    def filtration_case(n, u, cu, image):
        vu, vn = cu.valuation(), image.valuation()
        if vn is not None and vn < (trunc + 1 if vu is None else vu):
            return "power map drops the valuation: %d, %r" % (n, u)

    def scaling_case(n, u, cu, image):
        if image.homogeneous_component(1) != \
                cu.homogeneous_component(1).scaled(n):
            return "weight-1 slice not scaled by %d: %r" % (n, u)

    primitives = [
        log(theta.expand_word(_random_word(rng, spec, 3))),
        log(theta.expand_word(_random_word(rng, spec, 4))),
        lie_bracket(theta.logs["a1"], theta.logs["b1"]),
    ]

    def series_case(p, n, k):
        if not adams_series_check(n, p, k):
            return "symmetric piece %d not scaled by %d^%d" % (k, n, k)

    checks = [
        _check("power_map_definition", [
            *starmap(power_case, powers),
            *starmap(exponent_case, [
                (1, u0, "identity"),
                (0, LoopSum.of(spec, FreeWord(), u0.augmentation()),
                 "augmentation")])]),
        _check("composition", starmap(composition_case, composition_cases)),
        _check("filtration_preserved", starmap(filtration_case, expanded)),
        _check("weight_one_scaling", starmap(scaling_case, [
            case for case in expanded if case[2].valuation() == 1])),
        _check("symmetric_scaling", starmap(series_case, product(
            primitives, (2, 3), (1, 2, 3, 4)))),
    ]
    return _report("adams", checks, trunc=trunc, count=count, seed=seed)


def bar(seed=DEFAULT_SEED):
    """Bar-complex laws: differential, shuffle, pairings, dual formulas."""
    conj_count, eval_count, square_len = 200, 100, 4
    spec = SurfaceSpec(1, 2)
    om = open_model(spec)
    letters = list(om.letters)
    rng = random.Random(seed)

    square_cases = [(model, word)
                    for model in (om, closed_model(1), closed_model(2))
                    for length in range(square_len + 1)
                    for word in product(model.letters, repeat=length)]

    def square_case(model, word):
        e = BarElement.word(model, word)
        if not bar_differential(bar_differential(e)).is_zero():
            return "d^2 misses zero on %r in %s" % (word, model.name)

    def random_letters(max_len):
        return tuple(rng.choice(letters)
                     for _ in range(rng.randrange(max_len + 1)))

    def random_bar(max_len):
        return BarElement.word(om, random_letters(max_len))

    def random_word(max_len):
        return _random_word(rng, spec, max_len, min_len=0)

    shuffle_cases = [(random_bar(3), random_bar(3), random_word(5))
                     for _ in range(eval_count)]
    coproduct_cases = [(random_letters(3), random_word(4), random_word(4))
                       for _ in range(eval_count)]
    conjugation_cases = [(random_bar(2), rng.choice(letters), random_word(4),
                          random_word(3)) for _ in range(conj_count)]
    hat_cs_cases = [(random_bar(3), rng.choice(letters), random_word(5))
                    for _ in range(eval_count)]
    hat_kk_cases = [(random_letters(2), random_letters(2),
                     rng.choice(letters), random_word(5))
                    for _ in range(eval_count)]

    def shuffle_case(e1, e2, gamma):
        lhs = chen_pairing(shuffle_product(e1, e2), gamma)
        if lhs != chen_pairing(e1, gamma) * chen_pairing(e2, gamma):
            return "pairing not multiplicative: %r, %r, %r" % (e1, e2, gamma)

    def coproduct_case(word, g1, g2):
        lhs = chen_pairing(BarElement.word(om, word), g1 * g2)
        rhs = sum((chen_pairing(BarElement.word(om, word[:i]), g1)
                   * chen_pairing(BarElement.word(om, word[i:]), g2))
                  for i in range(len(word) + 1))
        if lhs != rhs:
            return "deconcatenation fails: %r, %r, %r" % (word, g1, g2)

    def conjugation_case(e, w, gamma, g):
        inserted = dual_cs(e, w)
        if (chen_pairing(inserted, gamma)
                != chen_pairing(inserted, g * gamma * g.inverse())):
            return ("class function moves under conjugation: %r, %s, %r, %r"
                    % (e, w, gamma, g))

    def hat_cs_case(e, w, gamma):
        if eval_hat_cs(e, w, gamma) != chen_pairing(dual_cs(e, w), gamma):
            return "direct evaluation disagrees: %r, %s, %r" % (e, w, gamma)

    def hat_kk_case(left, right, w, gamma):
        lhs = eval_hat_kk((left, w, right), gamma, om)
        if lhs != chen_pairing(BarElement.word(om, left + (w,) + right),
                               gamma):
            return ("middle insertion disagrees: %r, %s, %r, %r"
                    % (left, w, right, gamma))

    checks = [
        _check("differential_squares_to_zero",
               starmap(square_case, square_cases)),
        _check("shuffle_pairing_multiplicative",
               starmap(shuffle_case, shuffle_cases)),
        _check("composition_coproduct",
               starmap(coproduct_case, coproduct_cases)),
        _check("class_function_conjugation",
               starmap(conjugation_case, conjugation_cases)),
        _check("eval_hat_cs", starmap(hat_cs_case, hat_cs_cases)),
        _check("eval_hat_kk", starmap(hat_kk_case, hat_kk_cases)),
    ]
    return _report("bar", checks, conj_count=conj_count,
                   eval_count=eval_count, square_len=square_len, seed=seed)


def kvi(trunc=6):
    """Symplectic solve and tangential-automorphism certificate."""
    checks = []
    for g, b in ((1, 1), (2, 1), (1, 2)):
        theta = solve_symplectic(g, b - 1, trunc)
        symplectic = is_symplectic(theta)
        cert = kvi_check(invert_expansion(theta))
        failure = None if symplectic and cert["passed"] else (
            "certificate fails on (%d,%d): symplectic=%s, omega=%s, "
            "graded=%s" % (g, b, symplectic, cert["omega_image_matches"],
                           cert["gr_identity"]))
        entry = _check("surface_%d_%d" % (g, b), [failure])
        entry["certificate"] = {
            "symplectic": bool(symplectic),
            "omega_image_matches": cert["omega_image_matches"],
            "gr_identity": cert["gr_identity"],
            "zk_resolved": sum(1 for z in cert["zk_conjugators"]
                               if z is not None),
            "checked_to_degree": cert["checked_to_degree"],
        }
        checks.append(entry)
    return _report("kvi", checks, trunc=trunc)


def twist_formula_rows(spec, trunc):
    """(curve, generator, twisted word, match) for every tabulated twist
    curve and generator: whether the exponential of the twist derivation
    sends the generator's expansion to the twisted word's expansion."""
    theta = default_expansion(spec, trunc)
    for curve in twist_curve_names(spec):
        flow = derivation_exp(twist_derivation(spec, curve, trunc))
        for name in spec.generators():
            got = flow.apply(theta.image(name))
            image = dehn_twist(spec, curve, FreeWord(((name, 1),)))
            yield curve, name, image, got == theta.expand_word(image)


def twist(trunc=5):
    """Twist logarithm formula and boundary-fixing of the fixtures."""
    def formula_case(curve, name, _, match):
        if not match:
            return "logarithm formula misses %s on %s" % (curve, name)

    fixture_cases = [(spec, curve, power)
                     for spec in (SurfaceSpec(1, 1), SurfaceSpec(2, 1))
                     for curve in twist_curve_names(spec)
                     for power in (1, -1, 2)]

    def fixture_case(spec, curve, power):
        sigma = boundary_word(spec)
        if dehn_twist(spec, curve, sigma, power=power) != sigma:
            return "%s^%d moves the boundary on (%d,%d)" % (
                curve, power, spec.genus, spec.boundary)

    checks = [
        _check("logarithm_formula", starmap(formula_case, twist_formula_rows(
            SurfaceSpec(1, 1), trunc))),
        _check("fixtures_fix_boundary", starmap(fixture_case, fixture_cases)),
    ]
    return _report("twist", checks, trunc=trunc)


def resolution():
    """Exactness certificates for the surface-algebra resolution."""
    n_max = 6

    def row_case(genus, row):
        false = [flag for flag in ("composite_zero", "injective",
                                   "surjective", "rank_identity")
                 if not row[flag]]
        if false:
            return "certificate fails for genus %d at degree %d: %s" % (
                genus, row["n"], ", ".join(false))

    checks = []
    for genus in (1, 2, 3):
        name = "genus_%d" % genus
        try:
            report = resolution_check(genus, n_max)
        except AssertionError as err:
            checks.append(_check(name, [str(err)]))
            continue
        entry = _check(name, [row_case(genus, row) for row in report["rows"]])
        entry["dims"] = report["dims"]
        checks.append(entry)
    return _report("resolution", checks, n_max=n_max)


def bipair(trunc=5, seed=DEFAULT_SEED):
    """Bi-pairing laws: bilinearity, degree shift, crossing geometry."""
    count = 60
    four = SurfaceSpec(0, 4)
    spec = SurfaceSpec(1, 3)
    theta = default_expansion(spec, trunc)
    rng = random.Random(seed)

    def random_path_sum(tags, centered=False):
        # centered: c times the difference of two distinct paths, a
        # nonzero sum with augmentation 0
        g = _random_path_sum(rng, spec, 3, tags)
        c = rng.choice((1, -1, 2))
        if not centered:
            g = g.scaled(c)
            if rng.random() < 0.5:
                g = g - _random_path_sum(rng, spec, 3, tags)
            return g
        h = g
        while h == g:
            h = _random_path_sum(rng, spec, 3, tags)
        return (g - h).scaled(c)

    bilinear_cases = [(random_path_sum((0, 1)), random_path_sum((0, 1)),
                       random_path_sum((2, 2)),
                       Fraction(rng.randrange(-3, 4) or 2))
                      for _ in range(count)]

    def linearity(side, g1, g2, h, scale):
        def pair(g):
            return bi_pairing(g, h) if side == "left" else bi_pairing(h, g)
        if pair(g1.scaled(scale) + g2) != pair(g1).scaled(scale) + pair(g2):
            return "%s linearity fails: %r, %r, %r" % (side, g1, g2, h)

    shift_cases = [(random_path_sum((0, 1), centered=True),
                    random_path_sum((2, 2), centered=True))
                   for _ in range(count)]

    def degree_shift(g1, g2):
        return _shift_failure(
            "pairing", (g1, g2), [expand_path_sum(g1, theta),
                                  expand_path_sum(g2, theta)],
            _pair_valuation(bi_pairing(g1, g2), theta))

    def corridor(tags, word=FreeWord()):
        return PathSum.of(four, Path(*tags, word))

    # nested and disjoint corridor chords never cross, whatever c2
    # winding rides along inside them
    c2 = FreeWord((("c2", 1),))
    disjoint_cases = [
        (corridor(tags1), corridor(tags2, FreeWord(
            (c2 if k > 0 else c2.inverse()).letters * abs(k))))
        for k in (-2, -1, 0, 1, 2)
        for tags1, tags2 in (((0, 1), (2, 3)), ((0, 3), (2, 1)))]

    def disjoint_case(g1, g2):
        if not bi_pairing(g1, g2).is_zero():
            return "disjoint corridors cross: %r, %r" % (g1, g2)

    # the c2 detour reroutes the 1->3 strand off the 0->2 corridor; the
    # cancellation is a pinned engine value
    rerouted = None if bi_pairing(corridor((0, 2)), corridor(
        (1, 3), c2)).is_zero() else "rerouted corridor still crosses"

    def example_case(word, message):
        # the pinned pairing of 0->2 with 1->3 along word
        expect = PathPairSum(four, twist=1)
        expect.add_term((Path(0, 3, word), Path(1, 2, FreeWord())), -1)
        if bi_pairing(corridor((0, 2)), corridor((1, 3), word)) != expect:
            return message

    checks = [
        _check("bilinearity", starmap(linearity, [
            (side, *case) for case in bilinear_cases
            for side in ("left", "right")])),
        _check("degree_shift", starmap(degree_shift, shift_cases)),
        _check("noncrossing_vanishes", [
            *starmap(disjoint_case, disjoint_cases), rerouted]),
        _check("crossing_example", starmap(example_case, [
            (FreeWord(), "bare crossing corridors value moved"),
            (FreeWord((("c3", -1),)), "c3-inverse corridor value moved")])),
    ]
    return _report("bipair", checks, trunc=trunc, count=count, seed=seed)


SUITES = {
    "jacobi": jacobi,
    "leibniz": leibniz,
    "perturbation": perturbation,
    "gr-bracket": gr_bracket,
    "adams": adams,
    "bar": bar,
    "kvi": kvi,
    "twist": twist,
    "resolution": resolution,
    "bipair": bipair,
}


def run_suite(name, **options):
    """Dispatch to a named suite, keeping only the options it accepts."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError("unknown suite %r; choose one of %s"
                         % (name, ", ".join(sorted(SUITES)))) from None
    accepted = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in options.items()
              if k in accepted and v is not None}
    return fn(**kwargs)
