"""Tests for expansions, necklace series, solvers, and certificates."""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from goldman_forge import magnus
from goldman_forge.magnus import (
    _bracket_preimage,
    _extract_conjugator,
    _graded_identity,
    _substitution_of,
    CyclicSeries,
    MagnusExpansion,
    NecklaceWord,
    ad_exp,
    adams_series_check,
    bch_right_side,
    default_expansion,
    dynkin_leading_split,
    expand_class,
    gr_action,
    gr_necklace_bracket,
    invert_expansion,
    is_symplectic,
    kvi_check,
    necklace_project,
    omega,
    resolution_check,
    solve_symplectic,
    tensor_letter,
)
from goldman_forge.surface import (
    FreeWord,
    SurfaceSpec,
    boundary_word,
    cyclic_normal_form,
    parse_word,
)
from goldman_forge.tensoralg import (
    AlgebraMap,
    Derivation,
    GenSignature,
    TensorSeries,
    derivation_exp,
    exp,
    is_group_like,
    is_primitive,
    lie_bracket,
    linear_solve,
    log,
    powers,
    right_normed_words,
)
from helpers import compose_automorphism


def series(sig, trunc, *terms):
    return TensorSeries.from_terms(sig, trunc, terms)


def right_normed(sig, trunc, word):
    """[w1,[w2,[...,wn]]] of a nonempty word as a series."""
    return TensorSeries.from_terms(sig, trunc,
                                   right_normed_words(tuple(word)).items())


def _omega_fixing_automorphism(trunc):
    """exp of the derivation x -> [x,[x,y]], y -> -[[x,y],y] on (1,0).

    The derivation kills [x,y], so the exponential fixes the symplectic
    element while moving both generators; composing it with one
    symplectic expansion produces another.
    """
    sig = GenSignature(1, 0)
    x = TensorSeries.generator(sig, trunc, "x1")
    y = TensorSeries.generator(sig, trunc, "y1")
    d = Derivation(sig, trunc, {
        "x1": lie_bracket(x, lie_bracket(x, y)),
        "y1": lie_bracket(lie_bracket(x, y), y).scaled(-1),
    })
    assert d.apply(lie_bracket(x, y)).is_zero()
    return derivation_exp(d)


class TestExpansion:
    def test_default_generator_image_is_exponential(self):
        spec = SurfaceSpec(1, 1)
        theta = default_expansion(spec, 4)
        sig = theta.sig
        x = TensorSeries.generator(sig, 4, "x1")
        assert theta.image("a1") == exp(x)
        assert theta.expand_word(parse_word("a1")) == exp(x)

    def test_expansion_is_multiplicative(self):
        spec = SurfaceSpec(1, 2)
        theta = default_expansion(spec, 4)
        rng = random.Random(7)
        for _ in range(12):
            u = helpers.random_surface_word(rng, spec, 4)
            v = helpers.random_surface_word(rng, spec, 4)
            assert theta.expand_word(u * v) == \
                theta.expand_word(u) * theta.expand_word(v)

    def test_inverse_word_expands_to_inverse(self):
        spec = SurfaceSpec(2, 1)
        theta = default_expansion(spec, 3)
        w = parse_word("a1 b2 a1'")
        assert theta.expand_word(w * w.inverse()) == \
            TensorSeries.unit(theta.sig, 3)

    def test_identity_word(self):
        spec = SurfaceSpec(1, 1)
        theta = default_expansion(spec, 3)
        assert theta.expand_word(FreeWord(())) == \
            TensorSeries.unit(theta.sig, 3)

    def test_truncated_expansion_is_the_truncated_expansion(self):
        # truncation is a ring map commuting with exp: a word expands in
        # theta.truncated(d) to its expansion in theta cut at d
        theta = solve_symplectic(1, 1, 6)
        rng = random.Random(11)
        words = [helpers.random_surface_word(rng, theta.spec, 5)
                 for _ in range(6)]
        for d in range(1, 7):
            low = theta.truncated(d)
            assert low.trunc == d
            for w in words:
                assert low.expand_word(w) == \
                    theta.expand_word(w).truncated(d)

    def test_log_images_mismatched_truncation_rejected(self):
        spec = SurfaceSpec(1, 1)
        sig = GenSignature(1, 0)
        logs = {"a1": TensorSeries.generator(sig, 3, "x1"),
                "b1": TensorSeries.generator(sig, 4, "y1")}
        with pytest.raises(ValueError):
            MagnusExpansion(spec, 3, logs)


class TestNecklace:
    def test_canonical_rotation(self):
        assert NecklaceWord(("y1", "x1")) == NecklaceWord(("x1", "y1"))
        assert NecklaceWord(("y1", "x1")).word == ("x1", "y1")
        assert NecklaceWord(()).word == ()

    def test_commutator_projects_to_zero(self):
        sig = GenSignature(1, 0)
        s = series(sig, 4, (("x1", "y1"), 1), (("y1", "x1"), -1))
        assert necklace_project(s).is_zero()

    def test_trace_property(self):
        sig = GenSignature(1, 1)
        rng = random.Random(19)
        for _ in range(10):
            a = helpers.random_series(rng, sig, 4)
            b = helpers.random_series(rng, sig, 4)
            assert necklace_project(a * b) == necklace_project(b * a)

    def test_twist_mismatch_rejected(self):
        sig = GenSignature(1, 0)
        u = CyclicSeries(sig, 3, {("x1",): Fraction(1)}, twist=0)
        v = CyclicSeries(sig, 3, {("x1",): Fraction(1)}, twist=1)
        with pytest.raises(ValueError):
            u + v

    def test_expand_class_conjugation_invariant(self):
        spec = SurfaceSpec(1, 1)
        theta = default_expansion(spec, 5)
        rng = random.Random(3)
        for _ in range(8):
            w = helpers.random_surface_word(rng, spec, 4)
            h = helpers.random_surface_word(rng, spec, 3)
            u = cyclic_normal_form(w)
            v = cyclic_normal_form(h * w * h.inverse())
            assert expand_class(u, theta) == expand_class(v, theta)


class TestGradedBracket:
    def make(self, sig, trunc, word, coeff=1, twist=0):
        return CyclicSeries(sig, trunc, {tuple(word): Fraction(coeff)}, twist)

    def test_dual_pair_contracts_to_empty_necklace(self):
        sig = GenSignature(1, 0)
        u = self.make(sig, 4, ["x1"])
        v = self.make(sig, 4, ["y1"])
        out = gr_necklace_bracket(u, v)
        assert out.terms == {NecklaceWord(()): 1}
        assert out.twist == 1

    def test_boundary_letter_is_central(self):
        sig = GenSignature(1, 1)
        z = self.make(sig, 4, ["z1"])
        other = self.make(sig, 4, ["x1", "y1", "z1"])
        assert gr_necklace_bracket(z, other).is_zero()
        assert gr_necklace_bracket(other, z).is_zero()

    def test_mismatch_rejected(self):
        u = self.make(GenSignature(1, 1), 4, ["x1"])
        for v in (self.make(GenSignature(1, 0), 4, ["y1"]),
                  self.make(GenSignature(1, 1), 5, ["y1"])):
            with pytest.raises(ValueError):
                gr_necklace_bracket(u, v)

    def test_non_dual_letters_commute(self):
        sig = GenSignature(2, 0)
        u = self.make(sig, 4, ["x1"])
        v = self.make(sig, 4, ["y2"])
        assert gr_necklace_bracket(u, v).is_zero()

    def test_splice_example(self):
        # p = x1 y1, q = y1: pairing only at p's x1 against q's y1
        sig = GenSignature(1, 0)
        u = self.make(sig, 4, ["x1", "y1"])
        v = self.make(sig, 4, ["y1"])
        out = gr_necklace_bracket(u, v)
        assert out == CyclicSeries(sig, 4, {("y1",): Fraction(1)}, twist=1)

    def test_action_images(self):
        # p = x1 z1 y1: x1's partner y1 gets +|z1 y1|, y1's partner x1
        # gets -|x1 z1|, and z1 gets z1 P - P z1 with P = y1 x1
        sig = GenSignature(1, 1)
        d = gr_action(self.make(sig, 6, ["x1", "z1", "y1"]))
        assert d.images == {
            "x1": series(sig, 6, (("x1", "z1"), -1)),
            "y1": series(sig, 6, (("z1", "y1"), 1)),
            "z1": series(sig, 6, (("z1", "y1", "x1"), 1),
                         (("y1", "x1", "z1"), -1)),
        }

    def test_shared_boundary_letter_splices(self):
        # p = z1 x1, q = z1 y1: x1 against y1 gives |z1 z1|, and the
        # shared z1 (P = x1, Q = y1) gives |z1 x1 y1| - |x1 z1 y1|
        sig = GenSignature(1, 1)
        u = self.make(sig, 8, ["z1", "x1"])
        v = self.make(sig, 8, ["z1", "y1"])
        assert gr_necklace_bracket(u, v) == CyclicSeries(sig, 8, {
            ("z1", "z1"): 1, ("x1", "y1", "z1"): 1, ("x1", "z1", "y1"): -1},
            twist=1)

    def test_antisymmetry(self):
        rng = random.Random(11)
        for sig in (GenSignature(2, 1), GenSignature(1, 1), GenSignature(0, 3)):
            for _ in range(30):
                u = self._random_necklace(rng, sig, 5)
                v = self._random_necklace(rng, sig, 5)
                lhs = gr_necklace_bracket(u, v)
                rhs = gr_necklace_bracket(v, u).scaled(-1)
                assert lhs.terms == rhs.terms

    def test_jacobi(self):
        # with punctures, at truncation 20, where no inner bracket of
        # inputs of weight <= 6 is dropped
        rng = random.Random(13)
        for sig, trunc, count in ((GenSignature(2, 0), 6, 15),
                                  (GenSignature(1, 1), 20, 60),
                                  (GenSignature(0, 3), 20, 60)):
            nonzero = 0
            for _ in range(count):
                u = self._random_necklace(rng, sig, trunc)
                v = self._random_necklace(rng, sig, trunc)
                w = self._random_necklace(rng, sig, trunc)
                total = {}
                for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
                    term = gr_necklace_bracket(a, gr_necklace_bracket(b, c))
                    nonzero += not term.is_zero()
                    for necklace, coeff in term.terms.items():
                        cc = total.get(necklace, 0) + coeff
                        if cc:
                            total[necklace] = cc
                        else:
                            total.pop(necklace, None)
                assert not total
            assert nonzero >= 5, sig

    def _random_necklace(self, rng, sig, trunc):
        weight = min(trunc, 6)
        word = helpers.random_word(rng, sig, max_len=3, max_degree=weight)
        while not word:
            word = helpers.random_word(rng, sig, max_len=3, max_degree=weight)
        return CyclicSeries(sig, trunc,
                            {tuple(word): helpers.random_coeff(rng)})


class TestDynkin:
    def test_right_normed_bracket_small(self):
        sig = GenSignature(1, 0)
        got = right_normed(sig, 4, ("x1", "y1"))
        assert got == lie_bracket(TensorSeries.generator(sig, 4, "x1"),
                                  TensorSeries.generator(sig, 4, "y1"))
        got3 = right_normed(sig, 4, ("x1", "y1", "x1"))
        x = TensorSeries.generator(sig, 4, "x1")
        y = TensorSeries.generator(sig, 4, "y1")
        assert got3 == lie_bracket(x, lie_bracket(y, x))

    def test_leading_split_reassembles(self):
        sig = GenSignature(1, 1)
        rng = random.Random(23)
        for _ in range(10):
            p = helpers.random_primitive(rng, sig, 6)
            for d in range(3, 7):
                r = p.homogeneous_component(d)
                if r.is_zero():
                    continue
                split = dynkin_leading_split(r)
                total = TensorSeries.zero(sig, 6)
                for letter, tail in split.items():
                    gen = TensorSeries.generator(sig, 6, letter)
                    total = total + lie_bracket(gen, tail)
                assert total == r

    def test_right_normed_words_match_the_replaced_code(self):
        # every word of length 1-6 over a three-letter alphabet with
        # repeats, through one shared memo and through fresh ones
        memo = {}
        for n in range(1, 7):
            for word in itertools.product(("x1", "y1", "z1"), repeat=n):
                old = {w: c for w, c in
                       old_right_normed_bracket_words(word).items() if c}
                assert right_normed_words(word, memo) == old
                assert right_normed_words(word) == old
        assert right_normed_words(("x1", "x1")) == {}

    def test_empty_word_is_a_value_error(self):
        with pytest.raises(ValueError, match="nonempty word"):
            right_normed(GenSignature(1, 1), 3, ())

    def test_split_of_a_constant_term_is_a_value_error(self):
        sig = GenSignature(1, 1)
        r = series(sig, 4, ((), 1), (("x1", "y1"), 1), (("y1", "x1"), -1))
        with pytest.raises(ValueError, match="length >= 2"):
            dynkin_leading_split(r)

    def test_split_matches_the_replaced_code(self, monkeypatch):
        # the defects solve_symplectic splits on the surfaces (1,1), (2,1)
        # and (1,2), each also scaled and perturbed by a seeded primitive
        defects = []

        def record(r):
            defects.append(r)
            return dynkin_leading_split(r)

        monkeypatch.setattr(magnus, "dynkin_leading_split", record)
        for genus, boundary, trunc in ((1, 1, 6), (2, 1, 5), (1, 2, 5)):
            magnus.solve_symplectic(genus, boundary - 1, trunc)
        monkeypatch.undo()
        assert len({r.sig for r in defects}) == 3
        rng = random.Random(8080)
        for r in defects:
            noise = helpers.random_primitive(rng, r.sig, r.trunc)
            noise = noise.homogeneous_component(r.valuation())
            for s in (r, r.scaled(helpers.random_coeff(rng)), r + noise):
                assert dynkin_leading_split(s) == old_dynkin_leading_split(s)


class TestSymplecticSolve:
    def test_default_is_symplectic_only_to_degree_two(self):
        spec = SurfaceSpec(1, 1)
        assert is_symplectic(default_expansion(spec, 2))
        assert not is_symplectic(default_expansion(spec, 3))
        assert not is_symplectic(default_expansion(spec, 4))

    def test_solve_torus_boundary(self):
        theta = solve_symplectic(1, 0, 5)
        assert is_symplectic(theta)
        sig = theta.sig
        gamma0 = theta.expand_word(parse_word("a1 b1 a1' b1'"))
        assert log(gamma0) == omega(sig, 5)
        for base in ("a1", "b1"):
            assert is_group_like(theta.image(base))

    def test_solve_with_punctures(self):
        theta = solve_symplectic(1, 1, 4)
        assert is_symplectic(theta)
        assert is_group_like(theta.image("c1"))
        # c image stays a conjugate of exp(z1): primitive log with z1 lead
        log_c = theta.logs["c1"]
        assert is_primitive(log_c)
        assert log_c.homogeneous_component(2) == TensorSeries.generator(
            theta.sig, 4, "z1")

    def test_solve_planar(self):
        theta = solve_symplectic(0, 2, 5)
        assert is_symplectic(theta)

    def test_composed_solution_differs_but_is_symplectic(self):
        base = solve_symplectic(1, 0, 4)
        other = compose_automorphism(_omega_fixing_automorphism(4), base)
        assert is_symplectic(other)
        assert other.logs["a1"] != base.logs["a1"]

    def test_sphere_rejected(self):
        with pytest.raises(ValueError):
            solve_symplectic(0, 0, 3)


# -- the replaced solvers, kept as oracles ---------------------------------

def old_right_normed_bracket_words(word):
    """The recursive right-normed bracketing, without a memo, that kept
    zero coefficients."""
    if len(word) == 1:
        return {word: 1}
    inner = old_right_normed_bracket_words(word[1:])
    head = word[:1]
    out = {}
    for w, c in inner.items():
        out[head + w] = out.get(head + w, 0) + c
        out[w + head] = out.get(w + head, 0) - c
    return out


def old_dynkin_leading_split(series):
    """The split that bracketed out every tail afresh, one Fraction a term."""
    sig, trunc = series.sig, series.trunc
    parts = {}
    for word, coeff in series.items():
        head, tail = word[0], word[1:]
        bucket = parts.setdefault(head, {})
        for w, c in old_right_normed_bracket_words(tail).items():
            bucket[w] = bucket.get(w, 0) + Fraction(coeff * c, len(word))
    return {letter: TensorSeries.from_terms(sig, trunc, bucket.items())
            for letter, bucket in parts.items()}


def old_solve_symplectic(genus, punctures, trunc):
    """The solver that rebuilt every log through build() at each degree."""
    spec = SurfaceSpec(genus, punctures + 1)
    sig = GenSignature(genus, punctures)
    gamma0 = boundary_word(spec)
    target = omega(sig, trunc)
    handle_logs = {}
    for base in spec.generators():
        if base[0] == "c":
            continue
        handle_logs[base] = TensorSeries.generator(sig, trunc,
                                                   tensor_letter(base))
    conjugator = {k: TensorSeries.zero(sig, trunc)
                  for k in range(1, punctures + 1)}

    def build():
        logs = dict(handle_logs)
        for k in range(1, punctures + 1):
            z = TensorSeries.generator(sig, trunc, "z%d" % k)
            logs["c%d" % k] = ad_exp(powers(conjugator[k]), z)
        return MagnusExpansion(spec, trunc, logs)

    theta = build()
    for d in range(3, trunc + 1):
        defect = log(theta.expand_word(gamma0)) - target
        low = defect.valuation()
        assert low is None or low >= d
        r = defect.homogeneous_component(d)
        if r.is_zero():
            continue
        assert is_primitive(r)
        split = dynkin_leading_split(r)
        for j in range(1, genus + 1):
            t_y = split.get("y%d" % j)
            if t_y is not None:
                handle_logs["a%d" % j] = handle_logs["a%d" % j] + t_y
            t_x = split.get("x%d" % j)
            if t_x is not None:
                handle_logs["b%d" % j] = handle_logs["b%d" % j] - t_x
        for k in range(1, punctures + 1):
            t_z = split.get("z%d" % k)
            if t_z is not None:
                conjugator[k] = conjugator[k] + t_z
        theta = build()
    assert (log(theta.expand_word(gamma0)) - target).is_zero()
    return theta


def old_invert_expansion(theta):
    """The fixed-point inversion Phi(g) = g - Phi(Psi(g) - g), with a
    fresh AlgebraMap on every pass."""
    sig, trunc = theta.sig, theta.trunc
    psi = _substitution_of(theta)
    if not all(_graded_identity(psi.image(name), name) for name in sig.gens):
        raise ValueError("expansion is not graded-identity; cannot invert")
    remainder = {name: psi.image(name)
                 - TensorSeries.generator(sig, trunc, name)
                 for name in sig.gens}
    images = {name: TensorSeries.generator(sig, trunc, name)
              for name in sig.gens}
    for _ in range(trunc + 1):
        phi = AlgebraMap(sig, trunc, images)
        new_images = {}
        changed = False
        for name in sig.gens:
            series = (TensorSeries.generator(sig, trunc, name)
                      - phi.apply(remainder[name]))
            new_images[name] = series
            changed = changed or series != images[name]
        images = new_images
        if not changed:
            break
    else:
        raise AssertionError("inversion did not stabilize at truncation")
    return AlgebraMap(sig, trunc, images)


# (genus, boundary) of the oracle sweep; genus 2 stops at N = 5
ORACLE_SURFACES = ((1, 1), (2, 1), (1, 2), (0, 3), (2, 2))
ORACLE_SEED = 1102


def _oracle_cases():
    for genus, boundary in ORACLE_SURFACES:
        for trunc in range(1, 6 if genus == 2 else 7):
            yield genus, boundary, trunc


def _raised_primitive(rng, sig, trunc, name):
    """A random Lie element with every term heavier than `name`."""
    p = helpers.random_primitive(rng, sig, trunc, nterms=4, max_depth=4)
    for d in range(1, sig.weight(name) + 1):
        p = p - p.homogeneous_component(d)
    return p


def _assert_same_inverse(theta):
    new, old = invert_expansion(theta), old_invert_expansion(theta)
    for name in theta.sig.gens:
        assert new.image(name) == old.image(name), (theta, name)


class TestSolverOracles:
    @pytest.mark.parametrize("genus,boundary,trunc", list(_oracle_cases()))
    def test_solve_and_inverse_match_old_code(self, genus, boundary, trunc):
        theta = solve_symplectic(genus, boundary - 1, trunc)
        old = old_solve_symplectic(genus, boundary - 1, trunc)
        assert theta.logs == old.logs
        _assert_same_inverse(theta)

    def test_inverse_of_non_symplectic_expansions_matches_old_code(self):
        rng = random.Random(ORACLE_SEED)
        moved_cases = 0
        for genus, boundary, trunc in _oracle_cases():
            theta = default_expansion(SurfaceSpec(genus, boundary), trunc)
            # random primitive higher-degree drift on a random subset
            drift = {base: theta.logs[base] + _raised_primitive(
                         rng, theta.sig, trunc, tensor_letter(base))
                     for base in theta.spec.generators()
                     if rng.random() < 0.7}
            moved = theta.with_logs(drift)
            moved_cases += moved.logs != theta.logs
            _assert_same_inverse(moved)
        assert moved_cases >= 15
        for trunc in range(1, 7):
            base = solve_symplectic(1, 0, trunc)
            _assert_same_inverse(
                compose_automorphism(_omega_fixing_automorphism(trunc), base))

    def test_non_graded_identity_is_a_value_error(self):
        spec = SurfaceSpec(1, 2)
        theta = default_expansion(spec, 4)
        x = theta.logs["a1"]
        for skewed in ({"a1": x.scaled(2)}, {"a1": x + theta.logs["b1"]}):
            for invert in (invert_expansion, old_invert_expansion):
                with pytest.raises(ValueError, match="graded-identity"):
                    invert(theta.with_logs(skewed))


class TestInversion:
    def test_round_trip_on_solved_expansion(self):
        theta = solve_symplectic(1, 0, 4)
        phi = invert_expansion(theta)
        sig = theta.sig
        for name in sig.gens:
            img = phi.image(name)
            lead = img.homogeneous_component(sig.weight(name))
            assert lead == TensorSeries.generator(sig, 4, name)

    def test_identity_expansion_inverts_to_identity(self):
        spec = SurfaceSpec(1, 1)
        theta = default_expansion(spec, 4)
        phi = invert_expansion(theta)
        for name in theta.sig.gens:
            assert phi.image(name) == TensorSeries.generator(theta.sig, 4, name)

    def test_kvi_certificate_passes_for_solved_expansion(self):
        theta = solve_symplectic(1, 0, 4)
        report = kvi_check(invert_expansion(theta))
        assert report["passed"]
        assert report["omega_image_matches"]
        assert report["gr_identity"]
        assert report["zk_conjugators"] == []
        assert report["checked_to_degree"] == 4

    def test_kvi_certificate_with_puncture(self):
        theta = solve_symplectic(1, 1, 4)
        report = kvi_check(invert_expansion(theta))
        assert report["passed"]
        assert len(report["zk_conjugators"]) == 1
        assert report["zk_conjugators"][0] is not None

    def test_kvi_fails_for_default_expansion(self):
        spec = SurfaceSpec(1, 1)
        phi = invert_expansion(default_expansion(spec, 4))
        report = kvi_check(phi)
        assert not report["omega_image_matches"]
        assert not report["passed"]

    def test_torsor_transition_is_graded_identity(self):
        sig = GenSignature(1, 0)
        theta1 = solve_symplectic(1, 0, 4)
        theta2 = compose_automorphism(_omega_fixing_automorphism(4), theta1)
        phi1 = invert_expansion(theta1)
        psi2 = _substitution_of(theta2)
        moved = False
        for name in sig.gens:
            transported = psi2.apply(phi1.image(name))
            drift = transported - TensorSeries.generator(sig, 4, name)
            low = drift.valuation()
            assert low is None or low > sig.weight(name)
            moved = moved or not drift.is_zero()
        assert moved
        # both expansions pass the certificate
        assert kvi_check(invert_expansion(theta2))["passed"]


def _multidegree(word):
    counts = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
    return tuple(sorted(counts.items()))


def _solve_bracket_block(rhs, z, degree):
    """Oracle: the linear solve over right-normed brackets that the closed
    form replaced.  Primitive h with [h, z] = rhs, or None."""
    sig, trunc = rhs.sig, rhs.trunc
    z_letter = next(iter(z.items()))[0][0]
    blocks = {}
    for word, coeff in rhs.items():
        blocks.setdefault(_multidegree(word), {})[word] = coeff
    result = TensorSeries.zero(sig, trunc)
    for mdeg, wanted in blocks.items():
        counts = dict(mdeg)
        if counts.get(z_letter, 0) < 1:
            return None
        counts[z_letter] -= 1
        columns = []
        usable = []
        for w in _words_of_multidegree(counts):
            bracket = lie_bracket(right_normed(sig, trunc, w), z)
            if bracket.is_zero():
                continue
            columns.append(bracket)
            usable.append(w)
        rows = sorted(set(wanted) | {word for col in columns
                                     for word, _ in col.items()})
        matrix = [[col.coefficient(word) for col in columns] for word in rows]
        rhs_vec = [wanted.get(word, Fraction(0)) for word in rows]
        solution = linear_solve(matrix, rhs_vec)
        if solution is None:
            return None
        for w, c in zip(usable, solution):
            if c:
                result = result + right_normed(sig, trunc, w).scaled(c)
    return result


def _words_of_multidegree(counts):
    """Words with the given letter counts, each once, in lexicographic order."""
    letters = sorted([l for l, c in counts.items() if c > 0])
    if not letters:
        yield ()
        return
    for letter in letters:
        rest = dict(counts)
        rest[letter] -= 1
        for suffix in _words_of_multidegree(rest):
            yield (letter,) + suffix


class TestConjugator:
    SIGNATURES = ((1, 1), (2, 1), (1, 2), (0, 2), (0, 3), (2, 2))

    def _cases(self, rng, count):
        """count nonzero (rhs, z name, kind), rhs one weight block as
        _extract_conjugator passes it; kinds rotate through a Lie h, a
        non-Lie h, and a Lie h plus one stray word."""
        i = 0
        while i < count:
            sig = GenSignature(*self.SIGNATURES[i % len(self.SIGNATURES)])
            trunc = rng.randint(3 if sig.genus else 4, 6)
            name = "z%d" % rng.randint(1, sig.punctures)
            z = TensorSeries.generator(sig, trunc, name)
            kind = ("lie", "non-lie", "stray")[i % 3]
            if kind == "non-lie":
                h = helpers.random_series(rng, sig, trunc, with_constant=False)
            else:
                h = helpers.random_primitive(rng, sig, trunc,
                                             max_depth=trunc - 2)
            rhs = lie_bracket(h, z)
            degrees = sorted({sig.degree(w) for w, _ in rhs.items()})
            degree = rng.choice(degrees or [trunc])
            if kind == "stray":
                word, left = [], degree
                while left:
                    word.append(rng.choice([g for g in sig.gens
                                            if sig.weight(g) <= left]))
                    left -= sig.weight(word[-1])
                rhs = rhs + TensorSeries.from_terms(
                    sig, trunc, [(word, helpers.random_coeff(rng))])
            rhs = rhs.homogeneous_component(degree)
            if not rhs.is_zero():
                i += 1
                yield rhs, name, kind

    def test_closed_form_matches_the_linear_solve(self):
        rng = random.Random(2024)
        seen = {}
        for rhs, name, kind in self._cases(rng, 2000):
            z = TensorSeries.generator(rhs.sig, rhs.trunc, name)
            old = _solve_bracket_block(rhs, z, rhs.valuation())
            new = _bracket_preimage(rhs, name)
            if old is not None:
                assert new == old, (rhs, name)
            if new is not None:
                assert lie_bracket(new, z) == rhs, (rhs, name)
            outcome = ("solved" if old is not None
                       else "none" if new is None else "non-lie")
            seen[kind, outcome] = seen.get((kind, outcome), 0) + 1
        # each kind of right-hand side reaches the outcome it should
        assert seen[("lie", "solved")] == 667         # every Lie case
        assert seen[("non-lie", "non-lie")] > 100
        assert seen[("stray", "none")] > 600
        assert all(outcome != "non-lie" or kind == "non-lie"
                   for kind, outcome in seen)

    def test_trailing_powers_of_z(self):
        sig = GenSignature(1, 1)
        x = TensorSeries.generator(sig, 7, "x1")
        z = TensorSeries.generator(sig, 7, "z1")
        h = lie_bracket(lie_bracket(x, z), z)       # ends in z z
        assert _bracket_preimage(lie_bracket(h, z), "z1") == h

    def test_pure_powers_of_z_have_no_preimage(self):
        sig = GenSignature(0, 2)
        z = TensorSeries.generator(sig, 6, "z1")
        assert _bracket_preimage(z * z, "z1") is None
        assert _bracket_preimage(z * z * z, "z1") is None

    def test_non_primitive_conjugation_gives_a_null_conjugator(self):
        sig = GenSignature(1, 1)
        trunc = 6
        images = {name: TensorSeries.generator(sig, trunc, name)
                  for name in sig.gens}
        h = series(sig, trunc, (("x1", "y1"), 1))         # not primitive
        images["z1"] = ad_exp(powers(h), images["z1"])
        phi = AlgebraMap(sig, trunc, images)
        g = _extract_conjugator(phi, 1)
        # the closed form finds the conjugator; group-likeness rejects it
        assert g == exp(h)
        assert not is_group_like(g)
        report = kvi_check(phi)
        assert report["zk_conjugators"] == [None]
        assert not report["passed"]


class TestGradedIdentity:
    def test_higher_terms_pass_and_same_weight_terms_fail(self):
        sig = GenSignature(1, 1)
        x = TensorSeries.generator(sig, 4, "x1")
        y = TensorSeries.generator(sig, 4, "y1")
        assert _graded_identity(x, "x1")
        assert _graded_identity(x + lie_bracket(x, y), "x1")
        assert not _graded_identity(x + y, "x1")
        assert not _graded_identity(x.scaled(2), "x1")
        assert not _graded_identity(TensorSeries.zero(sig, 4), "x1")
        assert not _graded_identity(lie_bracket(x, y), "x1")

    def test_generator_past_the_truncation(self):
        sig = GenSignature(1, 1)
        zero = TensorSeries.zero(sig, 1)
        assert _graded_identity(zero, "z1")
        assert not _graded_identity(
            TensorSeries.generator(sig, 1, "x1"), "z1")

    def test_kvi_graded_identity_rejects_a_same_weight_drift(self):
        sig = GenSignature(1, 0)
        x = TensorSeries.generator(sig, 4, "x1")
        y = TensorSeries.generator(sig, 4, "y1")
        report = kvi_check(AlgebraMap(sig, 4, {"x1": x + y, "y1": y}))
        assert not report["gr_identity"]
        assert not report["passed"]


class TestAdamsSeries:
    def test_homogeneous_scaling(self):
        sig = GenSignature(1, 0)
        x = TensorSeries.generator(sig, 4, "x1")
        for n in (0, 1, 2, 3, -1):
            for k in (0, 1, 2, 3):
                assert adams_series_check(n, x, k)

    def test_inhomogeneous_primitive(self):
        sig = GenSignature(1, 0)
        x = TensorSeries.generator(sig, 4, "x1")
        y = TensorSeries.generator(sig, 4, "y1")
        p = x + lie_bracket(x, y)
        assert adams_series_check(2, p, 2)

    def test_rejects_non_primitive(self):
        sig = GenSignature(1, 0)
        x = TensorSeries.generator(sig, 4, "x1")
        with pytest.raises(ValueError):
            adams_series_check(2, x * x, 2)


class TestWeightSplit:
    def test_reassembly(self):
        sig = GenSignature(1, 1)
        rng = random.Random(5)
        for _ in range(6):
            s = helpers.random_series(rng, sig, 5)
            parts = helpers.weight_split(s)
            total = TensorSeries.zero(sig, 5)
            for d, part in parts.items():
                assert part.homogeneous_component(d) == part
                total = total + part
            assert total == s


class TestAdExp:
    def test_conjugation_matches_group_side(self):
        sig = GenSignature(1, 1)
        x = TensorSeries.generator(sig, 5, "x1")
        z = TensorSeries.generator(sig, 5, "z1")
        lhs = exp(ad_exp(powers(x), z))
        rhs = exp(x) * exp(z) * exp(x.scaled(-1))
        assert lhs == rhs


class TestResolution:
    def test_torus_algebra(self):
        report = resolution_check(1, 4)
        assert report["passed"]
        assert report["dims"][:5] == [1, 2, 3, 4, 5]
        assert all(row["composite_zero"] for row in report["rows"])
        assert all(row["rank_cross_checked"] for row in report["rows"])

    def test_genus_two(self):
        report = resolution_check(2, 2)
        assert report["passed"]
        assert report["dims"][:4] == [1, 4, 15, 56]

    def test_genus_three_small(self):
        report = resolution_check(3, 1)
        assert report["passed"]
        assert report["dims"][:3] == [1, 6, 35]

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            resolution_check(0, 2)

    def test_rejects_negative_degree(self):
        # a certificate over zero degrees would pass vacuously
        with pytest.raises(ValueError, match="max degree"):
            resolution_check(1, -1)

    def test_rejects_genus_past_the_encoding(self):
        # one character per generator, b_g being the last, chr(64 + 2g):
        # b_557023 is chr(0x10FFFE), and one genus more has no character
        from goldman_forge.magnus import _rewrite_rule
        for genus in (1, 2, 7):
            assert _rewrite_rule(genus)[0][-1] == chr(64 + 2 * genus)
        assert chr(64 + 2 * 557023) == chr(0x10FFFE)
        with pytest.raises(ValueError, match="chr"):
            chr(64 + 2 * 557024)
        for genus in (557024, 600000, 10 ** 9):
            with pytest.raises(ValueError) as err:
                resolution_check(genus, 0)
            assert str(err.value) == "resolution needs genus <= 557023"

    def test_peak_memory_of_genus_three(self):
        # the sweep streams its level and the injectivity images sit in
        # one table: about 1.5 MiB traced; listing the swept degree-6
        # level whole would take 3.7 MiB
        import tracemalloc
        tracemalloc.start()
        try:
            assert resolution_check(3, 5)["passed"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20, peak

    def test_normal_words_are_lazy_and_lexicographic(self):
        # extending the words of one length level by level, starting from
        # the empty word, must list exactly the words avoiding the
        # leading factor, in the order of a filtered itertools.product
        # (over the generator names, through the table in helpers)
        from goldman_forge.magnus import _extend, _rewrite_rule
        for genus in (1, 2, 3):
            letters = [name for i in range(1, genus + 1)
                       for name in ("a%d" % i, "b%d" % i)]
            lead = ("b%d" % genus, "a%d" % genus)
            chars, char_lead, _ = _rewrite_rule(genus)
            assert chars == helpers.encode_word(letters)
            assert char_lead == helpers.encode_word(lead)
            # lazy: an iterator, which reads its input only as it goes
            endless = _extend(itertools.repeat(char_lead[0]), chars,
                              char_lead)
            assert iter(endless) is endless
            assert len(list(itertools.islice(endless, 5 * len(chars)))) \
                == 5 * len(chars)
            words = [""]
            for length in range(5):
                if length:
                    words = _extend(words, chars, char_lead)
                    assert iter(words) is words
                    words = list(words)
                expected = [w for w in itertools.product(letters,
                                                         repeat=length)
                            if all(w[p:p + 2] != lead
                                   for p in range(length - 1))]
                assert [helpers.decode_word(w) for w in words] == expected


class TestBchRightSide:
    def test_lowest_terms(self):
        # the commutator product starts at the symplectic element itself
        sig = GenSignature(1, 0)
        got = bch_right_side(sig, 2)
        x = TensorSeries.generator(sig, 2, "x1")
        y = TensorSeries.generator(sig, 2, "y1")
        assert got == lie_bracket(x, y)
        assert bch_right_side(sig, 4) != omega(sig, 4)

    def test_puncture_letters_append(self):
        sig = GenSignature(0, 2)
        got = bch_right_side(sig, 4)
        z1 = TensorSeries.generator(sig, 4, "z1")
        z2 = TensorSeries.generator(sig, 4, "z2")
        expect = log(exp(z1) * exp(z2))
        assert got == expect
