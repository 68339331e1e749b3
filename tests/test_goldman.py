"""Tests for the surgery engine and its derived operations.

The (1,1) single-crossing values are the pinned anchors of the sign
convention; they were derived by hand from the vertex cyclic order
[a1+, t0, b1+, a1-, b1-] and the ccw frame rule, and every other
sign-sensitive expectation in the suite is relative to them.
"""

import random
from fractions import Fraction

import pytest

from goldman_forge.goldman import (
    LoopSum,
    PathPairSum,
    PathSum,
    adams,
    bi_pairing,
    crossing_trace,
    dehn_twist,
    expand_loop_sum,
    expand_path_sum,
    goldman_bracket,
    kk_action,
    kk_derivation,
    twist_curve_names,
    twist_derivation,
)
from goldman_forge.magnus import (
    CyclicSeries,
    default_expansion,
    expand_class,
)
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    Path,
    SurfaceSpec,
    boundary_word,
    cyclic_normal_form,
    parse_word,
)
from goldman_forge.tensoralg import derivation_exp, log
from helpers import log_class

TORUS = SurfaceSpec(1, 1)


def loop(spec, text, coeff=1, twist=0):
    return LoopSum(spec, [(cyclic_normal_form(parse_word(text)), coeff)],
                   twist)


def based(spec, text, tag=0):
    return PathSum.of(spec, Path(tag, tag, parse_word(text)))


def random_word(rng, spec, max_len, min_len=1):
    gens = spec.generators()
    n = rng.randrange(min_len, max_len + 1)
    return FreeWord([(rng.choice(gens), rng.choice((1, -1)))
                     for _ in range(n)]).reduce()


class TestSumTypes:
    def test_zero_coefficients_pruned(self):
        u = loop(TORUS, "a1") + loop(TORUS, "a1", -1)
        assert u.is_zero()
        assert u.terms == {}

    def test_twist_mismatch_rejected(self):
        u = loop(TORUS, "a1", twist=0)
        v = loop(TORUS, "a1", twist=1)
        with pytest.raises(ValueError):
            u + v

    def test_surface_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loop(TORUS, "a1") + loop(SurfaceSpec(1, 2), "a1")
        with pytest.raises(ValueError):
            goldman_bracket(loop(TORUS, "a1"), loop(SurfaceSpec(1, 2), "a1"))

    def test_class_keys_are_canonical(self):
        u = LoopSum.of(TORUS, parse_word("b1 a1"))
        v = LoopSum.of(TORUS, parse_word("a1 b1"))
        assert u == v

    def test_reduced_kills_augmentation(self):
        u = loop(TORUS, "a1", Fraction(3, 2)) + loop(TORUS, "1", Fraction(1, 2))
        r = u.reduced()
        assert r.augmentation() == 0
        assert r.terms[cyclic_normal_form(parse_word("a1"))] == Fraction(3, 2)

    def test_path_sum_endpoint_guard(self):
        ps = PathSum(TORUS, 0, 0)
        with pytest.raises(ValueError):
            ps.add_term(Path(0, 1, FreeWord()), 1)

    def test_json_shapes(self):
        u = loop(TORUS, "a1 b1'") + loop(TORUS, "a1", 2)
        data = u.to_json()
        assert data["surface"] == {"genus": 1, "boundary": 1}
        assert data["terms"][0] == {"word": "a1", "coeff": "2"}
        p = based(TORUS, "b1")
        pd = kk_action(loop(TORUS, "a1"), p).to_json()
        assert pd["from"] == 0 and pd["to"] == 0 and pd["twist"] == 1
        assert pd["terms"] == [{"word": "b1 a1", "coeff": "1"}]

    def test_sorted_terms_deterministic(self):
        u = loop(TORUS, "b1") + loop(TORUS, "a1") + loop(TORUS, "a1 b1")
        words = [str(cls) for cls, _ in u.sorted_terms()]
        assert words == ["a1", "b1", "a1 b1"]


class TestBracketAnchors:
    def test_dual_generators(self):
        out = goldman_bracket(loop(TORUS, "a1"), loop(TORUS, "b1"))
        assert out == loop(TORUS, "a1 b1", 1, twist=1)

    def test_inverse_flips_sign(self):
        out = goldman_bracket(loop(TORUS, "a1"), loop(TORUS, "b1'"))
        assert out == loop(TORUS, "a1 b1'", -1, twist=1)

    def test_self_bracket_vanishes(self):
        assert goldman_bracket(loop(TORUS, "a1"), loop(TORUS, "a1")).is_zero()
        w = loop(TORUS, "a1 b1 a1'")
        assert goldman_bracket(w, w).is_zero()

    def test_trivial_class_is_central(self):
        one = loop(TORUS, "1")
        assert goldman_bracket(one, loop(TORUS, "b1")).is_zero()

    def test_twist_bookkeeping(self):
        u = loop(TORUS, "a1", twist=2)
        v = loop(TORUS, "b1", twist=5)
        assert goldman_bracket(u, v).twist == 8


class TestBracketProperties:
    @pytest.mark.parametrize("g,b", [(1, 1), (0, 3), (1, 2)])
    def test_antisymmetry_sweep(self, g, b):
        spec = SurfaceSpec(g, b)
        rng = random.Random(100 * g + b)
        for _ in range(25):
            u = LoopSum.of(spec, random_word(rng, spec, 5))
            v = LoopSum.of(spec, random_word(rng, spec, 5))
            assert (goldman_bracket(u, v) + goldman_bracket(v, u)).is_zero()

    @pytest.mark.parametrize("g,b", [(1, 1), (0, 3)])
    def test_jacobi_sweep(self, g, b):
        spec = SurfaceSpec(g, b)
        rng = random.Random(17 + g + b)
        for _ in range(12):
            u = LoopSum.of(spec, random_word(rng, spec, 4))
            v = LoopSum.of(spec, random_word(rng, spec, 4))
            w = LoopSum.of(spec, random_word(rng, spec, 4))
            total = goldman_bracket(u, goldman_bracket(v, w))
            total = total + goldman_bracket(v, goldman_bracket(w, u))
            total = total + goldman_bracket(w, goldman_bracket(u, v))
            assert total.is_zero(), (u, v, w)

    def test_bilinearity(self):
        rng = random.Random(3)
        u = LoopSum.of(TORUS, random_word(rng, TORUS, 4), Fraction(2, 3))
        u2 = LoopSum.of(TORUS, random_word(rng, TORUS, 4), Fraction(-1, 2))
        v = LoopSum.of(TORUS, random_word(rng, TORUS, 4))
        lhs = goldman_bracket(u + u2, v)
        rhs = goldman_bracket(u, v) + goldman_bracket(u2, v)
        assert lhs == rhs

    def test_boundary_class_brackets_to_zero(self):
        for spec in (TORUS, SurfaceSpec(2, 1), SurfaceSpec(1, 2)):
            g0 = LoopSum.of(spec, boundary_word(spec))
            rng = random.Random(8)
            for _ in range(8):
                v = LoopSum.of(spec, random_word(rng, spec, 5))
                assert goldman_bracket(g0, v).is_zero(), (spec, v)

    def test_perturbation_independence(self):
        rng = random.Random(21)
        for _ in range(25):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 5))
            v = LoopSum.of(TORUS, random_word(rng, TORUS, 5))
            assert goldman_bracket(u, v) == goldman_bracket(
                u, v, convention="reversed")


class TestActionAnchors:
    def test_single_crossing_insertion(self):
        out = kk_action(loop(TORUS, "a1"), based(TORUS, "b1"))
        expect = PathSum(TORUS, 0, 0,
                         [(Path(0, 0, parse_word("b1 a1")), 1)], twist=1)
        assert out == expect

    def test_opposite_orientation(self):
        out = kk_action(loop(TORUS, "b1"), based(TORUS, "a1"))
        expect = PathSum(TORUS, 0, 0,
                         [(Path(0, 0, parse_word("a1 b1")), -1)], twist=1)
        assert out == expect

    def test_product_rule_instance(self):
        out = kk_action(loop(TORUS, "a1"), based(TORUS, "b1 b1"))
        expect = PathSum(TORUS, 0, 0,
                         [(Path(0, 0, parse_word("b1 a1 b1")), 1),
                          (Path(0, 0, parse_word("b1 b1 a1")), 1)], twist=1)
        assert out == expect

    def test_trivial_class_acts_as_zero(self):
        assert kk_action(loop(TORUS, "1"), based(TORUS, "b1 a1")).is_zero()

    def test_identity_path_maps_to_zero(self):
        out = kk_action(loop(TORUS, "a1"), based(TORUS, "1"))
        assert out.is_zero()


class TestActionProperties:
    def test_leibniz_sweep(self):
        rng = random.Random(31)
        for _ in range(20):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 4))
            g = Path(0, 0, random_word(rng, TORUS, 4, min_len=0))
            m = Path(0, 0, random_word(rng, TORUS, 4, min_len=0))
            lhs = kk_action(u, PathSum.of(TORUS, g.compose(m)))
            rhs = PathSum(TORUS, 0, 0, twist=lhs.twist)
            for p, c in kk_action(u, PathSum.of(TORUS, g)).terms.items():
                rhs.add_term(p.compose(m), c)
            for p, c in kk_action(u, PathSum.of(TORUS, m)).terms.items():
                rhs.add_term(g.compose(p), c)
            assert lhs == rhs, (u, g, m)

    def test_based_boundary_is_invisible(self):
        # the boundary word based at the tail draws parallel to the
        # boundary face: every loop crosses it in cancelling pairs
        for spec in (TORUS, SurfaceSpec(1, 2), SurfaceSpec(0, 3)):
            sigma = PathSum.of(spec, Path(0, 0, boundary_word(spec)))
            rng = random.Random(spec.genus * 7 + spec.boundary)
            for _ in range(10):
                u = LoopSum.of(spec, random_word(rng, spec, 5))
                assert kk_action(u, sigma).is_zero(), (spec, u)

    def test_boundary_class_acts_by_commutator(self):
        # not zero: the boundary CLASS acts on based paths as the inner
        # derivation gamma -> gamma sigma - sigma gamma
        g0 = LoopSum.of(TORUS, boundary_word(TORUS))
        sigma = boundary_word(TORUS)
        rng = random.Random(12)
        for _ in range(10):
            w = random_word(rng, TORUS, 4)
            out = kk_action(g0, PathSum.of(TORUS, Path(0, 0, w)))
            expect = PathSum(TORUS, 0, 0, twist=1)
            expect.add_term(Path(0, 0, w * sigma), 1)
            expect.add_term(Path(0, 0, sigma * w), -1)
            assert out == expect, w

    def test_cross_tag_paths(self):
        spec = SurfaceSpec(1, 2)
        u = LoopSum.of(spec, parse_word("a1"))
        g = PathSum.of(spec, Path(0, 1, parse_word("b1")))
        out = kk_action(u, g)
        assert out.from_tag == 0 and out.to_tag == 1
        for path in out.terms:
            assert path.from_tag == 0 and path.to_tag == 1

    def test_perturbation_independence(self):
        rng = random.Random(41)
        for _ in range(20):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 5))
            g = based(TORUS, "")
            g = PathSum.of(TORUS, Path(0, 0, random_word(rng, TORUS, 4,
                                                         min_len=0)))
            assert kk_action(u, g) == kk_action(u, g, convention="reversed")


class TestBiPairing:
    SPEC = SurfaceSpec(0, 4)

    def test_crossing_corridors(self):
        # hand-derived: vertex order [c1+, t0, c3-, t3, c3+, c2-, t2,
        # c2+, c1-, t1]; the bare corridors 0->2 and 1->3 cross once and
        # the ccw rule reads off -1
        g1 = PathSum.of(self.SPEC, Path(0, 2, FreeWord()))
        g2 = PathSum.of(self.SPEC, Path(1, 3, FreeWord()))
        out = bi_pairing(g1, g2)
        expect = PathPairSum(self.SPEC, twist=1)
        expect.add_term((Path(0, 3, FreeWord()), Path(1, 2, FreeWord())), -1)
        assert out == expect

    def test_corridor_with_letter(self):
        # second hand-derived value: the c3-inverse corridor 1->3 still
        # crosses the bare 0->2 corridor exactly once, on its first leg
        g1 = PathSum.of(self.SPEC, Path(0, 2, FreeWord()))
        g2 = PathSum.of(self.SPEC, Path(1, 3, parse_word("c3'")))
        out = bi_pairing(g1, g2)
        expect = PathPairSum(self.SPEC, twist=1)
        expect.add_term((Path(0, 3, parse_word("c3'")),
                         Path(1, 2, FreeWord())), -1)
        assert out == expect

    def test_disjoint_corridors(self):
        g1 = PathSum.of(self.SPEC, Path(0, 2, FreeWord()))
        g2 = PathSum.of(self.SPEC, Path(1, 3, parse_word("c2")))
        assert bi_pairing(g1, g2).is_zero()

    def test_bilinearity_and_twist(self):
        g1 = PathSum.of(self.SPEC, Path(0, 2, FreeWord()))
        g2 = PathSum.of(self.SPEC, Path(1, 3, FreeWord()))
        assert bi_pairing(g1.scaled(2), g2) == bi_pairing(g1, g2).scaled(2)
        assert bi_pairing(g1, g2).twist == 1

    def test_shared_tags_rejected(self):
        g1 = PathSum.of(self.SPEC, Path(0, 2, FreeWord()))
        g2 = PathSum.of(self.SPEC, Path(2, 3, FreeWord()))
        with pytest.raises(ValueError):
            bi_pairing(g1, g2)

    def test_perturbation_independence(self):
        spec = SurfaceSpec(1, 3)
        rng = random.Random(9)
        for _ in range(12):
            g1 = PathSum.of(spec, Path(0, 1, random_word(rng, spec, 3,
                                                         min_len=0)))
            g2 = PathSum.of(spec, Path(2, 2, random_word(rng, spec, 3,
                                                         min_len=0)))
            assert bi_pairing(g1, g2) == bi_pairing(g1, g2,
                                                    convention="reversed")


class TestSumsCheckTheirSurface:
    """A path sum's tags and the words given to LoopSum.of and PathSum.of
    must belong to the surface: a one-line ValueError names the fault,
    instead of a KeyError from the chord drawing."""

    SPEC = SurfaceSpec(1, 3)

    @pytest.mark.parametrize("tags", [(0, 3), (7, 0), (-1, 1), ("0", 1),
                                      (0, None)])
    def test_tags_outside_the_surface(self, tags):
        with pytest.raises(ValueError, match="boundary tags 0..2") as err:
            PathSum(self.SPEC, *tags)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match="boundary tags"):
            PathSum.of(self.SPEC, Path(*tags, FreeWord()))

    @pytest.mark.parametrize("text", ["a2", "b1 c3", "c1 a1' c9"])
    def test_letters_outside_the_surface(self, text):
        word = parse_word(text)
        for make in (lambda: LoopSum.of(self.SPEC, word),
                     lambda: PathSum.of(self.SPEC, Path(0, 1, word))):
            with pytest.raises(ValueError, match="not a generator") as err:
                make()
            assert "\n" not in str(err.value)

    def test_surgeries_on_checked_sums(self):
        u = LoopSum.of(self.SPEC, parse_word("a1"))
        with pytest.raises(ValueError, match="boundary tags"):
            kk_action(u, PathSum.of(self.SPEC, Path(0, 7, parse_word("b1"))))
        g1 = PathSum.of(self.SPEC, Path(0, 1, parse_word("b1")))
        with pytest.raises(ValueError, match="boundary tags"):
            bi_pairing(g1, PathSum.of(self.SPEC, Path(2, 3, FreeWord())))
        # every tag and letter of the surface is still accepted
        for s, t in [(0, 2), (2, 1), (1, 1)]:
            gamma = PathSum.of(self.SPEC, Path(s, t, parse_word("c2 a1'")))
            assert kk_action(u, gamma).from_tag == s
        assert PathSum(self.SPEC, 2, 0).is_zero()

    # every way a sum takes a term from outside: (name, build(spec, word))
    BUILDERS = [
        ("LoopSum.of", lambda spec, w: LoopSum.of(spec, w)),
        ("LoopSum", lambda spec, w: LoopSum(spec, {cyclic_normal_form(w): 1})),
        ("LoopSum.add_term", lambda spec, w: LoopSum(spec).add_term(
            cyclic_normal_form(w), 2)),
        ("PathSum.of", lambda spec, w: PathSum.of(spec, Path(0, 0, w))),
        ("PathSum", lambda spec, w: PathSum(spec, 0, 0, {Path(0, 0, w): 1})),
        ("PathSum.add_term", lambda spec, w: PathSum(spec, 0, 0).add_term(
            Path(0, 0, w), 3)),
    ]
    WIDE = SurfaceSpec(44, 1)   # a44 and b44 have no byte key
    # (surface, word, its one foreign letter); byte keys, then tuple keys
    FOREIGN = [(SPEC, "a2", "a2"), (SPEC, "b1 c3", "c3"),
               (SPEC, "c1 a43'", "a43"), (SPEC, "a1 a44'", "a44"),
               (WIDE, "c1 a3", "c1"), (WIDE, "a44 c1'", "c1"),
               (WIDE, "a45 b1", "a45"), (WIDE, "b44 t1", "t1")]

    @pytest.mark.parametrize("build", [b for _, b in BUILDERS],
                             ids=[name for name, _ in BUILDERS])
    @pytest.mark.parametrize("spec, text, letter", FOREIGN)
    def test_each_builder_rejects_each_foreign_letter(self, build, spec,
                                                      text, letter):
        word = FreeWord([(base.rstrip("'"), -1 if base.endswith("'") else 1)
                         for base in text.split()])
        with pytest.raises(ValueError) as err:
            build(spec, word)
        assert str(err.value) == \
            "letter %s is not a generator of this surface" % letter

    def test_a_foreign_letter_that_cancels_is_rejected(self):
        with pytest.raises(ValueError, match="letter a2 is not"):
            LoopSum.of(self.SPEC, parse_word("b1 a2 a2'"))
        with pytest.raises(ValueError, match="letter a45 is not"):
            LoopSum.of(self.WIDE, parse_word("a44 a45 a45'"))

    def test_valid_sums_are_unchanged(self, monkeypatch):
        for spec, text in ((self.SPEC, "c2 a1' b1"), (self.WIDE, "a44 b3'"),
                           (self.WIDE, "")):
            word = parse_word(text)
            cls, path = cyclic_normal_form(word), Path(0, 0, word)
            loops = [build(spec, word) for name, build in self.BUILDERS
                     if name.startswith("Loop")]
            paths = [build(spec, word) for name, build in self.BUILDERS
                     if name.startswith("Path")]
            assert [u.terms for u in loops[:2]] == [{cls: 1}, {cls: 1}]
            assert [g.terms for g in paths[:2]] == [{path: 1}, {path: 1}]
            u, gamma = loops[0], paths[0]
            calls = []
            monkeypatch.setattr(SurfaceSpec, "validate_word",
                                lambda self, word: calls.append(word))
            # sums built from admitted terms take them unchecked
            for derived in (u + u, u - u, u.scaled(2), u.copy(),
                            u.with_totals(1, [(cls, 5)]), adams(2, u),
                            gamma + gamma, gamma.scaled(-1)):
                assert derived.spec == spec
            assert calls == []
            monkeypatch.undo()


class TestKkDerivation:
    def test_trivial_class_gives_zero(self):
        d = kk_derivation(loop(TORUS, "1"), 3)
        for name in d.sig.gens:
            assert d.image(name).is_zero()

    def test_generator_consistency(self):
        # the derivation lowers degree, so the top slot of a truncated
        # computation is starved; work one order higher and compare below
        n = 3
        theta = default_expansion(TORUS, n + 1)
        rng = random.Random(2)
        for _ in range(4):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 3))
            d = kk_derivation(u, n + 1)
            for base in TORUS.generators():
                acted = kk_action(u, based(TORUS, base))
                got = d.apply(theta.image(base)).truncated(n)
                assert got == expand_path_sum(acted, theta).truncated(n)

    def test_vanishes_on_boundary_logarithm(self):
        n = 4
        theta = default_expansion(TORUS, n)
        target = log(theta.expand_word(boundary_word(TORUS)))
        rng = random.Random(6)
        for _ in range(6):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 4))
            d = kk_derivation(u, n)
            assert d.apply(target).is_zero(), u

    def test_boundary_class_derivation_is_inner_not_zero(self):
        d = kk_derivation(LoopSum.of(TORUS, boundary_word(TORUS)), 4)
        assert any(not d.image(name).is_zero() for name in d.sig.gens)
        theta = default_expansion(TORUS, 4)
        target = log(theta.expand_word(boundary_word(TORUS)))
        assert d.apply(target).is_zero()


class TestAdams:
    def test_identity_and_squares(self):
        u = loop(TORUS, "a1 b1")
        assert adams(1, u) == u
        sq = adams(2, u)
        assert sq == loop(TORUS, "a1 b1 a1 b1")

    def test_zero_power_hits_unit(self):
        u = loop(TORUS, "a1 b1", Fraction(5, 2))
        out = adams(0, u)
        assert out == loop(TORUS, "1", Fraction(5, 2))

    def test_composition_law(self):
        rng = random.Random(14)
        for _ in range(10):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 4))
            assert adams(2, adams(3, u)) == adams(6, u)
            assert adams(3, adams(2, u)) == adams(6, u)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            adams(-1, loop(TORUS, "a1"))

    def test_powers_match_recanonicalised_powers(self):
        # adams takes cls.word * n as canonical (the n-th power of a least
        # rotation is a least rotation); the replaced code ran
        # cyclic_normal_form on every power
        def old_adams(n, u):
            out = LoopSum(u.spec, twist=u.twist)
            for cls, coeff in u.terms.items():
                out.add_term(cyclic_normal_form(cls.word * n), coeff)
            return out

        for spec in (TORUS, SurfaceSpec(2, 1), SurfaceSpec(1, 2),
                     SurfaceSpec(0, 3), SurfaceSpec(2, 2)):
            rng = random.Random(7 * spec.genus + spec.boundary)
            for k in range(60):
                words = [FreeWord([])] + [random_word(rng, spec, 6, 0)
                                          for _ in range(k % 4)]
                u = LoopSum(spec, [(cyclic_normal_form(w), c)
                                   for c, w in enumerate(words, 1)],
                            twist=k % 3)
                for n in range(6):
                    got, want = adams(n, u), old_adams(n, u)
                    assert got == want and got.twist == want.twist
                    assert [c.word for c in got.terms] == \
                        [c.word for c in want.terms]
                    assert all(cyclic_normal_form(c.word) == c
                               for c in got.terms)


class TestLogClass:
    def test_single_generator(self):
        out = log_class(TORUS, cyclic_normal_form(parse_word("a1")), 3)
        expect = CyclicSeries(out.sig, 3, {("x1",): Fraction(1)})
        assert out == expect

    def test_product_class_lowest_term(self):
        out = log_class(TORUS, cyclic_normal_form(parse_word("a1 b1")), 4)
        low = out.homogeneous_component(1)
        expect = CyclicSeries(out.sig, 4, {("x1",): Fraction(1),
                                           ("y1",): Fraction(1)})
        assert low == expect

    def test_trivial_class(self):
        assert log_class(TORUS, LoopClass(()), 3).is_zero()

    def test_power_series_oracle(self):
        # independent route: log alpha = sum (-1)^(r+1)/r (alpha-1)^r
        # expanded class-by-class through binomials of power maps
        from math import comb
        n = 4
        theta = default_expansion(TORUS, n)
        rng = random.Random(23)
        for _ in range(6):
            cls = cyclic_normal_form(random_word(rng, TORUS, 3))
            direct = log_class(TORUS, cls, n)
            total = CyclicSeries(direct.sig, n)
            for r in range(1, n + 1):
                for k in range(r + 1):
                    coeff = Fraction((-1) ** (r + 1), r) * comb(r, k) \
                        * (-1) ** (r - k)
                    powered = cyclic_normal_form(FreeWord(cls.word * k))
                    total = total + expand_class(powered, theta).scaled(coeff)
            assert total == direct, cls


class TestDehnTwists:
    def test_frozen_images(self):
        assert dehn_twist(TORUS, "ta", parse_word("b1")) == parse_word("b1 a1")
        assert dehn_twist(TORUS, "ta", parse_word("a1")) == parse_word("a1")
        assert dehn_twist(TORUS, "tb", parse_word("a1")) == parse_word("a1 b1'")
        assert dehn_twist(TORUS, "tb", parse_word("b1")) == parse_word("b1")

    def test_fixes_boundary_word_exactly(self):
        for spec in (TORUS, SurfaceSpec(2, 1)):
            for curve in twist_curve_names(spec):
                got = dehn_twist(spec, curve, boundary_word(spec))
                assert got == boundary_word(spec), (spec, curve)

    def test_powers_compose(self):
        rng = random.Random(19)
        for _ in range(10):
            w = random_word(rng, TORUS, 5)
            twice = dehn_twist(TORUS, "ta", dehn_twist(TORUS, "ta", w))
            assert twice == dehn_twist(TORUS, "ta", w, power=2)
            back = dehn_twist(TORUS, "ta", dehn_twist(TORUS, "ta", w,
                                                      power=-1))
            assert back == w

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            dehn_twist(TORUS, "tc", parse_word("a1"))
        with pytest.raises(ValueError):
            dehn_twist(SurfaceSpec(0, 3), "ta", parse_word("c1"))

    def test_genus_two_names(self):
        assert twist_curve_names(SurfaceSpec(2, 1)) == ["ta1", "ta2",
                                                        "tb1", "tb2"]

    @pytest.mark.parametrize("curve", ["ta", "tb"])
    def test_twist_certificate(self, curve):
        n = 4
        theta = default_expansion(TORUS, n)
        flow = derivation_exp(twist_derivation(TORUS, curve, n))
        for base in TORUS.generators():
            got = flow.apply(theta.image(base))
            image_word = dehn_twist(TORUS, curve, FreeWord(((base, 1),)))
            assert got == theta.expand_word(image_word), (curve, base)


class TestTrace:
    def test_single_crossing_record(self):
        trace = crossing_trace(TORUS, cyclic_normal_form(parse_word("a1")),
                               Path(0, 0, parse_word("b1")))
        assert len(trace) == 1
        record = trace[0]
        assert record["sign"] == 1
        assert record["left"]["owner"] == [0, 0]
        assert record["right"]["owner"] == [1, 1]
        # the first operand's strand is the upper one at a negative dart
        assert record["left"]["in"] == ["a1-", 1]

    def test_rejects_other_operands(self):
        with pytest.raises(TypeError):
            crossing_trace(TORUS, "a1", Path(0, 0, parse_word("b1")))


def test_ribbon_is_read_once_per_surface_and_convention(monkeypatch):
    import goldman_forge.goldman as goldman
    calls = []
    real = goldman.ribbon_structure

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(goldman, "ribbon_structure", counted)
    goldman._chord_ends.cache_clear()
    u = loop(TORUS, "a1") + loop(TORUS, "b1 a1", 2) + loop(TORUS, "a1 b1'")
    v = loop(TORUS, "b1") + loop(TORUS, "a1 a1 b1", -1)
    gamma = based(TORUS, "b1") + based(TORUS, "a1 b1")
    path = PathSum.of(SurfaceSpec(0, 4), Path(0, 2))
    other = PathSum.of(SurfaceSpec(0, 4), Path(1, 3))
    for _ in range(2):
        assert not goldman_bracket(u, v).is_zero()
        assert not kk_action(u, gamma).is_zero()
        assert not bi_pairing(path, other).is_zero()
        assert not goldman_bracket(u, v, "reversed").is_zero()
    # once per new (surface, convention), not per call or pair of terms
    assert calls == [TORUS, SurfaceSpec(0, 4), TORUS]
    # the trace reads the cached table too, and the ribbon once per call
    # for the dart names
    assert crossing_trace(TORUS, cyclic_normal_form(parse_word("a1")),
                          Path(0, 0, parse_word("b1")))
    assert len(calls) == 4


class TestFiltrationShift:
    def test_bracket_spot_checks(self):
        n = 5
        theta = default_expansion(TORUS, n)
        rng = random.Random(44)
        for _ in range(6):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 4)).reduced()
            v = LoopSum.of(TORUS, random_word(rng, TORUS, 4)).reduced()
            du = expand_loop_sum(u, theta).valuation()
            dv = expand_loop_sum(v, theta).valuation()
            if du is None or dv is None:
                continue
            br = goldman_bracket(u, v)
            series = expand_loop_sum(br, theta)
            if not series.is_zero():
                assert series.valuation() >= du + dv - 2, (u, v)

    def test_action_spot_checks(self):
        n = 5
        theta = default_expansion(TORUS, n)
        rng = random.Random(45)
        for _ in range(6):
            u = LoopSum.of(TORUS, random_word(rng, TORUS, 4)).reduced()
            g = (PathSum.of(TORUS, Path(0, 0, random_word(rng, TORUS, 4)))
                 - PathSum.of(TORUS, Path(0, 0)))
            du = expand_loop_sum(u, theta).valuation()
            dg = expand_path_sum(g, theta).valuation()
            if du is None or dg is None:
                continue
            acted = kk_action(u, g)
            series = expand_path_sum(acted, theta)
            if not series.is_zero():
                assert series.valuation() >= du + dg - 2, (u, g)
