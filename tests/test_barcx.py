"""Tests for the bar-construction module.

The differential and shuffle anchors are pinned by hand on the one-handle
models; the eval_hat functions are held to exact equality with their
coefficient-extraction counterparts, which is the sign-rigid identity
that fixes every convention in the module.
"""

import itertools
import random
from fractions import Fraction

import pytest

from goldman_forge.barcx import (
    BarElement,
    DgaModel,
    bar_differential,
    chen_pairing,
    closed_model,
    dual_cs,
    eval_hat_cs,
    eval_hat_kk,
    open_model,
    parse_bar,
    shuffle_product,
)
from goldman_forge.surface import (
    FreeWord,
    SurfaceSpec,
    cyclic_normal_form,
    parse_word,
)

TORUS = SurfaceSpec(1, 1)
OM = open_model(TORUS)
CM = closed_model(1)


def random_bar(rng, model, letters, max_len):
    word = tuple(rng.choice(letters) for _ in range(rng.randrange(max_len + 1)))
    return BarElement.word(model, word)


def random_free(rng, spec, max_len, min_len=0):
    gens = spec.generators()
    n = rng.randrange(min_len, max_len + 1)
    return FreeWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                          for _ in range(n))).reduce()


class TestModels:
    def test_open_model_letters(self):
        om = open_model(SurfaceSpec(2, 3))
        assert om.letters == ["xi1", "xi2", "eta1", "eta2", "zeta1", "zeta2"]
        assert all(om.degree(letter) == 1 for letter in om.letters)
        assert om.wedge("xi1", "eta1") == {}
        # each letter is read as the generator it is dual to
        assert om.duals == {"xi1": "a1", "xi2": "a2", "eta1": "b1",
                            "eta2": "b2", "zeta1": "c1", "zeta2": "c2"}
        assert closed_model(2).duals is None

    def test_surface_model_has_one_letter_per_generator(self):
        with pytest.raises(ValueError):
            DgaModel("open", {"xi1": 1}, {}, surface=TORUS)

    def test_closed_model_products(self):
        cm = closed_model(2)
        assert cm.degree("omega") == 2
        assert cm.wedge("xi2", "eta2") == {"omega": 1}
        assert cm.wedge("eta2", "xi2") == {"omega": -1}
        assert cm.wedge("xi1", "eta2") == {}
        assert cm.wedge("xi1", "xi2") == {}

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            OM.degree("omega")
        with pytest.raises(ValueError):
            BarElement.word(OM, ("xi1", "nu2"))

    def test_genus_zero_closed_rejected(self):
        with pytest.raises(ValueError):
            closed_model(0)


class TestBarElement:
    def test_parse_and_render(self):
        e = parse_bar("[xi1|eta1]", OM)
        assert e.terms == {("xi1", "eta1"): 1}
        assert repr(e) == "<BarElement [xi1|eta1]>"
        assert parse_bar("[]", OM).terms == {(): 1}
        with pytest.raises(ValueError):
            parse_bar("xi1|eta1", OM)
        with pytest.raises(ValueError):
            parse_bar("[xi1||eta1]", OM)

    def test_arithmetic(self):
        e = parse_bar("[xi1]", OM)
        assert (e + e.scaled(-1)).is_zero()
        assert (e.scaled(Fraction(1, 2)) + e.scaled(Fraction(1, 2))) == e

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            parse_bar("[xi1]", OM) + parse_bar("[xi1]", CM)

    def test_json_deterministic(self):
        e = parse_bar("[eta1]", OM) + parse_bar("[xi1]", OM)
        assert [w for w, _ in e.sorted_terms()] == [("xi1",), ("eta1",)]
        assert repr(e) == "<BarElement [xi1] + [eta1]>"
        assert repr(e.scaled(-1)) == "<BarElement -[xi1] - [eta1]>"
        assert repr(e.scaled(0)) == "<BarElement 0>"


class TestDifferential:
    def test_open_model_kills_everything(self):
        for word in [("xi1",), ("xi1", "eta1"), ("eta1", "xi1", "xi1")]:
            assert bar_differential(BarElement.word(OM, word)).is_zero()

    def test_merge_anchor(self):
        assert bar_differential(parse_bar("[xi1|eta1]", CM)) == \
            BarElement.word(CM, ("omega",)).scaled(-1)
        assert bar_differential(parse_bar("[eta1|xi1]", CM)) == \
            BarElement.word(CM, ("omega",))

    def test_non_dual_pairs_give_zero(self):
        cm = closed_model(2)
        assert bar_differential(parse_bar("[xi1|eta2]", cm)).is_zero()
        assert bar_differential(parse_bar("[xi2|eta2]", cm)) == \
            BarElement.word(cm, ("omega",)).scaled(-1)

    def test_squares_to_zero_exhaustively(self):
        letters = ["xi1", "eta1", "omega"]
        for r in range(5):
            for word in itertools.product(letters, repeat=r):
                e = BarElement.word(CM, word)
                assert bar_differential(bar_differential(e)).is_zero(), word

    def test_length_four_cancellation_instance(self):
        # d[xi|eta|xi|eta] = -[om|xi|eta] + [xi|om|eta] - [xi|eta|om];
        # the second kills both wedges, the outer two cancel in d^2
        d1 = bar_differential(parse_bar("[xi1|eta1|xi1|eta1]", CM))
        expect = BarElement(CM, [(("omega", "xi1", "eta1"), -1),
                                 (("xi1", "omega", "eta1"), 1),
                                 (("xi1", "eta1", "omega"), -1)])
        assert d1 == expect


class TestShuffle:
    def test_basic_shuffle(self):
        out = shuffle_product(parse_bar("[xi1]", OM), parse_bar("[eta1]", OM))
        assert out == BarElement(OM, [(("xi1", "eta1"), 1),
                                      (("eta1", "xi1"), 1)])

    def test_unit(self):
        e = parse_bar("[xi1|eta1]", OM)
        assert shuffle_product(parse_bar("[]", OM), e) == e
        assert shuffle_product(e, parse_bar("[]", OM)) == e

    def test_top_letter_anticommutes(self):
        # omega has odd shifted degree, so [omega] shuffled with itself
        # cancels; with a degree-1 letter no sign appears
        om_word = parse_bar("[omega]", CM)
        assert shuffle_product(om_word, om_word).is_zero()
        out = shuffle_product(om_word, parse_bar("[xi1]", CM))
        assert out == BarElement(CM, [(("omega", "xi1"), 1),
                                      (("xi1", "omega"), 1)])

    def test_graded_commutativity(self):
        rng = random.Random(5)
        letters = ["xi1", "eta1", "omega"]
        for _ in range(25):
            e1 = random_bar(rng, CM, letters, 3)
            e2 = random_bar(rng, CM, letters, 3)
            d1 = sum(CM.degree(l) - 1 for l in next(iter(e1.terms)))
            d2 = sum(CM.degree(l) - 1 for l in next(iter(e2.terms)))
            lhs = shuffle_product(e1, e2)
            rhs = shuffle_product(e2, e1).scaled((-1) ** (d1 * d2))
            assert lhs == rhs

    def test_associativity(self):
        rng = random.Random(6)
        letters = ["xi1", "eta1", "omega"]
        for _ in range(15):
            e1 = random_bar(rng, CM, letters, 2)
            e2 = random_bar(rng, CM, letters, 2)
            e3 = random_bar(rng, CM, letters, 2)
            lhs = shuffle_product(shuffle_product(e1, e2), e3)
            rhs = shuffle_product(e1, shuffle_product(e2, e3))
            assert lhs == rhs

    def test_leibniz_for_differential(self):
        # d is a derivation of the shuffle algebra
        rng = random.Random(7)
        letters = ["xi1", "eta1", "omega"]
        for _ in range(20):
            e1 = random_bar(rng, CM, letters, 3)
            e2 = random_bar(rng, CM, letters, 3)
            d1 = sum(CM.degree(l) - 1 for l in next(iter(e1.terms)))
            lhs = bar_differential(shuffle_product(e1, e2))
            rhs = shuffle_product(bar_differential(e1), e2) + \
                shuffle_product(e1, bar_differential(e2)).scaled((-1) ** d1)
            assert lhs == rhs


class TestChenPairing:
    def test_empty_word(self):
        assert chen_pairing(parse_bar("[]", OM), parse_word("a1 b1")) == 1

    def test_single_letter(self):
        assert chen_pairing(parse_bar("[xi1]", OM), parse_word("a1")) == 1
        assert chen_pairing(parse_bar("[eta1]", OM), parse_word("a1")) == 0
        assert chen_pairing(parse_bar("[xi1]", OM), parse_word("a1'")) == -1

    def test_repeated_letter(self):
        assert chen_pairing(parse_bar("[xi1|xi1]", OM),
                            parse_word("a1 a1")) == 2

    def test_boundary_letter(self):
        om = open_model(SurfaceSpec(1, 2))
        assert chen_pairing(parse_bar("[zeta1]", om), parse_word("c1")) == 1

    def test_closed_model_rejected(self):
        with pytest.raises(ValueError):
            chen_pairing(parse_bar("[xi1]", CM), parse_word("a1"))

    def test_shuffle_multiplicativity(self):
        spec = SurfaceSpec(1, 2)
        om = open_model(spec)
        letters = ["xi1", "eta1", "zeta1"]
        rng = random.Random(9)
        for _ in range(30):
            e1 = random_bar(rng, om, letters, 2)
            e2 = random_bar(rng, om, letters, 2)
            gamma = random_free(rng, spec, 5)
            lhs = chen_pairing(shuffle_product(e1, e2), gamma)
            rhs = chen_pairing(e1, gamma) * chen_pairing(e2, gamma)
            assert lhs == rhs, (e1, e2, gamma)

    def test_composition_coproduct(self):
        # pairing against a concatenation deconcatenates the bar word
        rng = random.Random(10)
        letters = ["xi1", "eta1"]
        for _ in range(25):
            word = tuple(rng.choice(letters)
                         for _ in range(rng.randrange(4)))
            g1 = random_free(rng, TORUS, 4)
            g2 = random_free(rng, TORUS, 4)
            lhs = chen_pairing(BarElement.word(OM, word), g1 * g2)
            rhs = Fraction(0)
            for j in range(len(word) + 1):
                rhs += (chen_pairing(BarElement.word(OM, word[:j]), g1)
                        * chen_pairing(BarElement.word(OM, word[j:]), g2))
            assert lhs == rhs, (word, g1, g2)


class TestDualCs:
    def test_empty_element(self):
        f = dual_cs(parse_bar("[]", OM), "xi1")
        assert f == BarElement.word(OM, ("xi1",))
        assert chen_pairing(f, parse_word("a1")) == 1

    def test_two_letter_anchor(self):
        f = dual_cs(parse_bar("[xi1]", OM), "eta1")
        assert f == BarElement(OM, [(("xi1", "eta1"), 1),
                                    (("eta1", "xi1"), 1)])
        assert chen_pairing(f, parse_word("a1 b1")) == 1

    def test_accepts_loop_class(self):
        f = dual_cs(parse_bar("[]", OM), "xi1")
        assert chen_pairing(
            f, cyclic_normal_form(parse_word("b1 a1 b1'"))) == 1

    def test_degree_two_insertion_rejected(self):
        with pytest.raises(ValueError):
            dual_cs(parse_bar("[xi1]", CM), "omega")

    def test_conjugation_invariance(self):
        spec = SurfaceSpec(1, 2)
        om = open_model(spec)
        letters = ["xi1", "eta1", "zeta1"]
        rng = random.Random(11)
        for _ in range(30):
            f = dual_cs(random_bar(rng, om, letters, 3),
                        rng.choice(letters))
            base = random_free(rng, spec, 4, min_len=1)
            g = random_free(rng, spec, 3)
            assert (chen_pairing(f, base)
                    == chen_pairing(f, g * base * g.inverse()))

    def test_repr(self):
        f = dual_cs(parse_bar("[]", OM), "xi1")
        assert repr(f) == "<BarElement [xi1]>"


class TestEvalHatCs:
    def test_partial_edge_regression(self):
        # a single letter must contribute through its interior, not just
        # its endpoints: both split volumes are 1/2 and they add to 1
        e = parse_bar("[xi1]", OM)
        assert eval_hat_cs(e, "xi1", parse_word("a1")) == 1

    def test_abelianization_case(self):
        e = parse_bar("[]", OM)
        assert eval_hat_cs(e, "xi1", parse_word("a1 b1 a1")) == 2
        assert eval_hat_cs(e, "xi1", parse_word("a1 b1 a1'")) == 0

    def test_no_matching_letter(self):
        e = parse_bar("[xi1|xi1]", OM)
        assert eval_hat_cs(e, "eta1", parse_word("a1 a1")) == 0

    def test_agrees_with_dual_cs(self):
        spec = SurfaceSpec(1, 2)
        om = open_model(spec)
        letters = ["xi1", "eta1", "zeta1"]
        rng = random.Random(12)
        for _ in range(60):
            e = random_bar(rng, om, letters, 3)
            w = rng.choice(letters)
            gamma = random_free(rng, spec, 5)
            assert (eval_hat_cs(e, w, gamma)
                    == chen_pairing(dual_cs(e, w), gamma)), (e, w, gamma)


class TestEvalHatKk:
    def test_prefix_anchor(self):
        got = eval_hat_kk((("xi1",), "eta1", ()), parse_word("a1 b1"), OM)
        assert got == 1
        # reversed word order misses the prefix condition
        assert eval_hat_kk((("xi1",), "eta1", ()),
                           parse_word("b1 a1"), OM) == 0

    def test_partial_edge_anchor(self):
        got = eval_hat_kk(((), "xi1", ("xi1",)), parse_word("a1"), OM)
        assert got == Fraction(1, 2)

    def test_agrees_with_chen_pairing(self):
        spec = SurfaceSpec(1, 2)
        om = open_model(spec)
        letters = ["xi1", "eta1", "zeta1"]
        rng = random.Random(13)
        for _ in range(60):
            left = tuple(rng.choice(letters)
                         for _ in range(rng.randrange(3)))
            right = tuple(rng.choice(letters)
                          for _ in range(rng.randrange(3)))
            w = rng.choice(letters)
            gamma = random_free(rng, spec, 6)
            lhs = eval_hat_kk((left, w, right), gamma, om)
            rhs = chen_pairing(BarElement.word(om, left + (w,) + right),
                               gamma)
            assert lhs == rhs, (left, w, right, gamma)


class TestLettersOffTheSurface:
    """A loop or path letter outside the model's surface is a one-line
    ValueError naming it, never a KeyError and never a silent 0."""

    CASES = [
        ("chen", TORUS, "a2", "a2"),
        ("chen", TORUS, "a1 c1", "c1"),
        ("chen", SurfaceSpec(1, 2), "c1 c2'", "c2"),
        ("cs", TORUS, "a2", "a2"),
        ("cs", TORUS, "a1 b1 a1 b3'", "b3"),
        ("cs", SurfaceSpec(0, 3), "c1 c3", "c3"),
        ("kk", TORUS, "a2", "a2"),
        ("kk", TORUS, "a1 c1", "c1"),
        ("kk", SurfaceSpec(2, 1), "a1 b2 a3", "a3"),
    ]

    @staticmethod
    def _call(kind, spec, gamma):
        om = open_model(spec)
        first = om.letters[0]
        if kind == "chen":
            return chen_pairing(BarElement.word(om, (first,)), gamma)
        if kind == "cs":
            return eval_hat_cs(BarElement.word(om, ()), first, gamma)
        return eval_hat_kk(((), first, ()), gamma, om)

    @pytest.mark.parametrize("kind,spec,text,bad", CASES)
    def test_named_value_error(self, kind, spec, text, bad):
        for gamma in (parse_word(text), cyclic_normal_form(parse_word(text))):
            with pytest.raises(ValueError) as info:
                self._call(kind, spec, gamma)
            message = str(info.value)
            assert bad in message.split() and "\n" not in message

    @pytest.mark.parametrize("kind", ["chen", "cs", "kk"])
    def test_non_canonical_spelling_is_a_value_error(self, kind):
        # parse_word never spells a generator this way; a FreeWord can
        for bad in ("a01", "b001", "a\u0661", "c\u00b2"):
            with pytest.raises(ValueError) as info:
                self._call(kind, SurfaceSpec(1, 2), FreeWord([(bad, 1)]))
            assert bad in str(info.value).split()

    @pytest.mark.parametrize("kind", ["chen", "cs", "kk"])
    def test_surface_letters_still_pair(self, kind):
        spec = SurfaceSpec(1, 2)
        assert self._call(kind, spec, parse_word("a1 c1 b1'")) == 1
        assert self._call(kind, spec, parse_word("b1 c1")) == 0

    def test_bar_letters_still_checked_against_the_model(self):
        with pytest.raises(ValueError):
            eval_hat_kk((("xi2",), "xi1", ()), parse_word("a1"), OM)
        with pytest.raises(ValueError):
            eval_hat_kk(((), "xi1", ("zeta1",)), parse_word("a1"), OM)
