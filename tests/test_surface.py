import random

import pytest

from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    Path,
    SurfaceSpec,
    boundary_word,
    cyclic_normal_form,
    parse_word,
    render_word,
    ribbon_structure,
    tail_dart,
)
from helpers import faces, real_darts_ccw, walked_ribbon_structure


def W(text):
    return parse_word(text)


class TestSurfaceSpec:
    def test_accepts_standard_surfaces(self):
        for g, b in [(1, 1), (2, 1), (1, 2), (0, 3), (0, 2), (3, 4)]:
            spec = SurfaceSpec(g, b)
            assert spec.punctures == b - 1
            assert spec.tags == tuple(range(b))

    def test_rejects_closed_and_disk(self):
        with pytest.raises(ValueError):
            SurfaceSpec(1, 0)
        with pytest.raises(ValueError):
            SurfaceSpec(0, 1)
        with pytest.raises(ValueError):
            SurfaceSpec(-1, 2)

    def test_generators(self):
        assert SurfaceSpec(2, 2).generators() == ("a1", "a2", "b1", "b2", "c1")
        spec = SurfaceSpec(1, 1)
        assert spec.has_generator("a1")
        assert not spec.has_generator("a2")
        assert not spec.has_generator("c1")
        with pytest.raises(ValueError):
            spec.validate_word(W("a1 c1"))

    def test_generators_only_in_canonical_spelling(self):
        # the spelling parse_word accepts: ASCII digits, no leading zero
        spec = SurfaceSpec(1, 2)
        assert all(spec.has_generator(base) for base in spec.generators())
        for base in ("a01", "c01", "b001", "a\u0661", "c\u00b2", "a0",
                     "a", "", "a+1", "a1 ", "a1\n", "t1", "A1"):
            assert not spec.has_generator(base), base
            with pytest.raises(ValueError, match="not a generator"):
                spec.validate_word(FreeWord([(base, 1)]))


class TestReduce:
    def test_cancellation(self):
        assert W("a1 a1'").reduce() == FreeWord()
        assert W("a1 b1 b1' a1").reduce() == W("a1 a1")

    def test_idempotent_on_random_words(self):
        rng = random.Random(3)
        bases = ["a1", "b1", "c1"]
        for _ in range(50):
            letters = [(rng.choice(bases), rng.choice((1, -1)))
                       for _ in range(rng.randrange(12))]
            w = FreeWord(letters)
            r = w.reduce()
            assert r.reduce() == r
            assert all(x != (y[0], -y[1]) for x, y in zip(r, r.letters[1:]))
            assert len(r.letters) <= len(w.letters)

    def test_group_operations(self):
        w = W("a1 b1")
        assert w * w.inverse() == FreeWord()
        assert w * w == FreeWord(w.letters * 2)
        # the trusted operations build no word the constructor would refuse
        with pytest.raises(ValueError, match="bad letter"):
            FreeWord([("a1", 2)])


class TestCyclicNormalForm:
    def test_conjugation_collapses(self):
        assert cyclic_normal_form(W("b1 a1 b1'")) == cyclic_normal_form(W("a1"))

    def test_rotation_invariance(self):
        assert cyclic_normal_form(W("a1 b1")) == cyclic_normal_form(W("b1 a1"))
        # canonical rotation starts at the least letter
        assert cyclic_normal_form(W("b1 a1")).word == (("a1", 1), ("b1", 1))

    def test_trivial_class(self):
        assert cyclic_normal_form(FreeWord()).word == ()
        assert cyclic_normal_form(W("a1 a1'")).word == ()

    def test_random_conjugation_invariance(self):
        rng = random.Random(9)
        bases = ["a1", "b1", "a2", "b2"]
        for _ in range(60):
            w = FreeWord([(rng.choice(bases), rng.choice((1, -1)))
                          for _ in range(rng.randrange(1, 8))])
            u = FreeWord([(rng.choice(bases), rng.choice((1, -1)))
                          for _ in range(rng.randrange(6))])
            conjugated = u * w * u.inverse()
            assert cyclic_normal_form(conjugated) == cyclic_normal_form(w)

    def test_tuples_and_words_give_one_class(self):
        w = W("a1' b1 a1 b1 b1'")
        assert cyclic_normal_form(w.letters) == cyclic_normal_form(w)

    def test_unknown_letter_kind_is_a_value_error(self):
        with pytest.raises(ValueError, match="want kind a, b, c or t"):
            cyclic_normal_form((("a1", 1), ("q1", 1)))


class TestLoopClass:
    def test_rejects_words_not_in_normal_form(self):
        for letters in ((("a1", 1), ("a1", -1)),   # not reduced
                        (("b1", 1), ("a1", 1)),    # not the least rotation
                        (("a1", 1), ("b1", 1), ("a1", -1)),
                        (("a1", 2),)):
            with pytest.raises(ValueError):
                LoopClass(letters)

    def test_unknown_letter_kind_is_a_value_error(self):
        with pytest.raises(ValueError, match="want kind a, b, c or t"):
            LoopClass((("q1", 1),))

    def test_accepts_normal_forms(self):
        assert LoopClass(()).word == ()
        cls = cyclic_normal_form(W("b1 a2' b1 a10"))
        assert LoopClass(cls.word) == cls
        assert LoopClass(list(cls.word)).word == cls.word


class TestBoundaryWord:
    def test_one_holed_torus(self):
        assert boundary_word(SurfaceSpec(1, 1)) == W("a1 b1 a1' b1'")

    def test_pair_of_pants(self):
        assert boundary_word(SurfaceSpec(0, 3)) == W("c1 c2")

    def test_genus_two(self):
        assert boundary_word(SurfaceSpec(2, 1)) == W("a1 b1 a1' b1' a2 b2 a2' b2'")


class TestRibbonStructure:
    # vertex orders derived by hand from the prescribed faces
    EXPECTED = {
        (1, 1): [("a1", 1), ("t0", 0), ("b1", 1), ("a1", -1), ("b1", -1)],
        (2, 1): [("a1", 1), ("t0", 0), ("b2", 1), ("a2", -1), ("b2", -1),
                 ("a2", 1), ("b1", 1), ("a1", -1), ("b1", -1)],
        (1, 2): [("a1", 1), ("t0", 0), ("c1", -1), ("t1", 0), ("c1", 1),
                 ("b1", 1), ("a1", -1), ("b1", -1)],
        (0, 3): [("c1", 1), ("t0", 0), ("c2", -1), ("t2", 0), ("c2", 1),
                 ("c1", -1), ("t1", 0)],
        (0, 2): [("c1", 1), ("t0", 0), ("c1", -1), ("t1", 0)],
    }

    @pytest.mark.parametrize("gb", sorted(EXPECTED))
    def test_vertex_order_oracle(self, gb):
        slot = ribbon_structure(SurfaceSpec(*gb))
        assert sorted(slot, key=slot.get) == self.EXPECTED[gb]

    def test_face_words_one_holed_torus(self):
        r = ribbon_structure(SurfaceSpec(1, 1))
        words = faces(r)
        assert len(words) == 1
        assert cyclic_normal_form(words[0]) == cyclic_normal_form(W("a1 b1 a1' b1'"))

    def test_face_words_pair_of_pants(self):
        r = ribbon_structure(SurfaceSpec(0, 3))
        classes = {cyclic_normal_form(w) for w in faces(r)}
        expected = {cyclic_normal_form(W("c1 c2")),
                    cyclic_normal_form(W("c1'")),
                    cyclic_normal_form(W("c2'"))}
        assert classes == expected

    def test_round_trip_all_small_surfaces(self):
        for g in range(0, 5):
            for b in range(1, 9 - 2 * g):
                if (g, b) == (0, 1):
                    continue
                spec = SurfaceSpec(g, b)
                r = ribbon_structure(spec)
                face_words = faces(r)
                assert len(face_words) == b
                # capped surface Euler characteristic: 1 - edges + faces
                edges = 2 * g + spec.punctures
                assert 1 - edges + b == 2 - 2 * g
                got = sorted(str(cyclic_normal_form(w)) for w in face_words)
                want = [cyclic_normal_form(boundary_word(spec))]
                want += [cyclic_normal_form(W("c%d'" % k))
                         for k in range(1, spec.punctures + 1)]
                assert got == sorted(str(c) for c in want)

    # every surface up to genus 12 and 12 boundaries, and three past the
    # byte-keyed letters
    WALKED = [(g, b) for g in range(13) for b in range(1, 13)
              if (g, b) != (0, 1)] + [(43, 1), (44, 1), (64, 3)]

    def test_closed_form_is_the_face_walk(self):
        for gb in self.WALKED:
            spec = SurfaceSpec(*gb)
            assert (ribbon_structure.__wrapped__(spec)
                    == walked_ribbon_structure(spec)), gb

    def test_one_ribbon_per_surface(self):
        spec = SurfaceSpec(2, 3)
        ribbon = ribbon_structure(spec)
        assert ribbon_structure(SurfaceSpec(2, 3)) is ribbon
        assert faces(ribbon_structure(spec)) == faces(ribbon)
        assert faces(ribbon_structure.__wrapped__(spec)) == faces(ribbon)

    def test_tail_slots(self):
        slot = ribbon_structure(SurfaceSpec(1, 2))
        assert slot[tail_dart(0)] == 1
        assert slot[tail_dart(1)] == 3
        assert real_darts_ccw(slot) == (("a1", 1), ("c1", -1), ("c1", 1),
                                        ("b1", 1), ("a1", -1), ("b1", -1))


class TestPath:
    def test_compose(self):
        p = Path(0, 1, W("a1"))
        q = Path(1, 0, W("a1' b1"))
        assert p.compose(q) == Path(0, 0, W("b1"))

    def test_compose_mismatch(self):
        with pytest.raises(ValueError):
            Path(0, 1).compose(Path(0, 1))

    def test_inverse_and_identity(self):
        p = Path(0, 2, W("a1 b1"))
        assert p.compose(Path(2, 0, W("b1' a1'"))) == Path(0, 0)
        assert Path(1, 1).is_identity()

    def test_reduces_on_construction(self):
        assert Path(0, 0, W("a1 a1' b1")).word == W("b1")


class TestParsing:
    def test_round_trip(self):
        for text in ["a1 b1 a1' b1'", "c2 c1'", "a10 b3'", "1"]:
            assert render_word(parse_word(text)) == text

    def test_identity_token(self):
        assert parse_word("1") == FreeWord()

    def test_bad_token_position(self):
        with pytest.raises(ValueError, match="at position 3;"):
            parse_word("a1 q7")

    def test_bad_tokens(self):
        for text in ["a0", "d1", "a1''", "a-1", "a1 'b1"]:
            with pytest.raises(ValueError):
                parse_word(text)
