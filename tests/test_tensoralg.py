import random
from fractions import Fraction

import pytest

from goldman_forge.tensoralg import (
    AlgebraMap,
    Derivation,
    GenSignature,
    TensorSeries,
    coproduct,
    derivation_exp,
    exp,
    is_group_like,
    is_primitive,
    lie_bracket,
    linear_solve,
    log,
    matrix_rank,
)
from helpers import bch, compose, random_primitive, random_series
from test_coproduct_oracle import TensorSquare

F = Fraction
SIG11 = GenSignature(1, 1)   # x1, y1, z1
SIG10 = GenSignature(1, 0)   # x1, y1


def S(sig, trunc, *terms):
    return TensorSeries.from_terms(sig, trunc, terms)


def gen(sig, trunc, name):
    return TensorSeries.generator(sig, trunc, name)


class TestSignature:
    def test_alphabet_order(self):
        sig = GenSignature(2, 1)
        assert sig.gens == ("x1", "x2", "y1", "y2", "z1")

    def test_weights(self):
        assert SIG11.weight("x1") == 1
        assert SIG11.weight("y1") == 1
        assert SIG11.weight("z1") == 2
        assert SIG11.degree(("x1", "z1", "y1")) == 4

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            SIG11.weight("q7")
        with pytest.raises(ValueError):
            TensorSeries.generator(SIG11, 3, "x2")


class TestMultiply:
    def test_unit_is_identity(self):
        rng = random.Random(11)
        one = TensorSeries.unit(SIG11, 4)
        for _ in range(10):
            s = random_series(rng, SIG11, 4)
            assert one * s == s
            assert s * one == s

    def test_basis_concatenation(self):
        x, y = gen(SIG11, 3, "x1"), gen(SIG11, 3, "y1")
        assert x * y == S(SIG11, 3, (("x1", "y1"), 1))

    def test_hand_expansion(self):
        # (1+x)(1-x) = 1 - x^2, cross terms cancel
        x = gen(SIG10, 2, "x1")
        one = TensorSeries.unit(SIG10, 2)
        assert (one + x) * (one - x) == S(SIG10, 2, ((), 1), (("x1", "x1"), -1))

    def test_truncation_discards(self):
        x = gen(SIG10, 1, "x1")
        assert (x * x).is_zero()
        z = gen(SIG11, 3, "z1")
        assert (z * z).is_zero()          # weight 4 > 3
        assert not (z * gen(SIG11, 3, "x1")).is_zero()

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            gen(SIG10, 2, "x1") * gen(SIG10, 3, "x1")
        with pytest.raises(ValueError):
            gen(SIG10, 2, "x1") * gen(SIG11, 2, "x1")

    def test_associative_distributive(self):
        rng = random.Random(23)
        for _ in range(25):
            a = random_series(rng, SIG11, 4, nterms=4, max_len=3)
            b = random_series(rng, SIG11, 4, nterms=4, max_len=3)
            c = random_series(rng, SIG11, 4, nterms=4, max_len=3)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_scalar_arithmetic(self):
        x = gen(SIG10, 3, "x1")
        assert x.scaled(F(1, 2)) == S(SIG10, 3, (("x1",), F(1, 2)))
        assert (x - x).is_zero()
        assert x + 1 == S(SIG10, 3, ((), 1), (("x1",), 1))


class TestExpLog:
    def test_exp_zero(self):
        zero = TensorSeries.zero(SIG10, 4)
        assert exp(zero) == TensorSeries.unit(SIG10, 4)

    def test_exp_generator_series(self):
        x = gen(SIG10, 3, "x1")
        expected = S(SIG10, 3,
                     ((), 1),
                     (("x1",), 1),
                     (("x1", "x1"), F(1, 2)),
                     (("x1", "x1", "x1"), F(1, 6)))
        assert exp(x) == expected

    def test_log_exp_inverse(self):
        rng = random.Random(5)
        for _ in range(15):
            s = random_series(rng, SIG11, 5, with_constant=False)
            assert log(exp(s)) == s
            g = TensorSeries.unit(SIG11, 5) + s
            assert exp(log(g)) == g

    def test_preconditions(self):
        one = TensorSeries.unit(SIG10, 3)
        with pytest.raises(ValueError):
            exp(one)
        with pytest.raises(ValueError):
            log(gen(SIG10, 3, "x1"))


class TestBch:
    def test_zero_neutral(self):
        rng = random.Random(7)
        u = random_series(rng, SIG10, 4, with_constant=False)
        zero = TensorSeries.zero(SIG10, 4)
        assert bch(u, zero) == u
        assert bch(zero, u) == u

    def test_commuting_case(self):
        x = gen(SIG10, 4, "x1")
        assert bch(x, x) == x.scaled(2)

    def test_first_commutator(self):
        x, y = gen(SIG10, 2, "x1"), gen(SIG10, 2, "y1")
        expected = x + y + lie_bracket(x, y).scaled(F(1, 2))
        assert bch(x, y) == expected

    def test_degree_three_constants(self):
        # frozen by hand: x + y + [x,y]/2 + [x,[x,y]]/12 + [y,[y,x]]/12
        x, y = gen(SIG10, 3, "x1"), gen(SIG10, 3, "y1")
        expected = S(SIG10, 3,
                     (("x1",), 1),
                     (("y1",), 1),
                     (("x1", "y1"), F(1, 2)),
                     (("y1", "x1"), F(-1, 2)),
                     (("x1", "x1", "y1"), F(1, 12)),
                     (("x1", "y1", "x1"), F(-1, 6)),
                     (("y1", "x1", "x1"), F(1, 12)),
                     (("y1", "y1", "x1"), F(1, 12)),
                     (("y1", "x1", "y1"), F(-1, 6)),
                     (("x1", "y1", "y1"), F(1, 12)))
        assert bch(x, y) == expected

    def test_group_law_associative(self):
        rng = random.Random(31)
        for _ in range(5):
            u = random_primitive(rng, SIG10, 4)
            v = random_primitive(rng, SIG10, 4)
            w = random_primitive(rng, SIG10, 4)
            assert bch(bch(u, v), w) == bch(u, bch(v, w))

    def test_primitive_closure(self):
        rng = random.Random(37)
        for _ in range(5):
            u = random_primitive(rng, SIG11, 4)
            v = random_primitive(rng, SIG11, 4)
            assert is_primitive(bch(u, v))


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        x = gen(SIG10, 4, "x1")
        assert lie_bracket(x, x).is_zero()

    def test_definition(self):
        x, y = gen(SIG10, 2, "x1"), gen(SIG10, 2, "y1")
        assert lie_bracket(x, y) == S(SIG10, 2, (("x1", "y1"), 1), (("y1", "x1"), -1))

    def test_nested_expansion(self):
        # [[x,y],x] = 2 xyx - yxx - xxy
        x, y = gen(SIG10, 3, "x1"), gen(SIG10, 3, "y1")
        expected = S(SIG10, 3,
                     (("x1", "y1", "x1"), 2),
                     (("y1", "x1", "x1"), -1),
                     (("x1", "x1", "y1"), -1))
        assert lie_bracket(lie_bracket(x, y), x) == expected


class TestCoproduct:
    def test_two_letter_word(self):
        s = S(SIG10, 2, (("x1", "y1"), 1))
        assert coproduct(s) == {
            pair: 1 for pair in (((), ("x1", "y1")), (("x1",), ("y1",)),
                                 (("y1",), ("x1",)), (("x1", "y1"), ()))}

    def test_algebra_map(self):
        def square(s):
            return TensorSquare(s.sig, s.trunc, coproduct(s))

        rng = random.Random(41)
        for _ in range(10):
            a = random_series(rng, SIG11, 3, nterms=3, max_len=2)
            b = random_series(rng, SIG11, 3, nterms=3, max_len=2)
            assert square(a * b) == square(a) * square(b)

    def test_primitives(self):
        assert is_primitive(gen(SIG11, 3, "x1"))
        assert is_primitive(gen(SIG11, 3, "z1"))
        assert not is_primitive(S(SIG10, 3, (("x1", "x1"), 1)))
        assert not is_primitive(TensorSeries.unit(SIG10, 3))

    def test_dynkin_exact_cases(self):
        # z1 and [x1, y1] share weighted degree 2 but not word length
        x, y, z = (gen(SIG11, 4, name) for name in ("x1", "y1", "z1"))
        xy = lie_bracket(x, y)
        assert is_primitive(xy) and is_primitive(lie_bracket(x, z))
        assert is_primitive(z + xy)
        assert not is_primitive(z + x * y)
        # x1 x1 brackets to 0, so D(s) has none of its words
        assert not is_primitive(xy + x * x)
        assert is_primitive(TensorSeries.zero(SIG11, 4))
        for constant, primitive in ((0, True), (1, False), (2, False)):
            assert is_primitive(z + xy + constant) is primitive

    def test_group_like(self):
        x = gen(SIG11, 4, "x1")
        z = gen(SIG11, 4, "z1")
        assert is_group_like(exp(x + z.scaled(2)))
        assert not is_group_like(TensorSeries.unit(SIG11, 4) + x)
        assert not is_group_like(x)


class TestDerivation:
    def d_x_to_z(self, trunc=4):
        return Derivation(SIG11, trunc, {"x1": gen(SIG11, trunc, "z1")})

    def test_kills_constants(self):
        d = self.d_x_to_z()
        assert d.apply(TensorSeries.unit(SIG11, 4)).is_zero()

    def test_leibniz_on_word(self):
        d = self.d_x_to_z()
        s = S(SIG11, 4, (("x1", "y1"), 1))
        assert d.apply(s) == S(SIG11, 4, (("z1", "y1"), 1))

    def test_leibniz_product_rule(self):
        rng = random.Random(43)
        # images with valuation >= 1 so truncation commutes with the rule
        d = Derivation(SIG11, 4, {
            "x1": random_series(rng, SIG11, 4, nterms=3, max_len=2,
                                with_constant=False),
            "y1": random_series(rng, SIG11, 4, nterms=3, max_len=2,
                                with_constant=False),
        })
        for _ in range(10):
            a = random_series(rng, SIG11, 4, nterms=3, max_len=2)
            b = random_series(rng, SIG11, 4, nterms=3, max_len=2)
            assert d.apply(a * b) == d.apply(a) * b + a * d.apply(b)

    def test_exp_nilpotent(self):
        phi = derivation_exp(self.d_x_to_z())
        assert phi.image("x1") == gen(SIG11, 4, "x1") + gen(SIG11, 4, "z1")
        assert phi.image("y1") == gen(SIG11, 4, "y1")

    def test_exp_is_algebra_map(self):
        rng = random.Random(47)
        d = Derivation(SIG11, 4, {"x1": lie_bracket(gen(SIG11, 4, "y1"),
                                                    gen(SIG11, 4, "z1"))})
        phi = derivation_exp(d)
        for _ in range(5):
            a = random_series(rng, SIG11, 4, nterms=3, max_len=2)
            b = random_series(rng, SIG11, 4, nterms=3, max_len=2)
            assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)

    def test_exp_preserves_group_like(self):
        d = Derivation(SIG11, 4, {"y1": lie_bracket(gen(SIG11, 4, "x1"),
                                                    gen(SIG11, 4, "y1"))})
        phi = derivation_exp(d)
        for primitive in (gen(SIG11, 4, "x1"), gen(SIG11, 4, "y1"),
                          gen(SIG11, 4, "x1") + gen(SIG11, 4, "z1").scaled(3)):
            assert is_group_like(phi.apply(exp(primitive)))

    def test_exp_rejects_non_nilpotent(self):
        d = Derivation(SIG10, 3, {"x1": gen(SIG10, 3, "x1")})
        with pytest.raises(ValueError):
            derivation_exp(d)

    def test_degree_preserving_nilpotent_ok(self):
        # transvection-like image: x -> y is degree preserving but nilpotent
        d = Derivation(SIG10, 3, {"x1": gen(SIG10, 3, "y1")})
        phi = derivation_exp(d)
        assert phi.image("x1") == gen(SIG10, 3, "x1") + gen(SIG10, 3, "y1")


class TestAlgebraMap:
    def test_identity_default(self):
        phi = AlgebraMap(SIG11, 3, {})
        s = S(SIG11, 3, (("x1", "y1"), F(2, 3)), (("z1",), -1))
        assert phi.apply(s) == s

    def test_substitution(self):
        phi = AlgebraMap(SIG10, 3, {"x1": gen(SIG10, 3, "x1") + gen(SIG10, 3, "y1")})
        s = S(SIG10, 3, (("x1", "x1"), 1))
        expected = S(SIG10, 3,
                     (("x1", "x1"), 1), (("x1", "y1"), 1),
                     (("y1", "x1"), 1), (("y1", "y1"), 1))
        assert phi.apply(s) == expected

    def test_compose(self):
        phi = AlgebraMap(SIG10, 3, {"x1": gen(SIG10, 3, "y1")})
        psi = AlgebraMap(SIG10, 3, {"y1": gen(SIG10, 3, "x1")})
        both = compose(phi, psi)
        assert both.image("y1") == gen(SIG10, 3, "y1")
        assert both.image("x1") == gen(SIG10, 3, "y1")


class TestLinearSolve:
    def test_identity(self):
        sol = linear_solve([[1, 0], [0, 1]], [F(2), F(-3)])
        assert sol == [F(2), F(-3)]

    def test_free_variable_convention(self):
        assert linear_solve([[1, 1]], [F(2)]) == [F(2), F(0)]

    def test_inconsistent(self):
        assert linear_solve([[1, 1], [1, 1]], [1, 2]) is None

    def test_random_consistent_systems(self):
        rng = random.Random(53)
        for _ in range(20):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            matrix = [[F(rng.randint(-3, 3)) for _ in range(cols)]
                      for _ in range(rows)]
            x = [F(rng.randint(-2, 2)) for _ in range(cols)]
            rhs = [sum(row[j] * x[j] for j in range(cols)) for row in matrix]
            sol = linear_solve(matrix, rhs)
            assert sol is not None
            for row, b in zip(matrix, rhs):
                assert sum(r * s for r, s in zip(row, sol)) == b


class TestMatrixRank:
    def test_small_cases(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[0, 0], [0, 0]]) == 0
        assert matrix_rank([[1, 2], [2, 4], [0, 1]]) == 2
        assert matrix_rank([[F(1, 2), 1, 0], [0, 0, 3]]) == 2

    def test_rank_matches_solvability(self):
        # rank [A] == rank [A | b] exactly when A x = b has a solution
        rng = random.Random(54)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            matrix = [[rng.randint(-2, 2) for _ in range(cols)]
                      for _ in range(rows)]
            rhs = [rng.randint(-2, 2) for _ in range(rows)]
            augmented = [row + [b] for row, b in zip(matrix, rhs)]
            solvable = linear_solve(matrix, rhs) is not None
            assert solvable == (matrix_rank(matrix)
                                == matrix_rank(augmented))
            assert matrix_rank(matrix) == matrix_rank(
                [[F(x) for x in row] for row in matrix])


class TestSeriesBasics:
    def test_valuation(self):
        assert TensorSeries.zero(SIG11, 3).valuation() is None
        assert gen(SIG11, 3, "z1").valuation() == 2
        s = gen(SIG11, 3, "x1") + gen(SIG11, 3, "z1")
        assert s.valuation() == 1
        assert s.homogeneous_component(2) == gen(SIG11, 3, "z1")

    def test_truncated_lowering(self):
        s = exp(gen(SIG10, 4, "x1"))
        t = s.truncated(2)
        assert t.trunc == 2
        assert t == S(SIG10, 2, ((), 1), (("x1",), 1), (("x1", "x1"), F(1, 2)))

    def test_truncated_rejects_truncation_below_one(self):
        s = exp(gen(SIG10, 4, "x1"))
        with pytest.raises(ValueError):
            s.truncated(0)
        with pytest.raises(ValueError):
            s.truncated(-1)
        assert s.truncated(1) == S(SIG10, 1, ((), 1), (("x1",), 1))

    def test_from_terms_checks_words_with_zero_coefficients(self):
        for coeff in (0, 1, F(0)):
            with pytest.raises(ValueError):
                S(SIG10, 3, (("q9",), coeff))
            with pytest.raises(ValueError):
                S(SIG10, 3, (("x1",), 1), (("x1", "q9"), coeff))
        with pytest.raises(TypeError):
            S(SIG10, 3, (("x1",), 0.0))
        # a known word past the truncation is still dropped, not an error
        assert S(SIG10, 1, (("x1", "y1"), 1)).is_zero()

    def test_kernels_leave_no_zero_terms_or_empty_buckets(self):
        x, y = gen(SIG11, 3, "x1"), gen(SIG11, 3, "y1")
        s = x + x.scaled(2) * y + gen(SIG11, 3, "z1")
        swap = AlgebraMap(SIG11, 3, {"x1": y, "y1": x})
        d = Derivation(SIG11, 3, {"x1": y, "y1": x.scaled(-1)})
        cancelled = [
            S(SIG11, 3, (("x1",), 1), (("x1", "y1"), 2), (("x1",), -1),
              (("x1", "y1"), -2)),
            s + s.scaled(-1), s - s, lie_bracket(s, s),
            s * TensorSeries.zero(SIG11, 3),
            swap.apply(x * y - y * x) + (x * y - y * x),
            d.apply(x * x + y * y),
        ]
        for value in cancelled:
            assert value.is_zero()
            assert value._buckets == {}
        partial = s + S(SIG11, 3, (("x1",), -1))
        for value in (partial, partial * partial, swap.apply(partial),
                      d.apply(partial)):
            assert all(bucket and all(bucket.values())
                       for bucket in value._buckets.values())
        assert 1 not in partial._buckets

    def test_maps_reject_mismatched_series(self):
        d = Derivation(SIG11, 3, {"x1": gen(SIG11, 3, "y1")})
        phi = AlgebraMap(SIG11, 3, {"x1": gen(SIG11, 3, "y1")})
        other = gen(SIG11, 4, "y1")
        for build in (Derivation, AlgebraMap):
            with pytest.raises(ValueError):
                build(SIG11, 3, {"x1": other})
        for call in (d.apply, phi.apply):
            with pytest.raises(ValueError):
                call(other)

    def test_term_order_deterministic(self):
        s = S(SIG11, 3, (("y1",), 1), (("x1",), 1), (("z1",), 1), ((), 5),
              (("x1", "y1"), 1))
        words = [list(w) for w, _ in s.terms()]
        # degree first, then letter order: x1 y1 precedes z1 at degree 2
        assert words == [[], ["x1"], ["y1"], ["x1", "y1"], ["z1"]]

    def test_json_round_trip(self):
        s = S(SIG11, 6, (("x1", "y1"), F(-1, 2)), (("z1",), 3), ((), 1))
        blob = s.to_json()
        assert blob["signature"] == {"g": 1, "n": 1}
        assert blob["truncation"] == 6
        assert {"word": ["x1", "y1"], "coeff": "-1/2"} in blob["terms"]
        assert TensorSeries.from_json(blob) == s
