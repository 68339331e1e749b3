"""Contract of the shared sparse-combination base, on all six sum types.

Every sum stores exact coefficients only (int or Fraction in, Fraction
stored), adds only to a sum with the same compatibility data (the
fields in its class's __slots__), and obeys the abelian-group laws on
seeded inputs.  The per-type sections below only say how to build a
seeded sum and which fields must agree.  Five types are the package's;
TensorSquare is the coproduct oracle's own type, a subclass whose
fields include a truncation.
"""

import math
import random
from fractions import Fraction

import pytest

from goldman_forge.barcx import BarElement, closed_model, open_model
from goldman_forge.goldman import LoopSum, PathPairSum, PathSum
from goldman_forge.magnus import CyclicSeries, NecklaceWord
from goldman_forge.surface import FreeWord, Path, SurfaceSpec, \
    cyclic_normal_form
from goldman_forge.tensoralg import GenSignature, TermSum
from test_coproduct_oracle import TensorSquare

TORUS = SurfaceSpec(1, 1)
THREE_HOLED = SurfaceSpec(1, 3)
SIG = GenSignature(1, 1)


def _word(rng, spec, max_len=4):
    gens = spec.generators()
    return FreeWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                          for _ in range(rng.randrange(max_len + 1)))).reduce()


def _letters(rng, alphabet, max_len=3):
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


# kind -> (empty sum with default data, seeded key, empty sums that differ
# from the default in exactly one compatibility field)
KINDS = {
    "LoopSum": (
        lambda: LoopSum(TORUS),
        lambda rng: cyclic_normal_form(_word(rng, TORUS)),
        [LoopSum(SurfaceSpec(2, 1)), LoopSum(TORUS, twist=1)],
    ),
    "PathSum": (
        lambda: PathSum(TORUS, 0, 0),
        lambda rng: Path(0, 0, _word(rng, TORUS)),
        [PathSum(SurfaceSpec(1, 2), 0, 0), PathSum(SurfaceSpec(1, 2), 0, 1),
         PathSum(TORUS, 0, 0, twist=1)],
    ),
    "PathPairSum": (
        lambda: PathPairSum(THREE_HOLED),
        lambda rng: (Path(0, 1, _word(rng, THREE_HOLED)),
                     Path(2, 2, _word(rng, THREE_HOLED))),
        [PathPairSum(SurfaceSpec(0, 4)), PathPairSum(THREE_HOLED, twist=1)],
    ),
    "CyclicSeries": (
        lambda: CyclicSeries(SIG, 4),
        lambda rng: NecklaceWord(_letters(rng, ("x1", "y1"), 4)),
        [CyclicSeries(GenSignature(2, 0), 4), CyclicSeries(SIG, 5),
         CyclicSeries(SIG, 4, twist=1)],
    ),
    "BarElement": (
        lambda: BarElement(open_model(TORUS)),
        lambda rng: _letters(rng, ("xi1", "eta1")),
        [BarElement(closed_model(1))],
    ),
    "TensorSquare": (
        lambda: TensorSquare(SIG, 4),
        lambda rng: (_letters(rng, ("x1", "y1"), 2),
                     _letters(rng, ("x1", "y1"), 2)),
        [TensorSquare(GenSignature(2, 0), 4), TensorSquare(SIG, 5)],
    ),
}


def seeded(kind, seed, nterms=6):
    empty, key, _ = KINDS[kind]
    rng = random.Random(seed)
    out = empty()
    for _ in range(nterms):
        out.add_term(key(rng), _coeff(rng))
    return out


def a_key(kind):
    return KINDS[kind][1](random.Random(1))


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return request.param


def test_every_sum_shares_the_base_arithmetic(kind):
    cls = type(KINDS[kind][0]())
    assert issubclass(cls, TermSum)
    for name in ("is_zero", "copy", "scaled", "__add__", "__sub__",
                 "__eq__", "sorted_terms"):
        assert name not in vars(cls), name


def test_float_coefficient_raises(kind):
    with pytest.raises(TypeError):
        KINDS[kind][0]().add_term(a_key(kind), 0.1)
    with pytest.raises(TypeError):
        seeded(kind, 3).scaled(0.5)


def test_string_coefficient_raises(kind):
    with pytest.raises(TypeError):
        KINDS[kind][0]().add_term(a_key(kind), "1/3")


def test_coefficients_are_stored_as_fractions(kind):
    out = KINDS[kind][0]()
    out.add_term(a_key(kind), 2)
    assert [type(c) for c in out.terms.values()] == [Fraction]
    out.add_term(a_key(kind), -2)
    assert out.is_zero() and out.terms == {}


def test_different_compatibility_data_cannot_be_added(kind):
    base = seeded(kind, 5)
    for other in KINDS[kind][2]:
        with pytest.raises(ValueError):
            base + other
        with pytest.raises(ValueError):
            base - other
        assert base != other


def test_different_types_cannot_be_added(kind):
    other = "LoopSum" if kind != "LoopSum" else "PathPairSum"
    with pytest.raises(TypeError):
        seeded(kind, 5) + seeded(other, 5)


@pytest.mark.parametrize("seed", range(8))
def test_group_laws_on_seeded_sums(kind, seed):
    x = seeded(kind, seed)
    y = seeded(kind, seed + 100)
    assert (x - x).is_zero()
    assert x + y == y + x
    assert (x + y) - y == x
    assert x.scaled(2) == x + x
    assert x.scaled(0).is_zero()
    assert x.scaled(Fraction(-1)) + x == KINDS[kind][0]()


def test_copy_is_independent(kind):
    x = seeded(kind, 9)
    y = x.copy()
    assert y == x and y.terms is not x.terms
    y.add_term(a_key(kind), 7)
    assert y != x


def test_sorted_terms_lists_every_term_in_strict_key_order(kind):
    x = seeded(kind, 11, nterms=12)
    ordered = x.sorted_terms()
    assert dict(ordered) == x.terms
    keys = [x._sort_key(k) for k, _ in ordered]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_key_checks_still_apply():
    with pytest.raises(ValueError):
        PathSum(TORUS, 0, 0).add_term(Path(0, 1), 1)
    with pytest.raises(ValueError):
        BarElement(open_model(TORUS)).add_term(("nu1",), 1)
    trunc = CyclicSeries(SIG, 2)
    trunc.add_term(("x1", "y1", "x1"), 1)
    assert trunc.is_zero()
    square = TensorSquare(SIG, 2)
    square.add_term((("x1",), ("z1",)), 1)
    assert square.is_zero()
    # words past the truncation are dropped, but inexact input still fails
    with pytest.raises(TypeError):
        trunc.add_term(("x1", "y1", "x1"), 0.5)
    with pytest.raises(TypeError):
        square.add_term((("x1",), ("z1",)), 0.5)
    necklace = CyclicSeries(SIG, 4)
    necklace.add_term(("y1", "x1"), 1)
    assert necklace.terms == {NecklaceWord(("x1", "y1")): 1}


@pytest.mark.parametrize("den", [1, 2, 6, 12])
def test_with_totals_matches_added_terms(kind, den):
    """with_totals(den, totals) is the sum of n / den per key, zero totals
    dropped, every coefficient a normalised Fraction with its sign; den
    == 1 takes the shared small coefficients, inside and past their
    range."""
    rng = random.Random("with-totals-%s-%d" % (kind, den))
    values = (3, -1, 0, 12, -4, 6, 0, -12, 64, -64, 65, -65, 10 ** 20)
    keys = []
    while len(keys) < len(values):
        key = KINDS[kind][1](rng)
        if key not in keys:
            keys.append(key)
    totals = dict(zip(keys, values))
    empty = KINDS[kind][0]()
    got = empty.with_totals(den, totals.items())
    want = KINDS[kind][0]()
    for key, n in totals.items():
        want.add_term(key, Fraction(n, den))
    assert got == want and got._fields() == empty._fields()
    assert set(got.terms) == {key for key, n in totals.items() if n}
    signs = set()
    for key, c in got.terms.items():
        assert type(c) is Fraction and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c * den == totals[key]
        signs.add(c > 0)
    assert signs == {True, False} and len(got.terms) < len(totals)


def test_with_totals_shares_small_coefficients(kind):
    """With den == 1 every total n with 0 < |n| <= 64 maps to one shared
    Fraction, the same object in every sum; past that range each term
    gets its own Fraction(n)."""
    rng = random.Random("shared-totals-%s" % kind)
    keys = []
    while len(keys) < 6:
        key = KINDS[kind][1](rng)
        if key not in keys:
            keys.append(key)
    empty = KINDS[kind][0]()
    first = empty.with_totals(1, zip(keys, (1, -1, 64, -64, 65, -65)))
    second = empty.with_totals(1, zip(keys, (1, -1, 64, -64, 65, -65)))
    for key in keys:
        assert first.terms[key] == second.terms[key]
        assert type(first.terms[key]) is Fraction
        shared = abs(first.terms[key]) <= 64
        assert (first.terms[key] is second.terms[key]) == shared, key
    halves = empty.with_totals(2, zip(keys, (1, 2, 3, 4, 5, 6)))
    assert list(halves.terms.values()) == [Fraction(n, 2)
                                           for n in (1, 2, 3, 4, 5, 6)]
