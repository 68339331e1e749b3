"""The default expansion is one shared object per (surface, truncation).

magnus.default_expansion is cached, so every caller of one (spec, trunc)
holds the same MagnusExpansion and its lazily filled power lists and
images.  These tests pin the sharing and check that no engine path
writes into the shared object: after a run of in-process calls that
read it, every cached expansion still equals a fresh one built from the
generators, in its logs, its power lists and every image it has filled.
"""

import io
from contextlib import redirect_stdout

from goldman_forge import cli
from goldman_forge.goldman import (
    LoopSum,
    kk_derivation,
    twist_curve_names,
    twist_derivation,
)
from goldman_forge.magnus import (
    MagnusExpansion,
    bch_right_side,
    default_expansion,
    solve_symplectic,
    tensor_letter,
)
from goldman_forge.surface import FreeWord, SurfaceSpec
from goldman_forge.tensoralg import GenSignature, TensorSeries, derivation_exp


def _fresh(spec, trunc):
    sig = GenSignature(spec.genus, spec.punctures)
    return MagnusExpansion(spec, trunc, {
        base: TensorSeries.generator(sig, trunc, tensor_letter(base))
        for base in spec.generators()})


def _cli(*argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(list(argv) + ["--json"]) == 0


def test_one_object_per_surface_and_truncation():
    theta = default_expansion(SurfaceSpec(1, 1), 4)
    assert default_expansion(SurfaceSpec(1, 1), 4) is theta
    assert default_expansion(SurfaceSpec(1, 1), 3) is not theta
    assert default_expansion(SurfaceSpec(1, 2), 4) is not theta


def test_shared_expansions_stay_equal_to_fresh_ones():
    default_expansion.cache_clear()
    spec = SurfaceSpec(1, 1)
    u = LoopSum.of(spec, FreeWord((("a1", 1), ("b1", 1))))
    kk_derivation(u, 4)
    for curve in twist_curve_names(spec):
        derivation_exp(twist_derivation(spec, curve, 4))
    solve_symplectic(1, 1, 4)
    bch_right_side(GenSignature(2, 0), 4)
    _cli("verify", "kvi", "--N", "3")
    _cli("expand", "--N", "5", "a1 b1 a1")
    _cli("bracket", "--N", "4", "a1 b1", "b1")
    used = [(SurfaceSpec(1, 1), 4), (SurfaceSpec(1, 2), 4),
            (SurfaceSpec(2, 1), 4), (SurfaceSpec(1, 1), 3),
            (SurfaceSpec(2, 1), 3), (SurfaceSpec(1, 2), 3),
            (SurfaceSpec(1, 1), 5)]
    misses = default_expansion.cache_info().misses
    filled = 0
    for spec, trunc in used:
        theta, fresh = default_expansion(spec, trunc), _fresh(spec, trunc)
        assert theta.logs == fresh.logs
        for base, listed in theta._powers.items():
            fresh.image(base)
            assert listed == fresh._powers[base]
        for (base, e), image in theta._images.items():
            assert image == fresh.image(base, e)
            filled += 1
    # every expansion the calls cached is in `used`, and nothing else
    assert default_expansion.cache_info().misses == misses
    assert default_expansion.cache_info().currsize == len(used)
    assert filled >= 10
