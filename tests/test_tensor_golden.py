"""Golden digest of the tensor layer.

One sha256 covers the JSON of seeded products, sums, exponentials,
logarithms, BCH series, derivations and their exponentials, algebra
substitutions and their composites, conjugations e^{ad h}, and the
symplectic solve, its inverse substitution and its certificate, on the
signatures (1,0), (1,1), (2,0) and (2,1).  The inputs are built so that
sums and products cancel terms, so a change to the series normaliser,
to a truncation rule or to a coefficient shows up as a digest mismatch.
A deliberate change to these values must update the digest in the same
commit.
"""

import hashlib
import json
import random

from goldman_forge.magnus import (
    ad_exp,
    invert_expansion,
    kvi_check,
    solve_symplectic,
)
from goldman_forge.tensoralg import (
    AlgebraMap,
    Derivation,
    GenSignature,
    TensorSeries,
    derivation_exp,
    exp,
    lie_bracket,
    log,
    powers,
)
from helpers import bch, compose, random_primitive, random_series

SIGNATURES = ((1, 0), (1, 1), (2, 0), (2, 1))
TRUNC = 5
DIGEST = "97aa9358b68f4600faa15c0246af381af0612bd3142464ca2ddababc91c630a5"


def _map_json(phi):
    return {name: phi.image(name).to_json() for name in phi.sig.gens}


def _signature_values(genus, punctures, rng):
    sig = GenSignature(genus, punctures)
    gen = {name: TensorSeries.generator(sig, TRUNC, name) for name in sig.gens}
    a = random_series(rng, sig, TRUNC, nterms=8)
    b = random_series(rng, sig, TRUNC, nterms=8)
    u = random_series(rng, sig, TRUNC, nterms=6, with_constant=False)
    v = random_primitive(rng, sig, TRUNC)
    w = random_primitive(rng, sig, TRUNC)
    cancelling = TensorSeries.from_terms(
        sig, TRUNC, [(word, c) for word, c in a.terms()]
        + [(word, -c) for word, c in b.terms()]
        + [(word, c) for word, c in b.terms()])
    values = [a * b, b * a, a + b, a - b, a + b - a, (a - a) * b,
              lie_bracket(v, w), lie_bracket(v, v), cancelling,
              a.truncated(2), exp(u), exp(v), log(exp(u)), log(u + 1),
              bch(v, w), bch(v, v.scaled(-1))]

    raising = Derivation(sig, TRUNC, {
        name: random_series(rng, sig, TRUNC, with_constant=False) * gen[name]
        for name in sig.gens})
    # degree-preserving but nilpotent: x1 -> y1 -> 0
    nilpotent = Derivation(sig, TRUNC, {"x1": gen["y1"]})
    both = Derivation(sig, TRUNC, {
        name: raising.image(name) + nilpotent.image(name) for name in sig.gens})
    values += [raising.apply(a), raising.apply(exp(v)), nilpotent.apply(a),
               both.apply(b), raising.apply(u).scaled(-2)]

    phi = AlgebraMap(sig, TRUNC, {
        name: gen[name] + random_series(rng, sig, TRUNC, nterms=3,
                                        with_constant=False) * u
        for name in sig.gens})
    psi = AlgebraMap(sig, TRUNC, {name: exp(v) * gen[name] * exp(v.scaled(-1))
                                  for name in sig.gens})
    values += [phi.apply(a), phi.apply(b), psi.apply(a), psi.apply(u)]
    maps = [compose(phi, psi), compose(psi, phi), derivation_exp(raising),
            derivation_exp(nilpotent), derivation_exp(both)]

    for target in (gen["x1"], a, u):
        values.append(ad_exp(powers(v), target))
        values.append(ad_exp(powers(u), target))

    theta = solve_symplectic(genus, punctures, TRUNC)
    inverse = invert_expansion(theta)
    return {
        "series": [s.to_json() for s in values],
        "maps": [_map_json(m) for m in maps],
        "symplectic": theta.to_json(),
        "inverse": _map_json(inverse),
        "certificate": kvi_check(inverse),
    }


def tensor_values():
    rng = random.Random(2017)
    return [_signature_values(g, p, rng) for g, p in SIGNATURES]


def test_tensor_layer_matches_golden_digest():
    blob = json.dumps(tensor_values(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
