"""Golden digest of the crossing layer.

A seeded sweep of brackets, loop actions and path pairings on seven
surfaces, under both perturbation conventions, with one- and two-term
operands, trivial classes and identity paths.  One sha256 covers the
JSON of every surgery output and the crossing_trace records of every
pair of terms in both operand orders (crossing_trace draws under the
default convention only; the reversed records are decoded from the
chords by ``helpers.trace_records``, which gives the same records as
``crossing_trace`` under the default convention), so any change to a chord, a
crossing sign, a split or a term order shows up as a digest mismatch.
A deliberate change to the crossing layer's output must update the
digest in the same commit.
"""

import hashlib
import json
import random

from goldman_forge.goldman import (
    CONVENTIONS,
    LoopSum,
    PathSum,
    bi_pairing,
    crossing_trace,
    goldman_bracket,
    kk_action,
)
from goldman_forge.surface import Path, SurfaceSpec, cyclic_normal_form

from helpers import random_surface_word, trace_records

SURFACES = ((1, 1), (2, 1), (1, 2), (0, 3), (1, 3), (0, 4), (2, 2))
CASES = 300
DIGEST = "4b2194104bf564233200c821d093adbee97a92a5d656dcb58116c0c8e086f3bf"


def _loop_sum(rng, spec):
    out = LoopSum(spec)
    for _ in range(rng.choice((1, 1, 2))):
        out.add_term(cyclic_normal_form(random_surface_word(rng, spec, 6)),
                     rng.choice((1, -1, 2)))
    return out


def _path_sum(rng, spec, tags):
    start, end = tags
    out = PathSum(spec, start, end)
    for _ in range(rng.choice((1, 1, 2))):
        out.add_term(Path(start, end, random_surface_word(rng, spec, 5)),
                     rng.choice((1, -1, 3)))
    return out


def _pair_trace(spec, left, right, convention):
    if convention == "default":
        return crossing_trace(spec, left, right)
    return trace_records(spec, left, right, convention)


def _traces(spec, left, right, convention):
    for a in left.terms:
        for b in right.terms:
            yield _pair_trace(spec, a, b, convention)
            yield _pair_trace(spec, b, a, convention)


def crossing_records(cases=CASES, seed=2024):
    rng = random.Random(seed)
    records = []
    for case in range(cases):
        spec = SurfaceSpec(*SURFACES[case % len(SURFACES)])
        convention = CONVENTIONS[(case // len(SURFACES)) % 2]
        tags = spec.tags
        kinds = ["bracket", "kk"] + (["bipair"] if len(tags) >= 2 else [])
        kind = rng.choice(kinds)
        if kind == "bracket":
            left, right = _loop_sum(rng, spec), _loop_sum(rng, spec)
            out = goldman_bracket(left, right, convention)
        elif kind == "kk":
            left = _loop_sum(rng, spec)
            right = _path_sum(rng, spec, (rng.choice(tags), rng.choice(tags)))
            out = kk_action(left, right, convention)
        else:
            order = rng.sample(tags, len(tags))
            cut = rng.randrange(1, len(tags))
            ends1, ends2 = order[:cut], order[cut:]
            left = _path_sum(rng, spec, (rng.choice(ends1), rng.choice(ends1)))
            right = _path_sum(rng, spec, (rng.choice(ends2),
                                          rng.choice(ends2)))
            out = bi_pairing(left, right, convention)
        records.append({"case": case, "kind": kind, "convention": convention,
                        "out": out.to_json()})
        for trace in _traces(spec, left, right, convention):
            records.append(trace)
    return records


def test_crossing_layer_matches_golden_digest():
    records = crossing_records()
    blob = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
