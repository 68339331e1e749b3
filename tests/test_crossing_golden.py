"""Golden digest of the crossing layer.

A seeded sweep of brackets, loop actions and path pairings on seven
surfaces, under both perturbation conventions, with one- and two-term
operands, trivial classes and identity paths.  Two sha256 digests: one
covers the JSON of every surgery output, the other the crossing_trace
records of every pair of terms in both operand orders (crossing_trace
reads the default convention only; the reversed records are read from
_chord_ends by ``helpers.trace_records``, which gives the same records
as ``crossing_trace`` under the default convention).  Any change to a
chord, a crossing sign, a split or a term order shows up as a mismatch,
and a change to how the trace spells a chord end moves only the second.
A deliberate change to the crossing layer's output must update the
digests in the same commit.
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
OUTPUTS_DIGEST = "fe29605e622a74186af9bfa27f8789238d6a5fd4cf50341896e7bab4824ef831"
TRACE_DIGEST = "8b2da5345f68d6f34be1fe67c63159bce12e7e36d58369b9df91bcaffe63aa69"


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
    """(the surgery outputs' records, the trace records) of the sweep."""
    rng = random.Random(seed)
    outputs, traces = [], []
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
        outputs.append({"case": case, "kind": kind, "convention": convention,
                        "out": out.to_json()})
        traces.extend(_traces(spec, left, right, convention))
    return outputs, traces


def digest(records):
    blob = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_crossing_layer_matches_golden_digest():
    outputs, traces = crossing_records()
    assert digest(outputs) == OUTPUTS_DIGEST
    assert digest(traces) == TRACE_DIGEST
