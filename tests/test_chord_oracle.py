"""Crossing layer: int-keyed chord tuples against the Passage chords,
and the trace against both drawings.

``helpers._draw`` keys each chord end by one int, slot * width + offset,
and returns plain (in key, out key, split) tuples; ``_crossings``
compares those ints.  The code it replaced drew one ``Passage`` object
per chord and compared (slot, offset) tuples; it is kept here as the
oracle.  Both must yield the same crossings, with the same signs and
splits, in the same order, under both perturbation conventions, and
the records of ``helpers.draw_trace`` (owner, darts, offsets decoded
from the keys) must equal the old ``Passage.to_json`` records.

The engine's trace reads the chord-end table the surgeries read
(``_chord_ends``), whose ends carry a side of their dart, not an
offset: ``crossing_trace`` and ``helpers.trace_records`` must list the
same crossings as those drawings, with the same signs, owners and dart
names, and the key 2 * slot + side of each end it lists must give the
record's sign under ``_crossings``' rule.
The hypothesis property runs derandomized, so every run sees the same
examples.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import _draw, draw_trace, random_surface_word, trace_records

from goldman_forge.goldman import (
    CONVENTIONS,
    _crossings,
    _dart_name,
    crossing_trace,
)
from goldman_forge.surface import (
    FreeWord,
    LoopClass,
    Path,
    SurfaceSpec,
    cyclic_normal_form,
    ribbon_structure,
    tail_dart,
)

SWEEP_SEED = 2424
SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(2, 1), SurfaceSpec(1, 2),
            SurfaceSpec(0, 3), SurfaceSpec(1, 3), SurfaceSpec(0, 4),
            SurfaceSpec(11, 1))


# -- the replaced code, kept as the oracle ---------------------------------

class Passage:
    """One traversal of the vertex disk by a drawn curve."""

    __slots__ = ("owner", "split", "in_dart", "in_sub", "in_key",
                 "out_dart", "out_sub", "out_key")

    def __init__(self, owner, split, in_end, out_end):
        self.owner = owner          # (operand tag, chord index)
        self.split = split          # surgery datum: rotation or cut index
        # each end is (dart, offset within the dart, position around the disk)
        self.in_dart, self.in_sub, self.in_key = in_end
        self.out_dart, self.out_sub, self.out_key = out_end

    def to_json(self):
        return {
            "owner": list(self.owner),
            "in": [old_dart_name(self.in_dart), self.in_sub],
            "out": [old_dart_name(self.out_dart), self.out_sub],
        }


def old_dart_name(dart):
    base, e = dart
    if base[0] == "t":
        return base
    return base + ("+" if e > 0 else "-")


def old_stops(item):
    """(dart, position) stops of a LoopClass or Path, in traversal order.

    A loop stops at each letter; a path also starts and ends at the tails
    of its two tags, at positions -1 and len(word).
    """
    if isinstance(item, LoopClass):
        return [(letter, i) for i, letter in enumerate(item.word)]
    if isinstance(item, Path):
        letters = item.word.letters
        return ([(tail_dart(item.from_tag), -1)]
                + [(letter, k) for k, letter in enumerate(letters)]
                + [(tail_dart(item.to_tag), len(letters))])
    raise TypeError("surgery operands must be LoopClass or Path values")


def old_draw(slot, items, convention):
    """One chord list per operand, under one perturbation rule; slot is
    the dart-position map of ribbon_structure.

    Strands through one edge or tail are ranked by (operand tag, stop
    position); the rank is the offset from the edge's left side seen
    from the positive dart, so the offset reverses at the negative dart.
    The "reversed" convention ranks in the opposite order; outputs of
    the surgeries must not depend on the choice.  Chord j of an operand
    runs from its stop j to its stop j+1 (cyclically for a loop) and
    splits the word at the position of that second stop.
    """
    stops = [old_stops(item) for item in items]
    visits = {}
    for tag, item_stops in enumerate(stops):
        for (base, _e), pos in item_stops:
            visits.setdefault(base, []).append((tag, pos))
    offset = {}
    for base, strands in visits.items():
        strands.sort(reverse=convention == "reversed")
        last = len(strands) - 1
        for r, (tag, pos) in enumerate(strands):
            offset[(base, tag, pos)] = (r, last - r)

    def end(dart, tag, pos):
        sub = offset[(dart[0], tag, pos)][dart[1] < 0]
        return dart, sub, (slot[dart], sub)

    chords = []
    for tag, (item, item_stops) in enumerate(zip(items, stops)):
        if isinstance(item, LoopClass):
            legs = zip(item_stops, item_stops[1:] + item_stops[:1])
        elif item.is_identity():
            legs = ()                   # identity path draws nothing
        else:
            legs = zip(item_stops, item_stops[1:])
        # a strand enters the disk at the reverse of the dart it left by
        chords.append([
            Passage((tag, j), out_pos,
                    end((in_dart[0], -in_dart[1]), tag, in_pos),
                    end(out_dart, tag, out_pos))
            for j, ((in_dart, in_pos), (out_dart, out_pos)) in enumerate(legs)])
    return chords


def old_crossings(slot, left, right, convention):
    """(sign, left passage, right passage) at every crossing of two items.

    Sign rule, with disk positions increasing counterclockwise: a right
    chord crosses the left chord from a to b when exactly one of its
    ends lies on the open counterclockwise arc from a to b, with sign +1
    when that end is where the right chord enters and -1 otherwise."""
    left_chords, right_chords = old_draw(slot, (left, right), convention)
    ends = [(pv.in_key, pv.out_key, pv) for pv in right_chords]
    for pu in left_chords:
        a, b = pu.in_key, pu.out_key
        if a < b:
            for vin, vout, pv in ends:
                sign = (a < vin < b) - (a < vout < b)
                if sign:
                    yield sign, pu, pv
        else:
            for vin, vout, pv in ends:
                sign = (b < vout < a) - (b < vin < a)
                if sign:
                    yield sign, pu, pv


def old_records(slot, left, right, convention):
    return [(sign, pu.split, pv.split)
            for sign, pu, pv in old_crossings(slot, left, right, convention)]


def old_trace(slot, left, right, convention):
    return [{"sign": sign, "left": pu.to_json(), "right": pv.to_json()}
            for sign, pu, pv in old_crossings(slot, left, right, convention)]


def new_records(slot, left, right, convention):
    chords = _draw(slot, (left, right), convention)[1]
    return [(sign, pu[2], pv[2]) for sign, pu, pv in _crossings(*chords)]


def without_offsets(records):
    """Sign, owners and dart names of each trace record: what a drawing
    and the two-sided table must agree on."""
    return [(r["sign"], *((p["owner"], p["in"][0], p["out"][0])
                          for p in (r["left"], r["right"])))
            for r in records]


def assert_same_crossings(spec, left, right):
    slot = ribbon_structure(spec)
    for convention in CONVENTIONS:
        case = (spec, convention, left, right)
        old = old_trace(slot, left, right, convention)
        assert (new_records(slot, left, right, convention)
                == old_records(slot, left, right, convention)), case
        assert draw_trace(spec, left, right, convention) == old, case
        assert (without_offsets(trace_records(spec, left, right, convention))
                == without_offsets(old)), case
    assert (without_offsets(crossing_trace(spec, left, right))
            == without_offsets(old_trace(slot, left, right, "default"))), (
                spec, left, right)
    return len(old_records(slot, left, right, "default"))


# -- the seeded sweep -------------------------------------------------------

def random_operand(rng, spec, kind):
    """A loop class or a path; short words make trivial classes and
    identity paths common."""
    word = random_surface_word(rng, spec, rng.choice((0, 2, 4, 7)))
    if kind == "loop":
        return cyclic_normal_form(word)
    return Path(rng.choice(spec.tags), rng.choice(spec.tags), word)


def test_chords_match_passage_chords():
    rng = random.Random(SWEEP_SEED)
    shapes = {"loop-loop": 0, "loop-path": 0, "path-loop": 0,
              "path-path": 0, "trivial class": 0, "identity path": 0,
              "same tail": 0, "genus11": 0, "many crossings": 0}
    for case in range(1500):
        spec = SURFACES[case % len(SURFACES)]
        kinds = rng.choice((("loop", "loop"), ("loop", "path"),
                            ("path", "loop"), ("path", "path")))
        left, right = (random_operand(rng, spec, kind) for kind in kinds)
        found = assert_same_crossings(spec, left, right)
        operands = (left, right)
        shapes["-".join(kinds)] += found > 0
        shapes["trivial class"] += any(
            isinstance(x, LoopClass) and not x.word for x in operands)
        shapes["identity path"] += any(
            isinstance(x, Path) and x.is_identity() for x in operands)
        shapes["same tail"] += kinds == ("path", "path") and bool(
            {left.from_tag, left.to_tag} & {right.from_tag, right.to_tag})
        shapes["genus11"] += spec.genus == 11 and found > 0
        shapes["many crossings"] += found >= 10
    assert min(shapes.values()) >= 20, shapes


# -- the hypothesis property ------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def operand_pairs(draw):
    spec = draw(st.sampled_from(SURFACES))
    letter = st.tuples(st.sampled_from(spec.generators()),
                       st.sampled_from((1, -1)))
    tag = st.sampled_from(spec.tags)

    def operand():
        word = FreeWord(draw(st.lists(letter, max_size=7))).reduce()
        if draw(st.booleans()):
            return cyclic_normal_form(word)
        return Path(draw(tag), draw(tag), word)

    return spec, operand(), operand()


@PROPERTY
@given(operand_pairs())
def test_chords_match_passage_chords_property(case):
    assert_same_crossings(*case)


# -- the trace against the drawing ------------------------------------------

TRACE_SEED = 4343
# letters past a byte key (a44, b44, c43) and a few below it, so that
# the tuple-coded surfaces' operands share darts as often as small ones'
TRACE_SURFACES = ((SurfaceSpec(1, 1), None), (SurfaceSpec(2, 1), None),
                  (SurfaceSpec(1, 2), None), (SurfaceSpec(0, 3), None),
                  (SurfaceSpec(1, 3), None), (SurfaceSpec(0, 4), None),
                  (SurfaceSpec(44, 1), ("a1", "b1", "a44", "b44")),
                  (SurfaceSpec(1, 44), ("a1", "b1", "c1", "c43")))


def trace_operand(rng, spec, bases, kind):
    """A loop class or a path, in bases only if given; paths on the
    surfaces with many tags end at 0, 1 or the last tag."""
    if bases is None:
        return random_operand(rng, spec, kind)
    word = FreeWord([(rng.choice(bases), rng.choice((1, -1)))
                     for _ in range(rng.choice((0, 2, 4, 7)))]).reduce()
    if kind == "loop":
        return cyclic_normal_form(word)
    tags = sorted({0, 1, spec.tags[-1]} & set(spec.tags))
    return Path(rng.choice(tags), rng.choice(tags), word)


def trace_pairs(cases=1200):
    """(spec, left, right) of the seeded sweep, each pair in both operand
    orders."""
    rng = random.Random(TRACE_SEED)
    for case in range(cases):
        spec, bases = TRACE_SURFACES[case % len(TRACE_SURFACES)]
        kinds = rng.choice((("loop", "loop"), ("loop", "path"),
                            ("path", "path")))
        a, b = (trace_operand(rng, spec, bases, kind) for kind in kinds)
        yield spec, a, b
        yield spec, b, a


def test_trace_matches_the_drawing_apart_from_offsets():
    """crossing_trace lists the crossings helpers._draw's drawing gives,
    in its order, with the same signs, owners and dart names; only the
    number after each dart changes, an offset there and a side here.
    trace_records reads the table as the trace does, under both
    conventions."""
    shapes = {"loop-loop": 0, "loop-path": 0, "path-loop": 0,
              "path-path": 0, "trivial class": 0, "identity path": 0,
              "same tail": 0, "tuple-coded": 0, "offset is not side": 0}
    for spec, left, right in trace_pairs():
        trace = crossing_trace(spec, left, right)
        case = (spec, left, right)
        assert trace == trace_records(spec, left, right, "default"), case
        for convention in CONVENTIONS:
            assert (without_offsets(trace_records(spec, left, right,
                                                  convention))
                    == without_offsets(draw_trace(spec, left, right,
                                                  convention))), case
        drawn = draw_trace(spec, left, right, "default")
        kinds = ["loop" if isinstance(x, LoopClass) else "path"
                 for x in (left, right)]
        shapes["-".join(kinds)] += bool(trace)
        shapes["trivial class"] += any(
            isinstance(x, LoopClass) and not x.word for x in (left, right))
        shapes["identity path"] += any(
            isinstance(x, Path) and x.is_identity() for x in (left, right))
        shapes["same tail"] += kinds == ["path", "path"] and bool(trace) and (
            bool({left.from_tag, left.to_tag} & {right.from_tag, right.to_tag}))
        shapes["tuple-coded"] += not spec.byte_keyed and bool(trace)
        shapes["offset is not side"] += trace != drawn
    assert min(shapes.values()) >= 20, shapes


def test_trace_keys_give_the_record_sign():
    """Rebuilt from ribbon_structure alone, each listed end's key
    2 * slot[dart] + side puts the two chords of a record across each
    other under _crossings' sign rule, with the record's sign."""
    checked = 0
    for spec, left, right in trace_pairs(400):
        slot = {_dart_name(d): s for d, s in ribbon_structure(spec).items()}

        def chord(passage):
            (i, si), (o, so) = passage["in"], passage["out"]
            assert {si, so} <= {0, 1}, passage
            return 2 * slot[i] + si, 2 * slot[o] + so, None

        for record in crossing_trace(spec, left, right):
            found = _crossings([chord(record["left"])],
                               [chord(record["right"])])
            assert [sign for sign, *_ in found] == [record["sign"]], record
            checked += 1
    assert checked >= 1000, checked
