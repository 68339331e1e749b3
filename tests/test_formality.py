"""The bracket theorem in every weight, as a finite certificate.

Under a symplectic expansion theta the completed Goldman bracket equals
the graded necklace bracket in every weight (Kawazumi-Kuno for one
boundary component; Alekseev-Kawazumi-Kuno-Naef for several).  The
identity is bilinear and both sides are antisymmetric, so a spanning
set decides it below a weight N:

- take one positive class (letters a_i, b_i, c_k, each to the power +1)
  per necklace of weight 1 to N - 1, c weighing 2; their reduced
  expansions have full rank, so they span every reduced loop sum up to
  weight N - 1, and a remainder expands to weight >= N;
- on such a remainder both sides vanish below weight N - 1 (the bracket
  by the filtration shift, the necklace bracket by construction);
- so the pairs with w(u) + w(v) <= N, compared in weights <= N - 2,
  decide it there, with the operands under theta.truncated(N - 1) and
  the bracket under theta.truncated(N - 2).

On b >= 2 the necklace bracket needs the z-z splices of gr_action: on
(1,2) N=6 one pair, and on (0,4) N=10 every nonzero pair, differs
without them.
"""

from itertools import product

import pytest

from goldman_forge.goldman import LoopSum, expand_loop_sum, goldman_bracket
from goldman_forge.magnus import gr_necklace_bracket, solve_symplectic
from goldman_forge.surface import FreeWord, SurfaceSpec, cyclic_normal_form
from goldman_forge.tensoralg import matrix_rank


def positive_classes(spec, top):
    """(weight, class word) per positive necklace of weight 1..top."""
    weight = {base: 2 if base[0] == "c" else 1 for base in spec.generators()}
    seen = {}
    for length in range(1, top // min(weight.values()) + 1):
        for bases in product(spec.generators(), repeat=length):
            w = sum(map(weight.__getitem__, bases))
            if w <= top:
                word = FreeWord([(base, 1) for base in bases])
                seen.setdefault(cyclic_normal_form(word), (w, word))
    return list(seen.values())


@pytest.mark.parametrize("genus,boundary,n,counts", [
    (1, 2, 6, (41, 180, 111)),
    (0, 4, 10, (44, 216, 18)),
], ids=["1-2-N6", "0-4-N10"])
def test_bracket_equals_its_graded_bracket_below_n(genus, boundary, n,
                                                   counts):
    spec = SurfaceSpec(genus, boundary)
    theta = solve_symplectic(genus, boundary - 1, n - 1)
    low = theta.truncated(n - 2)
    classes = positive_classes(spec, n - 1)
    loops = [LoopSum.of(spec, word) for _, word in classes]
    expanded = [expand_loop_sum(u.reduced(), theta) for u in loops]

    necklaces = sorted({k for e in expanded for k in e.terms},
                       key=lambda k: k.word)
    rank = matrix_rank([[e.terms.get(k, 0) for k in necklaces]
                        for e in expanded])
    assert rank == len(classes)

    degree = theta.sig.degree
    pairs = nonzero = 0
    disagree = []
    for i, j in product(range(len(classes)), repeat=2):
        if i > j or classes[i][0] + classes[j][0] > n:
            continue
        pairs += 1
        lhs = expand_loop_sum(goldman_bracket(loops[i], loops[j]), low)
        rhs = gr_necklace_bracket(expanded[i], expanded[j])
        below = {k: c for k, c in rhs.terms.items() if degree(k.word) <= n - 2}
        nonzero += bool(lhs.terms)
        if lhs.terms != below:
            disagree.append((classes[i][1], classes[j][1]))
    assert not disagree, "%d of %d pairs disagree, first %r" % (
        len(disagree), pairs, disagree[0])
    assert (len(classes), pairs, nonzero) == counts
