"""Crossings, splices and output terms of one round of the surgery benchmark.

    python3 tools/surgery_counts.py [--seed 1]

Run from anywhere; the engine is imported from this checkout's src/
through perfbench/harness.py.  The script builds one round of the
surgery workload with the given seed and runs every operation once,
untimed, with goldman's attributes wrapped to count: the calls of each
surgery (goldman_bracket, kk_action, bi_pairing), the crossings of
their pairs of terms (``_crossings``), the splices they make (the terms
of ``splice_normal_form`` for the bracket, two ``reduced_product`` calls
per splice of the action and the pairing) and the terms of their
outputs.  It prints one Markdown table of those counts per round.  A
bracket sums the signs of the crossings along a shared run before it
splices, so it splices fewer times than its pairs cross; the path
surgeries splice every crossing.  Stdlib only; it reports and never
fails on what it finds.
"""

import argparse
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

SURGERIES = ("goldman_bracket", "kk_action", "bi_pairing")
COLUMNS = ("calls", "crossings", "splices", "terms out")


class Counter:
    """Wraps goldman's surgeries and what they call; counts per surgery."""

    def __init__(self, goldman):
        self.goldman = goldman
        self.current = None
        self.counts = {name: dict.fromkeys(COLUMNS, 0) for name in SURGERIES}
        self.products = dict.fromkeys(SURGERIES, 0)
        for name in SURGERIES:
            setattr(goldman, name, self._entry(name, getattr(goldman, name)))
        for name, wrap in (("_crossings", self._crossings),
                           ("splice_normal_form", self._splicer),
                           ("reduced_product", self._product)):
            setattr(goldman, name, wrap(getattr(goldman, name)))

    def _entry(self, name, original):
        def entry(*args, **kwargs):
            outer, self.current = self.current, name
            try:
                out = original(*args, **kwargs)
            finally:
                self.current = outer
            self.counts[name]["calls"] += 1
            self.counts[name]["terms out"] += len(out.terms)
            return out
        return entry

    def _crossings(self, original):
        def crossings(*args):
            for crossing in original(*args):
                self.counts[self.current]["crossings"] += 1
                yield crossing
        return crossings

    def _splicer(self, original):
        def splicer(a, b):
            term = original(a, b)

            def counted(i, j):
                self.counts[self.current]["splices"] += 1
                return term(i, j)
            return counted
        return splicer

    def _product(self, original):
        def product(x, y):
            self.products[self.current] += 1
            return original(x, y)
        return product

    def table(self):
        for name, products in self.products.items():
            self.counts[name]["splices"] += products // 2
        rows = list(self.counts.items())
        rows.append(("all", {column: sum(c[column] for _, c in rows)
                             for column in COLUMNS}))
        return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    gf = harness.load_engine()
    ops = workloads.surgery(gf, random.Random("surgery:%d" % args.seed))
    counter = Counter(gf.goldman)
    for op in ops:
        harness.call_op(op)
    print("Surgery round, seed %d, per round (reported, not gated):"
          % args.seed)
    print("")
    print("| surgery | %s |" % " | ".join(COLUMNS))
    print("|---|%s" % ("---|" * len(COLUMNS)))
    for name, counts in counter.table():
        print("| %s | %s |" % (name, " | ".join(str(counts[column])
                                                for column in COLUMNS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
