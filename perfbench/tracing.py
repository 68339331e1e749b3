"""Timing wrappers on the engine's layer entry points, for the traced run.

The wrappers live here, not in the engine: ``Tracer.install`` replaces
every module or class attribute bound to an entry point (so
``goldman.ribbon_structure`` and ``surface.ribbon_structure`` are both
covered) and ``Tracer.remove`` puts each original back.  Spans are kept
in memory as flat arrays and written out once, at the end of the run.
"""

import json
import sys
import time
from array import array

from harness import ENGINE

# (module, entry, counts output terms); "Class.method" names a method,
# with "mul" for __mul__ and "init" for __init__
ENTRIES = (
    ("surface", "cyclic_normal_form", False),
    ("surface", "ribbon_structure", False),
    ("surface", "parse_word", False),
    ("goldman", "goldman_bracket", True),
    ("goldman", "kk_action", True),
    ("goldman", "bi_pairing", True),
    ("goldman", "adams", False),
    ("goldman", "expand_loop_sum", False),
    ("goldman", "expand_path_sum", False),
    ("goldman", "kk_derivation", False),
    ("tensoralg", "TensorSeries.mul", True),
    ("tensoralg", "exp", False),
    ("tensoralg", "log", False),
    ("tensoralg", "coproduct", True),
    ("tensoralg", "is_primitive", False),
    ("tensoralg", "is_group_like", False),
    ("tensoralg", "Derivation.apply", False),
    ("tensoralg", "AlgebraMap.apply", False),
    ("tensoralg", "derivation_exp", False),
    ("tensoralg", "linear_solve", False),
    ("magnus", "MagnusExpansion.expand_word", True),
    ("magnus", "NecklaceWord.init", False),
    ("magnus", "necklace_project", False),
    ("magnus", "gr_necklace_bracket", False),
    ("magnus", "solve_symplectic", False),
    ("magnus", "invert_expansion", False),
    ("magnus", "kvi_check", False),
    ("magnus", "resolution_check", False),
    ("barcx", "chen_pairing", False),
    ("barcx", "shuffle_product", False),
    ("barcx", "bar_differential", False),
    ("barcx", "eval_hat_cs", False),
    ("suites", "run_suite", False),
    ("cli", "main", False),
)
_METHODS = {"mul": "__mul__", "init": "__init__"}

# spans past this many are counted but not kept, to bound memory
MAX_SPANS = 400_000


def entry_name(module, entry):
    return "%s.%s" % (module, entry)


def metric_names():
    """Per-layer metric names in a fixed order."""
    names = []
    for module, entry, terms in ENTRIES:
        base = entry_name(module, entry)
        names += [base + ".calls", base + ".self_ref"]
        if terms:
            names.append(base + ".terms_out")
    return names


def _term_count(out):
    terms = getattr(out, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    return out.term_count()


class Tracer:
    """Wrappers with per-entry counters, per-operation self time and spans."""

    def __init__(self, gf):
        self.gf = gf
        self.patches = []
        n = len(ENTRIES)
        self.calls = [0] * n
        self.terms = [0] * n
        self.self_ns = [0] * n
        self.op_self_ns = []          # one list of n per traced operation
        self._mark = [0] * n
        self._stack = []              # child time of each open span
        self._current = -1            # index of the innermost open span
        self._op = -1
        self.span_entry = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans_dropped = 0

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _engine_modules():
        return [m for name, m in sorted(sys.modules.items())
                if name == ENGINE or name.startswith(ENGINE + ".")]

    def install(self):
        modules = self._engine_modules()
        for index, (module, entry, terms) in enumerate(ENTRIES):
            owner = getattr(self.gf, module)
            if "." in entry:
                cls_name, method = entry.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[_METHODS.get(method, method)]
                wrapper = self._wrap(index, original, terms)
                for name, value in list(vars(cls).items()):
                    if value is original:
                        self._patch(cls, name, original, wrapper)
            else:
                original = getattr(owner, entry)
                wrapper = self._wrap(index, original, terms)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self.patches.append((owner, name, original))

    def remove(self):
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)

    def restored(self):
        """True when every patched attribute is the original again."""
        return all(vars(owner)[name] is original
                   for owner, name, original in self.patches)

    # -- recording ---------------------------------------------------------

    def _wrap(self, index, original, count_terms):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = self._current
            span = len(self.span_start)
            keep = span < MAX_SPANS
            if keep:
                self.span_entry.append(index)
                self.span_op.append(self._op)
                self.span_parent.append(parent)
                self.span_start.append(0)
                self.span_end.append(0)
                self._current = span
            else:
                self.spans_dropped += 1
            stack.append(0)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                took = end - start
                if stack:
                    stack[-1] += took
                self.self_ns[index] += took - child
                self.calls[index] += 1
                if keep:
                    self.span_start[span] = start
                    self.span_end[span] = end
                    self._current = parent
            if count_terms:
                self.terms[index] += _term_count(out)
            return out

        return wrapper

    def begin_op(self):
        self._op += 1
        self._mark = list(self.self_ns)

    def end_op(self):
        self.op_self_ns.append([now - before for now, before
                                in zip(self.self_ns, self._mark)])

    # -- results -----------------------------------------------------------

    def metrics(self, local_ref_ns, rounds):
        """Per-round calls, self time in ref units and terms out."""
        self_ref = [0.0] * len(ENTRIES)
        for op_self, ref in zip(self.op_self_ns, local_ref_ns):
            for index, ns in enumerate(op_self):
                if ns:
                    self_ref[index] += ns / ref
        out = {}
        for index, (module, entry, terms) in enumerate(ENTRIES):
            base = entry_name(module, entry)
            out[base + ".calls"] = (self.calls[index] / rounds, "count")
            out[base + ".self_ref"] = (self_ref[index] / rounds, "ref")
            if terms:
                out[base + ".terms_out"] = (self.terms[index] / rounds,
                                            "count")
        return out

    def dump(self, path, op_labels):
        doc = {
            "entries": [entry_name(m, e) for m, e, _ in ENTRIES],
            "ops": op_labels,
            "spans_dropped": self.spans_dropped,
            "spans": {
                "entry": self.span_entry.tolist(),
                "op": self.span_op.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
