"""Engine loading, the reference kernel, and the closed-loop timer.

Every operation is timed in raw nanoseconds and, between operations,
the reference kernel below is timed as well.  Dividing an operation's
time by the reference time measured next to it gives its cost in
``ref`` units, which cancels most of the machine-speed drift of a
shared host (a fixed pure-Python loop can vary by +-15% within seconds
there).  The kernel must never change: every ``ref`` figure ever
recorded is relative to it.
"""

import bisect
import gc
import importlib
import os
import statistics
import sys
import time
import types
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENGINE = "goldman_forge"
MODULES = ("surface", "tensoralg", "magnus", "goldman", "barcx", "suites",
           "cli")

# fixed result of reference_kernel(); the benchmark's tests pin it
REFERENCE_RESULT = Fraction(642847, 420)

_ZERO = Fraction(0)


def reference_kernel():
    """Fraction arithmetic on a small dict keyed by tuples (~0.4 ms)."""
    acc = {}
    for i in range(1, 97):
        key = (i % 4, i % 3)
        acc[key] = acc.get(key, _ZERO) + Fraction(i, i % 7 + 1)
    total = _ZERO
    for key in sorted(acc):
        total += acc[key] * Fraction(key[0] + 1, key[1] + 2)
    return total


def reference_ns():
    """One timing of the reference kernel, garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        reference_kernel()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class EngineMissing(RuntimeError):
    """The checkout has no engine sources next to the benchmark."""


def load_engine():
    """Import the engine from this checkout's src/, afresh.

    Any engine modules already imported are dropped first, so each call
    pays the whole import again; set-up is measured several times.
    Returns a namespace with one attribute per engine module.
    """
    if not os.path.isfile(os.path.join(SRC, ENGINE, "__init__.py")):
        raise EngineMissing("no engine sources at %s" % os.path.join(SRC, ENGINE))
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == ENGINE or n.startswith(ENGINE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(ENGINE)
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(SRC, ENGINE):
        raise EngineMissing("engine imported from %s, not from this checkout"
                            % where)
    modules = {name: importlib.import_module("%s.%s" % (ENGINE, name))
               for name in MODULES}
    return types.SimpleNamespace(**modules)


class Raised:
    """An exception an operation raised, kept as its output."""

    __slots__ = ("kind", "message")

    def __init__(self, err):
        self.kind = type(err).__name__
        self.message = str(err)

    def __eq__(self, other):
        return (isinstance(other, Raised) and self.kind == other.kind
                and self.message == other.message)

    def __repr__(self):
        return "Raised(%s: %s)" % (self.kind, self.message)


def call_op(op):
    try:
        return op.call()
    except Exception as err:  # recorded and counted; the run goes on
        return Raised(err)


class Stretch:
    """Timings of one timed stretch, in nanoseconds: op_at[j] and op_ns[j]
    are the j-th operation's start and duration, ref_at[k] and ref_ns[k]
    the k-th reference timing's start and duration.  Reference k is
    taken just before operation k, and the last one after the last
    operation."""

    def __init__(self):
        self.op_at, self.op_ns, self.ref_at, self.ref_ns = [], [], [], []
        self.rounds = 0

    def reference(self):
        self.ref_at.append(time.perf_counter_ns())
        self.ref_ns.append(reference_ns())


def run_rounds(ops, seconds, min_ops, on_output, hooks=None):
    """Closed loop, one caller: whole rounds of ``ops`` until both
    ``seconds`` have passed and at least ``min_ops`` were attempted.

    Returns a Stretch.  ``on_output(round, index, out)`` runs outside
    the timed region.
    """
    stretch = Stretch()
    stretch.reference()
    start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            if hooks is not None:
                hooks.begin_op()
            t0 = time.perf_counter_ns()
            out = call_op(op)
            elapsed = time.perf_counter_ns() - t0
            if hooks is not None:
                hooks.end_op()
            stretch.op_at.append(t0)
            stretch.op_ns.append(elapsed)
            on_output(stretch.rounds, index, out)
            stretch.reference()
        stretch.rounds += 1
        if time.perf_counter() - start >= seconds and \
                len(stretch.op_ns) >= min_ops:
            return stretch


def local_refs(stretch):
    """Reference time for each operation: the median of the reference
    timings taken within two operations of it (up to six samples) and
    of all those taken from one operation-length before its start to
    one operation-length after its end.

    The machine's speed changes in steps that last milliseconds to
    seconds.  A short operation shares its step with the timings next
    to it; a long one lives through many steps, so its reference is
    drawn from a stretch of time as long as itself on either side.
    """
    at, ref_ns = stretch.ref_at, stretch.ref_ns
    out = []
    for j, (start, took) in enumerate(zip(stretch.op_at, stretch.op_ns)):
        lo = min(max(0, j - 2), bisect.bisect_left(at, start - took))
        hi = max(j + 4, bisect.bisect_right(at, start + 2 * took))
        out.append(statistics.median(ref_ns[lo:hi]))
    return out


def round_work(values, per_round):
    """Work of one round: each operation's median over the rounds
    (every round repeats the same operations), summed over the round."""
    return sum(statistics.median(values[i::per_round])
               for i in range(per_round))


def summarize(stretch, per_round):
    """End-to-end figures of one timed stretch, in ref and in seconds."""
    op_ns = stretch.op_ns
    ref = local_refs(stretch)
    op_ref = [t / r for t, r in zip(op_ns, ref)]
    return {
        "rounds": stretch.rounds,
        "ops": len(op_ns),
        "work_ref": round_work(op_ref, per_round),
        "op_p50_ref": statistics.median(op_ref),
        "op_p90_ref": percentile90(op_ref),
        "work_wall_s": round_work(op_ns, per_round) / 1e9,
        "op_p50_wall_s": statistics.median(op_ns) / 1e9,
        "op_p90_wall_s": percentile90(op_ns) / 1e9,
        "ref_wall_s": statistics.median(stretch.ref_ns) / 1e9,
        "op_ref": op_ref,
        "local_ref_ns": ref,
    }


def percentile90(values):
    return statistics.quantiles(values, n=10)[-1]
