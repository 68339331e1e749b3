"""Reference figures for the README, measured once on demand.

    python3 perfbench/reference_figures.py

Prints three things as JSON: a noise probe (the reference kernel timed
back to back, and a fixed 25 ms pure-Python loop timed in raw seconds
and in ref units); the cost of each of the ten verify suites at the
acceptance parameters of tests/test_acceptance.py, in ref units beside
raw seconds; and, from a second, traced run of each suite, how its self
time splits over the entry points of tracing.py.  The reference time of
a suite is the median of the kernel timings taken just before and just
after it.
"""

import json
import statistics
import sys
import time

sys.dont_write_bytecode = True

import harness  # noqa: E402
import tracing  # noqa: E402

# suite name -> keyword arguments, as tests/test_acceptance.py runs them
ACCEPTANCE = (
    ("jacobi", {"genus": 2, "boundary": 1, "count": 200, "max_len": 8}),
    ("perturbation", {"genus": 1, "boundary": 1, "count": 200}),
    ("gr-bracket", {"trunc": 6, "count": 200, "pairs": 100}),
    ("leibniz", {"trunc": 5}),
    ("adams", {"trunc": 8}),
    ("bar", {"conj_count": 200, "eval_count": 100, "square_len": 4}),
    ("kvi", {"trunc": 6}),
    ("twist", {"trunc": 5}),
    ("resolution", {"n_max": 6}),
    ("bipair", {}),
)


def _loop_25ms():
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return total


def noise_probe(samples=40):
    refs = [harness.reference_ns() for _ in range(2000)]
    raw, in_ref = [], []
    for _ in range(samples):
        before = statistics.median(harness.reference_ns() for _ in range(3))
        start = time.perf_counter_ns()
        _loop_25ms()
        took = time.perf_counter_ns() - start
        after = statistics.median(harness.reference_ns() for _ in range(3))
        raw.append(took / 1e9)
        in_ref.append(took / ((before + after) / 2))

    def spread(values):
        q = statistics.quantiles(values, n=4)
        return {"median": statistics.median(values), "min": min(values),
                "max": max(values),
                "iqr_over_median": (q[2] - q[0]) / statistics.median(values)}

    return {"reference_kernel_s": spread([r / 1e9 for r in refs]),
            "loop_raw_s": spread(raw), "loop_ref": spread(in_ref)}


def suites(gf):
    out = {}
    for name, options in ACCEPTANCE:
        before = statistics.median(harness.reference_ns() for _ in range(5))
        start = time.perf_counter_ns()
        report = gf.suites.run_suite(name, **options)
        took = time.perf_counter_ns() - start
        after = statistics.median(harness.reference_ns() for _ in range(5))
        out[name] = {"wall_s": took / 1e9,
                     "ref": took / statistics.median([before, after]),
                     "passed": report["passed"]}
    return out


def suite_layers(gf, top=5):
    """Each suite's self time by entry point, as a share of the traced
    time of the whole suite, for the entry points with the largest
    shares."""
    tracer = tracing.Tracer(gf)
    totals = []
    tracer.install()
    try:
        for name, options in ACCEPTANCE:
            tracer.begin_op()
            start = time.perf_counter_ns()
            gf.suites.run_suite(name, **options)
            totals.append(time.perf_counter_ns() - start)
            tracer.end_op()
    finally:
        tracer.remove()
    out = {}
    for (name, _), op_self, total in zip(ACCEPTANCE, tracer.op_self_ns,
                                         totals):
        shares = sorted(((ns / total, tracing.entry_name(module, entry))
                         for ns, (module, entry, _) in zip(op_self,
                                                           tracing.ENTRIES)
                         if ns), reverse=True)
        out[name] = {entry: round(100 * share, 1)
                     for share, entry in shares[:top]}
    return out


def main():
    gf = harness.load_engine()
    print(json.dumps({"noise_probe": noise_probe(), "suites": suites(gf),
                      "self_time_pct": suite_layers(gf)}, indent=1))


if __name__ == "__main__":
    main()
