"""goldman-forge benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the engine is imported from ./src.
One caller in one thread repeats whole rounds of the workload's
operations for --seconds, timing each operation and, between
operations, the fixed reference kernel (see harness.py).  After the
timed region every output of the first round is checked, and every
later round must reproduce it.  The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Run records and trace dumps go to
perfbench/out/.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

sys.dont_write_bytecode = True

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is timed five times, two before the timed region and three
# after it, so that its median spans more of the machine's speed changes
SETUP_BEFORE, SETUP_AFTER = 2, 3
MIN_OPS = 100           # the 90th percentile keeps >= 10 samples beyond it
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(name, seed):
    """Import the engine, build the seeded round and warm it up.

    Warm-up runs the first operation of each kind once (for queries,
    the first request only: cold per-call set-up is what it measures).
    """
    start = time.perf_counter()
    gf = harness.load_engine()
    ops = workloads.WORKLOADS[name](gf, random.Random("%s:%d" % (name, seed)))
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            harness.call_op(op)
        if name == "queries":
            break
    return gf, ops, time.perf_counter() - start


class Outputs:
    """First-round outputs, and whether later rounds reproduced them."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.mismatches = 0
        self.examples = []

    def __call__(self, round_index, index, out):
        if round_index == 0:
            self.first[index] = out
            return
        first = self.first[index]
        op = self.ops[index]
        if isinstance(out, harness.Raised) or isinstance(first,
                                                         harness.Raised):
            same = out == first
        else:
            same = op.same(first, out)
        if not same:
            self.mismatches += 1
            if len(self.examples) < 5:
                self.examples.append("round %d: %s gave a different output"
                                     % (round_index, op.label))

    def check(self):
        """(failures of known faults, failures of anything else)."""
        outs = dict(zip(self.ops, self.first))
        known, other = [], []
        for op, out in zip(self.ops, self.first):
            failure = op.failure(out, outs)
            if failure:
                (known if op.known_fault else other).append(
                    "%s: %s" % (op.label, failure))
        return known, other


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("GOLDMAN_FORGE_THREADS", None)
    setup_each_s = []
    try:
        for _ in range(SETUP_BEFORE):
            gf, ops, took = set_up(args.workload, args.seed)
            setup_each_s.append(took)
    except harness.EngineMissing as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    outputs = Outputs(ops)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops_per_round": len(ops)}
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.trace:
        half = args.seconds / 2
        plain = harness.summarize(harness.run_rounds(ops, half, 1, outputs),
                                  len(ops))
        tracer = tracing.Tracer(gf)
        tracer.install()
        try:
            stretch = harness.run_rounds(ops, half, 1, outputs, hooks=tracer)
        finally:
            tracer.remove()
        traced = harness.summarize(stretch, len(ops))
        restored = tracer.restored()
        rounds_run = plain["rounds"] + stretch.rounds
        layer = tracer.metrics(traced["local_ref_ns"], stretch.rounds)
        overhead = 100.0 * (traced["work_ref"] / plain["work_ref"] - 1.0)
        layer["trace.overhead_pct"] = (overhead, "%")
        tracer.dump(os.path.join(OUT_DIR, "trace-%s-s%d.json"
                                 % (args.workload, args.seed)),
                    [op.label for op in ops])
        record.update(untraced=_figures(plain), traced=_figures(traced),
                      wrappers_restored=restored, patched=len(tracer.patches))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
    else:
        stretch = harness.run_rounds(ops, args.seconds, MIN_OPS, outputs)
        rss = peak_rss_mb()
        summary = harness.summarize(stretch, len(ops))
        rounds_run = stretch.rounds
        restored = True
        record.update(timed=_figures(summary), peak_rss_mb=rss)
        metrics = {
            "work_ref": {"value": summary["work_ref"], "unit": "ref"},
            "op_p50_ref": {"value": summary["op_p50_ref"], "unit": "ref"},
            "op_p90_ref": {"value": summary["op_p90_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    known, other = outputs.check()
    attempted = rounds_run * len(ops)
    failed = (len(known) + len(other)) * rounds_run
    correct = not other and not outputs.mismatches and restored
    # the rest of the set-ups come after the checks, which still need
    # the engine modules that the timed operations used
    for _ in range(SETUP_AFTER):
        setup_each_s.append(set_up(args.workload, args.seed)[2])
    setup_s = statistics.median(setup_each_s)
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    record.update(setup_s=setup_s, setup_each_s=setup_each_s,
                  attempted=attempted, failed=failed, correct=correct,
                  known_faults=known, failures=other,
                  mismatches=outputs.examples, metrics=metrics)
    with open(os.path.join(OUT_DIR, "run-%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    _print_summary(args, record)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _figures(summary):
    return {k: v for k, v in summary.items()
            if k not in ("op_ref", "local_ref_ns")}


def _print_summary(args, record):
    print("%s seed %d: attempted %d, failed %d, correct %s"
          % (args.workload, args.seed, record["attempted"], record["failed"],
             record["correct"]))
    for line in record["known_faults"] + record["failures"] + \
            record["mismatches"]:
        print("  failed: %s" % line)
    print("  setup_s %.4f (each %s)" % (record["setup_s"], ", ".join(
        "%.4f" % s for s in record["setup_each_s"])))
    if args.trace:
        for key in ("untraced", "traced"):
            f = record[key]
            print("  %s: %d rounds, work_ref %.1f (wall_s %.4f)"
                  % (key, f["rounds"], f["work_ref"], f["work_wall_s"]))
        print("  tracing overhead %.1f%%, %d attributes patched, restored %s"
              % (record["metrics"]["trace.overhead_pct"]["value"],
                 record["patched"], record["wrappers_restored"]))
        return
    f = record["timed"]
    print("  %d rounds of %d ops; ref kernel %.6f s"
          % (f["rounds"], record["ops_per_round"], f["ref_wall_s"]))
    for name in ("work", "op_p50", "op_p90"):
        print("  %s_ref %.3f (wall_s %.6f)" % (name, f[name + "_ref"],
                                                f[name + "_wall_s"]))
    print("  peak_rss_mb %.1f" % record["peak_rss_mb"])


if __name__ == "__main__":
    sys.exit(main())
