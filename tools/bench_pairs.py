"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W
        [--seeds 1-10] [--seconds 12] [--out FILE]

For each seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, one run at a time: the parent first at odd seeds
and the change first at even ones.  It reads each run's last stdout
line (the run's JSON object).  A run that exits non-zero, prints no
JSON, or reports ``correct: false`` is a failed run; it is listed and
reported, and its metrics (if any) are left out of the medians.

The summary holds, for each end-to-end metric of the parent's
BENCHMARK.json: both sides' medians, the change's median difference in
percent, "change lower in k of n" (the pairs in which both runs gave the
metric), the parent's interquartile range in percent of its median
(statistics.quantiles, inclusive), the bound, whether the change is
within it, and whether it is resolved (the parent's spread is under the
bound).  It also holds whether every run was correct and each side's
failed share (failed / attempted) per seed.  The summary prints as one
Markdown table.  With --out, the summary and the runs are written under
FILE's "summary" and "runs", keyed and tagged by workload; other
workloads and other fields already in FILE are kept, so one file can
collect several workloads.  The checkouts see nothing written but
perfbench's own run records in perfbench/out/.  Stdlib only.  Exit 1 if
a run failed, 2 on bad arguments, else 0, whatever the figures say.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    """"1-10", "9001" or "1,3,5-7" as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError("no seeds in %r" % text)
    return seeds


def order(seed):
    """The parent runs first at odd seeds, the change at even ones."""
    return list(SIDES) if seed % 2 else list(reversed(SIDES))


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; its JSON object, or a failed record saying why."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        run = None
    if proc.returncode or not isinstance(run, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "exit": proc.returncode, "error": tail,
                **(run if isinstance(run, dict) else {})}
    return run


def run_pairs(parent, change, workload, seeds, seconds):
    """The runs of every pair, in the order they were made."""
    dirs = {"parent": parent, "change": change}
    runs = []
    for seed in seeds:
        for side in order(seed):
            print("%s seed %d: %s" % (workload, seed, side), file=sys.stderr)
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "order": order(seed),
                         "run": run_once(dirs[side], workload, seed,
                                         seconds)})
    return runs


def summarize(runs, end_to_end):
    """The summary of one workload's runs (see the module docstring)."""
    by_seed = {}
    for entry in runs:
        by_seed.setdefault(entry["seed"], {})[entry["side"]] = entry["run"]
    seeds = sorted(by_seed)
    summary = {
        "pairs": len(seeds),
        "all_correct": all(entry["run"].get("correct") is True
                           for entry in runs),
        "failed_share": {side: [
            round(by_seed[s][side]["failed"] / by_seed[s][side]["attempted"],
                  4) if by_seed[s][side].get("attempted") else None
            for s in seeds] for side in SIDES},
    }
    for spec in end_to_end:
        name, bound_pct = spec["name"], 100 * spec["bound"]
        pairs = []
        for s in seeds:
            pair = [by_seed[s][side] for side in SIDES]
            if all(run.get("correct") is True for run in pair):
                pairs.append([run["metrics"][name]["value"] for run in pair])
        if not pairs:
            summary[name] = {"pairs": 0}
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        old, new = statistics.median(parent), statistics.median(change)
        lower = sum(c < p for p, c in pairs)
        iqr = (statistics.quantiles(parent, n=4, method="inclusive")
               if len(parent) > 1 else [old, old, old])
        iqr_pct = round(100 * (iqr[2] - iqr[0]) / old, 1)
        change_pct = round(100 * (new - old) / old, 1)
        worse_pct = change_pct if spec["better"] == "lower" else -change_pct
        summary[name] = {
            "parent_median": round(old, 4),
            "change_median": round(new, 4),
            "median_change_pct": change_pct,
            "change_lower_in": "%d of %d" % (lower, len(pairs)),
            "parent_iqr_pct": iqr_pct,
            "bound_pct": bound_pct,
            "within_bound": worse_pct <= bound_pct,
            "resolved": iqr_pct < bound_pct,
        }
    return summary


def _share(values):
    shown = ["-" if v is None else "%.4f" % v for v in values]
    return shown[0] if len(set(shown)) == 1 else ", ".join(shown)


def table(workload, summary, runs):
    """The summary as Markdown: one row per metric, then the run record."""
    lines = ["%s, %d pairs:" % (workload, summary["pairs"]), "",
             "| metric | parent median | change median | change | "
             "change lower in | parent IQR | bound | within bound |",
             "|---|---|---|---|---|---|---|---|"]
    for name, row in summary.items():
        if not isinstance(row, dict) or "parent_median" not in row:
            if isinstance(row, dict) and row.get("pairs") == 0:
                lines.append("| %s | no correct pair |||||||" % name)
            continue
        lines.append("| %s | %.4f | %.4f | %+.1f%% | %s | %.1f%% | %.0f%% | "
                     "%s |" % (name, row["parent_median"],
                               row["change_median"],
                               row["median_change_pct"],
                               row["change_lower_in"],
                               row["parent_iqr_pct"], row["bound_pct"],
                               "yes" if row["within_bound"] else "NO"))
    lines += ["", "All runs correct: %s.  Failed share: parent %s, "
              "change %s." % ("yes" if summary["all_correct"] else "NO",
                              _share(summary["failed_share"]["parent"]),
                              _share(summary["failed_share"]["change"]))]
    for entry in runs:
        run = entry["run"]
        if run.get("correct") is not True:
            lines.append("Failed run: %s seed %d, %s: %s" % (
                entry["workload"], entry["seed"], entry["side"],
                run.get("error", "correct: false")))
    return "\n".join(lines)


def write_out(path, workload, summary, runs):
    """Merge this workload's summary and runs into the JSON file at path."""
    doc = {}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc.setdefault("summary", {})[workload] = summary
    doc["runs"] = [entry for entry in doc.get("runs", [])
                   if entry["workload"] != workload] + runs
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", default=12.0, type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    runs = run_pairs(args.parent, args.change, args.workload, args.seeds,
                     args.seconds)
    summary = summarize(runs, end_to_end)
    print(table(args.workload, summary, runs))
    if args.out:
        write_out(args.out, args.workload, summary, runs)
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
