"""tools/bench_pairs.py on two stub checkouts.

Each checkout's perfbench/run.py is a stub that logs its call and prints
a JSON line whose figures follow from its side and seed, so the medians,
the pair counts and the order of the runs are known in advance.  A run
can be made to exit non-zero or to report ``correct: false``.
"""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_pairs.py")

# work_ref: parent 100 + seed, change 90 + seed but 200 at seed 3;
# peak_rss_mb 20 on both sides; attempted 100, failed 5 on the change
STUB = '''\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = open("SIDE").read().strip()
seed = int(args["--seed"])
with open(os.environ["BENCH_PAIRS_LOG"], "a") as log:
    log.write("%s %d %s %s\\n" % (side, seed, args["--workload"],
                                 args["--seconds"]))
fail = os.environ.get("BENCH_PAIRS_FAIL", "").split(",")
if "%s %d exit" % (side, seed) in fail:
    sys.exit("stub: told to fail")
work = 100 + seed if side == "parent" else (200 if seed == 3 else 90 + seed)
print("a summary line")
print(json.dumps({
    "correct": "%s %d false" % (side, seed) not in fail,
    "attempted": 100, "failed": 5 if side == "change" else 0,
    "metrics": {"work_ref": {"value": work, "unit": "ref"},
                "peak_rss_mb": {"value": 20.0, "unit": "MB"}}}))
'''

BENCHMARK = {"end_to_end": [
    {"name": "work_ref", "unit": "ref", "better": "lower", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _checkouts(tmp_path, monkeypatch, fail=""):
    dirs = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB)
        (root / "SIDE").write_text(side)
        (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        dirs[side] = str(root)
    log = tmp_path / "calls.log"
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(log))
    monkeypatch.setenv("BENCH_PAIRS_FAIL", fail)
    return dirs, log


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def test_pairs_alternate_and_summarize(tmp_path, monkeypatch, capsys):
    tool = _tool()
    dirs, log = _checkouts(tmp_path, monkeypatch)
    before = {side: _files(d) for side, d in dirs.items()}
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept", "summary": {"other": {}},
                               "runs": [{"workload": "other"}]}))
    status = tool.main(["--parent", dirs["parent"], "--change",
                        dirs["change"], "--workload", "resolution",
                        "--seeds", "1-3", "--seconds", "2", "--out",
                        str(out)])
    assert status == 0
    # parent first at odd seeds, change first at even ones
    assert log.read_text().split("\n")[:-1] == [
        "parent 1 resolution 2.0", "change 1 resolution 2.0",
        "change 2 resolution 2.0", "parent 2 resolution 2.0",
        "parent 3 resolution 2.0", "change 3 resolution 2.0"]
    assert {side: _files(d) for side, d in dirs.items()} == before
    doc = json.loads(out.read_text())
    assert doc["what"] == "kept" and "other" in doc["summary"]
    runs = [entry for entry in doc["runs"] if entry["workload"] != "other"]
    assert [(r["seed"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]
    assert [r["order"][0] for r in runs[::2]] == ["parent", "change",
                                                  "parent"]
    summary = doc["summary"]["resolution"]
    assert summary["pairs"] == 3 and summary["all_correct"] is True
    assert summary["failed_share"] == {"parent": [0.0] * 3,
                                       "change": [0.05] * 3}
    # parent 101, 102, 103; change 91, 92, 200
    assert summary["work_ref"] == {
        "parent_median": 102, "change_median": 92,
        "median_change_pct": -9.8, "change_lower_in": "2 of 3",
        "parent_iqr_pct": 1.0, "bound_pct": 15.0, "within_bound": True,
        "resolved": True}
    assert summary["peak_rss_mb"]["change_lower_in"] == "0 of 3"
    assert summary["peak_rss_mb"]["median_change_pct"] == 0.0
    table = capsys.readouterr().out
    assert "| work_ref | 102.0000 | 92.0000 | -9.8% | 2 of 3 | 1.0% | 15% " \
        "| yes |" in table
    assert "All runs correct: yes.  Failed share: parent 0.0000, change " \
        "0.0500." in table


def test_a_failed_run_is_reported(tmp_path, monkeypatch, capsys):
    tool = _tool()
    dirs, _ = _checkouts(tmp_path, monkeypatch,
                         "change 2 exit,parent 3 false")
    status = tool.main(["--parent", dirs["parent"], "--change",
                        dirs["change"], "--workload", "surgery",
                        "--seeds", "1-3"])
    table = capsys.readouterr().out
    assert status == 1
    assert "All runs correct: NO.  Failed share: parent 0.0000, change " \
        "0.0500, -, 0.0500." in table
    assert "Failed run: surgery seed 2, change: stub: told to fail" in table
    assert "Failed run: surgery seed 3, parent: correct: false" in table
    # the pairs with a failed run are left out of the medians
    assert "| work_ref | 101.0000 | 91.0000 | -9.9% | 1 of 1 |" in table


def test_seed_lists():
    tool = _tool()
    assert tool.parse_seeds("1-10") == list(range(1, 11))
    assert tool.parse_seeds("9001") == [9001]
    assert tool.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]
