"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with -s to see the lines.  Every comparison in every suite is exact
rational arithmetic; a criterion passes only if its report carries zero
failures, and the timed criteria must also come in under their budgets.
Each criterion also pins the sha256 of its reports' JSON, so a change to
any count, flag or located failure shows up as a digest mismatch; a
deliberate change to a report must update its digest in the same commit.
"""

import hashlib
import json
import time

from goldman_forge import suites

SURFACES = ((1, 1), (2, 1), (1, 2), (0, 3))

_reports = {}

DIGESTS = {
    1: "fe8876b95dc3ddafe1deb8af14618fbbae9fe559361d0dfff73c22b0a1a21238",
    2: "16d98bca8b1c56bb2e47246300ef5c5a938d0dbd8aff011e28cd479bb0bfb9e5",
    3: "7de07f6ee31f55fe3ce212192372216c6aa19ad6af677cbea314f00c3ad3d282",
    5: "48a093399916d45599a557e908f13a2424aba921ac4d99da56ff426b086b2571",
    6: "1c173fa49b3ba1412167bade839074b4eb2db54266678be36feba7d3cc71838f",
    7: "3d4835e62baa1495c1c596cce046563870b642666b78ea4a4db31d77a6581a91",
    8: "d2ce6c2e737055021f3d619b63ec5bf53e75e53e4c8bb760c14eadac9ba427b5",
    9: "65bb3ca395e65b93b78c62b93b44eb0b079ed782778bca2ea011d2ee638753e2",
    10: "1d38099e767ba8f5489df74a2955dfca369483583cc565547dba1b07c8a48ed2",
    11: "868c83d14a78ea47b747cccef1e1a5bcdd286a6da56d1e562732bd4bd147e03b",
}


def _gr_report():
    if "gr" not in _reports:
        _reports["gr"] = suites.gr_bracket(trunc=6)
    return _reports["gr"]


def _line(index, label, passed):
    print("criterion %02d %s: %s" % (index, label,
                                     "PASS" if passed else "FAIL"))


def _digest(*reports):
    blob = json.dumps(reports, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _checks(report):
    return {check["name"]: check for check in report["checks"]}


def test_criterion_01_lie_axioms():
    reports = []
    budgets = []
    for g, b in SURFACES:
        start = time.monotonic()
        reports.append(suites.jacobi(genus=g, boundary=b))
        budgets.append(time.monotonic() - start)
    passed = all(report["passed"] for report in reports)
    in_budget = all(t < 180.0 for t in budgets)
    _line(1, "loop bracket lie axioms", passed and in_budget)
    assert passed
    assert in_budget, budgets
    assert _digest(*reports) == DIGESTS[1]


def test_criterion_02_perturbation_independence():
    reports = [suites.perturbation(genus=g, boundary=b)
               for g, b in SURFACES]
    passed = all(report["passed"] for report in reports)
    _line(2, "strand perturbation independence", passed)
    assert passed
    assert _digest(*reports) == DIGESTS[2]


def test_criterion_03_filtration_shift():
    checks = _checks(_gr_report())
    bracket = checks["bracket_shift"]
    action = checks["action_shift"]
    passed = bracket["passed"] and action["passed"]
    _line(3, "filtration shift by two", passed)
    assert bracket["cases"] >= 200 and action["cases"] >= 200
    assert passed, (bracket["failures"], action["failures"])
    # the same report backs criterion 04
    assert _digest(_gr_report()) == DIGESTS[3]


def test_criterion_04_graded_bracket_agreement():
    check = _checks(_gr_report())["graded_agreement"]
    _line(4, "graded necklace bracket agreement", check["passed"])
    assert check["cases"] >= 100
    assert check["passed"], check["failures"]


def test_criterion_05_action_derivation_structure():
    report = suites.leibniz(trunc=5)
    names = _checks(report)
    wanted = ("leibniz", "lie_action", "unit_acts_by_zero",
              "boundary_log_in_kernel", "kernel_spanned_by_unit")
    passed = all(names[n]["passed"] for n in wanted)
    _line(5, "action derivation structure", passed)
    assert passed, report
    assert _digest(report) == DIGESTS[5]


def test_criterion_06_twist_formula():
    start = time.monotonic()
    report = suites.twist(trunc=5)
    elapsed = time.monotonic() - start
    passed = report["passed"] and elapsed < 120.0
    _line(6, "twist logarithm formula", passed)
    assert report["passed"], report
    assert elapsed < 120.0, elapsed
    assert _digest(report) == DIGESTS[6]


def test_criterion_07_symplectic_expansions():
    start = time.monotonic()
    report = suites.kvi(trunc=6)
    elapsed = time.monotonic() - start
    passed = report["passed"] and elapsed < 300.0
    _line(7, "symplectic expansion certificates", passed)
    assert report["passed"], report
    assert elapsed < 300.0, elapsed
    assert _digest(report) == DIGESTS[7]


def test_criterion_08_power_maps():
    report = suites.adams(trunc=8)
    _line(8, "power map laws", report["passed"])
    assert report["passed"], report
    assert _digest(report) == DIGESTS[8]


def test_criterion_09_bar_construction():
    report = suites.bar()
    _line(9, "bar construction identities", report["passed"])
    assert report["passed"], report
    assert _digest(report) == DIGESTS[9]


def test_criterion_10_resolution_exactness():
    start = time.monotonic()
    report = suites.resolution()
    elapsed = time.monotonic() - start
    passed = report["passed"] and elapsed < 60.0
    _line(10, "resolution exactness", passed)
    assert report["passed"], report
    assert elapsed < 60.0, elapsed
    assert _digest(report) == DIGESTS[10]


def test_criterion_11_bi_pairing():
    report = suites.bipair()
    _line(11, "path pair surgery laws", report["passed"])
    assert report["passed"], report
    assert _digest(report) == DIGESTS[11]
