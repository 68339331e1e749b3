"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with -s to see the lines.  Every comparison in every suite is exact
rational arithmetic; a criterion passes only if its report carries zero
failures, and the timed criteria must also come in under their budgets.
"""

import time

from goldman_forge import suites

SURFACES = ((1, 1), (2, 1), (1, 2), (0, 3))

_reports = {}


def _gr_report():
    if "gr" not in _reports:
        _reports["gr"] = suites.gr_bracket(trunc=6, count=200, pairs=100)
    return _reports["gr"]


def _line(index, label, passed):
    print("criterion %02d %s: %s" % (index, label,
                                     "PASS" if passed else "FAIL"))


def _checks(report):
    return {check["name"]: check for check in report["checks"]}


def test_criterion_01_lie_axioms():
    passed = True
    budgets = []
    for g, b in SURFACES:
        start = time.monotonic()
        report = suites.jacobi(genus=g, boundary=b, count=200, max_len=8)
        budgets.append(time.monotonic() - start)
        passed = passed and report["passed"]
    in_budget = all(t < 180.0 for t in budgets)
    _line(1, "loop bracket lie axioms", passed and in_budget)
    assert passed
    assert in_budget, budgets


def test_criterion_02_perturbation_independence():
    passed = all(suites.perturbation(genus=g, boundary=b,
                                     count=200)["passed"]
                 for g, b in SURFACES)
    _line(2, "strand perturbation independence", passed)
    assert passed


def test_criterion_03_filtration_shift():
    checks = _checks(_gr_report())
    bracket = checks["bracket_shift"]
    action = checks["action_shift"]
    passed = bracket["passed"] and action["passed"]
    _line(3, "filtration shift by two", passed)
    assert bracket["cases"] >= 200 and action["cases"] >= 200
    assert passed, (bracket["failures"], action["failures"])


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


def test_criterion_06_twist_formula():
    start = time.monotonic()
    report = suites.twist(trunc=5)
    elapsed = time.monotonic() - start
    passed = report["passed"] and elapsed < 120.0
    _line(6, "twist logarithm formula", passed)
    assert report["passed"], report
    assert elapsed < 120.0, elapsed


def test_criterion_07_symplectic_expansions():
    start = time.monotonic()
    report = suites.kvi(trunc=6)
    elapsed = time.monotonic() - start
    passed = report["passed"] and elapsed < 300.0
    _line(7, "symplectic expansion certificates", passed)
    assert report["passed"], report
    assert elapsed < 300.0, elapsed


def test_criterion_08_power_maps():
    report = suites.adams(trunc=8)
    _line(8, "power map laws", report["passed"])
    assert report["passed"], report


def test_criterion_09_bar_construction():
    report = suites.bar(conj_count=200, eval_count=100, square_len=4)
    _line(9, "bar construction identities", report["passed"])
    assert report["passed"], report


def test_criterion_10_resolution_exactness():
    start = time.monotonic()
    report = suites.resolution(n_max=6)
    elapsed = time.monotonic() - start
    passed = report["passed"] and elapsed < 60.0
    _line(10, "resolution exactness", passed)
    assert report["passed"], report
    assert elapsed < 60.0, elapsed


def test_criterion_11_bi_pairing():
    report = suites.bipair()
    _line(11, "path pair surgery laws", report["passed"])
    assert report["passed"], report
