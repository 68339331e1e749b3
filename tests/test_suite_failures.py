"""The filtration checks fail on cue.

Each fault below is patched into the name the suites module imports,
never into an engine module, so nothing outside the suite under test
sees it.  A fault adds one stray term of weight 1 to an operation's
output, which every check that compares that output must catch.  For
each fault the test pins the exact set of failing checks and the sha256
of the whole failing report, so a changed message, count or first
counterexample shows up as a mismatch.
"""

import hashlib
import json
import re

import pytest

from goldman_forge import cli, suites
from goldman_forge.goldman import (
    adams,
    bi_pairing,
    goldman_bracket,
    kk_action,
)
from goldman_forge.surface import FreeWord, Path, cyclic_normal_form

A1 = FreeWord((("a1", 1),))


def bracket_plus_a1(u, v, convention="default"):
    """The bracket plus |a1| under the default convention only."""
    out = goldman_bracket(u, v, convention).copy()
    if convention == "default":
        out.add_term(cyclic_normal_form(A1), 1)
    return out


def action_plus_a1(u, gamma, convention="default"):
    """The action plus the path a1 between gamma's tags."""
    out = kk_action(u, gamma, convention).copy()
    out.add_term(Path(gamma.from_tag, gamma.to_tag, A1), 1)
    return out


def pairing_plus_a1(gamma1, gamma2, convention="default"):
    """The pairing plus the pair (a1, 1) on the output's tags."""
    out = bi_pairing(gamma1, gamma2, convention).copy()
    out.add_term((Path(gamma1.from_tag, gamma2.to_tag, A1),
                  Path(gamma2.from_tag, gamma1.to_tag)), 1)
    return out


def adams_plus_a1(n, u):
    """The power map plus |a1|."""
    out = adams(n, u).copy()
    out.add_term(cyclic_normal_form(A1), 1)
    return out


# (suite, patched name, fault, failing checks, sha256 of the report's
# JSON with sorted keys), each at the suite's defaults
FAULTS = [
    ("gr-bracket", "goldman_bracket", bracket_plus_a1,
     {"bracket_shift", "graded_agreement"},
     "2a14580c8ec40c1a90b1eda45adce119ba3a2f3d094046d98d0585c5627c858d"),
    ("gr-bracket", "kk_action", action_plus_a1,
     {"action_shift"},
     "4b11b71cf2f5e8269f63f0392bc33b4dac1aa8de942e657f623c5cb77ff93a5a"),
    ("bipair", "bi_pairing", pairing_plus_a1,
     {"bilinearity", "degree_shift", "noncrossing_vanishes",
      "crossing_example"},
     "87feaec249ebf296a8cae286f6b3cb4aa62315f82b396af33d481de237285ba0"),
    ("adams", "adams_operation", adams_plus_a1,
     {"power_map_definition", "composition", "filtration_preserved",
      "weight_one_scaling"},
     "944bb84e2e213d054884169bc39ce302fa88044195512bd27be6be6686bedf22"),
]

SHIFT_MESSAGES = {"bracket_shift": "bracket drops too far: ",
                  "action_shift": "action drops too far: ",
                  "degree_shift": "pairing drops too far: "}


def _digest(report):
    blob = json.dumps(report, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("suite, name, fault, failing, digest", FAULTS,
                         ids=[f[1] for f in FAULTS])
def test_the_fault_fails_exactly_its_checks(monkeypatch, suite, name, fault,
                                            failing, digest):
    monkeypatch.setattr(suites, name, fault)
    report = suites.run_suite(suite)
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert set(failed) == failing
    assert not report["passed"]
    for check in failed.values():
        assert check["failures"]
        first = check["failures"][0]
        if check["name"] in SHIFT_MESSAGES:
            # located: the message names both operands, then the bound
            located = r"<\w+Sum .*>, <\w+Sum .*> \(\d+ < "
            assert re.match(SHIFT_MESSAGES[check["name"]] + located,
                            first), first
    assert _digest(report) == digest


def test_the_cli_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(suites, "bi_pairing", pairing_plus_a1)
    assert cli.main(["verify", "bipair"]) == cli.EXIT_FAILED
    assert "degree_shift" in capsys.readouterr().out
