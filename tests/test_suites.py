"""Tests for the verification-suite runner plumbing."""

import inspect

import pytest

from goldman_forge import cli, suites

# the suite parameters verify sets, from --g, --b, --N and --seed
VERIFY_PARAMETERS = {"genus", "boundary", "trunc", "seed"}


class TestRunSuite:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suites.run_suite("nonsense")

    def test_filters_irrelevant_options(self):
        # twist takes no genus; the runner must drop it, not crash
        report = suites.run_suite("twist", genus=1, boundary=1, trunc=3,
                                  seed=11)
        assert report["passed"]
        assert report["params"]["trunc"] == 3

    def test_none_options_fall_back_to_defaults(self):
        report = suites.run_suite("twist", trunc=None, seed=None)
        assert report["params"]["trunc"] == 5

    def test_report_shape(self):
        report = suites.run_suite("perturbation", seed=5)
        assert report["suite"] == "perturbation"
        assert all(set(check) == {"name", "cases", "passed", "failures"}
                   for check in report["checks"])


def test_every_suite_parameter_is_a_verify_option():
    unset = [(name, param) for name, fn in sorted(suites.SUITES.items())
             for param in inspect.signature(fn).parameters
             if param not in VERIFY_PARAMETERS]
    assert unset == []


class TestGradedAgreementDrawCap:
    # at truncation 1 every generator of a genus-0 surface weighs 2, so
    # every reduced expansion vanishes and no pair is admissible

    def test_the_check_fails_with_the_shortfall(self):
        report = suites.gr_bracket(genus=0, boundary=2, trunc=1)
        checks = {c["name"]: c for c in report["checks"]}
        graded = checks.pop("graded_agreement")
        assert not graded["passed"]
        assert graded["cases"] == 0
        assert graded["failures"] == [
            "only 0 of 100 admissible pairs in 1000 draws"]
        assert all(c["passed"] for c in checks.values())
        assert not report["passed"]

    def test_the_cli_exits_1(self, capsys):
        argv = ["verify", "gr-bracket", "--g", "0", "--b", "2", "--N", "1"]
        assert cli.main(argv) == cli.EXIT_FAILED
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("FAIL")] == [
            "FAIL graded_agreement (0 cases)"]
