"""Tests for the verification-suite runner plumbing."""

import pytest

from goldman_forge import suites


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
        report = suites.run_suite("bipair", trunc=None, count=4, seed=3)
        assert report["params"]["trunc"] == 5

    def test_report_shape(self):
        report = suites.run_suite("perturbation", count=5)
        assert report["suite"] == "perturbation"
        assert all(set(check) == {"name", "cases", "passed", "failures"}
                   for check in report["checks"])
