"""Every suite check fails on cue.

Each fault below is patched into the name the suites module imports,
never into an engine module, so nothing outside the suite under test
sees it.  Most faults add one stray term of weight 1 to an operation's
output, which every check that compares that output must catch; the
certificate faults flip a flag of the certificate's report.  For each
fault the test pins the exact set of failing checks and the sha256 of
the whole failing report, so a changed message, count or first
counterexample shows up as a mismatch.  Together the faults fail every
one of the suites' checks (CHECKS).
"""

import hashlib
import json
import re

import pytest

from goldman_forge import cli, suites
from goldman_forge.barcx import (
    BarElement,
    bar_differential,
    chen_pairing,
    dual_cs,
)
from goldman_forge.goldman import (
    adams,
    bi_pairing,
    dehn_twist,
    goldman_bracket,
    kk_action,
    kk_derivation,
)
from goldman_forge.magnus import (
    adams_series_check,
    kvi_check,
    resolution_check,
)
from goldman_forge.surface import FreeWord, Path, cyclic_normal_form
from goldman_forge.tensoralg import Derivation, TensorSeries, matrix_rank

A1 = FreeWord((("a1", 1),))

# every check of every suite, by suite
CHECKS = {
    "jacobi": {"antisymmetry", "jacobi"},
    "perturbation": {"bracket", "action"},
    "gr-bracket": {"bracket_shift", "action_shift", "graded_agreement"},
    "leibniz": {"leibniz", "lie_action", "unit_acts_by_zero",
                "boundary_log_in_kernel", "kernel_spanned_by_unit"},
    "adams": {"power_map_definition", "composition", "filtration_preserved",
              "weight_one_scaling", "symmetric_scaling"},
    "bar": {"differential_squares_to_zero", "shuffle_pairing_multiplicative",
            "composition_coproduct", "class_function_conjugation",
            "eval_hat_cs", "eval_hat_kk"},
    "kvi": {"surface_1_1", "surface_2_1", "surface_1_2"},
    "twist": {"logarithm_formula", "fixtures_fix_boundary"},
    "resolution": {"genus_1", "genus_2", "genus_3"},
    "bipair": {"bilinearity", "degree_shift", "noncrossing_vanishes",
               "crossing_example"},
}


def bracket_plus_a1(u, v, convention="default"):
    """The bracket plus |a1| under the default convention only."""
    out = goldman_bracket(u, v, convention).copy()
    if convention == "default":
        out.add_term(cyclic_normal_form(A1), 1)
    return out


def action_plus_a1(u, gamma, convention="default"):
    """The action plus the path a1 between gamma's tags under the default
    convention only."""
    out = kk_action(u, gamma, convention).copy()
    if convention == "default":
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


def derivation_plus_x1(u, trunc):
    """The induced derivation with x1 added to the image of x1."""
    d = kk_derivation(u, trunc)
    x1 = TensorSeries.generator(d.sig, trunc, "x1")
    return Derivation(d.sig, trunc, {**d.images, "x1": d.image("x1") + x1})


def rank_minus_1(rows):
    return matrix_rank(rows) - 1


def series_check_fails_at_4(n, p, k):
    return k != 4 and adams_series_check(n, p, k)


def pairing_plus_1(e, gamma):
    return chen_pairing(e, gamma) + 1


def differential_plus_xi1(e):
    """The bar differential plus the one-letter word [xi1]."""
    return bar_differential(e) + BarElement.word(e.model, ("xi1",))


def insertion_plus_word(e, w):
    """The cyclic insertion plus the word [w, eta1], which is no class
    function: conjugating a loop moves its pairing with [w, eta1]."""
    return dual_cs(e, w) + BarElement.word(e.model, (w, "eta1"))


def twist_times_a1(spec, curve, word, power=1):
    return dehn_twist(spec, curve, word, power=power) * A1


def certificate_fails(phi):
    return {**kvi_check(phi), "passed": False, "gr_identity": False}


def row_3_not_injective(genus, n_max):
    report = resolution_check(genus, n_max)
    report["rows"][3]["injective"] = False
    report["passed"] = False
    return report


# (suite, patched name, fault, failing checks, sha256 of the report's
# JSON with sorted keys), each at the suite's defaults; the four
# filtration faults are named by the patched name alone
FAULTS = [
    pytest.param(
        "jacobi", "goldman_bracket", bracket_plus_a1,
        {"antisymmetry", "jacobi"},
        "da4915ff6262c92ab4b7796d6df3249ac06147c7b3886d49400729048b64dcf9",
        id="jacobi-goldman_bracket"),
    pytest.param(
        "perturbation", "goldman_bracket", bracket_plus_a1,
        {"bracket"},
        "0a363f9524ceaf6de37d975b51ce1926fd23b468e139e5c9e024b698f5e5db5d",
        id="perturbation-goldman_bracket"),
    pytest.param(
        "perturbation", "kk_action", action_plus_a1,
        {"action"},
        "14ed0a4d7b234acf05d1d159f7bd29cf56edce8e5ac9b3e9613ead072557e720",
        id="perturbation-kk_action"),
    pytest.param(
        "gr-bracket", "goldman_bracket", bracket_plus_a1,
        {"bracket_shift", "graded_agreement"},
        "2a14580c8ec40c1a90b1eda45adce119ba3a2f3d094046d98d0585c5627c858d",
        id="goldman_bracket"),
    pytest.param(
        "gr-bracket", "kk_action", action_plus_a1,
        {"action_shift"},
        "4b11b71cf2f5e8269f63f0392bc33b4dac1aa8de942e657f623c5cb77ff93a5a",
        id="kk_action"),
    pytest.param(
        "leibniz", "kk_action", action_plus_a1,
        {"leibniz", "unit_acts_by_zero"},
        "83e55f9cc0d5efb137480a31d796d941f57c8a132fa932c89552bcb202b84dbe",
        id="leibniz-kk_action"),
    pytest.param(
        "leibniz", "kk_derivation", derivation_plus_x1,
        {"lie_action", "unit_acts_by_zero", "boundary_log_in_kernel"},
        "00a26e515a66600da853c811772e78dd7129c50a67d7bfb2b291fc4e00edfa0a",
        id="leibniz-kk_derivation"),
    pytest.param(
        "leibniz", "matrix_rank", rank_minus_1,
        {"kernel_spanned_by_unit"},
        "103b43414a7a7864f2a9c83cbd1c32986fcb950c4250df35693303c5d70011ef",
        id="leibniz-matrix_rank"),
    pytest.param(
        "adams", "adams_operation", adams_plus_a1,
        {"power_map_definition", "composition", "filtration_preserved",
         "weight_one_scaling"},
        "944bb84e2e213d054884169bc39ce302fa88044195512bd27be6be6686bedf22",
        id="adams_operation"),
    pytest.param(
        "adams", "adams_series_check", series_check_fails_at_4,
        {"symmetric_scaling"},
        "856df746882db327a7e8f41a17a4adc9d5b39fbe25b5dac9172d055f05f424ac",
        id="adams-adams_series_check"),
    pytest.param(
        "bar", "bar_differential", differential_plus_xi1,
        {"differential_squares_to_zero"},
        "333dd1e6b3be2e5cf8c5ab85c0057a3509c3a51a4dd239d4cec49b78f3e78293",
        id="bar-bar_differential"),
    pytest.param(
        "bar", "chen_pairing", pairing_plus_1,
        {"shuffle_pairing_multiplicative", "composition_coproduct",
         "eval_hat_cs", "eval_hat_kk"},
        "7a120e097a595e7a90aa177b742d0df2aaaf057c14696cbcce648d0a05773c42",
        id="bar-chen_pairing"),
    pytest.param(
        "bar", "dual_cs", insertion_plus_word,
        {"class_function_conjugation", "eval_hat_cs"},
        "bc6f7508f845b5834cd11dec4215041fa1ba2491840c9dae9131ca0d1f927d78",
        id="bar-dual_cs"),
    pytest.param(
        "kvi", "kvi_check", certificate_fails,
        {"surface_1_1", "surface_2_1", "surface_1_2"},
        "f151ddcebdbde61380f3a3da9081be511be7be3d5ce70625f5c8e8940f48e1e8",
        id="kvi-kvi_check"),
    pytest.param(
        "twist", "dehn_twist", twist_times_a1,
        {"logarithm_formula", "fixtures_fix_boundary"},
        "d3945ab33837be9adf5c233222c93b2d641e74faee49504d03ba7184865627df",
        id="twist-dehn_twist"),
    pytest.param(
        "resolution", "resolution_check", row_3_not_injective,
        {"genus_1", "genus_2", "genus_3"},
        "c0c36d65532b687e9d355a31153302fc676da73ee5243b4d415864a0dd964f05",
        id="resolution-resolution_check"),
    pytest.param(
        "bipair", "bi_pairing", pairing_plus_a1,
        {"bilinearity", "degree_shift", "noncrossing_vanishes",
         "crossing_example"},
        "1f0d4c02e73eeca04039b875b38741f29e9cecc84383d4aa2a94767274518089",
        id="bi_pairing"),
]

SHIFT_MESSAGES = {"bracket_shift": "bracket drops too far: ",
                  "action_shift": "action drops too far: ",
                  "degree_shift": "pairing drops too far: "}


def _digest(report):
    blob = json.dumps(report, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("suite, name, fault, failing, digest", FAULTS)
def test_the_fault_fails_exactly_its_checks(monkeypatch, suite, name, fault,
                                            failing, digest):
    monkeypatch.setattr(suites, name, fault)
    report = suites.run_suite(suite)
    assert {c["name"] for c in report["checks"]} == CHECKS[suite]
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
        if suite == "resolution":
            # located: the genus, the degree and the false flags
            assert first == "certificate fails for genus %s at degree 3: " \
                "injective" % check["name"][-1], first
    assert _digest(report) == digest


def test_every_check_fails_under_some_fault():
    assert set().union(*(f.values[3] for f in FAULTS)) == set().union(
        *CHECKS.values())
    assert sum(map(len, CHECKS.values())) == 35


def test_the_cli_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(suites, "bi_pairing", pairing_plus_a1)
    assert cli.main(["verify", "bipair"]) == cli.EXIT_FAILED
    assert "degree_shift" in capsys.readouterr().out
