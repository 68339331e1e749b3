"""Tests for the command-line interface.

Exit codes carry the contract (0 ok, 1 failed property, 2 usage), JSON
output must be byte-stable for fixed inputs and seed, and every JSON
document carries the schema marker.
"""

import hashlib
import inspect
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldman_forge import cli, suites
from goldman_forge.goldman import (
    LoopSum,
    PathPairSum,
    PathSum,
    bi_pairing,
    goldman_bracket,
    kk_action,
)
from goldman_forge.surface import (
    FreeWord,
    Path,
    SurfaceSpec,
    cyclic_normal_form,
    render_word,
)
from helpers import random_surface_word
from test_cli_golden import GOLDEN


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBracket:
    def test_standard_pair(self, capsys):
        code, out, _ = run_cli(["bracket", "--g", "1", "--b", "1",
                                "a1", "b1"], capsys)
        assert code == 0
        assert "1 |a1 b1|" in out
        assert "valuations:" in out

    def test_self_bracket_vanishes(self, capsys):
        code, out, _ = run_cli(["bracket", "a1", "a1"], capsys)
        assert code == 0
        assert "bracket: 0" in out

    def test_malformed_token(self, capsys):
        code, _, err = run_cli(["bracket", "a1", "q7"], capsys)
        assert code == 2
        assert "q7" in err and "position" in err

    def test_trace_lists_signed_crossings(self, capsys):
        code, out, _ = run_cli(["bracket", "--trace", "a1", "b1"], capsys)
        assert code == 0
        assert "crossing 0: sign +1" in out

    def test_json_is_byte_stable(self, capsys):
        argv = ["bracket", "--json", "--N", "3", "a1 b1", "b1"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "v1"
        assert payload["filtration"]["left"] == 1

    def test_bad_surface(self, capsys):
        code, _, err = run_cli(["bracket", "--g", "-1", "a1", "b1"], capsys)
        assert code == 2
        assert err


class TestPathCommands:
    def test_kk_action(self, capsys):
        code, out, _ = run_cli(["kk", "a1", "0:0:b1"], capsys)
        assert code == 0
        assert "1 (b1 a1)" in out

    def test_kk_malformed_path(self, capsys):
        code, _, err = run_cli(["kk", "a1", "b1"], capsys)
        assert code == 2
        assert "from:to:word" in err

    def test_bipair_crossing_corridors(self, capsys):
        code, out, _ = run_cli(["bipair", "--g", "0", "--b", "4",
                                "0:2:1", "1:3:1"], capsys)
        assert code == 0
        assert "-1 (0->3: 1)x(1->2: 1)" in out

    def test_bipair_shared_tags(self, capsys):
        code, _, err = run_cli(["bipair", "--g", "0", "--b", "4",
                                "0:2:1", "2:3:1"], capsys)
        assert code == 2
        assert err


class TestExpansionCommands:
    def test_expand_identity_word(self, capsys):
        code, out, _ = run_cli(["expand", "--N", "2", "1"], capsys)
        assert code == 0
        assert out.strip() == "1: 1"

    def test_expand_text_follows_the_json_term_order(self, capsys):
        # degree first, then the letter order x1 < y1 < z1 in each degree
        code, out, _ = run_cli(["expand", "--N", "2", "a1 b1"], capsys)
        assert code == 0
        assert out.splitlines() == ["1: 1", "x1: 1", "y1: 1", "x1 x1: 1/2",
                                    "x1 y1: 1", "y1 y1: 1/2"]
        code, out, _ = run_cli(["expand", "--N", "3", "--b", "2", "c1 a1'"],
                               capsys)
        assert code == 0
        assert out.splitlines() == ["1: 1", "x1: -1", "x1 x1: 1/2", "z1: 1",
                                    "x1 x1 x1: -1/6", "z1 x1: -1"]
        code, out, _ = run_cli(["expand", "--json", "--N", "3", "--b", "2",
                                "c1 a1'"], capsys)
        assert [" ".join(t["word"]) for t in json.loads(out)["series"]
                ["terms"]] == ["", "x1", "x1 x1", "z1", "x1 x1 x1", "z1 x1"]

    def test_adams_squares_the_word(self, capsys):
        code, out, _ = run_cli(["adams", "--n", "2", "a1"], capsys)
        assert code == 0
        assert "1 |a1 a1|" in out

    def test_adams_rejects_negative(self, capsys):
        code, _, err = run_cli(["adams", "--n", "-1", "a1"], capsys)
        assert code == 2
        assert err

    def test_solve_expansion(self, capsys):
        code, out, _ = run_cli(["solve-expansion", "--N", "3"], capsys)
        assert code == 0
        assert "verified" in out

    def test_boundary_letters_past_the_truncation(self, capsys):
        # at N = 1 the weight-2 z letters and their images are zero,
        # which is still the graded identity
        code, out, _ = run_cli(["solve-expansion", "--g", "1", "--b", "2",
                                "--N", "1"], capsys)
        assert code == 0
        assert "verified" in out
        code, out, _ = run_cli(["verify", "kvi", "--N", "1"], capsys)
        assert code == 0
        assert out.strip().endswith("pass")

    def test_kvi_check_prints_certificate(self, capsys):
        code, out, _ = run_cli(["kvi-check", "--g", "1", "--b", "1",
                                "--N", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["certificate"]["passed"] is True

    def test_bar_pair(self, capsys):
        code, out, _ = run_cli(["bar-pair", "[xi1|eta1]", "a1 b1"], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_bar_pair_bad_text(self, capsys):
        code, _, err = run_cli(["bar-pair", "xi1|eta1", "a1"], capsys)
        assert code == 2
        assert "bracket" in err


class TestCertificateCommands:
    def test_resolution_rank_table(self, capsys):
        code, out, _ = run_cli(["resolution", "--g", "2", "--max-n", "2"],
                               capsys)
        assert code == 0
        assert "degree dims: [1, 4, 15, 56, 209]" in out
        assert out.strip().endswith("passed")

    def test_resolution_negative_degree_is_usage_error(self, capsys):
        code, out, err = run_cli(["resolution", "--g", "1", "--max-n", "-1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "max degree" in err
        assert "Traceback" not in err

    def test_resolution_genus_past_the_encoding_is_usage_error(self, capsys):
        code, out, err = run_cli(["resolution", "--g", "600000"], capsys)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [
            "error: resolution needs genus <= 557023"]

    def test_resolution_certificate_failure_exits_1(self, capsys,
                                                    monkeypatch):
        def broken(genus, n_max):
            raise AssertionError("dimension recursion failed at degree 3")
        monkeypatch.setattr(cli, "resolution_check", broken)
        code, out, err = run_cli(["resolution", "--g", "2"], capsys)
        assert code == 1
        assert "dimension recursion failed" in out
        assert "Traceback" not in out + err
        code, out, err = run_cli(["resolution", "--json", "--g", "2"], capsys)
        assert code == 1
        report = json.loads(out)["report"]
        assert report["passed"] is False
        assert report["failures"] == ["dimension recursion failed at degree 3"]
        assert "Traceback" not in err

    def test_twist_check_reports_generators(self, capsys):
        code, out, _ = run_cli(["twist-check", "--surface", "1,1",
                                "--N", "3"], capsys)
        assert code == 0
        assert "ta(b1) = b1 a1: ok" in out

    def test_twist_check_unknown_surface(self, capsys):
        code, _, err = run_cli(["twist-check", "--surface", "5,5"], capsys)
        assert code == 2
        assert err


class TestVerify:
    def test_jacobi_small(self, capsys):
        code, out, _ = run_cli(["verify", "jacobi", "--seed", "7"], capsys)
        assert code == 0
        assert out.strip().endswith("pass")

    def test_operands_vanishing_through_the_truncation(self, capsys):
        # such an operand lies in filtration N + 1, not infinitely deep,
        # so the shift bounds hold at low truncation
        for argv in (["verify", "gr-bracket", "--N", "1"],
                     ["verify", "gr-bracket", "--N", "3"],
                     ["verify", "bipair", "--N", "1"]):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, out
            assert "inf" not in out

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "nonsense"], capsys)
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_json_report(self, capsys):
        argv = ["verify", "twist", "--json", "--N", "3"]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "v1"
        assert payload["report"]["passed"] is True


@pytest.mark.parametrize("trunc", ["0", "-1"])
@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_rejects_truncation_below_one(suite, trunc, capsys):
    code, out, err = run_cli(["verify", suite, "--N", trunc], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


OUTSIDE_THE_SURFACE = [
    ["bar-pair", "--g", "1", "--b", "1", "[xi1]", "c1"],
    ["bar-pair", "--g", "1", "--b", "2", "[xi1]", "a2 c1"],
    ["bipair", "--g", "0", "--b", "4", "0:2:a1", "1:3:c1"],
    ["bipair", "--g", "0", "--b", "4", "0:2:c1", "1:9:c1"],
    ["bipair", "--g", "0", "--b", "4", "0:-1:c1", "1:3:c1"],
    ["bipair", "--g", "1", "--b", "1", "0:0:a1", "0:1:b1"],
]


@pytest.mark.parametrize("argv", OUTSIDE_THE_SURFACE)
def test_letters_and_tags_outside_the_surface(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_after_a_usage_error(self, capsys):
        code, _, err = run_cli(["no-such-command"], capsys)
        assert code == 2 and err
        code, out, _ = run_cli(["bracket", "--json", "a1", "b1"], capsys)
        assert code == 0
        # the golden digest of bracket --g 1 --b 1 a1 b1 --json
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "33a638630dd8bfab490db02db6ccc16308b5997a67cea12a3e4b00a395af6c6d")


# the shared options each command reads, and positionals that parse
COMMANDS = {
    "bracket": ("g b N json trace", ["a1", "b1"]),
    "kk": ("g b json trace", ["a1", "0:0:b1"]),
    "bipair": ("g b json", ["0:2:1", "1:3:1"]),
    "expand": ("g b N json", ["a1"]),
    "adams": ("g b json", ["--n", "2", "a1"]),
    "solve-expansion": ("g b N json", []),
    "kvi-check": ("g b N json", []),
    "bar-pair": ("g b json", ["[xi1]", "a1"]),
    "resolution": ("g json", []),
    "twist-check": ("N json", []),
    "verify": ("g b N seed json", ["jacobi"]),
}
SHARED = {"g": (["--g", "2"], 2), "b": (["--b", "2"], 2),
          "N": (["--N", "3"], 3), "seed": (["--seed", "5"], 5),
          "json": (["--json"], True), "trace": (["--trace"], True)}
READ = [(command, option) for command, (read, _) in COMMANDS.items()
        for option in read.split()]
UNREAD = [(command, option) for command, (read, _) in COMMANDS.items()
          for option in SHARED if option not in read.split()]


class TestOptions:
    def test_each_command_takes_only_the_options_it_reads(self):
        commands = cli.build_parser().commands
        assert set(commands) == set(COMMANDS)
        own = {"adams": {"n"}, "resolution": {"max_n"},
               "twist-check": {"surface"}}
        for name, parser in commands.items():
            settable = {action.dest for action in parser._actions
                        if action.option_strings and action.dest != "help"}
            assert settable == (set(COMMANDS[name][0].split())
                                | own.get(name, set())), name

    @pytest.mark.parametrize("command,option", READ)
    def test_each_command_accepts_the_options_it_reads(self, command,
                                                       option):
        flag, value = SHARED[option]
        args = cli.build_parser().parse_args(
            [command] + flag + COMMANDS[command][1])
        assert getattr(args, option) == value

    @pytest.mark.parametrize("command,option", UNREAD)
    def test_an_option_the_command_ignores_is_rejected(self, command,
                                                       option, capsys):
        flag, _ = SHARED[option]
        code, out, err = run_cli([command] + COMMANDS[command][1] + flag,
                                 capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


USAGE_ERRORS = [
    (["adams", "a1"], "--n"),
    (["bracket", "--N", "x", "a1", "b1"], "--N"),
    (["no-such-command"], "no-such-command"),
    ([], "command"),
    (["twist-check", "--surface", "1"], "--surface"),
    (["twist-check", "--surface", "1,x"], "--surface"),
    (["twist-check", "--surface", "1,1,1"], "--surface"),
]


@pytest.mark.parametrize("argv,says", USAGE_ERRORS)
def test_usage_errors_are_one_line(argv, says, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and says in err
    assert len(err.splitlines()) == 1


UNRECOGNIZED = [
    # the unknown option takes the next token as its value, so argparse
    # would also name the real positional it pushed out
    (["adams", "--n", "2", "--N", "5", "a1"], "--N"),
    (["kk", "--N", "3", "a1", "0:0:b1"], "--N"),
    (["bracket", "a1", "b1", "c1"], "c1"),
]


@pytest.mark.parametrize("argv,named", UNRECOGNIZED)
def test_unrecognized_arguments_name_the_options(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: unrecognized arguments: %s\n" % named


@pytest.mark.parametrize("argv", [["--help"], ["adams", "--help"]])
def test_help_exits_0(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith("usage: goldman-forge")


VERIFY_OPTIONS = {"--g": "genus", "--b": "boundary", "--N": "trunc",
                  "--seed": "seed"}


@pytest.mark.parametrize("suite,flag", [
    (suite, flag) for suite, fn in sorted(suites.SUITES.items())
    for flag, param in VERIFY_OPTIONS.items()
    if param not in inspect.signature(fn).parameters])
def test_verify_rejects_an_option_the_suite_takes_not(suite, flag, capsys):
    code, out, err = run_cli(["verify", suite, flag, "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the %s suite takes no %s\n" % (suite, flag)


def readme_examples():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "README.md")
    with open(path) as fh:
        section = fh.read().split("## Command line", 1)[1]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("goldman-forge ")]


def test_every_readme_example_parses():
    examples = readme_examples()
    assert len(examples) >= len(COMMANDS)
    for argv in examples:
        assert cli.build_parser().parse_args(argv).command == argv[0]


def test_console_entry_point():
    # the module runs standalone; subprocess covers the __main__ path
    proc = subprocess.run([sys.executable, "-m", "goldman_forge.cli",
                           "bracket", "a1", "b1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "1 |a1 b1|" in proc.stdout



# -- one parse: main hands a named command's arguments to its parser ---------

def full_parser_main(argv):
    """main as it read before it dispatched: the full parser parses
    every argv."""
    try:
        args = cli.build_parser().parse_args(argv)
        return args.handler(args)
    except cli.UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        return cli.EXIT_USAGE


def run_full_parser(argv, capsys):
    try:
        code = full_parser_main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DISPATCH_ARGVS = (
    readme_examples()
    + [argv + form for argv, *_ in GOLDEN for form in ([], ["--json"])]
    + [argv for argv, _ in USAGE_ERRORS + UNRECOGNIZED]
    + OUTSIDE_THE_SURFACE
    + [[command] + COMMANDS[command][1] + SHARED[option][0]
       for command, option in UNREAD]
    + [["verify", suite, "--N", "0"] for suite in sorted(suites.SUITES)]
    + [["adams", "--help"], ["--help"], [], ["no-such-command", "a1"],
       ["adams", "--n", "2", "--no-such-option", "a1"],
       ["--json", "adams", "--n", "2", "a1"],
       ["bracket", "--", "a1", "b1"], ["verify", "nonsense"]])


@pytest.mark.parametrize("argv", DISPATCH_ARGVS,
                         ids=[" ".join(argv) or "[]"
                              for argv in DISPATCH_ARGVS])
def test_dispatch_matches_the_full_parser(argv, capsys):
    assert run_cli(argv, capsys) == run_full_parser(argv, capsys)


def test_a_command_parser_gives_the_full_parsers_namespace():
    parser = cli.build_parser()
    parsed = 0
    for argv in DISPATCH_ARGVS:
        try:
            full = parser.parse_args(argv)
        except (cli.UsageError, SystemExit):
            continue
        own = parser.commands[argv[0]].parse_args(argv[1:])
        assert vars(own) == vars(full), argv
        assert own.command == argv[0]
        parsed += 1
    assert parsed >= len(COMMANDS)


# -- the --json writer: json.dumps(..., sort_keys=True, indent=2) -------------

def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters, the line separators JavaScript
# rejects, non-ASCII in and past the BMP
AWKWARD = "\"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\u2029aZ \u00e9\u20ac\U0001f600"
STRINGS = st.text(alphabet=st.sampled_from(AWKWARD)) | st.text()
INTS = st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
PAYLOADS = st.recursive(
    st.none() | st.booleans() | INTS | STRINGS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(STRINGS, inner, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps(value):
    assert cli._json(value) == dumps(value)


def test_writer_pinned_cases():
    cases = [{}, [], "", 0, True, False, None, -2 ** 100, AWKWARD,
             {"b": [], "a": {}, "": [{}, [[]]]},
             {"z": 1, "y": [True, None, "x"], "a": {"d": -3, "c": [1, 2]}}]
    for value in cases:
        assert cli._json(value) == dumps(value)
    # keys are sorted whatever their order of insertion
    assert cli._json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}'


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1}, Fraction(1, 2), {1: "a"}, {"a": 1, 2: "b"},
    [1, 0.5], {"a": (1,)}, {"a": [{"b": {2}}]}, b"a"],
    ids=repr)
def test_writer_rejects_what_payloads_never_hold(value):
    with pytest.raises(TypeError):
        cli._json(value)


# -- sum lines: the sums spell their own terms ------------------------------

def old_sum_lines(label, js):
    """The replaced _sum_lines, which read a sum's kind off its JSON."""
    terms = js["terms"]
    if not terms:
        return ["%s: 0" % label]
    parts = []
    for t in terms:
        if "left" in t:
            parts.append("%s (%d->%d: %s)x(%d->%d: %s)"
                         % (t["coeff"],
                            t["left"]["from"], t["left"]["to"],
                            t["left"]["word"],
                            t["right"]["from"], t["right"]["to"],
                            t["right"]["word"]))
        elif "from" in js:
            parts.append("%s (%s)" % (t["coeff"], t["word"]))
        else:
            parts.append("%s |%s|" % (t["coeff"], t["word"]))
    return ["%s: %s" % (label, " + ".join(parts)),
            "twist: %d" % js["twist"]]


def old_loop_repr(s):
    body = " + ".join("%s |%s|" % (coeff, cls)
                      for cls, coeff in s.sorted_terms()[:6]) or "0"
    return "<LoopSum tw=%d: %s>" % (s.twist, body)


def old_path_repr(s):
    body = " + ".join("%s (%s)" % (c, render_word(p.word))
                      for p, c in s.sorted_terms()[:6]) or "0"
    return "<PathSum %s->%s tw=%d: %s>" % (s.from_tag, s.to_tag,
                                           s.twist, body)


SUM_SURFACES = (SurfaceSpec(1, 1), SurfaceSpec(1, 3), SurfaceSpec(0, 3),
                SurfaceSpec(2, 2))


def seeded_sums(rng):
    """Loop, path and path-pair sums built term by term (up to eight
    terms, none in about one draw of nine), plus the bracket, the loop
    action and, with two or more boundary tags, the two-path pairing of
    such operands."""
    spec = rng.choice(SUM_SURFACES)
    twist = rng.randrange(-1, 3)

    def coeff():
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))

    def path(a, b):
        # the empty word half the time: an identity path when a == b
        word = FreeWord() if rng.random() < 0.5 else \
            random_surface_word(rng, spec, 4)
        return Path(a, b, word)

    a, b = rng.choice(spec.tags), rng.choice(spec.tags)
    loops = LoopSum(spec, twist=twist)
    paths = PathSum(spec, a, b, twist=twist)
    pairs = PathPairSum(spec, twist=twist)
    for _ in range(rng.randrange(9)):
        loops.add_term(cyclic_normal_form(random_surface_word(rng, spec, 5)),
                       coeff())
        paths.add_term(path(a, b), coeff())
        pairs.add_term((path(*rng.choices(spec.tags, k=2)),
                        path(*rng.choices(spec.tags, k=2))), coeff())
    loop = LoopSum.of(spec, random_surface_word(rng, spec, 4), coeff())
    out = [loops, paths, pairs, goldman_bracket(loops, loop),
           kk_action(loops, paths)]
    if spec.boundary > 1:
        s, t = rng.sample(spec.tags, 2)
        out.append(bi_pairing(PathSum.of(spec, path(s, s), coeff()),
                              PathSum.of(spec, path(t, t), coeff())))
    return out


def test_sum_lines_match_the_replaced_code():
    seen = set()
    for seed in range(150):
        for s in seeded_sums(random.Random(seed)):
            js = s.to_json()
            assert list(cli._sum_lines("sum", s)) == old_sum_lines("sum", js)
            seen.add((type(s).__name__, s.is_zero()))
            if any(c.denominator > 1 for c in s.terms.values()):
                seen.add("fraction")
            if isinstance(s, PathSum) and any(
                    not p.word.letters and p.from_tag == p.to_tag
                    for p in s.terms):
                seen.add("identity path")
    assert seen == {(kind, zero) for kind in ("LoopSum", "PathSum",
                                              "PathPairSum")
                    for zero in (False, True)} | {"fraction", "identity path"}


@pytest.mark.parametrize("argv", [
    ["adams", "--json", "--n", "3", "a1 b1'"],
    ["bracket", "--json", "--trace", "a1 b1", "a1 b1'"],
    ["kk", "--json", "--trace", "a1", "0:0:b1"],
    ["bipair", "--json", "--g", "0", "--b", "4", "0:2:1", "1:3:1"],
], ids=" ".join)
def test_json_requests_spell_no_text_lines(argv, capsys, monkeypatch):
    """Under --json the text lines are never made: no sum is spelled."""
    def spelled(s):
        raise AssertionError("a --json request spelled %r" % (s,))
    monkeypatch.setattr(cli, "sum_text", spelled)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.startswith("{")


def test_reprs_spell_terms_as_the_cli_does():
    # LoopSum and PathSum reprs are unchanged; a PathPairSum repr now
    # shows each path's endpoint tags, as the CLI lines always did
    for seed in range(150):
        loops, paths, pairs = seeded_sums(random.Random(seed))[:3]
        assert repr(loops) == old_loop_repr(loops)
        assert repr(paths) == old_path_repr(paths)
        js = pairs.to_json()
        line = old_sum_lines("x", dict(js, terms=js["terms"][:4]))[0]
        assert repr(pairs) == "<PathPairSum tw=%d: %s>" % (pairs.twist,
                                                           line[3:])
