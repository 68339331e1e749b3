"""Command-line interface: compute, expand, and verify.

Words are whitespace-separated tokens like "a1 b1'"; paths are
"from:to:word" with the tag numbers of their endpoints.  Each command
takes only the options it reads, and its arguments are parsed by its
own parser (the full parser only when no command comes first).  It
prints text by default and a stable JSON document under --json
(kvi-check always prints JSON); identical inputs and seeds print
byte-identical JSON, in the form json.dumps(..., sort_keys=True,
indent=2) gives: sorted keys, two-space indent, ASCII escapes, and only
objects, arrays, strings, ints, booleans and null (no floats).  Under
--trace each crossing's record gives each chord's ends ("in", "out") as
[dart, side], side 0 the lower strand through the dart and 1 the upper.
Exit codes: 0 success, 1 a checked property failed, 2 usage or parse
errors, each reported on one stderr line.
"""

import argparse
import functools
import inspect
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import suites
from .barcx import chen_pairing, open_model, parse_bar
from .goldman import (
    LoopSum,
    PathSum,
    adams,
    bi_pairing,
    crossing_trace,
    expand_loop_sum,
    goldman_bracket,
    kk_action,
    sum_text,
    twist_curve_names,
)
from .magnus import (
    default_expansion,
    invert_expansion,
    is_symplectic,
    kvi_check,
    resolution_check,
    solve_symplectic,
)
from .surface import (
    Path,
    SurfaceSpec,
    cyclic_normal_form,
    parse_word,
    render_word,
)

SCHEMA = "v1"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad invocation or unparseable input; exits with code 2."""


def _usage(call, *args):
    """call(*args), with a ValueError turned into a usage error."""
    try:
        return call(*args)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _word(text, spec=None):
    """A parsed word; with spec, its letters must be spec's generators."""
    word = _usage(parse_word, text)
    if spec is not None:
        _usage(spec.validate_word, word)
    return word


def _path(token, spec=None):
    """A parsed path; with spec, also its tags and letters must be spec's."""
    parts = token.split(":", 2)
    if len(parts) != 3:
        raise UsageError("path %r is not of the form from:to:word" % token)
    try:
        from_tag, to_tag = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError("path %r needs integer endpoint tags" % token) \
            from None
    if spec is not None and not {from_tag, to_tag} <= set(spec.tags):
        raise UsageError("path %r has a tag outside the boundary tags "
                         "0..%d" % (token, spec.boundary - 1))
    return Path(from_tag, to_tag, _word(parts[2], spec))


def _surface(args):
    return _usage(SurfaceSpec, args.g, args.b)


def _trunc(args):
    if args.N is None:
        return 4
    if args.N < 1:
        raise UsageError("the truncation degree must be at least 1")
    return args.N


def _json(value, indent="\n"):
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, for
    the values payloads hold: dicts with str keys, lists, str, int, bool
    and None; anything else raises TypeError.  indent is the line break
    and indent before value's closing bracket; its items sit two spaces
    deeper."""
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if cls is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        return "{%s%s%s}" % (inner, ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json(value[key], inner)
            for key in sorted(value)]), indent)
    if cls is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[%s%s%s]" % (inner, ("," + inner).join(
            [_json(item, inner) for item in value]), indent)
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    raise TypeError("a JSON payload holds no %s" % cls.__name__)


def _emit(args, payload, lines, spec=None):
    """Print lines (any iterable, read only here), or under --json the
    payload in its envelope: the command, the schema marker and, given
    spec, the surface."""
    if args.json:
        payload.update(command=args.command, schema=SCHEMA)
        if spec is not None:
            payload["surface"] = [spec.genus, spec.boundary]
        print(_json(payload))
    else:
        for line in lines:
            print(line)


def _sum_lines(label, s):
    """Human lines for a loop, path, or path-pair sum, spelled as printed."""
    if s.is_zero():
        yield "%s: 0" % label
    else:
        yield "%s: %s" % (label, sum_text(s))
        yield "twist: %d" % s.twist


def _trace(args, payload, spec, left, right):
    """Under --trace, add the crossing records of left and right to the
    payload and return their lines."""
    if not args.trace:
        return ()
    payload["trace"] = records = crossing_trace(spec, left, right)
    return ("crossing %d: sign %+d" % (i, r["sign"])
            for i, r in enumerate(records))


def cmd_bracket(args):
    spec = _surface(args)
    left = cyclic_normal_form(_word(args.words[0]))
    right = cyclic_normal_form(_word(args.words[1]))
    u = LoopSum(spec, [(left, 1)])
    v = LoopSum(spec, [(right, 1)])
    trunc = _trunc(args)
    theta = default_expansion(spec, trunc)
    bracket = goldman_bracket(u, v)
    expansion = expand_loop_sum(bracket, theta)
    vals = {
        "left": expand_loop_sum(u.reduced(), theta).valuation(),
        "right": expand_loop_sum(v.reduced(), theta).valuation(),
        "bracket": expansion.valuation(),
    }
    payload = {
        "truncation": trunc,
        "bracket": bracket.to_json(),
        "expansion": expansion.to_json(),
        "filtration": vals,
    }
    lines = chain(_sum_lines("bracket", bracket),
                  ["valuations: left %s, right %s, bracket %s"
                   % (vals["left"], vals["right"], vals["bracket"])],
                  _trace(args, payload, spec, left, right))
    _emit(args, payload, lines, spec)
    return EXIT_OK


def cmd_kk(args):
    spec = _surface(args)
    loop = cyclic_normal_form(_word(args.loop))
    u = LoopSum(spec, [(loop, 1)])
    gamma = _path(args.path)
    out = _usage(kk_action, u, PathSum.of(spec, gamma))
    payload = {"action": out.to_json()}
    lines = chain(_sum_lines("action", out),
                  _trace(args, payload, spec, loop, gamma))
    _emit(args, payload, lines, spec)
    return EXIT_OK


def cmd_bipair(args):
    spec = _surface(args)
    g1 = PathSum.of(spec, _path(args.paths[0], spec))
    g2 = PathSum.of(spec, _path(args.paths[1], spec))
    pairing = _usage(bi_pairing, g1, g2)
    _emit(args, {"pairing": pairing.to_json()},
          _sum_lines("pairing", pairing), spec)
    return EXIT_OK


def cmd_expand(args):
    spec = _surface(args)
    trunc = _trunc(args)
    series = default_expansion(spec, trunc).expand_word(_word(args.word))
    payload = series.to_json()  # one sort of the terms, for both outputs
    lines = ["%s: %s" % (" ".join(t["word"]) or "1", t["coeff"])
             for t in payload["terms"]]
    _emit(args, {"truncation": trunc, "series": payload}, lines or ["0"], spec)
    return EXIT_OK


def cmd_adams(args):
    spec = _surface(args)
    if args.n < 0:
        raise UsageError("the power-map exponent must be nonnegative")
    image = adams(args.n, LoopSum.of(spec, _word(args.word)))
    _emit(args, {"n": args.n, "image": image.to_json()},
          _sum_lines("image", image), spec)
    return EXIT_OK


def _symplectic_expansion(args, spec):
    """The solved symplectic expansion of spec at the truncation."""
    return _usage(solve_symplectic, spec.genus, spec.boundary - 1,
                  _trunc(args))


def cmd_solve_expansion(args):
    spec = _surface(args)
    theta = _symplectic_expansion(args, spec)
    symplectic = is_symplectic(theta)
    payload = {
        "truncation": theta.trunc,
        "symplectic": bool(symplectic),
        "expansion": theta.to_json(),
    }
    lines = ["symplectic expansion to degree %d: %s"
             % (theta.trunc, "verified" if symplectic else "NOT symplectic")]
    _emit(args, payload, lines, spec)
    return EXIT_OK if symplectic else EXIT_FAILED


def cmd_kvi_check(args):
    spec = _surface(args)
    cert = kvi_check(invert_expansion(_symplectic_expansion(args, spec)))
    # --json is always set here: the certificate is the deliverable
    _emit(args, {"certificate": cert}, [], spec)
    return EXIT_OK if cert["passed"] else EXIT_FAILED


def cmd_bar_pair(args):
    spec = _surface(args)
    model = open_model(spec)
    element = _usage(parse_bar, args.bar, model)
    value = str(chen_pairing(element, _word(args.word, spec)))
    _emit(args, {"bar": args.bar, "word": args.word, "value": value},
          [value], spec)
    return EXIT_OK


def cmd_resolution(args):
    try:
        report = _usage(resolution_check, args.g, args.max_n)
    except AssertionError as err:
        # a certificate failed: that is a checked property, not usage
        report = {"genus": args.g, "max_n": args.max_n, "passed": False,
                  "failures": [str(err)]}
        _emit(args, {"report": report}, ["FAILED: %s" % err])
        return EXIT_FAILED
    lines = ["degree dims: %s" % report["dims"]]
    for row in report["rows"]:
        lines.append("n=%d dims=%s composite=%s injective=%s surjective=%s "
                     "ranks=%s" % (row["n"], row["dims"],
                                   row["composite_zero"], row["injective"],
                                   row["surjective"],
                                   "checked" if row["rank_cross_checked"]
                                   else "counted"))
    lines.append("passed" if report["passed"] else "FAILED")
    _emit(args, {"report": report}, lines)
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_twist_check(args):
    try:
        g, b = map(int, args.surface.split(","))
    except ValueError:
        raise UsageError("--surface %r is not of the form G,B"
                         % args.surface) from None
    spec = _usage(SurfaceSpec, g, b)
    if not twist_curve_names(spec):
        raise UsageError("no tabulated twist curves for surface %s"
                         % args.surface)
    trunc = _trunc(args)
    rows = [{"curve": curve, "generator": name,
             "image": render_word(image), "matches": match}
            for curve, name, image, match
            in suites.twist_formula_rows(spec, trunc)]
    ok = all(r["matches"] for r in rows)
    payload = {"truncation": trunc, "rows": rows, "passed": bool(ok)}
    lines = ["%s(%s) = %s: %s" % (r["curve"], r["generator"], r["image"],
                                  "ok" if r["matches"] else "MISMATCH")
             for r in rows]
    lines.append("passed" if ok else "FAILED")
    _emit(args, payload, lines, spec)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_verify(args):
    options = {"genus": args.g, "boundary": args.b, "seed": args.seed,
               "trunc": None if args.N is None else _trunc(args)}
    accepted = inspect.signature(suites.SUITES[args.suite]).parameters
    for name, flag in (("genus", "--g"), ("boundary", "--b"),
                       ("trunc", "--N"), ("seed", "--seed")):
        if options[name] is not None and name not in accepted:
            raise UsageError("the %s suite takes no %s" % (args.suite, flag))
    report = suites.run_suite(args.suite, **options)
    lines = []
    for check in report["checks"]:
        if check["passed"]:
            lines.append("ok   %s (%d cases)" % (check["name"],
                                                 check["cases"]))
        else:
            lines.append("FAIL %s (%d cases)" % (check["name"],
                                                 check["cases"]))
            lines.extend("     %s" % f for f in check["failures"])
    lines.append("pass" if report["passed"] else "fail")
    _emit(args, {"report": report}, lines)
    return EXIT_OK if report["passed"] else EXIT_FAILED


# the options several commands share; each command names those it reads
_SHARED_OPTIONS = {
    "g": dict(type=int, default=1, help="genus (default 1)"),
    "b": dict(type=int, default=1, help="boundary circles (default 1)"),
    "N": dict(type=int, default=None,
              help="truncation degree (default 4; suites pick their own)"),
    "seed": dict(type=int, default=None,
                 help="seed for randomized sweeps (default %d)"
                 % suites.DEFAULT_SEED),
    "json": dict(action="store_true", help="print a stable JSON document"),
    "trace": dict(action="store_true", help="include per-crossing records"),
}


@functools.cache
def build_parser():
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # a bad command line is a usage error, which main prints as
            # one line where argparse would print its usage block
            raise UsageError(message)

        def parse_args(self, args=None, namespace=None):
            # an unknown option takes the next token as its value, so a
            # real positional is left over too: name only the options
            # (no positional of this CLI starts with a dash)
            args, extras = self.parse_known_args(args, namespace)
            if extras:
                options = [t for t in extras if t.startswith("-")]
                self.error("unrecognized arguments: %s"
                           % " ".join(options or extras))
            return args

    parser = Parser(
        prog="goldman-forge",
        description="Exact loop-surgery computations on bordered surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    # command name -> its subparser, which main parses the rest with
    parser.commands = sub.choices

    def command(name, handler, summary, shared):
        p = sub.add_parser(name, help=summary)
        for option in shared.split():
            p.add_argument("--" + option, **_SHARED_OPTIONS[option])
        p.set_defaults(handler=handler, command=name)
        return p

    p = command("bracket", cmd_bracket, "bracket of two loop words",
                "g b N json trace")
    p.add_argument("words", nargs=2, metavar="WORD")

    p = command("kk", cmd_kk, "loop acting on a boundary-to-boundary path",
                "g b json trace")
    p.add_argument("loop", metavar="WORD")
    p.add_argument("path", metavar="FROM:TO:WORD")

    p = command("bipair", cmd_bipair,
                "pairing of two endpoint-disjoint paths", "g b json")
    p.add_argument("paths", nargs=2, metavar="FROM:TO:WORD")

    p = command("expand", cmd_expand, "tensor-series expansion of a word",
                "g b N json")
    p.add_argument("word", metavar="WORD")

    p = command("adams", cmd_adams, "power map applied to a loop class",
                "g b json")
    p.add_argument("--n", type=int, required=True, help="exponent")
    p.add_argument("word", metavar="WORD")

    command("solve-expansion", cmd_solve_expansion,
            "solve for a symplectic expansion", "g b N json")

    p = command("kvi-check", cmd_kvi_check,
                "tangential automorphism certificate (always JSON)",
                "g b N json")
    p.set_defaults(json=True)

    p = command("bar-pair", cmd_bar_pair,
                "pair a bar word like [xi1|eta1] with a loop", "g b json")
    p.add_argument("bar", metavar="BAR")
    p.add_argument("word", metavar="WORD")

    p = command("resolution", cmd_resolution,
                "surface-algebra resolution certificate", "g json")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")

    p = command("twist-check", cmd_twist_check,
                "twist logarithm formula on all generators", "N json")
    p.add_argument("--surface", default="1,1", metavar="G,B")

    p = command("verify", cmd_verify, "run a named property suite",
                "g b N seed json")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    # unset, each option leaves the suite its own default
    p.set_defaults(g=None, b=None)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # a named command's arguments go straight to its own parser, the one
    # the full parser would hand them to; the full parser handles the
    # rest (no command, a top-level option, an unknown command)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = (command.parse_args(argv[1:]) if command
                else parser.parse_args(argv))
        return args.handler(args)
    except UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
