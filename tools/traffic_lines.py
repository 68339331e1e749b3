"""List the engine statements that the benchmark and the suites never run.

    python3 tools/traffic_lines.py [--seed 1]

Run from anywhere; the engine is imported from this checkout's src/
through perfbench/harness.py.  Under ``sys.settrace`` the script
imports the engine, builds one round of each benchmark workload with
the given seed, runs every operation once and then every operation's
check, and runs the ten verify suites at the acceptance parameters of
perfbench/reference_figures.py.  It then prints, one per line, each
run of consecutive statements of src/goldman_forge/*.py, in one block,
that never ran while their enclosing statement did (so an unrun branch
or function body is one line, not one per statement inside it), as
``file:first-last  qualified name  first source line``, and a last line
with the counts.  Docstrings are not statements.

The unit is the statement, so an untaken arm of a conditional
expression (or of ``and``/``or``) in a statement that ran is never
listed.  Line events would not show it either where the arm shares a
line with code that runs: on CPython 3.11 a line event fires on
``else t * 2 for t in items]`` even when that arm is never taken.

A listed statement is dead for the benchmark and the suites; it may
still be reached by a CLI call that no workload makes, or guard an
input no workload sends.  The script is stdlib-only, reports and never
fails on what it finds; it takes under a minute.
"""

import argparse
import ast
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "goldman_forge")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import reference_figures  # noqa: E402
import workloads  # noqa: E402


def _sources():
    return sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                  if name.endswith(".py"))


class LineRecorder:
    """Line events of the frames whose code lives in the package."""

    def __init__(self):
        self.hit = {path: set() for path in _sources()}

    def _global(self, frame, event, arg):
        lines = self.hit.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_traffic(seed):
    """One round of each workload with its checks, then the suites."""
    gf = harness.load_engine()
    for name, build in sorted(workloads.WORKLOADS.items()):
        ops = build(gf, random.Random("%s:%d" % (name, seed)))
        outs = {op: harness.call_op(op) for op in ops}
        for op in ops:
            op.failure(outs[op], outs)
    for name, options in reference_figures.ACCEPTANCE:
        gf.suites.run_suite(name, **options)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _blocks(node):
    """The statement lists inside a statement: body, else, finally, and
    each handler's and each case's body."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, ())
    for handler in getattr(node, "handlers", ()):
        yield handler.body
    for case in getattr(node, "cases", ()):
        yield case.body


def _bodies(node):
    for block in _blocks(node):
        yield from block


def _header(node):
    """Lines of a statement outside its nested statements."""
    inner = set()
    for child in _bodies(node):
        inner.update(range(child.lineno, child.end_lineno + 1))
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return set(range(first, node.end_lineno + 1)) - inner


def unrun(tree, hit):
    """(first, last, qualified name) of each run of consecutive statements
    in one block that never ran, in a statement that did; a compound
    statement ran if its header or any statement inside it ran."""
    found = []

    def ran(node):
        return bool(_header(node) & hit) or any(
            ran(child) for child in _bodies(node) if not _is_docstring(child))

    def walk(block, scope):
        gap = None
        for node in block:
            if _is_docstring(node):
                continue
            if not ran(node):
                if gap is None:
                    gap = [node.lineno, node.end_lineno, scope or "<module>"]
                    found.append(gap)
                gap[1] = node.end_lineno
                continue
            gap, inner = None, scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inner = scope + "." + node.name if scope else node.name
            for inner_block in _blocks(node):
                walk(inner_block, inner)

    walk(tree.body, "")
    return [tuple(gap) for gap in found]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with LineRecorder() as recorder:
        run_traffic(args.seed)
    total = 0
    for path, hit in recorder.hit.items():
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        for first, last, scope in unrun(ast.parse(text, path), hit):
            total += 1
            print("%s:%d-%d  %s  %s" % (os.path.relpath(path, ROOT), first,
                                        last, scope, lines[first - 1].strip()))
    print("%d unrun statement runs in %d files (seed %d, %.0f s)"
          % (total, len(recorder.hit), args.seed,
             time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
