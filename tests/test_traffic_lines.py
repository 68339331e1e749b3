"""tools/traffic_lines.py's unrun() on a small source with hand-made hits."""

import ast
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "traffic_lines.py")

SOURCE = '''\
"""Module docstring."""
import os


def used(x):
    """Docstring of used."""
    if x:
        y = os.sep
    else:
        y = 1
        for t in range(x):
            y += t
        y *= 2
    return y


def never(x):
    """Docstring of never."""
    x += 1
    return x


class Box:
    """A box."""

    def put(self):
        """Docstring of put."""
        return 1

    def take(self):
        """Docstring of take."""
        if self:
            return 2
        return 3
'''

# the lines a call used(1) and a call Box().put() trace, and the import
HIT = {2, 5, 7, 8, 14, 17, 23, 26, 28, 30}


def load_tool():
    spec = importlib.util.spec_from_file_location("traffic_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_hits_are_those_a_trace_records():
    namespace = {}
    exec(compile(SOURCE, "<synthetic>", "exec"), namespace)
    recorder = load_tool().LineRecorder()
    recorder.hit = {"<synthetic>": set()}
    with recorder:
        namespace["used"](1)
        namespace["Box"]().put()
    # the rest ran at exec, outside the trace: the import, the def of
    # never and take, and the class statement (a call records its def)
    assert recorder.hit["<synthetic>"] == HIT - {2, 17, 23, 30}


def test_unrun():
    found = load_tool().unrun(ast.parse(SOURCE), HIT)
    # the else branch once, as its range: the loop inside it is not
    # listed again; a function that never ran once, under its name;
    # no docstring anywhere
    assert found == [
        (10, 13, "used"),
        (19, 20, "never"),
        (32, 34, "Box.take"),
    ]
