"""Import hygiene of the package and the tests, checked with ast.

(a) Every imported name is used; names listed in ``__all__`` count as
    used, and package ``__init__`` files are exempt.
(b) No package module imports an underscore name from another module;
    tests may import private names from the module they test.
(c) Only tensoralg touches the storage of a tensor series: no other
    package module reads ``._buckets`` or the common denominator
    ``._den``, or builds a series through the bucket constructors
    (``TensorSeries(...)`` or ``._settled``), so the series invariant is
    kept in one module.
(d) Every public function and every public method of a package module
    is referenced outside its own definition: as a name or an attribute
    anywhere in the package, or in the bench harness (names, attributes,
    imports, or the harness's string entry-point tables), which still
    names engine entry points itself.  Tests do not count as callers,
    and neither does ``__all__``.  The rule is name-based: a method
    shares its references with every function and method of that name,
    so a ``to_json`` or ``scaled`` used on one class passes on all.
    Dunders and classes are exempt.
(e) Every defaulted parameter of a module-level package function is
    passed, by position or by keyword, at some call site in the
    package, the tests or the bench harness.  A function that escapes
    as a value (a table entry such as ``suites.SUITES``, an argument)
    is exempt, since its callers cannot be seen.
"""

import ast
import collections
import functools
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "goldman_forge")
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")


def _sources(folder):
    return sorted(os.path.join(folder, name) for name in os.listdir(folder)
                  if name.endswith(".py") and name != "__init__.py")


SOURCES = _sources(PACKAGE) + _sources(TESTS)


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def private_imports(tree):
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


_BUCKET_NAMES = {"_buckets", "_den", "_settled"}


def bucket_access(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _BUCKET_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "TensorSeries":
                found.append((node.lineno, name))
    return sorted(found)


def public_functions(tree):
    """(qualified name, node) of each public module-level function and
    each public method of a module-level class."""
    for node in tree.body:
        prefix, body = "", [node]
        if isinstance(node, ast.ClassDef):
            prefix, body = node.name + ".", node.body
        for item in body:
            if (isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")):
                yield prefix + item.name, item


def name_counts(tree):
    """How often each name occurs as an ast.Name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_functions(tree, package_counts, bench_names):
    """Public functions and methods of tree whose name occurs in the
    package (package_counts) only inside their own definition, and not
    in bench_names."""
    return sorted(qualname for qualname, node in public_functions(tree)
                  if node.name not in bench_names
                  and package_counts[node.name] == name_counts(node)[node.name])


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def defaulted_parameters(tree):
    """(function, parameter, position) for every defaulted parameter of
    a module-level function; position is None for keyword-only ones."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, arg.arg, i)
                      for i, arg in enumerate(positional) if i >= first]
            found += [(node.name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def calls_and_escapes(tree):
    """Calls by function name, each as (positional count, keywords) with
    None for an unpacked *args or **kwargs, and the names used as
    values anywhere but in a call's function position."""
    calls, called, escaped = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            called.add(id(func))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (None if star else len(node.args),
                 None if None in keywords else keywords))
    for node in ast.walk(tree):
        if id(node) in called:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            escaped.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            escaped.add(node.attr)
    return calls, escaped


def unpassed_defaults(tree, calls, escaped):
    """Defaulted parameters of tree's functions that no call in calls
    passes, for the functions whose names are not in escaped."""
    def passes(site, param, position):
        count, keywords = site
        return (count is None or keywords is None or param in keywords
                or (position is not None and count > position))
    return [(name, param)
            for name, param, position in defaulted_parameters(tree)
            if name not in escaped
            and not any(passes(site, param, position)
                        for site in calls.get(name, ()))]


@functools.lru_cache(maxsize=None)
def _calls_and_escapes_everywhere():
    calls, escaped = {}, set()
    for path in SOURCES + _sources(PERFBENCH):
        path_calls, path_escaped = calls_and_escapes(_tree(path))
        for name, sites in path_calls.items():
            calls.setdefault(name, []).extend(sites)
        escaped |= path_escaped
    return calls, escaped


@functools.lru_cache(maxsize=None)
def _references(path):
    return referenced_names(_tree(path))


@functools.lru_cache(maxsize=None)
def _package_counts():
    return sum((name_counts(_tree(path)) for path in _sources(PACKAGE)),
               collections.Counter())


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", _sources(PACKAGE), ids=os.path.basename)
def test_no_private_cross_module_imports(path):
    assert private_imports(_tree(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in _sources(PACKAGE)
             if os.path.basename(p) != "tensoralg.py"],
    ids=os.path.basename)
def test_series_storage_stays_in_tensoralg(path):
    assert bucket_access(_tree(path)) == []


@pytest.mark.parametrize("path", _sources(PACKAGE), ids=os.path.basename)
def test_exported_functions_have_outside_callers(path):
    bench = set().union(*map(_references, _sources(PERFBENCH)))
    assert unreferenced_functions(_tree(path), _package_counts(), bench) == []


@pytest.mark.parametrize("path", _sources(PACKAGE), ids=os.path.basename)
def test_defaulted_parameters_are_passed(path):
    calls, escaped = _calls_and_escapes_everywhere()
    assert unpassed_defaults(_tree(path), calls, escaped) == []


def test_the_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nfrom .a import _b, c\n__all__ = ['c']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "_b")]
    assert private_imports(tree) == [(2, "_b")]
    tree = ast.parse("s._buckets\nTensorSeries(g, 2, {})\n"
                     "t.TensorSeries(g, 2, {})\nS._settled(g, 2, {})\n"
                     "TensorSeries.zero(g, 2)\ns._den\n")
    assert bucket_access(tree) == [(1, "_buckets"), (2, "TensorSeries"),
                                   (3, "TensorSeries"), (4, "_settled"),
                                   (6, "_den")]
    tree = ast.parse("__all__ = ['f']\ndef f(): return f()\ndef g(): pass\n"
                     "def k(): pass\nclass C:\n    def m(self): pass\n"
                     "    def n(self): return self.m()\n"
                     "    def _p(self): pass\n    def __len__(self): pass\n"
                     "g()\n")
    assert unreferenced_functions(tree, name_counts(tree), {"k"}) == [
        "C.n", "f"]
    tree = ast.parse("from m import f\nm.g()\nh()\nT = ('m', 'k')\n")
    assert {"f", "g", "h", "k"} <= referenced_names(tree)
    tree = ast.parse("def f(a, b=1, c=2, *, d=3): pass\ndef g(e=0): pass\n"
                     "def h(k=0): pass\nf(1, 2)\nf(0, d=4)\nH = [h]\n")
    assert unpassed_defaults(tree, *calls_and_escapes(tree)) == [("f", "c"),
                                                                 ("g", "e")]
