"""Import hygiene of the package and the tests, checked with ast.

(a) Every imported name is used; names listed in ``__all__`` count as
    used, and package ``__init__`` files are exempt.
(b) No package module imports an underscore name from another module;
    tests may import private names from the module they test.
(c) Only tensoralg touches the storage of a tensor series: no other
    package module reads ``._buckets`` or the common denominator
    ``._den``, builds a series through the bucket constructors
    (``TensorSeries(...)`` or ``._settled``), or reads the coded words
    through a signature's code tables (``._codes``, ``._names``,
    ``._encode``, ``._decode``), so the series invariant is kept in one
    module and words leave it as tuples of names.
(d) Every public function and every public method of a package module
    is referenced outside its own definition: as a name or an attribute
    anywhere in the package, or in the bench harness (names, attributes,
    imports, or the harness's string entry-point tables), which still
    names engine entry points itself.  Tests do not count as callers,
    and neither does ``__all__``.  The rule is name-based: a method
    shares its references with every function and method of that name,
    so a ``to_json`` or ``scaled`` used on one class passes on all.
    Dunders and classes are exempt.
(e) Every defaulted parameter of a package function, or of a method of
    a package class, is passed, by position or by keyword, at some call
    site in the package or in the bench harness; as for (d), tests do
    not count.  A method binds its first parameter; ``__init__`` counts
    the calls of its class, ``cls(...)`` in the class's body included.
    The rule is name-based like (d): a method shares its call sites
    with every function and method of its name.  A function, method or
    class that escapes as a value (a table entry such as
    ``suites.SUITES``, an argument, ``__call__ = apply``) is exempt,
    since its callers cannot be seen; reading an attribute off a name
    (``LoopSum.of``) is not an escape.
(f) Every attribute a package class stores on ``self`` is read in the
    package or in the bench harness outside dunder methods, so a field
    that only ``__repr__`` or ``__eq__`` shows is caught.  The rule is
    name-based like (d): a read of that attribute name on any object
    counts.  A name read only through ``getattr``, as ``TermSum`` reads
    the ``__slots__`` fields two sums share, does not.
(g) Only surface and goldman touch the code of a loop class: no other
    package module reads ``.key``, builds a class through ``.of_key`` or
    names ``word_key`` or ``key_letters`` (the one word code and its
    decoding), so loop classes leave those two modules as words.
(h) The package's import graph is the table IMPORTS: each module imports
    from the package exactly the modules listed for it, an import inside
    a function listed as (function, module), and the imports at module
    level form no cycle.  A new edge, a new module or a dropped edge
    needs an edit of the table.
"""

import ast
import collections
import functools
import graphlib
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "goldman_forge")
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")


def _sources(folder):
    return sorted(os.path.join(folder, name) for name in os.listdir(folder)
                  if name.endswith(".py") and name != "__init__.py")


SOURCES = _sources(PACKAGE) + _sources(TESTS)

# the package modules each package module imports; ("f", "m") is an
# import of m inside function f
IMPORTS = {
    "surface": set(),
    "tensoralg": set(),
    # goldman builds on magnus; one magnus helper calls back into it
    "magnus": {"surface", "tensoralg", ("transported_bracket", "goldman")},
    "barcx": {"surface", "tensoralg"},
    "goldman": {"magnus", "surface", "tensoralg"},
    "suites": {"barcx", "goldman", "magnus", "surface", "tensoralg"},
    "cli": {"barcx", "goldman", "magnus", "suites", "surface"},
}


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


_BUCKET_NAMES = {"_buckets", "_den", "_settled", "_codes", "_names",
                 "_encode", "_decode"}


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


_KEY_NAMES = {"key", "of_key", "word_key", "key_letters"}


def key_access(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _KEY_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in _KEY_NAMES - {"key"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _KEY_NAMES]
    return sorted(found)


def package_imports(tree):
    """The package modules a module imports by relative import: a name
    for an import at module level, (function, name) for one inside the
    innermost function around it."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = ([child.module.split(".")[0]] if child.module
                         else [alias.name for alias in child.names])
                found.update(name if function is None else (function, name)
                             for name in names)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


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
    """(called name, parameter, position) for every defaulted parameter
    of a module-level function or of a method of a module-level class;
    the called name of an __init__ is its class's, a method's positions
    skip its bound first parameter, and position is None for
    keyword-only parameters."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found += _defaults(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = node.name if item.name == "__init__" else item.name
                    found += _defaults(name, item, 1)
    return found


def _defaults(name, node, bound):
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(name, arg.arg, i - bound)
             for i, arg in enumerate(positional) if i >= first]
            + [(name, arg.arg, None)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def calls_and_escapes(tree):
    """Calls by function name, each as (positional count, keywords) with
    None for an unpacked *args or **kwargs, and the names used as
    values anywhere but in a call's function position or as the object
    of an attribute.  A call of cls inside a class counts as a call of
    that class."""
    classes = {id(call.func): node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name) and call.func.id == "cls"}
    calls, called, escaped = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            called.add(id(node.value))
        if isinstance(node, ast.Call):
            func = node.func
            name = (classes.get(id(func), func.id)
                    if isinstance(func, ast.Name)
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


def merged_calls_and_escapes(trees):
    """calls_and_escapes of several trees, merged."""
    calls, escaped = {}, set()
    for tree in trees:
        path_calls, path_escaped = calls_and_escapes(tree)
        for name, sites in path_calls.items():
            calls.setdefault(name, []).extend(sites)
        escaped |= path_escaped
    return calls, escaped


def stored_attributes(tree):
    """(class, attribute) for each attribute a module-level class
    stores on self in one of its methods."""
    return sorted({(node.name, sub.attr)
                   for node in tree.body if isinstance(node, ast.ClassDef)
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Store)
                   and isinstance(sub.value, ast.Name)
                   and sub.value.id == "self"})


def attribute_reads(tree):
    """Attribute names loaded outside dunder methods."""
    hidden = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("__") and node.name.endswith("__")
              for sub in ast.walk(node)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in hidden}


@functools.lru_cache(maxsize=None)
def _package_and_bench_calls():
    return merged_calls_and_escapes(
        _tree(path) for path in _sources(PACKAGE) + _sources(PERFBENCH))


@functools.lru_cache(maxsize=None)
def _references(path):
    return referenced_names(_tree(path))


@functools.lru_cache(maxsize=None)
def _package_and_bench_reads():
    return set().union(*(attribute_reads(_tree(path))
                         for path in _sources(PACKAGE) + _sources(PERFBENCH)))


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


@pytest.mark.parametrize(
    "path", [p for p in _sources(PACKAGE)
             if os.path.basename(p) not in ("surface.py", "goldman.py")],
    ids=os.path.basename)
def test_loop_codes_stay_in_surface_and_goldman(path):
    assert key_access(_tree(path)) == []


@pytest.mark.parametrize("path", _sources(PACKAGE), ids=os.path.basename)
def test_exported_functions_have_outside_callers(path):
    bench = set().union(*map(_references, _sources(PERFBENCH)))
    assert unreferenced_functions(_tree(path), _package_counts(), bench) == []


@pytest.mark.parametrize("path", _sources(PACKAGE), ids=os.path.basename)
def test_defaulted_parameters_are_passed(path):
    calls, escaped = _package_and_bench_calls()
    assert unpassed_defaults(_tree(path), calls, escaped) == []


@pytest.mark.parametrize("path", _sources(PACKAGE), ids=os.path.basename)
def test_stored_attributes_are_read(path):
    reads = _package_and_bench_reads()
    assert [(cls, attr) for cls, attr in stored_attributes(_tree(path))
            if attr not in reads] == []


def test_import_graph_is_the_table():
    found = {os.path.basename(path)[:-3]: package_imports(_tree(path))
             for path in _sources(PACKAGE)}
    assert found == IMPORTS
    top = {module: {name for name in names if isinstance(name, str)}
           for module, names in IMPORTS.items()}
    graphlib.TopologicalSorter(top).prepare()  # raises CycleError on one


def test_the_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nfrom .a import _b, c\n__all__ = ['c']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "_b")]
    assert private_imports(tree) == [(2, "_b")]
    tree = ast.parse("s._buckets\nTensorSeries(g, 2, {})\n"
                     "t.TensorSeries(g, 2, {})\nS._settled(g, 2, {})\n"
                     "TensorSeries.zero(g, 2)\ns._den\n"
                     "s.sig._names['\\x00']\ng._codes\ng.sort_key(w)\n")
    assert bucket_access(tree) == [(1, "_buckets"), (2, "TensorSeries"),
                                   (3, "TensorSeries"), (4, "_settled"),
                                   (6, "_den"), (7, "_names"),
                                   (8, "_codes")]
    tree = ast.parse("from .surface import LoopClass, word_key\n"
                     "cls.key\nLoopClass.of_key(k)\nword_key(letters)\n"
                     "sorted(x, key=len)\nd.keys()\nkey = 1\n"
                     "surface.key_letters(k)\n")
    assert key_access(tree) == [(1, "word_key"), (2, "key"),
                                (3, "of_key"), (4, "word_key"),
                                (8, "key_letters")]
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
    # methods: a bound first parameter, __init__ reached through its
    # class and through cls(...), and a default only a test passes
    package = ast.parse(
        "class C:\n    def __init__(self, a, b=0): pass\n"
        "    def m(self, x, y=1): pass\n"
        "    @classmethod\n    def of(cls, k=2): return cls(k, b=k)\n"
        "    def n(self, z=3): pass\nC.of(1).m(2)\nc = C(0)\nc.n(4)\n")
    test = ast.parse("C(1).m(2, y=3)\n")
    assert unpassed_defaults(package, *merged_calls_and_escapes(
        [package])) == [("m", "y")]
    assert unpassed_defaults(package, *merged_calls_and_escapes(
        [package, test])) == []
    # a field only a dunder reads, a field read by name elsewhere, one
    # listed in __slots__ and read only through getattr, and one updated
    # in place
    tree = ast.parse(
        "class C:\n    __slots__ = ('f',)\n"
        "    def __init__(self, a):\n"
        "        self.a, self.b = a, 0\n        self.f = self.c = a\n"
        "        self.d = {}\n"
        "    def __repr__(self): return repr(self.a)\n"
        "    def put(self, k): self.d[k] = 1\n"
        "    def h(self): return [getattr(self, n) for n in self.__slots__]\n"
        "def g(x): return x.b\n")
    assert stored_attributes(tree) == [("C", "a"), ("C", "b"), ("C", "c"),
                                       ("C", "d"), ("C", "f")]
    assert {"b", "d"} <= attribute_reads(tree)
    assert not {"a", "c", "f"} & attribute_reads(tree)
    tree = ast.parse("import os\nfrom . import a, b\nfrom .c.d import e\n"
                     "from os import path\nclass K:\n    def m(self):\n"
                     "        from .f import g\n"
                     "        def h():\n            from .i import j\n")
    assert package_imports(tree) == {"a", "b", "c", ("m", "f"), ("h", "i")}
