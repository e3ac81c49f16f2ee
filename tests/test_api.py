"""The package's public surface: the root binds only its version and backend flag, a public top-level name of
a module that no module of the package uses is listed with its reason; so is a public attribute of a public class
that no module of the package reads, and a keyword default of a public function that no call in the package
passes; every exception class the package defines is raised in it; and the README's count of the package's source
lines is current."""

import ast
import builtins
import re
from pathlib import Path

import mosaicdensity

PACKAGE = Path(mosaicdensity.__file__).parent

#: The names the package root binds, and why each is there; every other name is imported from its module.
ROOT_NAMES = {
    "NUMBA_ENABLED": "perfbench/worker.py reports it; it leaves with the benchmark change of ROADMAP item 18",
    "__version__": "the package version, which perfbench/worker.py reports",
}


def _defined_names(tree):
    """The names a module defines at its top level: its functions, classes and assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_root_binds_only_its_listed_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert sorted(imported + _defined_names(tree)) == sorted(ROOT_NAMES)
    assert not hasattr(mosaicdensity, "__all__")


def _modules():
    """module stem -> parsed source, for every module of the package but its root."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _public_names(tree):
    """The top-level functions, classes and assigned constants of a module whose names have no leading
    underscore."""
    return {name for name in _defined_names(tree) if not name.startswith("_")}


#: Public top-level names, as module.name, that no module of the package references, and why each stays.
UNREFERENCED_NAMES = {
    "_kernels.segment_ball_clip": "perfbench's kernel case runs it; it leaves with ROADMAP item 18",
    **{f"cli.cmd_{command}": "main runs it through globals()[f'cmd_{...}'], which sees the tracer's swapped "
                             "module attributes" for command in ("decomp", "fig2", "table1", "tile", "verify", "wm")},
    "decomposable.monotonicity_certificates": "acceptance test 11 and perfbench run it; ROADMAP item 16 gives it "
                                              "a command",
    "tiling.skeleton_density": "acceptance test 09 and perfbench's bodies workload run it",
    "zonotope.to_json": "writes the documents that tile --shape file: reads",
    "zonotope.volume_polynomial": "perfbench's bodies workload and acceptance test 01 call it",
}


def _own_loads(node, own, local=frozenset()):
    """The names of ``own`` that ``node`` loads where no enclosing function binds them: a function's
    parameters and assigned names are local throughout its body, as in Python's scoping."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p is not None]
        stores = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local = local | stores | {p.arg for p in params}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own and node.id not in local:
        return {node.id}
    return set().union(*(_own_loads(child, own, local) for child in ast.iter_child_nodes(node)))


def _referenced_names(modules):
    """module.name of every name the package's modules use: a name imported from a sibling module, an
    attribute read on a sibling module, and a name that its own module defines at the top level, loaded
    where no function binds it.  A local variable or attribute that shares a public name's spelling is none
    of these."""
    names = set()
    for stem, tree in modules.items():
        siblings = {}  # local name -> module stem, for ``from . import module``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                siblings.update({alias.asname or alias.name: alias.name for alias in node.names})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                names |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
                names.add(f"{siblings[node.value.id]}.{node.attr}")
        names |= {f"{stem}.{name}" for name in _own_loads(tree, _public_names(tree))}
    return names


def test_unreferenced_names_are_listed_with_a_reason():
    # both ways: a name that loses its last use must be listed, and a listed name that gains one must leave the list
    modules = _modules()
    public = {f"{stem}.{name}" for stem, tree in modules.items() for name in _public_names(tree)}
    assert sorted(public - _referenced_names(modules)) == sorted(UNREFERENCED_NAMES)


_REPORT = "acceptance test 11 and perfbench's certify workload read it; ROADMAP items 9 and 16 give it a command"

#: Public attributes, as module.Class.name, that no module of the package loads outside the class's own body, and
#: why each stays.
UNREAD_ATTRIBUTES = {
    **{f"decomposable.CertificateReport.{name}": _REPORT for name in (
        "grid_points", "root_decreasing_margin", "edge_weighted_increasing_margin", "product_increasing_margin",
        "root_convexity_margin", "g2_min", "g2_fd_residual", "failures", "passed")},
    "tiling.TilingReport.covering_samples": "perfbench's tracer counts it; it leaves with ROADMAP item 18",
    "tiling.Lattice.points_in_ball": "the tests' reference; perfbench traces it; it leaves with ROADMAP item 18",
}


def _class_attributes(cls):
    """The names of a class's annotated fields, methods and properties that have no leading underscore."""
    names = [item.name for item in cls.body if isinstance(item, ast.FunctionDef)]
    names += [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]
    return [name for name in names if not name.startswith("_")]


def _attribute_loads(node):
    """The attribute names that a node loads, on any object."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_unread_attributes_are_listed_with_a_reason():
    # read: some module loads an attribute of that spelling, on any object, outside the class's own body; both ways,
    # as for the top-level names
    modules = _modules()
    statements = [(node, _attribute_loads(node)) for tree in modules.values() for node in tree.body]
    unread = []
    for stem, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                read = set().union(*(loads for node, loads in statements if node is not cls))
                unread += [f"{stem}.{cls.name}.{name}" for name in _class_attributes(cls) if name not in read]
    assert sorted(unread) == sorted(UNREAD_ATTRIBUTES)


#: Keyword defaults, as module.function.parameter, of the package's public functions that no call in its modules
#: passes, and why each stays.
UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console script and python -m mosaicdensity.cli run on sys.argv; tests and perfbench pass argv",
    "decomposable.monotonicity_certificates.grid_points": "perfbench's certify workload sets it",
    "tiling.validate_tiling.samples": "perfbench's bodies workload sets it; it leaves with ROADMAP item 18",
    "zonotope.cube.edge": "unit_shape('cube') takes it; optimal_shape_zonotope passes it by name from a shape dict",
}


def _keyword_defaults():
    """module.function.parameter of each parameter with a default of a top-level function of the package's
    modules whose name has no leading underscore, with that function's positional parameter names."""
    out = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                named = positional[len(positional) - len(a.defaults):]
                named += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.update({f"{path.stem}.{node.name}.{p}": positional for p in named})
    return out


def _passed_parameters():
    """function name -> the parameter names and the count of positional arguments of every call that the
    package's modules make by that name, bare or as an attribute; a call with * or ** passes everything."""
    passed = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                spread = any(isinstance(x, ast.Starred) for x in node.args) or any(k.arg is None for k in node.keywords)
                passed.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, spread))
    return passed


def test_keyword_defaults_are_passed_or_listed():
    # a default that no command varies is a constant: make it one, or list why it stays settable; both ways
    passed = _passed_parameters()
    unpassed = []
    for key, positional in _keyword_defaults().items():
        _, function, param = key.split(".")
        if not any(spread or param in names or param in positional[:count]
                   for count, names, spread in passed.get(function, [])):
            unpassed.append(key)
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


def _bare_name(node):
    """The name that a Name or an Attribute ends in, as ``Overlap`` in ``tiling.Overlap``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_exception_class_is_raised():
    # a class whose check is gone leaves with it: raised by name, with or without arguments, in some module
    modules = _modules()
    bases = {cls.name: [_bare_name(b) for b in cls.bases]
             for tree in modules.values() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}

    def is_exception(name):
        if name in bases:
            return any(is_exception(base) for base in bases[name])
        builtin = getattr(builtins, str(name), None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    raised = {_bare_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc}
    defined = {name for name in bases if is_exception(name)}
    assert {"GeometryError", "Overlap", "TooManyLines", "_OptionError"} <= defined
    assert sorted(defined - raised) == []


def test_readme_states_the_source_line_count():
    root = Path(__file__).resolve().parents[1]
    stated = re.findall(r"`src/mosaicdensity/\*\.py` has (\d+) lines", (root / "README.md").read_text(encoding="utf-8"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in root.glob("src/mosaicdensity/*.py"))
    assert stated == [str(lines)]
