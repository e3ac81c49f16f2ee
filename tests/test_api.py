"""The package's export list: every exported name resolves, every name the package binds is exported, and an
exported name that no module of the package uses is listed with its reason; a keyword default of a public
function that no call in the package passes is listed with its reason; and the README's count of the package's
source lines is current."""

import ast
import re
from pathlib import Path

import mosaicdensity


def _bound_names():
    """Names that ``__init__.py`` imports or assigns at module level, ``__all__`` aside."""
    tree = ast.parse(Path(mosaicdensity.__file__).read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name) and t.id != "__all__"]
    return names


#: Exported names that no module of the package references, and why each stays.
UNREFERENCED_EXPORTS = {
    "NUMBA_ENABLED": "perfbench/worker.py reports it; it leaves with the benchmark change of ROADMAP item 18",
    "__version__": "the package version",
    "center": "ROADMAP item 11 gives it a caller: the type-4 minimizer",
    "monotonicity_certificates": "acceptance test 11 and perfbench run it; ROADMAP item 16 gives it a command",
    "skeleton_density": "acceptance test 09 and perfbench's bodies workload run it",
    "stationary_betas_type4": "ROADMAP item 11 gives it a caller: the type-4 minimizer",
    "to_json": "writes the documents that tile --shape file: reads",
    "volume_polynomial": "perfbench's bodies workload and acceptance test 01 call it",
}


def _referenced_names():
    """Names the package's modules, ``__init__.py`` aside, use: a name imported from a module, an attribute read
    on an imported name, and a loaded name that its own module defines at the top level.  A local variable that
    shares an export's spelling is none of these."""
    names = set()
    for path in Path(mosaicdensity.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        own |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
                if isinstance(t, ast.Name)}
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
                names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
                names.add(node.id)
    return names


def test_unreferenced_exports_are_listed_with_a_reason():
    # both ways: a name that loses its last use must be listed, and a listed name that gains one must leave the list
    unreferenced = set(mosaicdensity.__all__) - _referenced_names()
    assert sorted(unreferenced) == sorted(UNREFERENCED_EXPORTS)


#: Keyword defaults, as module.function.parameter, of the package's public functions that no call in its modules
#: passes, and why each stays.
UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console script and python -m mosaicdensity.cli run on sys.argv; tests and perfbench pass argv",
    "decomposable.monotonicity_certificates.grid_points": "perfbench's certify workload sets it",
    "tiling.validate_tiling.samples": "perfbench's bodies workload sets it; it leaves with ROADMAP item 18",
    "zonotope.cube.edge": "unit_shape('cube') takes it; optimal_shape_zonotope passes it by name from a shape dict",
    "zonotope.to_json.beta": "a document of a parametrized body may record its six coefficients",
}


def _keyword_defaults():
    """module.function.parameter of each parameter with a default of a top-level function of the package's
    modules whose name has no leading underscore, with that function's positional parameter names."""
    out = {}
    for path in Path(mosaicdensity.__file__).parent.glob("*.py"):
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
    for path in Path(mosaicdensity.__file__).parent.glob("*.py"):
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


def test_every_export_resolves():
    assert len(set(mosaicdensity.__all__)) == len(mosaicdensity.__all__)
    missing = [name for name in mosaicdensity.__all__ if not hasattr(mosaicdensity, name)]
    assert missing == []
    namespace = {}
    exec("from mosaicdensity import *", namespace)
    assert set(mosaicdensity.__all__) <= set(namespace)


def test_every_bound_name_is_exported():
    bound = _bound_names()
    assert len(set(bound)) == len(bound)
    assert sorted(bound) == sorted(mosaicdensity.__all__)


def test_readme_states_the_source_line_count():
    root = Path(__file__).resolve().parents[1]
    stated = re.findall(r"`src/mosaicdensity/\*\.py` has (\d+) lines", (root / "README.md").read_text(encoding="utf-8"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in root.glob("src/mosaicdensity/*.py"))
    assert stated == [str(lines)]
