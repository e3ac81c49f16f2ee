"""The package's export list: every exported name resolves, and every name the package binds is exported;
and the README's count of the package's source lines is current."""

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
