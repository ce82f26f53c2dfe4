"""Every module of the package uses each name it imports.

No linter runs on this code, so this test does the one check a deletion most
often leaves undone: an import that nothing reads any more.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowsieve"


def unused_imports(source: str) -> list[str]:
    """The names a module's source imports but never reads. A name listed
    in the module's `__all__` counts as read: the module re-exports it."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_what_nothing_reads():
    source = ("import os\nimport os.path as osp\nimport numpy as np\n"
              "from json import dump, load\nfrom . import a, b\n__all__ = ['b']\n"
              "def f():\n    import sys\n    return np.zeros(load(sys.stdin))\n")
    assert unused_imports(source) == ["a", "dump", "os", "osp"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
