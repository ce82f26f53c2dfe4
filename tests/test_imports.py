"""Every module of the package uses each name it imports, and reads each
private name it defines; each public name it defines is read by the package
or the bench, not only by tests. The modules that import each other's
packages import in any order.

No linter runs on this code, so these tests do the three checks a deletion
most often leaves undone: an import that nothing reads any more, a private
helper that nothing calls any more, and a public function, class or constant
that nothing but its tests reads any more. The package declares Python
3.10, so every source file must parse under its grammar too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import flow_csv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowsieve"
each_module = pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                                      ids=lambda p: p.relative_to(PACKAGE).as_posix())


def parses_under_3_10(source: str) -> bool:
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


def test_the_3_10_grammar_check_refuses_later_syntax():
    assert parses_under_3_10("def f(x: int | None):\n    match x:\n        case _:\n"
                             "            return f'{x!r:>{4}}'\n")
    for later in ("try:\n    pass\nexcept* ValueError:\n    pass\n",  # 3.11
                  "type X = int\n", "def f[T](x):\n    pass\n",  # 3.12
                  "f\"{f\"{1}\"}\"\n"):  # 3.12: an f-string nested in its own quotes
        assert not parses_under_3_10(later), later


def test_every_source_file_parses_under_the_3_10_grammar():
    """requires-python is >=3.10: a construct of a later grammar would fail
    to import there. This checks the grammar only, not that the standard
    library or NumPy of 3.10 has each name a file uses."""
    sources = [p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(sources) > 20
    assert [p.relative_to(ROOT).as_posix() for p in sources
            if not parses_under_3_10(p.read_text(encoding="utf-8"))] == []


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


@each_module
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level: functions, classes and
    assignment targets."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    return defined


def unread_private_names(source: str) -> list[str]:
    """The module-level private names (`_name`: a function, a class or an
    assignment target) that the module's source never reads. Dunder names
    such as `__all__` are not private."""
    tree = ast.parse(source)
    defined = module_level_names(tree)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.endswith("__"))


def test_unread_private_names_finds_what_nothing_reads():
    source = ("__all__ = ['f']\n_USED = 1\n_UNUSED, _ALSO = 2, 3\n_typed: int = 4\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    _local = 5\n    return _local\n"
              "class _Gone:\n    pass\n"
              "def f():\n    return _helper()\n")
    assert unread_private_names(source) == ["_ALSO", "_Gone", "_UNUSED", "_dead", "_typed"]


@each_module
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def read_names(source: str) -> set[str]:
    """The names a source reads: as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """The "module.name" of each module-level public name (a function, a class
    or an assignment target not led by "_") of the `package` sources, by
    module, that none of the `readers` sources reads."""
    read = set().union(*map(read_names, readers))
    return sorted(f"{module}.{name}" for module, source in package.items()
                  for name in module_level_names(ast.parse(source))
                  if not name.startswith("_") and name not in read)


def test_unread_public_names_finds_what_nothing_reads():
    package = {"a": "X = 1\n_P = 2\n__version__ = '1'\nclass Record:\n    pass\n"
                    "def used():\n    return X\ndef dead():\n    pass\n",
               "b": "import a\nY, Z = a.used(), 3\n"}
    readers = list(package.values()) + ["from a import dead\nprint(Y)\n"]
    assert unread_public_names(package, readers) == ["a.Record", "a.dead", "b.Z"]


def test_package_reads_every_public_name_it_defines():
    # tests do not count as readers: a name only they read is code that
    # nothing in the workflow runs
    package = {p.relative_to(PACKAGE).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.rglob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for top in ("src", "bench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    assert unread_public_names(package, readers) == []


# evaluation imports the classify package, whose logistic module imports
# evaluation back for the F1 of its threshold sweep
CYCLE = ("flowsieve.evaluation", "flowsieve.classify", "flowsieve.classify.logistic",
         "flowsieve.pipeline")


@pytest.mark.parametrize("first", CYCLE)
def test_each_module_of_the_import_cycle_imports_first(first):
    # a fresh interpreter imports `first`, then the rest
    order = [first] + [name for name in CYCLE if name != first]
    code = ("import importlib, sys\n"
            f"for name in {order!r}:\n"
            "    importlib.import_module(name)\n"
            "from flowsieve.classify import logistic\n"
            "assert logistic.evaluation is sys.modules['flowsieve.evaluation']\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_run_on_one_cpu_does_not_import_numpy_ma(tmp_path):
    # np.unique without a return_* flag imports numpy.ma (10-16 ms) under
    # NumPy 2.x. Pinned to one CPU, a fresh interpreter runs every relief
    # batch and train-eval cell itself, so its modules are all a run imports
    csv = flow_csv(tmp_path / "flows.csv", 400)
    config = {"inputs": [str(csv)], "label_column": "Label", "benign_label": "Benign",
              "attacks": ["Attack"], "excluded_columns": ["Timestamp"], "relief_m": 50,
              "output_dir": str(tmp_path / "out"),
              "sampling": {"schemes": {"Attack": "fraction_stratified"}}}
    code = ("import json, os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from flowsieve.config import parse_config\n"
            "from flowsieve.pipeline import cmd_run\n"
            f"cmd_run(parse_config(json.loads({json.dumps(config)!r})))\n"
            "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    at_import, after_run = proc.stdout.split()
    if at_import == "True":
        pytest.skip("this NumPy imports numpy.ma with numpy")
    assert after_run == "False"
