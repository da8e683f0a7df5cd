"""Every imported name is used: a small stand-in for a linter's unused-import rule.
The package exports exactly the names its modules declare in ``__all__``."""

import ast
import importlib
import os

import eitlsm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checked_files():
    """Package modules but the re-exporting ``__init__.py``, and the tests but
    the acceptance suite, which is kept as written."""
    for folder, skip in (("src/eitlsm", "__init__.py"), ("tests", "test_acceptance.py")):
        path = os.path.join(ROOT, folder)
        for name in sorted(os.listdir(path)):
            if name.endswith(".py") and name != skip:
                yield os.path.join(folder, name)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport numpy.linalg\nfrom json import dump, load as read\nread(os)\n"
    assert unused_imports(source) == ["line 3: dump", "line 2: numpy"]


def test_no_unused_imports():
    found = {}
    for rel in checked_files():
        with open(os.path.join(ROOT, rel)) as fh:
            names = unused_imports(fh.read())
        if names:
            found[rel] = names
    assert not found, f"imported but never used: {found}"


def test_package_exports_every_module_all():
    declared = []
    for name in sorted(os.listdir(os.path.join(ROOT, "src/eitlsm"))):
        if name.endswith(".py") and name not in ("__init__.py", "__main__.py"):
            module = importlib.import_module(f"eitlsm.{name[:-3]}")
            declared += getattr(module, "__all__", ())
    # no submodule object rides along, and no declared name is lost
    assert sorted(eitlsm.__all__) == sorted(declared)
