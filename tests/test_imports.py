"""Every imported name in src/klab and tests is read somewhere in its module.

A standard-library AST scan stands in for a linter.  ``klab/__init__.py`` is
exempt: its imports are the package's re-exports.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    os.path.join(folder, name)
    for folder in (os.path.join(ROOT, "src", "klab"), os.path.join(ROOT, "tests"))
    for name in os.listdir(folder)
    if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_flags_unused_and_keeps_used():
    src = "import os\nimport json, math as m\nfrom a.b import c, d\nprint(json.dumps(d), m.pi)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
