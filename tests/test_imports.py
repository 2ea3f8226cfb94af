"""Every imported name in src/klab and tests is read somewhere in its module,
the package's exports name what exists, no module of either imports scipy,
and ``import klab`` loads numpy but not numpy.fft, which waits for the first
FFT inner sum.

A standard-library AST scan stands in for a linter.  ``klab/__init__.py`` is
exempt from the unused-import scan: its imports are the package's re-exports,
and each must be in its module's ``__all__``.
"""

import ast
import importlib
import os
import subprocess
import sys

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


MODULES = sorted(
    name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "klab"))
    if name.endswith(".py") and name != "__init__.py"
)


def parse(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"klab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_reexports_are_in_all():
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(parse("src", "klab", "__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in importlib.import_module(f"klab.{node.module}").__all__
    ]
    assert missing == []


def imported_packages(*parts) -> set[str]:
    """The top-level package of every import in a file, in any scope."""
    names = set()
    for node in ast.walk(parse(*parts)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_golden_oracle_imports_nothing_from_klab():
    assert "klab" not in imported_packages("tests", "golden_oracle.py")


def test_no_module_imports_scipy():
    # a lazy import inside a function counts too
    paths = [os.path.join(ROOT, "src", "klab", "__init__.py"), *SOURCES]
    assert [path for path in paths if "scipy" in imported_packages(path)] == []


def fresh_python(code: str) -> str:
    """stdout of ``code`` in a new interpreter that imports klab from src/ (the
    pytest process has loaded what the tests before it needed)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_import_loads_neither_scipy_nor_the_process_pool():
    out = fresh_python(
        "import sys, klab, klab.cli\n"
        "print([m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'])"
    )
    assert out == "[]\n"


def test_first_fft_inner_sum_loads_numpy_fft():
    out = fresh_python(
        "import sys, klab, klab.cli\n"
        "from klab.sequences import DyadicRange, build_sequence\n"
        "print([m for m in sorted(sys.modules) if m.startswith('numpy.fft')])\n"
        "ones = [build_sequence('ones', DyadicRange(base)) for base in (256, 4, 16)]\n"
        "klab.forms.trilinear_form(klab.forms.TrilinearSpec(*ones, theta=1, R=2))\n"
        "print('numpy.fft' in sys.modules)"
    )
    assert out == "[]\nTrue\n"
