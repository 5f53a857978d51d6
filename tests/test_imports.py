"""The package's imports: every module-level import is used by its module,
every third-party import is a declared run-time dependency, and importing
the package does not load scipy, which only the tests need."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prefdiff"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finder_flags_only_the_unused_name():
    source = "import os\nimport numpy as np\nfrom . import net\n\nnp.zeros(net.N)\n"
    assert unused_imports(source) == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def third_party_imports(source):
    """Top-level names of the absolute imports, anywhere in ``source``, that
    are neither standard library nor the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"prefdiff"}


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
            for dep in deps}


def test_finder_keeps_only_third_party_names():
    source = ("import os.path\nimport numpy as np\nfrom scipy import ndimage\n"
              "from . import net\nfrom prefdiff import cli\n\n"
              "def f():\n    import json, yaml\n")
    assert third_party_imports(source) == {"numpy", "scipy", "yaml"}


def test_every_third_party_import_is_a_declared_dependency():
    used = set().union(*(third_party_imports(p.read_text())
                         for p in sorted(PACKAGE.glob("*.py"))))
    assert used <= declared_dependencies()


def test_importing_the_package_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, prefdiff, prefdiff.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
