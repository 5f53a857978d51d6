"""Every double-backticked ``module.name`` reference in the package's sources
names an attribute that exists. A module is one of the package's modules,
named as itself or by an alias it is imported under (``df``, ``tw``, ...)."""

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prefdiff"
SOURCES = sorted(PACKAGE.glob("*.py"))
REFERENCE = re.compile(r"``([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)")


def module_aliases(sources):
    """Each name under which a package module is known, mapped to the module:
    its own name and each alias of a ``from . import`` in ``sources``."""
    aliases = {path.stem: path.stem for path in sources if path.stem != "__init__"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                aliases.update({alias.asname or alias.name: alias.name for alias in node.names})
    return aliases


def references(text, aliases):
    """The (module, dotted name) of each ``module.name`` reference in ``text``."""
    return [(aliases[head], name.rstrip("."))
            for head, name in REFERENCE.findall(text) if head in aliases]


def unresolved(refs):
    """The references of ``refs`` that name no attribute of their module."""
    missing = []
    for module, name in refs:
        obj = importlib.import_module(f"prefdiff.{module}")
        for part in name.split("."):
            if not hasattr(obj, part):
                missing.append(f"{module}.{name}")
                break
            obj = getattr(obj, part)
    return missing


ALIASES = module_aliases(SOURCES)


def test_finder_resolves_aliases_and_flags_only_the_missing_name():
    text = "``df.q_sample`` and ``np.zeros``, ``net.NetConfig.input_dim`` and ``df._settle``."
    refs = references(text, {"df": "diffusion", "net": "net"})
    assert refs == [("diffusion", "q_sample"), ("net", "NetConfig.input_dim"),
                    ("diffusion", "_settle")]
    assert unresolved(refs) == ["diffusion.q_sample"]


def test_the_package_imports_its_modules_under_their_aliases():
    assert {ALIASES[a] for a in ("df", "tw", "ad")} == {"diffusion", "toyworld", "autodiff"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_reference_resolves(path):
    assert unresolved(references(path.read_text(), ALIASES)) == []
