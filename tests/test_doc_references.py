"""Every double-backticked ``module.name`` reference in the package's sources,
and every single-backticked `module.name` in the README, names an attribute
that exists. In the sources a module is one of the package's modules, named
as itself or by an alias it is imported under (``df``, ``tw``, ...); in the
README it is the package (`prefdiff.name`) or one of its modules by name.
A span whose head is no module, such as a file name, is not a reference."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prefdiff"
SOURCES = sorted(PACKAGE.glob("*.py"))
NAME = r"([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)"
REFERENCE = re.compile("``" + NAME)
# a single-backticked span, outside fenced code blocks
SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)


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


def readme_references(text, modules):
    """The (module, dotted name) of each single-backticked `module.name` in
    ``text`` whose head is the package or one of ``modules``."""
    refs = []
    for span in SPAN.findall(FENCE.sub("", text)):
        match = re.match(NAME, span)
        if match and (match[1] == PACKAGE.name or match[1] in modules):
            refs.append((match[1], match[2].rstrip(".")))
    return refs


def unresolved(refs):
    """The references of ``refs`` that name no attribute of their module,
    the package itself for its own name."""
    missing = []
    for module, name in refs:
        obj = importlib.import_module(
            PACKAGE.name if module == PACKAGE.name else f"{PACKAGE.name}.{module}")
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


def test_readme_finder_skips_file_names_and_code_blocks():
    text = ("`prefdiff.batch_loss`, `losses.q_sample(x)`, `report.json`, ``net.x``\n"
            "```sh\npython -m prefdiff.cli `prefdiff.gone`\n```\n`prefdiff.gone`")
    refs = readme_references(text, {"losses", "net"})
    assert refs == [("prefdiff", "batch_loss"), ("losses", "q_sample"), ("prefdiff", "gone")]
    assert unresolved(refs) == ["losses.q_sample", "prefdiff.gone"]


def test_every_readme_reference_resolves():
    modules = {path.stem for path in SOURCES if path.stem != "__init__"}
    refs = readme_references((ROOT / "README.md").read_text(), modules)
    assert refs and unresolved(refs) == []
